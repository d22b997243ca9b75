"""``repro daemon / submit / status / cancel`` — the daemon verbs.

``repro daemon`` stands up the persistent consolidation daemon over a
*spool directory*: profiling runs once (deterministically, from the
seed), then the day's epochs execute through the lease-fenced worker
pool, committing the durable event log and checkpoint into the spool.
Killing the daemon and rerunning the same command resumes from the
last committed boundary and finishes a day byte-identical to an
uninterrupted one — regardless of ``--workers`` and of any injected
``worker``/``lease`` faults.

The other three verbs are the queue API and need no running daemon:
``repro submit`` spools a job (picked up at the next uncommitted epoch
boundary), ``repro status`` reads lifecycle state back, and ``repro
cancel`` requests cancellation (honoured at the next boundary: a
queued job is dropped silently, a resident one departs — both logged
as ``job_cancel``).
"""

from __future__ import annotations

import argparse
from typing import Mapping

from repro.cli.serve import finish_day, profile_day, provider_setup
from repro.cluster.cluster import ClusterSpec
from repro.daemon import (
    ConsolidationDaemon,
    ExecutorPool,
    JobSpool,
    ServiceBlueprint,
    SlotManager,
)
from repro.obs import console
from repro.service import ServiceConfig
from repro.sim.runner import ClusterRunner


def _build_daemon(args: argparse.Namespace) -> ConsolidationDaemon:
    """Profile the mix and assemble the daemon (all from the seed).

    The service config, one provider and the executor pool are built
    before profiling, so a flag any of them rejects fails before any
    profiling run (and before the spool directory exists).
    """
    plan = getattr(args, "fault_plan", None)
    ambient = getattr(args, "network_noise", 0.0)
    config = ServiceConfig(
        reschedule_every=args.reschedule_every,
        migration_cost=args.migration_cost,
    )
    provider_factory, provider_nodes = provider_setup(
        args, ClusterSpec().num_nodes
    )
    # Built only for their checks: the daemon builds its own.
    if provider_factory is not None:
        provider_factory()
    ExecutorPool(
        args.workers,
        SlotManager(lease_ticks=args.lease_ticks),
        exec_ticks=args.exec_ticks,
    )
    runner_spec = (
        None if provider_nodes is None
        else ClusterSpec(num_nodes=provider_nodes)
    )
    profiling_runner = ClusterRunner(
        runner_spec, base_seed=args.seed, faults=plan, network_ambient=ambient
    )
    model, stream = profile_day(args, profiling_runner)
    # Workloads the profiling phase degraded predict conservatively in
    # every execution, exactly as the flat service's shared runner
    # would (the initial checkpoint carries the set forward).
    degraded = tuple(sorted(profiling_runner.faulted_workloads))

    def runner_factory():
        runner = ClusterRunner(
            runner_spec, base_seed=args.seed, faults=plan,
            network_ambient=ambient,
        )
        runner.faulted_workloads.update(degraded)
        return runner

    blueprint = ServiceBlueprint(
        runner_factory,
        model,
        config=config,
        seed=args.seed,
        provider_factory=provider_factory,
    )
    return ConsolidationDaemon(
        args.spool,
        blueprint,
        stream,
        workers=args.workers,
        faults=plan,
        lease_ticks=args.lease_ticks,
        exec_ticks=args.exec_ticks,
    )


def _cmd_daemon(args: argparse.Namespace) -> int:
    daemon = _build_daemon(args)
    already = daemon.epochs_run
    fresh = daemon.run(args.epochs)
    if fresh:
        if already:
            console.info(
                f"resumed at epoch boundary {already}; committed "
                f"{len(fresh)} more epoch(s)"
            )
        else:
            console.info(f"committed {len(fresh)} epoch(s)")
    else:
        console.info(
            f"spool already covers all {args.epochs} epoch(s)"
        )
    stats = daemon.stats
    console.info(
        "daemon stats: "
        f"{stats['claims']} claim(s), {stats['commits']} commit(s), "
        f"{stats['reaps']} reap(s), {stats['requeues']} requeue(s), "
        f"{stats['worker_crashes']} worker crash(es), "
        f"{stats['stale_commits']} fenced stale commit(s)"
    )

    return finish_day(
        args, daemon.log, daemon.snapshots,
        durable_log=daemon.spool.events_path,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    record = JobSpool(args.spool).submit(
        args.workload,
        num_units=args.units,
        duration_epochs=args.duration,
        qos_target=args.qos_target,
        weight=args.weight,
        job_id=args.job_id,
    )
    console.emit(
        f"submitted {record.job_id}: {record.workload} "
        f"x{record.num_units} for {record.duration_epochs} epoch(s) "
        f"(status: {record.status})"
    )
    return 0


def _render_record(record) -> str:
    qos = (
        f"qos<={record.qos_target}" if record.qos_target is not None
        else "best-effort"
    )
    arrived = (
        f"arrived e{record.arrival_epoch}"
        if record.arrival_epoch is not None
        else "not yet arrived"
    )
    cancel = ", cancel requested" if record.cancel_requested else ""
    return (
        f"{record.job_id}: {record.status} — {record.workload} "
        f"x{record.num_units}, {record.duration_epochs} epoch(s), "
        f"{qos}, {arrived}{cancel}"
    )


def _cmd_status(args: argparse.Namespace) -> int:
    spool = JobSpool(args.spool)
    if args.job_id:
        console.emit(_render_record(spool.status(args.job_id)))
        return 0
    records = spool.jobs()
    if not records:
        console.emit("(no spooled jobs)")
        return 0
    for record in records:
        console.emit(_render_record(record))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    record = JobSpool(args.spool).request_cancel(args.job_id)
    console.emit(
        f"cancellation of {record.job_id} requested (current status: "
        f"{record.status}); it takes effect at the next epoch boundary"
    )
    return 0


def register(
    subparsers: argparse._SubParsersAction,
    parents: Mapping[str, argparse.ArgumentParser],
) -> None:
    """Attach the ``daemon``, ``submit``, ``status``, ``cancel`` verbs."""
    p_daemon = subparsers.add_parser(
        "daemon",
        help=(
            "run the persistent consolidation daemon over a spool "
            "directory (durable queue, leased executor pool, "
            "crash-safe resume)"
        ),
        parents=[
            parents["trace"], parents["faults"], parents["seed"],
            parents["network"], parents["provider"], parents["day"],
        ],
    )
    p_daemon.add_argument(
        "--spool", required=True, metavar="DIR",
        help="spool directory (queue, event log, checkpoint, lock)",
    )
    p_daemon.add_argument(
        "--workers", type=int, default=2,
        help="executor pool size (committed bytes are worker-count-independent)",
    )
    p_daemon.add_argument(
        "--lease-ticks", type=int, default=4,
        help="logical ticks a lease lives without renewal",
    )
    p_daemon.add_argument(
        "--exec-ticks", type=int, default=2,
        help="logical ticks a healthy epoch execution takes",
    )
    p_daemon.set_defaults(fn=_cmd_daemon)

    p_submit = subparsers.add_parser(
        "submit",
        help="spool a job for the daemon's next epoch boundary",
        parents=[parents["trace"], parents["faults"]],
    )
    p_submit.add_argument("--spool", required=True, metavar="DIR")
    p_submit.add_argument("workload", help="catalog abbreviation (e.g. M.lmps)")
    p_submit.add_argument("--units", type=int, default=4)
    p_submit.add_argument("--duration", type=int, default=1,
                          help="tenancy length in epochs")
    p_submit.add_argument("--qos-target", type=float, default=None,
                          help="largest admissible normalized time")
    p_submit.add_argument("--weight", type=float, default=1.0)
    p_submit.add_argument("--job-id", default=None,
                          help="explicit job id (default: sub-NNNNNN)")
    p_submit.set_defaults(fn=_cmd_submit)

    p_status = subparsers.add_parser(
        "status",
        help="show spooled job lifecycle state (one job, or all)",
        parents=[parents["trace"], parents["faults"]],
    )
    p_status.add_argument("--spool", required=True, metavar="DIR")
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.set_defaults(fn=_cmd_status)

    p_cancel = subparsers.add_parser(
        "cancel",
        help="request job cancellation at the next epoch boundary",
        parents=[parents["trace"], parents["faults"]],
    )
    p_cancel.add_argument("--spool", required=True, metavar="DIR")
    p_cancel.add_argument("job_id")
    p_cancel.set_defaults(fn=_cmd_cancel)
