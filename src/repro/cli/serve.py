"""``repro serve`` — the online consolidation service over a traffic day.

Crash safety: with ``--checkpoint`` the day runs one epoch at a time
and saves the service's atomic
:class:`~repro.service.checkpoint.ServiceCheckpoint` after each, and
(when ``--event-log`` is also given) persists each event to disk with
an fsync as it is appended.  A killed day is then continued with
``--resume``: the checkpoint restores the last epoch boundary, the
event log is recovered (a torn final line from the crash is dropped),
and the remaining epochs re-run — producing an event log and metrics
snapshot byte-identical to a day that was never interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import replace
from typing import Mapping, Optional

from repro._util import atomic_write_text
from repro.analysis.reporting import render_event_counts, render_service_snapshot
from repro.apps.catalog import BATCH_WORKLOADS, NETWORK_WORKLOADS
from repro.cli._parents import DEFAULT_SERVE_MIX, wants_network
from repro.cluster.cluster import ClusterSpec
from repro.core.builder import (
    build_batch_profiles,
    build_model,
    build_network_profiles,
)
from repro.errors import ConfigurationError
from repro.obs import console
from repro.service import (
    ConsolidationService,
    EventLog,
    ServiceCheckpoint,
    ServiceConfig,
    StreamConfig,
    WorkloadStream,
)
from repro.sim.runner import ClusterRunner


def provider_setup(args: argparse.Namespace, default_nodes: int):
    """Resolve ``--provider``/``--churn`` into ``(factory, runner_nodes)``.

    For ``--provider elastic``, ``factory`` is a zero-argument callable
    building a *fresh* elastic provider and ``runner_nodes`` is its
    ceiling, the node count the runner must be built at.  The static
    pool (the default) gives ``(None, None)``: the service builds its
    fixed pool over the runner's nodes itself.  Shared by ``repro
    serve`` and ``repro daemon`` so the pool spells identically in
    both; the daemon hands the factory to its
    :class:`~repro.daemon.ServiceBlueprint`.
    """
    if args.provider != "elastic":
        if args.churn:
            raise ConfigurationError("--churn requires --provider elastic")
        return None, None
    from repro.faults import FaultPlan
    from repro.providers import AutoscalerConfig, ElasticProvider

    initial = default_nodes if args.initial_nodes is None else args.initial_nodes
    ceiling = initial + 4 if args.max_nodes is None else args.max_nodes
    churn = FaultPlan.load(args.churn) if args.churn else None
    spot_fraction = args.spot_fraction

    def factory():
        return ElasticProvider(
            ceiling,
            initial_nodes=initial,
            spot_fraction=spot_fraction,
            churn=churn,
            autoscaler=AutoscalerConfig(),
        )
    return factory, ceiling


def _check_expectation(expected: dict, actual: dict) -> int:
    """Compare a served day against a checked-in expectation.

    QoS-violation regressions fail hard; any other counter drift is
    reported (it means the deterministic day changed and the
    expectation file needs a refresh) but does not fail the run.
    """
    expected_violations = expected["final"]["qos_violations_total"]
    actual_violations = actual["final"]["qos_violations_total"]
    for key in sorted(set(actual["counters"]) | set(expected["counters"])):
        want = expected["counters"].get(key, 0)
        got = actual["counters"].get(key, 0)
        if want != got:
            console.info(
                f"warning: event count {key!r} drifted: "
                f"expected {want}, got {got}"
            )
    if actual_violations > expected_violations:
        console.info(
            f"error: QoS-violation regression: expected at most "
            f"{expected_violations}, got {actual_violations}"
        )
        return 1
    console.emit(
        f"expectation check passed: {actual_violations} QoS violation(s) "
        f"(bound {expected_violations})"
    )
    return 0


def profile_day(args: argparse.Namespace, runner: ClusterRunner):
    """Profile the day's mix on ``runner``; return ``(model, stream)``.

    Shared by ``repro serve`` and ``repro daemon``, so both build the
    same model and arrival stream from the same flags.  A day shorter
    than one epoch, no policy samples, a workload name ``runner``
    cannot resolve, or a traffic shape :class:`StreamConfig` rejects,
    fails before any profiling.
    """
    if args.epochs < 1:
        raise ConfigurationError("--epochs must be at least 1")
    if args.policy_samples < 1:
        raise ConfigurationError("--policy-samples must be at least 1")
    workloads = tuple(args.workloads or DEFAULT_SERVE_MIX)
    for name in workloads:
        runner.workload(name)
    stream = WorkloadStream(
        StreamConfig(
            workloads=workloads,
            arrival_rate=args.arrival_rate,
            qos_fraction=args.qos_fraction,
        ),
        seed=args.seed,
    )
    distributed = [w for w in workloads if w not in BATCH_WORKLOADS]
    batch = [w for w in workloads if w in BATCH_WORKLOADS]
    console.info(
        f"Profiling {len(workloads)} workload(s) for the serving model..."
    )
    report = build_model(
        runner,
        distributed,
        policy_samples=args.policy_samples,
        seed=args.seed,
        span=4,
    )
    if batch:
        build_batch_profiles(runner, report.model, batch, span=4)
    if wants_network(args):
        network_capable = [w for w in workloads if w in NETWORK_WORKLOADS]
        if network_capable:
            console.info(
                f"Profiling the network domain for "
                f"{len(network_capable)} workload(s)..."
            )
            build_network_profiles(
                runner, report.model, network_capable, span=4
            )
    return report.model, stream


def finish_day(
    args: argparse.Namespace,
    log: EventLog,
    snapshots,
    *,
    durable_log: Optional[os.PathLike] = None,
) -> int:
    """Report a finished day, write its outputs and check ``--expect``.

    Prints the final snapshot and the event counts, writes
    ``--event-log`` (a copy of ``durable_log``, the daemon's spool
    log, when given), ``--snapshot`` (``serve`` only) and
    ``--update-expect``, and returns the exit code of the
    ``--expect`` check (0 without one).
    """
    final = snapshots[-1]
    console.emit(render_service_snapshot(final))
    console.emit()
    console.emit(render_event_counts(log.counts()))
    if durable_log is not None:
        console.info(f"\ndurable event log: {durable_log}")
    if args.event_log:
        log.write(args.event_log)
        console.info(
            f"\nevent log written to {args.event_log}"
            if durable_log is None
            else f"event log copied to {args.event_log}"
        )
    actual = {"counters": log.counts(), "final": final.to_dict()}
    if getattr(args, "snapshot", None):
        atomic_write_text(
            args.snapshot,
            json.dumps(
                {
                    "final": actual["final"],
                    "counters": actual["counters"],
                    "per_epoch": [s.to_dict() for s in snapshots],
                },
                sort_keys=True,
                indent=2,
            ) + "\n",
        )
        console.info(f"metrics snapshot written to {args.snapshot}")
    if args.update_expect:
        atomic_write_text(
            args.update_expect,
            json.dumps(actual, sort_keys=True, indent=2) + "\n",
        )
        console.info(f"expectation written to {args.update_expect}")
    if args.expect:
        with open(args.expect, "r", encoding="utf-8") as handle:
            expected = json.load(handle)
        return _check_expectation(expected, actual)
    return 0


def _build_sharded(
    args: argparse.Namespace, cluster, profiling_runner, model, stream, config
):
    """Stand up the sharded (``--cells N``, N >= 2) service over ``cluster``.

    Cells run ``config``, the scale-layer config (shorter annealing
    schedule, capped admission candidates), on derived per-cell seeds.
    Each cell's pool is :func:`provider_setup` at its shard's node
    count — the flat service's pool over the shard — and its runner is
    built at the node count that returns.
    """
    from repro.scale import build_sharded_service

    fault_plan = getattr(args, "fault_plan", None)

    def runner_factory(shard, cell_seed):
        _, nodes = provider_setup(args, shard.num_nodes)
        spec = shard.spec
        if nodes is not None:
            spec = replace(spec, num_nodes=nodes)
        return ClusterRunner(
            spec,
            base_seed=cell_seed,
            faults=fault_plan,
            network_ambient=getattr(args, "network_noise", 0.0),
        )

    def provider_factory(shard, cell_seed):
        factory, _ = provider_setup(args, shard.num_nodes)
        return factory() if factory is not None else None

    return build_sharded_service(
        model,
        cluster,
        args.cells,
        stream,
        seed=args.seed,
        config=config,
        cell_workers=args.cell_workers,
        runner_factory=runner_factory,
        degraded_workloads=sorted(profiling_runner.faulted_workloads),
        provider_factory=provider_factory,
    )


def _build_service(args: argparse.Namespace):
    """Construct the (deterministic) service a serve invocation runs.

    The service config, one provider and (with ``--cells``) the shard
    shape are built before profiling, so a flag any of them rejects
    fails before any profiling run.
    """
    sharded = args.cells > 1
    if sharded:
        from repro.scale import scale_service_config, shard_cluster

        config = scale_service_config(
            reschedule_every=args.reschedule_every,
            migration_cost=args.migration_cost,
        )
        nodes = ClusterSpec().num_nodes if args.nodes is None else args.nodes
        cluster = ClusterSpec(num_nodes=nodes)
        # Sharded only for its checks: build_sharded_service shards again.
        shard_cluster(cluster, args.cells, seed=args.seed)
    else:
        config = ServiceConfig(
            reschedule_every=args.reschedule_every,
            migration_cost=args.migration_cost,
        )
    provider_factory, provider_nodes = provider_setup(
        args, ClusterSpec().num_nodes
    )
    # Cells build their own providers; this one still checks the flags.
    provider = provider_factory() if provider_factory is not None else None
    runner_spec = None
    if not sharded and provider_nodes is not None:
        runner_spec = ClusterSpec(num_nodes=provider_nodes)
    runner = ClusterRunner(
        runner_spec,
        base_seed=args.seed,
        faults=getattr(args, "fault_plan", None),
        network_ambient=getattr(args, "network_noise", 0.0),
    )
    model, stream = profile_day(args, runner)
    if sharded:
        return _build_sharded(args, cluster, runner, model, stream, config)
    return ConsolidationService(
        runner,
        model,
        stream,
        config=config,
        seed=args.seed,
        provider=provider,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        console.info("error: --resume requires --checkpoint")
        return 1
    if args.cells < 1:
        console.info("error: --cells must be at least 1")
        return 1
    if args.cell_workers < 0:
        console.info("error: --cell-workers must be non-negative")
        return 1
    if args.cells == 1 and (args.nodes is not None or args.cell_workers):
        console.info(
            "error: --nodes/--cell-workers require --cells 2 or more"
        )
        return 1
    if args.cells > 1 and (args.initial_nodes, args.max_nodes) != (None, None):
        console.info(
            "error: --initial-nodes/--max-nodes apply to the flat "
            "service; cells are sized by their shard"
        )
        return 1
    service = _build_service(args)
    if args.resume:
        checkpoint = ServiceCheckpoint.load(args.checkpoint)
        log = None
        if args.event_log and os.path.exists(args.event_log):
            log = EventLog.recover(args.event_log)
        service.restore(checkpoint, log=log)
        console.info(
            f"resumed from checkpoint at epoch boundary {checkpoint.epoch}"
        )
    if args.checkpoint and args.event_log:
        # Persist every event as it is appended (fsync'd), so a crash
        # loses at most a torn final line that --resume drops.
        service.log.attach(args.event_log)
    remaining = args.epochs - service.epochs_run
    if remaining > 0:
        console.info(f"Serving {remaining} epochs...")
        for epoch in range(service.epochs_run, args.epochs):
            service.run_epoch(epoch)
            if args.checkpoint:
                # After the epoch's events (fsync'd as appended), as in
                # the daemon's commit.
                service.checkpoint().save(args.checkpoint)
    else:
        console.info(
            f"checkpoint already covers all {args.epochs} epoch(s)"
        )
    service.log.detach()

    return finish_day(args, service.log, service.snapshots)


def register(
    subparsers: argparse._SubParsersAction,
    parents: Mapping[str, argparse.ArgumentParser],
) -> None:
    """Attach the ``serve`` verb."""
    p_serve = subparsers.add_parser(
        "serve",
        help="run the online consolidation service over a seeded traffic day",
        parents=[
            parents["trace"], parents["faults"], parents["seed"],
            parents["network"], parents["provider"], parents["day"],
        ],
    )
    p_serve.add_argument(
        "--cells",
        type=int,
        default=1,
        help=(
            "shard the cluster into N cells under the headroom router "
            "and global QoS coordinator (default 1: the flat service)"
        ),
    )
    p_serve.add_argument(
        "--nodes",
        type=int,
        help="cluster size for sharded days (default: the flat testbed size)",
    )
    p_serve.add_argument(
        "--cell-workers",
        type=int,
        default=0,
        help="fan per-cell epochs out over N worker processes (0 = serial)",
    )
    p_serve.add_argument("--snapshot", help="write the metrics snapshot JSON here")
    p_serve.add_argument(
        "--checkpoint",
        metavar="PATH",
        help=(
            "write an atomic service checkpoint here after every epoch "
            "(with --event-log, events are also fsync'd as they happen)"
        ),
    )
    p_serve.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue a killed day from --checkpoint (and recover "
            "--event-log); the finished day is byte-identical to an "
            "uninterrupted run"
        ),
    )
    p_serve.set_defaults(fn=_cmd_serve)
