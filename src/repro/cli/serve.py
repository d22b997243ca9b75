"""``repro serve`` — the online consolidation service over a traffic day.

Crash safety: with ``--checkpoint`` the service writes an atomic
:class:`~repro.service.checkpoint.ServiceCheckpoint` after every epoch,
and (when ``--event-log`` is also given) persists each event to disk
with an fsync before moving on.  A killed day is then continued with
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
from typing import Mapping

from repro._util import atomic_write_text
from repro.analysis.reporting import render_event_counts, render_service_snapshot
from repro.apps.catalog import BATCH_WORKLOADS, NETWORK_WORKLOADS
from repro.cli._parents import wants_network
from repro.cluster.cluster import ClusterSpec
from repro.core.builder import (
    build_batch_profiles,
    build_model,
    build_network_profiles,
)
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

#: Default application mix a ``repro serve`` traffic day draws from.
DEFAULT_SERVE_MIX = ("M.lmps", "M.milc", "H.KM", "S.WC")


def provider_setup(args: argparse.Namespace, default_nodes: int):
    """Resolve ``--provider``/``--churn`` into ``(factory, runner_nodes)``.

    ``factory`` is a zero-argument callable building a *fresh* provider
    (``None`` when no ``--provider`` was given — the fixed pool), and
    ``runner_nodes`` is the node count the runner must be built at
    (``None`` to keep the default spec).  Shared by ``repro serve`` and
    ``repro daemon`` so the pool spells identically in both; the daemon
    hands the factory to its :class:`~repro.daemon.ServiceBlueprint`.
    """
    from repro.errors import ConfigurationError

    name = getattr(args, "provider", None)
    churn_path = getattr(args, "churn", None)
    if churn_path and name != "elastic":
        raise ConfigurationError("--churn requires --provider elastic")
    if name is None:
        return None, None
    from repro.providers import (
        AutoscalerConfig,
        ElasticProvider,
        StaticProvider,
        make_provider,
    )

    if name == "static":
        def factory():
            return StaticProvider(default_nodes)
        return factory, None
    if name == "elastic":
        from repro.faults import FaultPlan

        initial = args.initial_nodes or default_nodes
        ceiling = args.max_nodes or initial + 4
        churn = FaultPlan.load(churn_path) if churn_path else None
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
    # Any other registered backend (e.g. "ec2") builds with its own
    # defaults; the runner is sized to its ceiling.
    probe = make_provider(name)

    def factory():
        return make_provider(name)
    return factory, probe.max_nodes


def _serve_expectation(service: ConsolidationService) -> dict:
    """The deterministic outcome summary ``--expect`` compares against."""
    return {
        "counters": service.log.counts(),
        "final": service.snapshots[-1].to_dict(),
    }


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


def _build_sharded(args: argparse.Namespace, profiling_runner, model, stream):
    """Stand up the sharded (``--cells N``, N >= 2) service.

    Cells run the scale-layer config (shorter annealing schedule,
    capped admission candidates) on derived per-cell seeds.  Each
    cell's pool is :func:`provider_setup` at its shard's node count —
    the flat service's pool over the shard — and its runner is built
    at the node count that returns.
    """
    from repro.scale import build_sharded_service, scale_service_config

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
        ClusterSpec(num_nodes=args.nodes or profiling_runner.spec.num_nodes),
        args.cells,
        stream,
        seed=args.seed,
        config=scale_service_config(
            reschedule_every=args.reschedule_every,
            migration_cost=args.migration_cost,
        ),
        checkpoint_path=args.checkpoint,
        cell_workers=args.cell_workers,
        runner_factory=runner_factory,
        degraded_workloads=sorted(profiling_runner.faulted_workloads),
        provider_factory=provider_factory,
    )


def _build_service(args: argparse.Namespace):
    """Construct the (deterministic) service a serve invocation runs."""
    workloads = tuple(args.workloads or DEFAULT_SERVE_MIX)
    distributed = [w for w in workloads if w not in BATCH_WORKLOADS]
    batch = [w for w in workloads if w in BATCH_WORKLOADS]
    sharded = args.cells > 1
    provider_factory = None
    runner_spec = None
    if not sharded:
        provider_factory, provider_nodes = provider_setup(
            args, ClusterSpec().num_nodes
        )
        if provider_nodes is not None:
            runner_spec = ClusterSpec(num_nodes=provider_nodes)
    runner = ClusterRunner(
        runner_spec,
        base_seed=args.seed,
        faults=getattr(args, "fault_plan", None),
        network_ambient=getattr(args, "network_noise", 0.0),
    )
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
    stream = WorkloadStream(
        StreamConfig(
            workloads=workloads,
            arrival_rate=args.arrival_rate,
            qos_fraction=args.qos_fraction,
        ),
        seed=args.seed,
    )
    if sharded:
        return _build_sharded(args, runner, report.model, stream)
    return ConsolidationService(
        runner,
        report.model,
        stream,
        config=ServiceConfig(
            reschedule_every=args.reschedule_every,
            migration_cost=args.migration_cost,
        ),
        seed=args.seed,
        checkpoint_path=args.checkpoint,
        provider=(
            provider_factory() if provider_factory is not None else None
        ),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        console.info("error: --resume requires --checkpoint")
        return 1
    if args.cells < 1:
        console.info("error: --cells must be at least 1")
        return 1
    if args.cells == 1 and (args.nodes or args.cell_workers):
        console.info(
            "error: --nodes/--cell-workers require --cells 2 or more"
        )
        return 1
    if args.cells > 1 and (args.initial_nodes or args.max_nodes):
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
        service.run(remaining)
    else:
        console.info(
            f"checkpoint already covers all {args.epochs} epoch(s)"
        )
    service.log.detach()

    final = service.snapshots[-1]
    console.emit(render_service_snapshot(final))
    console.emit()
    console.emit(render_event_counts(service.log.counts()))
    if args.event_log:
        service.log.write(args.event_log)
        console.info(f"\nevent log written to {args.event_log}")
    actual = _serve_expectation(service)
    if args.snapshot:
        atomic_write_text(
            args.snapshot,
            json.dumps(
                {
                    "final": actual["final"],
                    "counters": actual["counters"],
                    "per_epoch": [s.to_dict() for s in service.snapshots],
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
            parents["network"], parents["provider"],
        ],
    )
    p_serve.add_argument("--epochs", type=int, default=12)
    p_serve.add_argument(
        "--workloads", nargs="+",
        help=f"catalog mix jobs draw from (default: {' '.join(DEFAULT_SERVE_MIX)})",
    )
    p_serve.add_argument("--arrival-rate", type=float, default=1.2,
                         help="mean job arrivals per epoch (Poisson)")
    p_serve.add_argument("--qos-fraction", type=float, default=0.5,
                         help="probability a job carries a QoS bound")
    p_serve.add_argument("--policy-samples", type=int, default=10)
    p_serve.add_argument("--reschedule-every", type=int, default=1)
    p_serve.add_argument("--migration-cost", type=float, default=0.02)
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
    p_serve.add_argument("--event-log", help="write the JSONL event log here")
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
    p_serve.add_argument(
        "--expect",
        help="expectation JSON to check; exits 1 on a QoS-violation regression",
    )
    p_serve.add_argument(
        "--update-expect", help="write the expectation JSON for this run"
    )
    p_serve.set_defaults(fn=_cmd_serve)
