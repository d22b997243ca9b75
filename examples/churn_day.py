#!/usr/bin/env python3
"""An elastic day: autoscaling plus two-phase spot preemption.

Runs the seeded traffic day on a pool leased from an
`ElasticProvider` instead of the fixed `StaticProvider` pool every
service runs on by default.  Durable nodes (the low
ids) are the only home mission-critical tenants are ever admitted to;
the spot remainder is cheap but preemptible.  Mid-day the pool
resizes — the pure autoscaler grows it on queue backlog or thin
predicted QoS margin and shrinks idle spot capacity — while a seeded
fault-plan family preempts spot instances in two phases: a warning
marks the node draining (admission stops targeting it), then after
the warning window the reclaim evicts anything still resident.
Evicted batch tenants are requeued at the front of the admission
queue, never dropped.

The same day is available from the command line:

    python -m repro serve --seed 2016 --epochs 12 \
        --provider elastic --churn benchmarks/baselines/churn_plan.json

while the default `--provider static` serves the fixed-pool day.

Run:
    python examples/churn_day.py
"""

from repro import (
    AutoscalerConfig,
    ClusterRunner,
    ClusterSpec,
    ConsolidationService,
    ElasticProvider,
    FaultConfig,
    FaultPlan,
    ServiceConfig,
    StreamConfig,
    WorkloadStream,
    build_model,
)

MIX = ("M.lmps", "H.KM")
SEED = 2016
EPOCHS = 12
CEILING = 10   # the provider may grow the pool this far
INITIAL = 8    # nodes leased at epoch 0


def main() -> None:
    # The runner is built at the *ceiling*: the provider decides which
    # of its nodes are currently leased, and the service schedules only
    # on those.
    runner = ClusterRunner(ClusterSpec(num_nodes=CEILING), base_seed=SEED)
    print(f"Profiling {len(MIX)} workloads for the serving model...")
    report = build_model(runner, list(MIX), policy_samples=8, seed=SEED,
                         span=4)

    # Preempt each spot instance with 20% probability per epoch, with a
    # one-epoch warning between the reclaim notice and the reclaim
    # itself — the same two-phase protocol real spot markets use.
    churn = FaultPlan(FaultConfig(
        seed=SEED, preemption_rate=0.2, preemption_warning_epochs=1,
    ))
    provider = ElasticProvider(
        CEILING,
        initial_nodes=INITIAL,
        spot_fraction=0.5,           # half the initial lease is spot
        churn=churn,
        autoscaler=AutoscalerConfig(),
    )
    durable = set(provider.durable_nodes())
    print(f"\nInitial lease: {INITIAL} nodes, durable {sorted(durable)}, "
          f"spot {sorted(set(provider.live_nodes()) - durable)}, "
          f"ceiling {CEILING}")

    stream = WorkloadStream(
        StreamConfig(workloads=MIX, arrival_rate=1.5, qos_fraction=0.5),
        seed=SEED,
    )
    service = ConsolidationService(
        runner, report.model, stream,
        config=ServiceConfig(), seed=SEED, provider=provider,
    )
    print(f"Elastic day ({EPOCHS} epochs, churn + autoscaling on):")
    service.run(EPOCHS)

    counts = service.log.counts()
    print(f"  {counts.get('autoscale', 0)} autoscale decision(s), "
          f"{counts.get('node_join', 0)} join(s), "
          f"{counts.get('node_leave', 0)} leave(s)")
    print(f"  {counts.get('preempt_warning', 0)} preemption warning(s), "
          f"{counts.get('preempt_reclaim', 0)} reclaim(s)")
    print(f"  {service.preempted_total} resident(s) evicted by reclaims, "
          f"{service.requeued_total} requeued — zero dropped")
    print(f"  final pool: {len(provider.live_nodes())} nodes "
          f"({counts.get('admit', 0)} admissions over the day)")

    # The invariant the churn-smoke CI job pins: a mission-critical
    # tenant is never placed on a node the provider could reclaim.
    mc_jobs = set()
    for event in service.log.of_kind("arrival"):
        payload = dict(event.payload)
        if payload["qos_target"] is not None:
            mc_jobs.add(payload["job"])
    clean = all(
        set(dict(e.payload)["nodes"]) <= durable
        for e in service.log.of_kind("admit")
        if dict(e.payload)["job"] in mc_jobs
    )
    print(f"  every mission-critical admission on durable nodes: {clean}")
    violations = service.snapshots[-1].qos_violations_total
    print(f"  measured QoS violations across the churned day: {violations}")
    if not clean:
        raise SystemExit("a mission-critical tenant landed on spot!")


if __name__ == "__main__":
    main()
