"""Shared parent parsers for the ``repro`` subcommands.

Every subcommand composes its parser from these parents so that the
common flags (``--seed``, ``--output``, ``--trace``, the traffic-day
flags of ``serve`` and ``daemon``) spell, type, and document
identically everywhere.

``--trace`` defaults to :data:`argparse.SUPPRESS` in the parent: the
top-level parser owns the ``trace`` namespace slot (with a ``None``
default), and the suppressed subcommand copy only writes to it when
the flag actually appears after the verb — so both
``repro --trace out.json serve`` and ``repro serve --trace out.json``
work.
"""

from __future__ import annotations

import argparse

TRACE_HELP = (
    "record spans/metrics and write the trace here "
    "(*.jsonl for the line stream, anything else for Chrome trace JSON)"
)

FAULTS_HELP = (
    "inject deterministic faults from this FaultPlan JSON (crashes, "
    "stragglers, outliers, executor crashes, lease expiries, spot "
    "preemptions); profile, serve and daemon honour the plan, run "
    "rejects it, and the other verbs accept and ignore it"
)


def trace_parent() -> argparse.ArgumentParser:
    """Parent adding ``--trace PATH`` (suppressed default; see module doc)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help=TRACE_HELP,
    )
    return parent


def faults_parent() -> argparse.ArgumentParser:
    """Parent adding ``--faults PATH`` (suppressed default, like ``--trace``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--faults",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help=FAULTS_HELP,
    )
    return parent


NETWORK_NOISE_HELP = (
    "constant NETWORK-domain background pressure (0-8) on every node's "
    "uplink; 0 (the default) is the flat network and replays "
    "pre-network runs byte-identically"
)

DOMAINS_HELP = (
    "contention domains to profile/predict on (default: compute only, "
    "the scalar-era behaviour); add 'network' to also build per-link "
    "propagation matrices and network bubble scores for the "
    "network-capable catalog entries"
)


def network_parent() -> argparse.ArgumentParser:
    """Parent adding ``--network-noise LEVEL`` and ``--domains ...``.

    Shared by every verb that constructs a measurement runner
    (``profile``, ``serve``, ``daemon``), so the network dimension
    spells identically everywhere.  Defaults keep the flat network:
    zero ambient link pressure and the COMPUTE domain only.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--network-noise",
        type=float,
        default=0.0,
        metavar="LEVEL",
        dest="network_noise",
        help=NETWORK_NOISE_HELP,
    )
    parent.add_argument(
        "--domains",
        nargs="+",
        choices=("compute", "network"),
        default=("compute",),
        metavar="DOMAIN",
        help=DOMAINS_HELP,
    )
    return parent


def wants_network(args: argparse.Namespace) -> bool:
    """Whether a parsed namespace opted into the NETWORK domain."""
    return "network" in (getattr(args, "domains", None) or ())


PROVIDER_HELP = (
    "capacity provider backing the node pool: 'static' (the default: "
    "a fixed, fully durable pool of the cluster's nodes) or 'elastic' "
    "(durable + spot instances with queue/QoS-margin autoscaling)"
)

CHURN_HELP = (
    "FaultPlan JSON whose preemption_rate / preemption_warning_epochs "
    "drive seeded two-phase spot preemption (requires --provider "
    "elastic)"
)


def provider_parent() -> argparse.ArgumentParser:
    """Parent adding the capacity-provider flags.

    Shared by ``serve`` and ``daemon`` so the elastic pool spells
    identically everywhere.  Defaults keep the fixed pool: the static
    provider, no churn.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--provider",
        choices=("static", "elastic"),
        default="static",
        help=PROVIDER_HELP,
    )
    parent.add_argument(
        "--churn",
        metavar="PATH",
        default=None,
        help=CHURN_HELP,
    )
    parent.add_argument(
        "--spot-fraction",
        type=float,
        default=0.5,
        dest="spot_fraction",
        metavar="FRAC",
        help="fraction of the elastic pool launched as spot (default: 0.5)",
    )
    parent.add_argument(
        "--initial-nodes",
        type=int,
        default=None,
        dest="initial_nodes",
        metavar="N",
        help=(
            "elastic pool size at epoch 0 (default: the flat testbed "
            "size)"
        ),
    )
    parent.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        dest="max_nodes",
        metavar="N",
        help=(
            "elastic pool ceiling the runner is built at (default: "
            "initial nodes + 4)"
        ),
    )
    return parent


#: Default application mix a ``serve``/``daemon`` traffic day draws from.
DEFAULT_SERVE_MIX = ("M.lmps", "M.milc", "H.KM", "S.WC")


def day_parent() -> argparse.ArgumentParser:
    """Parent adding the traffic-day flags ``serve`` and ``daemon`` share.

    The day's length, job mix and arrival process, the service's
    profiling and rescheduling knobs, and its outputs: the event log
    and the ``--expect``/``--update-expect`` outcome check.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--epochs", type=int, default=12)
    parent.add_argument(
        "--workloads", nargs="+",
        help=f"catalog mix jobs draw from (default: {' '.join(DEFAULT_SERVE_MIX)})",
    )
    parent.add_argument("--arrival-rate", type=float, default=1.2,
                        help="mean job arrivals per epoch (Poisson)")
    parent.add_argument("--qos-fraction", type=float, default=0.5,
                        help="probability a job carries a QoS bound")
    parent.add_argument("--policy-samples", type=int, default=10)
    parent.add_argument("--reschedule-every", type=int, default=1)
    parent.add_argument("--migration-cost", type=float, default=0.02)
    parent.add_argument(
        "--event-log",
        help=(
            "write the day's JSONL event log here (the daemon copies its "
            "durable log on exit)"
        ),
    )
    parent.add_argument(
        "--expect",
        help="expectation JSON to check; exits 1 on a QoS-violation regression",
    )
    parent.add_argument(
        "--update-expect", help="write the expectation JSON for this run"
    )
    return parent


def seed_parent(default: int = 2016) -> argparse.ArgumentParser:
    """Parent adding ``--seed N`` (measurement/search determinism)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--seed",
        type=int,
        default=default,
        help=f"deterministic base seed (default: {default})",
    )
    return parent


def output_parent() -> argparse.ArgumentParser:
    """Parent adding ``--output PATH`` (``--out`` kept as an alias)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--output",
        "--out",
        dest="out",
        metavar="PATH",
        help="write the subcommand's primary artifact here",
    )
    return parent
