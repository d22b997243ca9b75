"""Seeded, fully deterministic fault plans.

A :class:`FaultPlan` decides — ahead of time, as a pure function of its
seed and the label of the thing being faulted — which measurement
attempts crash and which readings come back straggler-inflated or as
outright garbage.  Each fault family draws from its **own**
stable-seeded stream (``stable_seed(seed, "fault", family, *labels)``),
so

* enabling one family never perturbs another family's draws,
* a decision depends only on the label, never on how many (or in what
  order) other decisions were queried, and
* the same plan replayed over the same run produces byte-identical
  fault activity — which is what the determinism tests and the
  ``chaos-smoke`` CI job compare.

Plans serialize to plain JSON, the form ``--faults plan.json`` reads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Tuple, Union

from repro._util import make_rng, stable_seed
from repro.errors import FaultError

#: Fault family -> its :class:`FaultConfig` rate field.  Each family
#: draws from its own independent RNG stream.  The ``worker`` and
#: ``lease`` families target the daemon's executor pool (a claimed
#: epoch execution dying, a lease lapsing un-renewed); they never
#: touch measurement draws, so enabling them leaves event-log bytes
#: identical to an uninjected day.  The ``preempt`` family targets the
#: capacity provider's spot instances (a two-phase warning-then-reclaim,
#: see :mod:`repro.providers`); like the daemon families it draws from
#: its own stream, so a plan that only preempts perturbs no measurement.
_RATE_FIELDS = {
    "crash": "crash_rate",
    "straggler": "straggler_rate",
    "outlier": "outlier_rate",
    "worker": "worker_crash_rate",
    "lease": "lease_expiry_rate",
    "preempt": "preemption_rate",
}

#: The fault families, in declaration order.
FAULT_FAMILIES = tuple(_RATE_FIELDS)


@dataclass(frozen=True)
class FaultConfig:
    """Rates and magnitudes of every injectable fault family.

    Parameters
    ----------
    seed:
        Root seed of all fault streams.
    crash_rate:
        Probability one measurement *attempt* dies before producing a
        reading (a node crash mid-run).  Independent per attempt, so a
        retry of the same reading may succeed.
    straggler_rate / straggler_factor:
        Probability a reading is inflated by a straggling node, and the
        multiplicative slowdown it suffers.
    outlier_rate / outlier_factor:
        Probability a probe reading comes back as garbage, and how far
        off it lands.  Outliers are large by construction so robust
        profilers can detect and re-probe them.
    worker_crash_rate:
        Probability one claimed epoch *execution attempt* in the
        daemon's executor pool dies mid-run (the worker stops renewing
        its lease and never commits; the health-checker reaps and
        requeues the work).
    lease_expiry_rate:
        Probability an execution attempt wedges: the worker stops
        renewing but eventually finishes and tries a stale commit,
        which the status-updater must fence off.
    preemption_rate:
        Per-(spot instance, epoch) probability the provider issues a
        preemption *warning* for that instance.  Reclaim follows
        ``preemption_warning_epochs`` later (two-phase, like real spot
        markets); durable instances are never preempted.
    preemption_warning_epochs:
        Epochs between a preemption warning and the reclaim — the
        evacuation window the rescheduler gets to drain the instance.
    """

    seed: int = 0
    crash_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_factor: float = 1.5
    outlier_rate: float = 0.0
    outlier_factor: float = 25.0
    worker_crash_rate: float = 0.0
    lease_expiry_rate: float = 0.0
    preemption_rate: float = 0.0
    preemption_warning_epochs: int = 1

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS.values():
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {rate}")
        if self.straggler_factor < 1.0:
            raise FaultError("straggler_factor must be >= 1.0")
        if self.outlier_factor <= 0.0:
            raise FaultError("outlier_factor must be positive")
        if self.preemption_warning_epochs < 0:
            raise FaultError("preemption_warning_epochs must be non-negative")


class FaultPlan:
    """Deterministic per-label fault decisions over a :class:`FaultConfig`.

    Every query derives a child generator from the plan seed, the fault
    family, and the caller-supplied label, so decisions are stable
    across runs, processes, and query order.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any fault family has a nonzero rate."""
        return any(
            getattr(self.config, name) > 0.0 for name in _RATE_FIELDS.values()
        )

    def signature(self) -> str:
        """Stable identity of this plan.

        An elastic provider's checkpoint records it as its
        ``churn_signature``, so a resume under a different churn plan
        is refused.
        """
        return "faults|" + "|".join(map(str, astuple(self.config)))

    def _hits(self, family: str, labels: Tuple) -> bool:
        """Does ``family``'s draw for ``labels`` fall below its rate?

        A zero rate never draws.
        """
        rate = getattr(self.config, _RATE_FIELDS[family])
        if rate <= 0.0:
            return False
        rng = make_rng(stable_seed(self.config.seed, "fault", family, *labels))
        return float(rng.random()) < rate

    # ------------------------------------------------------------------
    # Per-family decisions
    # ------------------------------------------------------------------
    def crashes(self, label: Tuple, attempt: int) -> bool:
        """Does attempt ``attempt`` of the reading ``label`` crash?"""
        return self._hits("crash", label + (attempt,))

    def straggler(self, label: Tuple, attempt: int) -> float:
        """Multiplicative straggler inflation of a reading (1.0 = none)."""
        if self._hits("straggler", label + (attempt,)):
            return self.config.straggler_factor
        return 1.0

    def outlier(self, label: Tuple, attempt: int) -> float:
        """Multiplicative garbage factor of a reading (1.0 = clean)."""
        if self._hits("outlier", label + (attempt,)):
            return self.config.outlier_factor
        return 1.0

    def worker_crashes(self, epoch: int, attempt: int) -> bool:
        """Does execution attempt ``attempt`` of ``epoch`` die mid-run?

        A crashed attempt stops renewing its lease and never commits;
        the daemon's health-checker reaps the expired lease, requeues
        the work, and replaces the dead worker.  Drawn from the
        ``worker`` family's own stream, so enabling it perturbs no
        measurement draw (event-log bytes stay identical).
        """
        return self._hits("worker", (epoch, attempt))

    def lease_expires(self, epoch: int, attempt: int) -> bool:
        """Does attempt ``attempt`` of ``epoch`` wedge past its lease?

        A wedged attempt stops renewing but finishes eventually and
        tries to commit under its stale lease — which the
        status-updater must reject, since the reaped work has been
        requeued (and possibly committed) by another worker.
        """
        return self._hits("lease", (epoch, attempt))

    def preempts(self, node_id: int, epoch: int) -> bool:
        """Is a preemption warning issued for spot instance ``node_id``?

        Drawn per (instance, epoch) from the ``preempt`` family's own
        stream, so the decision is independent of pool size, query
        order, and every measurement draw — a churn plan replayed over
        the same day warns (and reclaims) the same instances at the
        same epochs.  The caller (the provider) owns the two-phase
        bookkeeping: reclaim follows ``preemption_warning_epochs``
        after the warning.
        """
        return self._hits("preempt", (node_id, epoch))

    # ------------------------------------------------------------------
    # Construction / serialization
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan that injects nothing (all rates zero)."""
        return cls(FaultConfig())

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return asdict(self.config)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`.

        Raises
        ------
        FaultError
            On unknown keys, so a typo'd plan file fails loudly rather
            than silently injecting nothing.
        """
        known = set(FaultConfig.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise FaultError(
                f"unknown fault plan keys: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}"
            )
        return cls(FaultConfig(**payload))

    def save(self, path: Union[str, Path]) -> None:
        """Write the plan as JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Read a plan written by :meth:`save` (or by hand).

        Raises
        ------
        FaultError
            If the file is unreadable or not a valid plan.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise FaultError(f"cannot read fault plan {path!s}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan {path!s} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise FaultError(f"fault plan {path!s} must be a JSON object")
        return cls.from_dict(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.config!r})"
