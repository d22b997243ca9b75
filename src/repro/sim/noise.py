"""Stochastic components of the ground-truth simulator.

Two noise sources exist in the paper's measurements and are reproduced
here:

* **Task jitter** — run-to-run variation of compute phases (OS noise,
  hypervisor scheduling).  Modelled as multiplicative log-normal jitter
  with unit mean; its coefficient of variation is per-workload
  (M.Gems's blocked-I/O sensitivity shows up as a larger CV).
* **Ambient pressure** — interference the experimenter cannot see.  On
  the private testbed this is zero; on Amazon EC2 (Section 6) other
  tenants share the hosts, so each node carries a random background
  pressure redrawn per run (VMs may also be silently relocated between
  runs, which the per-run redraw captures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro._util import make_rng
from repro.units import MAX_PRESSURE


class TaskJitter:
    """Multiplicative log-normal jitter with unit mean.

    :meth:`samples` draws many factors in one call, bit for bit as
    many :meth:`sample` calls (values and final generator state).

    Parameters
    ----------
    cv:
        Coefficient of variation; 0 disables jitter.
    rng:
        Source of randomness.
    """

    def __init__(self, cv: float, rng: np.random.Generator) -> None:
        if cv < 0:
            raise ValueError("cv must be non-negative")
        self._rng = rng
        if cv > 0:
            # For a log-normal with sigma s, CV = sqrt(e^{s^2} - 1).
            self._sigma = math.sqrt(math.log(1.0 + cv * cv))
            self._mu = -0.5 * self._sigma * self._sigma
        else:
            self._sigma = 0.0
            self._mu = 0.0

    def sample(self) -> float:
        """Draw one jitter factor (mean 1.0)."""
        if self._sigma == 0.0:
            return 1.0
        return float(math.exp(self._rng.normal(self._mu, self._sigma)))

    def samples(self, count: int) -> Iterator[float]:
        """``count`` factors from one draw; ``np.exp`` would round differently."""
        if self._sigma == 0.0:
            return iter([1.0] * count)
        draws = self._rng.normal(self._mu, self._sigma, size=count)
        return map(math.exp, draws.tolist())


class AmbientNoise:
    """Per-node background pressure from unobserved tenants.

    Parameters
    ----------
    max_pressure:
        Upper bound of the background pressure on any node.
    occupancy:
        Probability that a node has a noisy neighbour at all.
    """

    def __init__(self, max_pressure: float = 2.0, occupancy: float = 0.6) -> None:
        if max_pressure < 0:
            raise ValueError("max_pressure must be non-negative")
        if not 0.0 <= occupancy <= 1.0:
            raise ValueError("occupancy must be in [0, 1]")
        self.max_pressure = max_pressure
        self.occupancy = occupancy

    def draw(self, num_nodes: int, seed: object) -> Dict[int, float]:
        """Draw background pressure for each of ``num_nodes`` nodes."""
        rng = make_rng(seed)
        pressures: Dict[int, float] = {}
        for node_id in range(num_nodes):
            if rng.random() < self.occupancy:
                pressures[node_id] = float(rng.uniform(0.0, self.max_pressure))
            else:
                pressures[node_id] = 0.0
        return pressures


@dataclass(frozen=True)
class StallModel:
    """Occasional hypervisor-level stalls under contention.

    Beyond the steady slowdown of cache/bandwidth theft, a contended
    node occasionally stalls a task outright (vCPU descheduling, Dom0
    I/O handling — the effect the paper blames for M.Gems's
    unpredictability in Section 4.3).  A task on a node under pressure
    ``p`` stalls with probability ``prob_at_max * p / MAX_PRESSURE``
    — but only if the workload reacts to pressure at all (a workload
    whose working set is untouched never faults on the contention
    path).  A stall multiplies the task duration by ``1 + Exp(scale)``.

    Stalls are what make *mildly* interfered nodes matter to
    barrier-coupled applications: the mild node rarely wins the
    per-iteration max through its mean slowdown, but its occasional
    stalls do push the barrier — the physical origin of the
    ``N+1 max`` heterogeneity behaviour.
    """

    prob_at_max: float = 0.0
    scale: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob_at_max <= 1.0:
            raise ValueError("prob_at_max must be in [0, 1]")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    def never_draws(
        self, slots: Sequence[Tuple[float, float]], sustained: bool
    ) -> bool:
        """Whether :meth:`factor` cannot draw for a pass's starting slots.

        Finishing co-runners only remove pressure; sustained slots stay.
        """
        if self.prob_at_max <= 0.0 or all(p <= 0.0 for _, p in slots):
            return True
        return sustained and all(p <= 0.0 or s <= 1.0 for s, p in slots)

    def factor(
        self, rng: np.random.Generator, pressure: float, reacts: bool
    ) -> float:
        """Sample a stall multiplier (1.0 when no stall occurs)."""
        if self.prob_at_max <= 0.0 or pressure <= 0.0 or not reacts:
            return 1.0
        probability = self.prob_at_max * min(pressure, MAX_PRESSURE) / MAX_PRESSURE
        if rng.random() >= probability:
            return 1.0
        return 1.0 + float(rng.exponential(self.scale))


@dataclass(frozen=True)
class NoiseProfile:
    """Bundle of noise settings for a simulation environment.

    ``jitter_scale`` multiplies every workload's own ``noise_cv``;
    ``ambient`` is ``None`` on the controlled private testbed;
    ``stall`` models contention-induced scheduling stalls.
    """

    jitter_scale: float = 1.0
    ambient: AmbientNoise | None = None
    stall: StallModel = StallModel(prob_at_max=0.06, scale=0.6)

    def __post_init__(self) -> None:
        if self.jitter_scale < 0:
            raise ValueError("jitter_scale must be non-negative")


#: The controlled private 8-node testbed (Sections 3-5).
PRIVATE_TESTBED_NOISE = NoiseProfile(jitter_scale=1.0, ambient=None)

#: Amazon EC2 (Section 6): other tenants add unmeasured interference.
EC2_NOISE = NoiseProfile(
    jitter_scale=1.6,
    ambient=AmbientNoise(max_pressure=2.0, occupancy=0.6),
    stall=StallModel(prob_at_max=0.08, scale=0.6),
)
