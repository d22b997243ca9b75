"""Simulated-annealing placement search (Section 5.1).

The paper's placer starts from a random assignment and repeatedly
swaps the locations of two VM units belonging to different workloads,
keeping swaps that improve the (model-predicted) objective while
respecting QoS constraints, for a fixed number of iterations.  The
implementation here is a standard simulated annealing loop: worse
moves are accepted with probability ``exp(-delta / T)`` under a
geometric cooling schedule, which degenerates to the paper's stochastic
hill climbing when ``initial_temperature`` is 0.

Two fast paths keep large searches cheap:

* **Incremental energy** — when the energy is a
  :class:`~repro.placement.objectives.PredictionEnergy`, each pass
  anneals one mutable :class:`~repro.placement.objectives.SearchState`:
  a proposed swap is applied in place, re-predicts only the instances
  with units on the two touched nodes, and is undone if rejected; a
  :class:`Placement` is built only for each new best.  Results are
  bit-identical to full evaluation (the scalar energy is always
  re-aggregated from the full table).
* **Bulk draws** — proposals and acceptance tests come from a
  :class:`~repro._util.DrawStream`, an exact replica of PCG64's
  ``choice``/``integers``/``random`` fed by raw-word blocks, which
  leaves the generator as if NumPy had drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro._util import DrawStream, make_rng
from repro.errors import PlacementError
from repro.obs import recorder as _obs
from repro.placement.assignment import Placement
from repro.placement.objectives import PredictionEnergy

EnergyFunction = Callable[[Placement], float]

#: Upper bound on auto-subsampled trajectory points per restart.
MAX_TRAJECTORY_POINTS = 512


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule for the annealing search.

    Parameters
    ----------
    iterations:
        Number of proposed swaps.
    initial_temperature:
        Starting temperature; 0 yields pure hill climbing.
    final_temperature:
        Temperature at the last iteration (geometric decay).
    restarts:
        Independent searches from fresh random placements; the best
        result across restarts is returned.
    trajectory_stride:
        Record every ``stride``-th accepted-energy point in
        :attr:`SearchResult.energy_trajectory`.  ``None`` picks a
        stride that caps the trajectory at
        :data:`MAX_TRAJECTORY_POINTS` points, so long schedules do not
        hold thousands of floats per restart.  Use 1 to record every
        proposal.
    """

    iterations: int = 3000
    initial_temperature: float = 0.05
    final_temperature: float = 1e-4
    restarts: int = 3
    trajectory_stride: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise PlacementError("iterations must be positive")
        if self.initial_temperature < 0 or self.final_temperature < 0:
            raise PlacementError("temperatures must be non-negative")
        if self.restarts <= 0:
            raise PlacementError("restarts must be positive")
        if self.trajectory_stride is not None and self.trajectory_stride <= 0:
            raise PlacementError("trajectory_stride must be positive")

    def temperature(self, iteration: int) -> float:
        """Temperature at ``iteration`` (geometric interpolation)."""
        if self.initial_temperature <= 0:
            return 0.0
        if self.iterations == 1:
            return self.initial_temperature
        floor = max(self.final_temperature, 1e-12)
        ratio = floor / self.initial_temperature
        return self.initial_temperature * ratio ** (
            iteration / (self.iterations - 1)
        )

    def effective_stride(self) -> int:
        """Trajectory stride actually applied (resolves the auto mode)."""
        if self.trajectory_stride is not None:
            return self.trajectory_stride
        return max(1, self.iterations // MAX_TRAJECTORY_POINTS)


@dataclass
class SearchResult:
    """Outcome of an annealing search."""

    placement: Placement
    energy: float
    evaluations: int
    accepted_moves: int
    energy_trajectory: List[float]


class _Rescored:
    """A plain energy callable's search state: every swap makes a fresh
    placement (:meth:`Placement.swap_units`) and scores it in full."""

    def __init__(self, energy: EnergyFunction, placement: Placement) -> None:
        self._energy = energy
        self._current = placement
        self.assignment = placement._assignment
        self.energy = energy(placement)
        self._undo = (placement, self.energy)

    def swap(self, key_a: str, unit_a: int, key_b: str, unit_b: int) -> float:
        self._undo = (self._current, self.energy)
        self._current = self._current.swap_units(key_a, unit_a, key_b, unit_b)
        self.assignment = self._current._assignment
        self.energy = self._energy(self._current)
        return self.energy

    def undo(self) -> None:
        self._current, self.energy = self._undo
        self.assignment = self._current._assignment

    def placement(self) -> Placement:
        return self._current


class SimulatedAnnealingPlacer:
    """Searches placements by annealed unit swaps.

    Parameters
    ----------
    energy:
        Placement score to *minimize* (model-predicted).  Plain
        callables are fully evaluated on a fresh placement per
        proposal; a :class:`PredictionEnergy` gets delta evaluation.
    schedule:
        Cooling schedule.
    seed:
        Randomness for initial placements and move proposals.
    """

    def __init__(
        self,
        energy: EnergyFunction,
        *,
        schedule: Optional[AnnealingSchedule] = None,
        seed: object = 0,
    ) -> None:
        self.energy = energy
        self.schedule = schedule or AnnealingSchedule()
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    @staticmethod
    def _propose_swap(
        assignment: Mapping[str, Sequence[int]], draws: DrawStream,
        keys: List[str], units: List[int],
    ) -> Optional[Tuple[str, int, str, int]]:
        """A random swap of two units of different instances.

        ``keys`` and ``units`` are the instances' keys and unit counts
        in instance order.  Returns ``(key_a, unit_a, key_b, unit_b)``,
        or ``None`` if no valid proposal was found.
        """
        if len(keys) < 2:
            return None
        for _ in range(16):  # retry degenerate proposals
            idx_a, idx_b, unit_a, unit_b = draws.proposal(units)
            key_a, key_b = keys[idx_a], keys[idx_b]
            nodes_a, nodes_b = assignment[key_a], assignment[key_b]
            node_a, node_b = nodes_a[unit_a], nodes_b[unit_b]
            # Same node: a no-op swap.  Otherwise the swap must not put
            # two units of one instance on one node (``swap_units``'
            # only rule for a 1-for-1 exchange).
            if node_a == node_b or node_b in nodes_a or node_a in nodes_b:
                continue
            return key_a, unit_a, key_b, unit_b
        return None

    def search_from(
        self, initial: Placement, *, rng=None
    ) -> SearchResult:
        """Run one annealing pass from a given placement.

        Telemetry: the whole pass is one ``anneal.restart`` span;
        accepted/rejected-swap and incremental-vs-full-evaluation
        counters are flushed once when the pass ends, so the proposal
        loop itself carries no instrumentation.
        """
        rng = rng if rng is not None else self._rng
        incremental = isinstance(self.energy, PredictionEnergy)
        stride = self.schedule.effective_stride()
        with _obs.RECORDER.span(
            "anneal.restart",
            iterations=self.schedule.iterations,
            incremental=incremental,
        ) as obs_span, DrawStream(rng) as draws:
            state = (
                self.energy.full_state(initial) if incremental
                else _Rescored(self.energy, initial)
            )
            current_energy = state.energy
            best, best_energy = initial, current_energy
            evaluations = 1
            accepted = 0
            trajectory = [current_energy]
            keys = [spec.instance_key for spec in initial.instances]
            units = [spec.num_units for spec in initial.instances]
            for iteration in range(self.schedule.iterations):
                swap = self._propose_swap(state.assignment, draws, keys, units)
                if swap is None:
                    continue
                candidate_energy = state.swap(*swap)
                evaluations += 1
                delta = candidate_energy - current_energy
                accept = delta <= 0
                if not accept:
                    temperature = self.schedule.temperature(iteration)
                    accept = temperature > 0 and (
                        draws.random() < math.exp(-delta / temperature)
                    )
                if accept:
                    current_energy = candidate_energy
                    accepted += 1
                    if current_energy < best_energy:
                        best, best_energy = state.placement(), current_energy
                else:
                    state.undo()
                if iteration % stride == 0:
                    trajectory.append(current_energy)
            if stride > 1:
                trajectory.append(current_energy)
            obs_span.set(
                energy=best_energy, evaluations=evaluations, accepted=accepted
            )
            recorder = _obs.RECORDER
            recorder.count("anneal.accepted_swaps", accepted)
            recorder.count("anneal.rejected_swaps", evaluations - 1 - accepted)
            recorder.count(
                "anneal.incremental_evals" if incremental
                else "anneal.full_evals",
                evaluations,
            )
        return SearchResult(
            placement=best,
            energy=best_energy,
            evaluations=evaluations,
            accepted_moves=accepted,
            energy_trajectory=trajectory,
        )

    def search(
        self, initial_factory: Callable[[object], Placement]
    ) -> SearchResult:
        """Best result across the schedule's restarts.

        Parameters
        ----------
        initial_factory:
            Called with a seed per restart to produce the starting
            placement (typically :meth:`Placement.random`).

        Notes
        -----
        Every restart's initial-placement seed and search seed are
        drawn from the placer seed before any restart runs, so each
        restart owns an independent random stream.
        """
        with _obs.RECORDER.span(
            "anneal.search", restarts=self.schedule.restarts
        ) as obs_span:
            plans = []
            for _ in range(self.schedule.restarts):
                init_seed = int(self._rng.integers(0, 2**31))
                search_seed = int(self._rng.integers(0, 2**31))
                plans.append((initial_factory(init_seed), search_seed))
            best: Optional[SearchResult] = None
            for initial, search_seed in plans:
                result = self.search_from(initial, rng=make_rng(search_seed))
                if best is None or result.energy < best.energy:
                    best = result
            assert best is not None
            obs_span.set(energy=best.energy)
        return best
