"""Co-run executor: runs deployed workloads to completion.

This is the simulated equivalent of "launch the VMs and wait": given a
set of :class:`DeployedInstance` objects (workload + unit-to-node map),
the executor drives every instance's program through one discrete-event
loop.  Task durations are scaled by the workload's sensitivity to the
pressure currently present on the slot's node; when an instance
finishes, its pressure disappears and co-runners speed up from their
next task onward.  Each instance runs its program once: in a sustained
co-run its pressure simply stays present after it finishes.

The executor is the *only* ground truth in this reproduction — the
interference model (:mod:`repro.core`) sees nothing but the execution
times it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro._util import child_rng, make_rng
from repro.apps.base import Stage, Workload
from repro.errors import ConfigurationError, SimulationError
from repro.obs import recorder as _obs
from repro.sim.noise import NoiseProfile, PRIVATE_TESTBED_NOISE, TaskJitter
from repro.sim.pressure import PressureField
from repro.sim.trace import ExecutionTrace


@dataclass(frozen=True)
class DeployedInstance:
    """A workload instance mapped onto cluster nodes.

    Parameters
    ----------
    instance_key:
        Unique identifier within the co-run (e.g. ``"M.lmps#0"``).
    workload:
        Behavioural model (provides the program and sensitivities).
    units_to_nodes:
        Mapping of VM-unit index to hosting node id.  Unit 0 hosts the
        master.
    """

    instance_key: str
    workload: Workload
    units_to_nodes: Mapping[int, int]

    def __post_init__(self) -> None:
        if not self.units_to_nodes and not self.workload.is_passive:
            raise ConfigurationError(
                f"active instance {self.instance_key!r} deployed with no units"
            )

    @property
    def num_units(self) -> int:
        """Number of placed VM units."""
        return len(self.units_to_nodes)

    @property
    def num_slots(self) -> int:
        """Total execution slots across all units."""
        return self.num_units * self.workload.spec.slots_per_unit

    def slot_nodes(self) -> List[int]:
        """Node id of each slot, in slot order (unit-major)."""
        spu = self.workload.spec.slots_per_unit
        nodes: List[int] = []
        for unit_index in sorted(self.units_to_nodes):
            nodes.extend([self.units_to_nodes[unit_index]] * spu)
        return nodes

    def spanned_nodes(self) -> List[int]:
        """Sorted distinct node ids the instance occupies."""
        return sorted(set(self.units_to_nodes.values()))


@dataclass
class InstanceResult:
    """Outcome of one instance in a co-run.

    ``finish_time``, ``tasks_executed`` and ``stages_completed`` cover
    the instance's first pass through its program, in sustained co-runs
    too (its trace records likewise).  A passive instance reports the
    run's end as its finish time and no tasks.
    """

    instance_key: str
    workload_name: str
    finish_time: float
    tasks_executed: int
    stages_completed: int
    #: Mean pressure experienced across the instance's nodes at start.
    mean_pressure_seen: float
    #: Mean NETWORK-domain (uplink) pressure across the instance's
    #: nodes at start; 0.0 whenever the co-run has no network sources.
    mean_link_pressure_seen: float = 0.0
    #: True if the instance was a passive pressure source (bubble).
    passive: bool = False


#: Event slots that are not a task's: the stage advances after its
#: sync cost, or a lockstep stage's tasks have all completed.
_ADVANCE, _LOCKSTEP = -1, -2


class _Pass:
    """State of one active instance's first pass through its program."""

    __slots__ = (
        "key", "program", "slot_nodes", "spanned_nodes", "sensitivity",
        "net_sensitivity", "jitter", "rng", "stage_index", "stage",
        "not_started", "running", "slot_pending", "slots", "version",
        "tasks_executed", "stages_completed", "finish_time", "factors",
    )

    def __init__(self, deployed: DeployedInstance, jitter: TaskJitter, rng) -> None:
        spec = deployed.workload.spec
        self.key = deployed.instance_key
        self.program: List[Stage] = deployed.workload.build_program(
            max(deployed.num_slots, 1)
        )
        self.slot_nodes = deployed.slot_nodes()
        self.spanned_nodes = deployed.spanned_nodes()
        self.sensitivity = spec.sensitivity
        self.net_sensitivity = spec.network_sensitivity
        self.jitter = jitter
        self.rng = rng
        self.stage_index = -1
        self.stage: Optional[Stage] = None
        self.not_started = 0
        self.running = 0
        self.slot_pending: List[int] = []
        #: Per-slot ``(slowdown, pressure)``, valid while the run's
        #: deactivation count equals ``version``.
        self.slots: List[Tuple[float, float]] = []
        self.version = -1
        self.tasks_executed = 0
        self.stages_completed = 0
        self.finish_time: Optional[float] = None
        #: The stage's jitter, drawn in bulk when no task can stall.
        self.factors: Optional[Iterator[float]] = None

    def refresh(self, field: PressureField, version: int) -> None:
        """Re-read every slot's pressure and slowdown from ``field``."""
        per_node = {}
        for node in self.spanned_nodes:
            pressure = field.pressure_seen(self.key, node)
            per_node[node] = (self.sensitivity.slowdown(pressure), pressure)
        self.slots = [per_node[node] for node in self.slot_nodes]
        self.version = version


class CoRunExecutor:
    """Runs a set of deployed instances concurrently.

    A pass that can never stall (:meth:`StallModel.never_draws`) draws
    each stage's jitter in one call as the stage starts; the others
    draw jitter and stall per task.  Both give identical results.  A
    stage with no more tasks than slots runs in lockstep, as one event
    at its last task's completion.

    Parameters
    ----------
    instances:
        The deployed instances; keys must be unique.  At least one must
        be active (non-passive), otherwise the run would never end.
    seed:
        Seed for all stochastic behaviour in this run.
    noise:
        Environment noise profile (jitter scale + ambient pressure).
    num_nodes:
        Number of physical nodes; needed to draw ambient pressure.
        Inferred from deployments when omitted.
    trace:
        Optional trace collector for stage-level timing.
    ambient_link:
        Constant background NETWORK pressure per node uplink (the
        ``--network-noise`` injection).  Deterministic — no RNG draw —
        and ``None`` (the default) keeps every link flat.
    sustained:
        If true, an instance's pressure stays present after it
        completes its program, as if it kept running until the
        *slowest* instance finishes; reported finish times are
        first-pass completions.  This matches the paper's measurement
        methodology, where co-runners execute continuously during
        validation and placement experiments.  The executor does not
        replay the program: pressure is never withdrawn and every
        instance draws from its own RNG, so a replay could change no
        reported value.
    """

    def __init__(
        self,
        instances: Sequence[DeployedInstance],
        *,
        seed: object = 0,
        noise: NoiseProfile = PRIVATE_TESTBED_NOISE,
        num_nodes: Optional[int] = None,
        trace: Optional[ExecutionTrace] = None,
        ambient_link: Optional[Mapping[int, float]] = None,
        sustained: bool = False,
    ) -> None:
        keys = [inst.instance_key for inst in instances]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate instance keys in co-run: {keys}")
        if not any(not inst.workload.is_passive for inst in instances):
            raise ConfigurationError("a co-run needs at least one active instance")
        self._instances = list(instances)
        self._rng = make_rng(seed)
        self._noise = noise
        self._trace = trace
        if num_nodes is None:
            spanned = [n for inst in instances for n in inst.spanned_nodes()]
            num_nodes = (max(spanned) + 1) if spanned else 1
        self._num_nodes = num_nodes
        self._ambient_link = dict(ambient_link or {})
        self._sustained = sustained

    def run(self) -> Dict[str, InstanceResult]:
        """Execute the co-run and return per-instance results."""
        ambient: Mapping[int, float] = {}
        if self._noise.ambient is not None:
            ambient = self._noise.ambient.draw(
                self._num_nodes, child_rng(self._rng, "ambient")
            )
        field = PressureField(ambient, ambient_link=self._ambient_link)
        for inst in self._instances:
            field.register(inst.instance_key, inst.workload, inst.units_to_nodes)

        passes: List[_Pass] = []
        for inst in self._instances:
            if inst.workload.is_passive:
                continue
            rng = child_rng(self._rng, inst.instance_key)
            cv = inst.workload.spec.noise_cv * self._noise.jitter_scale
            passes.append(_Pass(inst, TaskJitter(cv, rng), rng))

        start_pressures = {
            inst.instance_key: self._mean_pressure(field, inst)
            for inst in self._instances
        }
        # Only bookkept when a network source exists; flat runs report
        # 0.0 without touching the link-pressure path at all.
        if field.has_network:
            start_link_pressures = {
                inst.instance_key: self._mean_link_pressure(field, inst)
                for inst in self._instances
            }
        else:
            start_link_pressures = {
                inst.instance_key: 0.0 for inst in self._instances
            }

        # Events are (time, seq, pass index, slot): a task on ``slot``
        # completes, a lockstep stage's tasks all complete, or the
        # stage advances after its sync cost.
        # One ``seq`` for every pass fires equal-time events in the
        # order they were scheduled, which matters when a finish
        # deactivates pressure that co-runners' next tasks read.
        heap: List[Tuple[float, int, int, int]] = []
        seq = itertools.count()
        stall = self._noise.stall.factor
        trace = self._trace
        sustained = self._sustained
        deactivations = 0
        for state in passes:
            state.refresh(field, deactivations)
            if self._noise.stall.never_draws(state.slots, sustained):
                state.factors = iter(())

        def finish_of(state: _Pass, slot: int, now: float) -> float:
            """When a task of the current stage started on ``slot`` at
            ``now`` completes; draws its jitter and stall."""
            if state.version != deactivations:
                state.refresh(field, deactivations)
            slowdown, pressure = state.slots[slot]
            duration = state.stage.task_time * slowdown
            if state.factors is None:
                duration *= state.jitter.sample()
                duration *= stall(state.rng, pressure, reacts=slowdown > 1.0)
            else:
                duration *= next(state.factors)
            return now + duration

        def begin(index: int, state: _Pass, slot: int, now: float) -> None:
            """Start the current stage's next task on ``slot``."""
            if state.not_started <= 0:
                raise SimulationError(
                    "attempted to start more tasks than the stage has"
                )
            state.not_started -= 1
            state.running += 1
            heappush(heap, (finish_of(state, slot, now), next(seq), index, slot))

        def advance(index: int, state: _Pass, now: float) -> None:
            """Start the pass's next stage, or finish the pass."""
            nonlocal deactivations
            state.stage_index += 1
            if state.stage_index >= len(state.program):
                # First pass done: schedule nothing more.  A sustained
                # run keeps the pressure present (see ``sustained``).
                state.finish_time = now
                if not sustained:
                    field.deactivate(state.key)
                    deactivations += 1
                return
            stage = state.program[state.stage_index]
            state.stage = stage
            if state.factors is not None:
                state.factors = state.jitter.samples(stage.n_tasks)
            num_slots = len(state.slot_nodes)
            if stage.n_tasks <= num_slots:
                # Lockstep: task i runs alone on slot i, all from now,
                # and only the last completion acts.  Slowdowns are read
                # at task start and the tasks' seqs would be adjacent,
                # so one event at the last completion, taking one seq
                # here, pops exactly where that completion would.
                finish = max([
                    finish_of(state, slot, now) for slot in range(stage.n_tasks)
                ])
                heappush(heap, (finish, next(seq), index, _LOCKSTEP))
                return
            state.not_started = stage.n_tasks
            if stage.dynamic:
                for slot in range(num_slots):
                    begin(index, state, slot, now)
            else:
                base, extra = divmod(stage.n_tasks, num_slots)
                state.slot_pending = [
                    base + (1 if slot < extra else 0) for slot in range(num_slots)
                ]
                for slot in range(num_slots):
                    begin(index, state, slot, now)

        for index, state in enumerate(passes):
            advance(index, state, 0.0)
        # The loop terminates without an event cap: every event either
        # completes some of a stage's finitely many tasks or advances
        # the stage index of a finite program.
        now = 0.0
        events = 0
        while heap:
            now, _seq, index, slot = heappop(heap)
            events += 1
            state = passes[index]
            if slot == _ADVANCE:
                advance(index, state, now)
                continue
            stage = state.stage
            if slot == _LOCKSTEP:
                # Counted as if each of the stage's tasks had popped.
                state.tasks_executed += stage.n_tasks
                events += stage.n_tasks - 1
            else:
                state.running -= 1
                state.tasks_executed += 1
                if stage.dynamic:
                    if state.not_started > 0:
                        begin(index, state, slot, now)
                else:
                    state.slot_pending[slot] -= 1
                    if state.slot_pending[slot] > 0:
                        begin(index, state, slot, now)
                if state.running or state.not_started:
                    continue
            state.stages_completed += 1
            if trace is not None:
                trace.record_stage(state.key, stage.name, now)
            if stage.sync_cost > 0.0:
                sync_cost = stage.sync_cost
                # NETWORK domain: the collective crosses every occupied
                # uplink, so it is paced by the most congested one.  Both
                # gates are false for every scalar-era run, keeping the
                # flat path bit-identical.
                if state.net_sensitivity is not None and field.has_network:
                    link = max(
                        field.link_pressure_seen(state.key, node)
                        for node in state.spanned_nodes
                    )
                    sync_cost *= state.net_sensitivity.slowdown(link)
                heappush(heap, (now + sync_cost, next(seq), index, _ADVANCE))
            else:
                advance(index, state, now)
        # Telemetry is per run, never per event: the loop above is the
        # hottest path in the repository.
        recorder = _obs.RECORDER
        recorder.count("engine.runs")
        recorder.count("engine.events", events)

        by_key = {state.key: state for state in passes}
        results: Dict[str, InstanceResult] = {}
        for inst in self._instances:
            key = inst.instance_key
            if inst.workload.is_passive:
                results[key] = InstanceResult(
                    instance_key=key,
                    workload_name=inst.workload.name,
                    finish_time=now,
                    tasks_executed=0,
                    stages_completed=0,
                    mean_pressure_seen=start_pressures[key],
                    mean_link_pressure_seen=start_link_pressures[key],
                    passive=True,
                )
            else:
                state = by_key[key]
                if state.finish_time is None:
                    raise SimulationError(
                        f"instance {key!r} did not finish; simulation deadlock"
                    )
                results[key] = InstanceResult(
                    instance_key=key,
                    workload_name=inst.workload.name,
                    finish_time=state.finish_time,
                    tasks_executed=state.tasks_executed,
                    stages_completed=state.stages_completed,
                    mean_pressure_seen=start_pressures[key],
                    mean_link_pressure_seen=start_link_pressures[key],
                )
        return results

    @staticmethod
    def _mean_pressure(field: PressureField, inst: DeployedInstance) -> float:
        nodes = inst.spanned_nodes()
        if not nodes:
            return 0.0
        return sum(field.pressure_seen(inst.instance_key, n) for n in nodes) / len(
            nodes
        )

    @staticmethod
    def _mean_link_pressure(field: PressureField, inst: DeployedInstance) -> float:
        nodes = inst.spanned_nodes()
        if not nodes:
            return 0.0
        return sum(
            field.link_pressure_seen(inst.instance_key, n) for n in nodes
        ) / len(nodes)
