"""Application behaviour model.

The paper's central observation (Section 3.2) is that an application's
*synchronization structure* determines how local interference
propagates to its final latency: allreduce/barrier-coupled codes stall
globally on one slow node (high propagation), loosely-coupled codes
degrade with aggregate throughput (proportional), and elastic
task-queue frameworks route work away from slow nodes (low
propagation).

This module expresses that structure explicitly.  Every workload
compiles to a *program*: an ordered list of :class:`Stage` objects.  A
stage owns a bag of tasks that execute on the application's slots
(one slot per VM); the stage boundary is a barrier.  Two knobs encode
the synchronization structure:

* ``dynamic`` — tasks are pulled from a shared queue (elastic
  frameworks and loosely-coupled codes) instead of being statically
  bound round-robin to slots (BSP/MPI ranks).
* the stage granularity — a BSP code is *many* stages of one task per
  slot (a barrier per iteration), while an independent batch job is a
  *single* stage of many chunks per slot (no intermediate barrier).

The discrete-event executor (:mod:`repro.sim.execution`) interprets
programs; task durations there are scaled by the workload's
:class:`~repro.cluster.contention.SensitivityFunction` applied to the
pressure present on the slot's node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from typing import Optional

from repro.cluster.contention import SensitivityFunction
from repro.errors import ConfigurationError
from repro.units import validate_pressure


class WorkloadFamily(enum.Enum):
    """Benchmark suite the workload comes from (Table 1)."""

    SPEC_MPI = "SPEC MPI2007"
    NPB = "NPB"
    HADOOP = "HADOOP"
    SPARK = "SPARK"
    SPEC_CPU = "SPEC CPU2006"
    SYNTHETIC = "SYNTHETIC"
    #: Network-bound datacenter archetypes (after the DL/graph/HPC
    #: characterization study, arXiv:2303.15763).  Kept out of the
    #: paper's 12 distributed workloads so Table-anchored experiments
    #: are unchanged.
    DATACENTER = "DATACENTER"


class PropagationClass(enum.Enum):
    """Interference-propagation taxonomy from Section 3.2."""

    HIGH = "high"
    PROPORTIONAL = "proportional"
    LOW = "low"
    #: Single-node batch co-runners (SPEC CPU2006); propagation does not
    #: apply because instances are independent.
    BATCH = "batch"


@dataclass(frozen=True)
class Stage:
    """One barrier-delimited phase of a program.

    Parameters
    ----------
    name:
        Human-readable label (diagnostics and traces).
    n_tasks:
        Number of tasks in the stage; must be positive.
    task_time:
        Base (uncontended, jitter-free) duration of one task.
    dynamic:
        If true, tasks are dispatched from a shared queue to whichever
        slot frees up first; otherwise task ``i`` is bound to slot
        ``i % num_slots`` and a slot runs its tasks in order.
    sync_cost:
        Fixed cost added once when the stage's last task finishes,
        modelling the collective (allreduce / barrier / shuffle).
    """

    name: str
    n_tasks: int
    task_time: float
    dynamic: bool = False
    sync_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.n_tasks <= 0:
            raise ConfigurationError(f"stage {self.name!r}: n_tasks must be positive")
        if self.task_time <= 0:
            raise ConfigurationError(f"stage {self.name!r}: task_time must be positive")
        if self.sync_cost < 0:
            raise ConfigurationError(f"stage {self.name!r}: sync_cost must be >= 0")


@dataclass(frozen=True)
class WorkloadSpec:
    """Static, calibration-bearing description of a workload.

    This is the ground truth the interference model has to *discover*
    by profiling: the model never reads these fields, only observed
    execution times.

    Parameters
    ----------
    name:
        Full benchmark name, e.g. ``"126.lammps"``.
    abbrev:
        Paper abbreviation, e.g. ``"M.lmps"`` (Table 1).
    family:
        Benchmark suite.
    propagation_class:
        Ground-truth propagation taxonomy entry (for documentation and
        calibration tests; not consumed by the model).
    sensitivity:
        Pressure -> local slowdown response of the workload's tasks.
    generated_pressure:
        Pressure this workload exerts on co-runners sharing a node
        (its ground-truth bubble score, Table 4 scale).
    base_time:
        Approximate solo execution time in simulated seconds.
    noise_cv:
        Coefficient of variation of per-task duration jitter.
    master_pressure_factor:
        Scale of the pressure generated on the node hosting slot 0.
        1.0 for MPI codes (master computes like slaves); < 1 for
        Hadoop/Spark whose master schedules but does not process
        (Section 3.4).
    slots_per_unit:
        Execution slots contributed by one placed VM unit.  One per VM
        for distributed codes; two per VM for the single-threaded SPEC
        CPU co-runners (two instances per dual-core VM, Section 5.1).
    network_sensitivity:
        Link pressure -> slowdown response of the workload's
        *collectives* (the NETWORK contention domain).  ``None`` — the
        scalar-era default for every paper workload — means the
        workload's communication is insensitive to link contention and
        the executor never evaluates the network path for it.
    generated_network_pressure:
        Pressure this workload's flows exert on the uplink of every
        node it occupies (its ground-truth network score, same 0-8
        scale).  0.0 keeps the link flat.
    """

    name: str
    abbrev: str
    family: WorkloadFamily
    propagation_class: PropagationClass
    sensitivity: SensitivityFunction
    generated_pressure: float
    base_time: float
    noise_cv: float = 0.05
    master_pressure_factor: float = 1.0
    slots_per_unit: int = 4
    network_sensitivity: Optional[SensitivityFunction] = None
    generated_network_pressure: float = 0.0

    def __post_init__(self) -> None:
        validate_pressure(self.generated_pressure, name="generated_pressure")
        validate_pressure(
            self.generated_network_pressure,
            name="generated_network_pressure",
        )
        if self.base_time <= 0:
            raise ConfigurationError("base_time must be positive")
        if self.noise_cv < 0:
            raise ConfigurationError("noise_cv must be non-negative")
        if not 0.0 <= self.master_pressure_factor <= 1.0:
            raise ConfigurationError("master_pressure_factor must be in [0, 1]")
        if self.slots_per_unit <= 0:
            raise ConfigurationError("slots_per_unit must be positive")


class Workload:
    """Behavioural model of one application.

    Subclasses define the program structure; the spec carries the
    calibration.  Workload objects are immutable and reusable across
    simulations.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    @property
    def name(self) -> str:
        """Paper abbreviation of the workload (unique catalog key)."""
        return self.spec.abbrev

    @property
    def is_passive(self) -> bool:
        """Whether the workload runs only as long as co-runners do.

        Passive workloads (the bubble generator) have no work of their
        own; the executor terminates them when every active workload
        has finished.
        """
        return False

    def build_program(self, num_slots: int) -> List[Stage]:
        """Compile the workload to stages for a deployment of ``num_slots``.

        Parameters
        ----------
        num_slots:
            Total execution slots across all the workload's VM units.

        Returns
        -------
        list of Stage
            The program; empty only for passive workloads.
        """
        raise NotImplementedError

    def generated_pressure_for(self, unit_index: int) -> float:
        """Pressure one placed VM unit exerts on its node.

        Unit 0 hosts the application master; for frameworks whose
        master schedules without processing data (Hadoop/Spark,
        Section 3.4) it exerts a discounted pressure.

        Parameters
        ----------
        unit_index:
            Index of the VM unit within the workload's deployment.
        """
        pressure = self.spec.generated_pressure
        if unit_index == 0:
            pressure *= self.spec.master_pressure_factor
        return pressure

    def generated_network_pressure_for(self, unit_index: int) -> float:
        """Link pressure one placed VM unit exerts on its node's uplink.

        The master unit of a framework whose master only schedules
        moves correspondingly little data, so the same discount
        applies as for compute pressure.
        """
        pressure = self.spec.generated_network_pressure
        if unit_index == 0:
            pressure *= self.spec.master_pressure_factor
        return pressure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec.abbrev!r})"
