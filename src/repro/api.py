"""The curated, stable public API surface.

Everything a consumer of this reproduction needs is re-exported here,
grouped by concern, and the set is intentionally small enough to keep
stable across releases:

* **Measurement** — :class:`ClusterRunner`, the oracle that simulates
  every reading and counts profiling cost.
* **Model building & prediction** — :func:`build_model` /
  :func:`build_batch_profiles` / :func:`build_network_profiles`, the
  :class:`InterferenceModel` (whose
  :meth:`~repro.core.model.InterferenceModel.predict` answers one
  setting, and whose ``predict_placement_batch`` and
  ``predict_placements_batch`` score a whole placement or admission
  wave through the bit-identical :class:`PredictionKernel` snapshot —
  see the "Batch prediction" section of ``docs/performance.md``),
  persistence via :func:`load_model` / :func:`save_model`, the
  :class:`NaiveProportionalModel` baseline, and the
  :class:`OnlineModel` refinement wrapper.  ``predict`` takes a
  ``domain`` keyword selecting the contention resource
  (:class:`ContentionDomain`); omitting it is the scalar-era
  compute-only call and stays bit-identical.
* **Placement** — :class:`Placement` / :class:`InstanceSpec`, the
  annealing placers, and QoS constraints.
* **Service** — the online :class:`ConsolidationService` and its
  traffic, config, telemetry, and crash-safety
  (:class:`ServiceCheckpoint`) types.
* **Scale** — the sharded hierarchical tier for 1000-node days:
  :func:`shard_cluster` cells, the :class:`HeadroomRouter`, the
  :class:`GlobalCoordinator`, the :class:`ShardedConsolidationService`
  (built via :func:`build_sharded_service`), checkpointed through
  the same :class:`ServiceCheckpoint` as the flat service (see the
  "Scale layer" section of ``docs/architecture.md``).
* **Daemon** — the long-running serving layer: the
  :class:`ConsolidationDaemon` over a durable :class:`JobSpool`
  (submit/status/cancel), built from a :class:`ServiceBlueprint`
  whose :func:`execute_epoch` is a pure function of
  ``(checkpoint, arrivals)`` (see the "Daemon layer" section of
  ``docs/architecture.md``).
* **Providers** — the capacity layer every service runs on: the
  :class:`CapacityProvider` contract over durable/spot
  :class:`ProviderInstance` pools, the fixed :class:`StaticProvider`
  (a service's pool unless it is handed another), and the
  :class:`ElasticProvider` with :class:`AutoscalerConfig`-driven
  resizing, two-phase spot preemption and :class:`CapacityEvent`
  records (see the "Elastic capacity & preemption" section of
  ``docs/robustness.md``).
* **Robustness** — deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultConfig`), the :class:`RetryPolicy`
  governing the retrying measurement path, and :class:`MeasurementFault`
  for readings that exhaust it (see ``docs/robustness.md``).
* **Observability** — the :mod:`repro.obs` subsystem
  (:func:`~repro.obs.recording`, :class:`~repro.obs.TraceRecorder`,
  :func:`~repro.obs.write_trace`, :func:`~repro.obs.load_trace`).
* **Errors** — the :class:`ReproError` hierarchy.

``repro/__init__.py`` re-exports this module one-to-one, so
``from repro import build_model`` and ``from repro.api import
build_model`` name the same objects.  Everything else is imported
from its defining submodule.
"""

from __future__ import annotations

from repro import obs
from repro.apps import (
    ALL_WORKLOADS,
    BATCH_WORKLOADS,
    DISTRIBUTED_WORKLOADS,
    NETWORK_WORKLOADS,
    get_workload,
)
from repro.cluster import ClusterSpec, ContentionDomain
from repro.daemon import (
    ConsolidationDaemon,
    JobSpool,
    ServiceBlueprint,
    execute_epoch,
)
from repro.core import (
    HomogeneousSetting,
    InterferenceModel,
    InterferenceProfile,
    MATRIX_PROFILERS,
    ModelBuildReport,
    NaiveProportionalModel,
    OnlineModel,
    PredictionKernel,
    PropagationMatrix,
    build_batch_profiles,
    build_model,
    build_network_profiles,
    load_model,
    save_model,
)
from repro.errors import (
    CatalogError,
    ConfigurationError,
    DaemonError,
    FaultError,
    MeasurementFault,
    ModelError,
    PlacementError,
    ProfilingError,
    ReproError,
    ServiceError,
    SimulationError,
)
from repro.faults import FaultConfig, FaultPlan, RetryPolicy
from repro.obs import (
    NullRecorder,
    TraceRecorder,
    load_trace,
    recording,
    summarize_text,
    write_trace,
)
from repro.placement import (
    AnnealingSchedule,
    InstanceSpec,
    Placement,
    QoSAwarePlacer,
    QoSConstraint,
    SimulatedAnnealingPlacer,
    ThroughputPlacer,
)
from repro.providers import (
    AutoscalerConfig,
    CapacityEvent,
    CapacityProvider,
    ElasticProvider,
    ProviderInstance,
    StaticProvider,
)
from repro.scale import (
    CoordinatorConfig,
    GlobalCoordinator,
    HeadroomRouter,
    ShardedConsolidationService,
    build_sharded_service,
    scale_day_service,
    shard_cluster,
)
from repro.service import (
    ConsolidationService,
    EventLog,
    FixedStream,
    Job,
    MetricsSnapshot,
    ServiceCheckpoint,
    ServiceConfig,
    StreamConfig,
    WorkloadStream,
)
from repro.sim import ClusterRunner

__all__ = [
    # measurement
    "ClusterRunner",
    "ClusterSpec",
    # model building & prediction
    "ALL_WORKLOADS",
    "BATCH_WORKLOADS",
    "ContentionDomain",
    "DISTRIBUTED_WORKLOADS",
    "HomogeneousSetting",
    "NETWORK_WORKLOADS",
    "InterferenceModel",
    "InterferenceProfile",
    "MATRIX_PROFILERS",
    "ModelBuildReport",
    "NaiveProportionalModel",
    "OnlineModel",
    "PredictionKernel",
    "PropagationMatrix",
    "build_batch_profiles",
    "build_model",
    "build_network_profiles",
    "get_workload",
    "load_model",
    "save_model",
    # placement
    "AnnealingSchedule",
    "InstanceSpec",
    "Placement",
    "QoSAwarePlacer",
    "QoSConstraint",
    "SimulatedAnnealingPlacer",
    "ThroughputPlacer",
    # service
    "ConsolidationService",
    "EventLog",
    "FixedStream",
    "Job",
    "MetricsSnapshot",
    "ServiceCheckpoint",
    "ServiceConfig",
    "StreamConfig",
    "WorkloadStream",
    # scale
    "CoordinatorConfig",
    "GlobalCoordinator",
    "HeadroomRouter",
    "ShardedConsolidationService",
    "build_sharded_service",
    "scale_day_service",
    "shard_cluster",
    # daemon
    "ConsolidationDaemon",
    "JobSpool",
    "ServiceBlueprint",
    "execute_epoch",
    # providers
    "AutoscalerConfig",
    "CapacityEvent",
    "CapacityProvider",
    "ElasticProvider",
    "ProviderInstance",
    "StaticProvider",
    # robustness
    "FaultConfig",
    "FaultPlan",
    "RetryPolicy",
    # observability
    "NullRecorder",
    "TraceRecorder",
    "load_trace",
    "obs",
    "recording",
    "summarize_text",
    "write_trace",
    # errors
    "CatalogError",
    "ConfigurationError",
    "DaemonError",
    "FaultError",
    "MeasurementFault",
    "ModelError",
    "PlacementError",
    "ProfilingError",
    "ReproError",
    "ServiceError",
    "SimulationError",
]
