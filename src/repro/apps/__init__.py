"""Application behaviour models and the Table 1 workload catalog."""

from repro.apps.base import (
    PropagationClass,
    Stage,
    Workload,
    WorkloadFamily,
    WorkloadSpec,
)
from repro.apps.batch import BatchWorkload
from repro.apps.bubble import BubbleWorkload, bubble_sensitivity
from repro.apps.catalog import (
    ALL_WORKLOADS,
    BATCH_WORKLOADS,
    DISTRIBUTED_WORKLOADS,
    NETWORK_WORKLOADS,
    CatalogEntry,
    catalog_entry,
    get_workload,
    make_bubble,
    table1_rows,
)
from repro.apps.graph import GraphTraversalWorkload
from repro.apps.mapreduce import MapReduceWorkload
from repro.apps.mpi import BSPWorkload, CollectiveType, LooselyCoupledWorkload
from repro.apps.paramserver import ParameterServerWorkload
from repro.apps.spark import SparkWorkload

__all__ = [
    "ALL_WORKLOADS",
    "BATCH_WORKLOADS",
    "BSPWorkload",
    "BatchWorkload",
    "BubbleWorkload",
    "CatalogEntry",
    "CollectiveType",
    "DISTRIBUTED_WORKLOADS",
    "GraphTraversalWorkload",
    "LooselyCoupledWorkload",
    "MapReduceWorkload",
    "NETWORK_WORKLOADS",
    "ParameterServerWorkload",
    "PropagationClass",
    "SparkWorkload",
    "Stage",
    "Workload",
    "WorkloadFamily",
    "WorkloadSpec",
    "bubble_sensitivity",
    "catalog_entry",
    "get_workload",
    "make_bubble",
    "table1_rows",
]
