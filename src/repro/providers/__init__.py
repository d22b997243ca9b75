"""Capacity providers: the fixed and elastic pools a service runs on.

See :mod:`repro.providers.base` for the model.  A service runs on a
:class:`StaticProvider` (the fixed pool) unless it is handed an
:class:`ElasticProvider` (autoscaling, spot preemption).
:mod:`repro.providers.ec2` is the 32-VM environment the Section 6
experiments measure on, not a provider.
"""

from repro.providers.autoscaler import AutoscalerConfig
from repro.providers.base import (
    DRAINING,
    DURABLE,
    LIVE,
    SPOT,
    CapacityEvent,
    CapacityProvider,
    ProviderInstance,
)
from repro.providers.ec2 import (
    EC2_COUNTS,
    EC2_INSTANCE_VCPUS,
    EC2_NUM_INSTANCES,
    EC2_POLICY_SAMPLES,
    EC2_WORKLOADS,
    ec2_cluster_spec,
    ec2_counts,
    make_ec2_runner,
)
from repro.providers.elastic import ElasticProvider
from repro.providers.static import StaticProvider

__all__ = [
    "AutoscalerConfig",
    "CapacityEvent",
    "CapacityProvider",
    "DRAINING",
    "DURABLE",
    "EC2_COUNTS",
    "EC2_INSTANCE_VCPUS",
    "EC2_NUM_INSTANCES",
    "EC2_POLICY_SAMPLES",
    "EC2_WORKLOADS",
    "ElasticProvider",
    "LIVE",
    "ProviderInstance",
    "SPOT",
    "StaticProvider",
    "ec2_cluster_spec",
    "ec2_counts",
    "make_ec2_runner",
]
