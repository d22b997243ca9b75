"""Interference management for distributed parallel applications.

A faithful reproduction of Han, Jeon, Choi, and Huh, *Interference
Management for Distributed Parallel Applications in Consolidated
Clusters* (ASPLOS 2016), built on a simulated consolidated cluster.

The package layers:

* :mod:`repro.cluster` — the cluster shape (hosts, cores, the
  pairwise co-location limit) and the shared-resource contention
  abstraction (bubble pressure).
* :mod:`repro.apps` — behavioural models of the Table 1 workloads,
  whose synchronization structure yields the paper's propagation
  classes.
* :mod:`repro.sim` — the discrete-event executor and the measurement
  oracle (the "testbed" the model is profiled against).
* :mod:`repro.core` — the contribution: propagation matrices,
  heterogeneity policies, bubble scoring, profiling algorithms, and
  the interference-aware model (plus the naive baseline).
* :mod:`repro.placement` — simulated-annealing QoS and throughput
  placement case studies.
* :mod:`repro.service` — the online consolidation service.
* :mod:`repro.obs` — structured tracing and metrics.
* :mod:`repro.providers` — the capacity providers every service runs
  on (the fixed static pool and the elastic spot pool), plus the
  32-VM EC2 validation environment of Section 6.
* :mod:`repro.experiments` — one module per paper table/figure.

The supported import surface is :mod:`repro.api`, re-exported here
one-to-one.  Quick start::

    from repro.api import ClusterRunner, build_model

    runner = ClusterRunner()
    report = build_model(runner, ["M.lmps", "M.Gems"], policy_samples=20)
    model = report.model
    # predicted slowdown of lammps with 3 nodes at bubble pressure 5:
    model.predict("M.lmps", (5.0, 3))

Symbols outside the curated surface (``make_bubble``,
``MAX_PRESSURE``, ...) are imported from their defining module.
"""

from __future__ import annotations

from repro.api import *  # noqa: F401,F403 — the curated surface, one-to-one
from repro.api import __all__ as _API_ALL

__version__ = "1.1.0"

__all__ = list(_API_ALL) + ["__version__"]
