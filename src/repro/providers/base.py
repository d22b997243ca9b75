"""Capacity providers: the node pool under the service.

The paper's consolidation story assumes a fixed pool of hosts; a
production fleet does not get that luxury — capacity arrives, leaves,
and is *reclaimed* mid-day.  A :class:`CapacityProvider` owns the
synthetic "instance" inventory the consolidation service schedules
onto: which node ids are live, which are durable versus spot, which
are draining toward a preemption reclaim.  Every service runs on one:
a fixed :class:`~repro.providers.static.StaticProvider` over its
runner's nodes unless it is handed an elastic pool.  The service's
runner is built at the provider's ``max_nodes`` ceiling, so every
node id the provider can ever mint has a physical identity; the
provider decides which subset is *schedulable* at each epoch
boundary.

Determinism contract: every capacity decision is a pure function of
the provider's serialized state, the epoch number, and a seeded
:class:`~repro.faults.plan.FaultPlan` (the ``preempt`` family) —
never of wall clock, query order, or measurement draws.  Provider
state round-trips through :meth:`CapacityProvider.state_dict` /
:meth:`CapacityProvider.load_state`, which is how
:class:`~repro.service.checkpoint.ServiceCheckpoint` makes a resize or
an in-flight preemption warning survive ``--resume`` byte-identically.

Node classes:

* **durable** — never preempted; the only class mission-critical
  tenants may be admitted onto.
* **spot** — cheap elastic capacity; may receive a seeded preemption
  *warning* (the instance keeps running but stops accepting work) and
  is *reclaimed* a fixed number of epochs later (resident batch jobs
  are evicted and requeued, never dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Node classes a provider instance can carry.
DURABLE = "durable"
SPOT = "spot"

#: Instance lifecycle states.
LIVE = "live"
DRAINING = "draining"

NODE_CLASSES = (DURABLE, SPOT)
INSTANCE_STATES = (LIVE, DRAINING)


@dataclass
class ProviderInstance:
    """One synthetic capacity instance (a schedulable node identity).

    ``reclaim_epoch`` is set while the instance is ``draining``: the
    epoch at which the provider takes the node back.  A reclaimed
    instance leaves the inventory entirely (its node id may later be
    reused by a fresh grow — a reused id is a *new* instance).
    """

    node_id: int
    node_class: str = DURABLE
    launched_epoch: int = 0
    state: str = LIVE
    reclaim_epoch: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "node_id": self.node_id,
            "node_class": self.node_class,
            "launched_epoch": self.launched_epoch,
            "state": self.state,
        }
        if self.reclaim_epoch is not None:
            entry["reclaim_epoch"] = self.reclaim_epoch
        return entry

    @classmethod
    def from_dict(cls, entry: Dict[str, object]) -> "ProviderInstance":
        try:
            instance = cls(
                node_id=int(entry["node_id"]),
                node_class=str(entry["node_class"]),
                launched_epoch=int(entry["launched_epoch"]),
                state=str(entry["state"]),
                reclaim_epoch=(
                    None if entry.get("reclaim_epoch") is None
                    else int(entry["reclaim_epoch"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed provider instance: {entry!r}"
            ) from exc
        if instance.node_class not in NODE_CLASSES:
            raise ConfigurationError(
                f"unknown node class {instance.node_class!r}"
            )
        if instance.state not in INSTANCE_STATES:
            raise ConfigurationError(
                f"unknown instance state {instance.state!r}"
            )
        return instance


@dataclass(frozen=True)
class CapacityEvent:
    """One capacity change the provider reports at an epoch boundary.

    ``kind`` is one of ``autoscale``, ``node_join``, ``node_leave``,
    ``preempt_warning``, ``preempt_reclaim`` — the service maps each to
    its event-log entry of the same name.  ``nodes`` lists the node
    ids involved, sorted.
    """

    kind: str
    epoch: int
    nodes: Tuple[int, ...] = ()
    node_class: Optional[str] = None
    reason: Optional[str] = None
    #: Extra payload merged into the logged event (e.g. the autoscale
    #: action and resulting pool size).
    details: Tuple[Tuple[str, object], ...] = ()


class CapacityProvider:
    """Base class: the pool of provider instances a service schedules onto.

    Subclasses own the inventory (``self._instances``, keyed by node
    id).  The base pool never changes shape; only
    :class:`~repro.providers.elastic.ElasticProvider` grows, shrinks
    and loses instances, through its per-epoch ``step``.
    """

    #: Checkpoint name (set by subclasses).
    name = "base"

    def __init__(self, max_nodes: int) -> None:
        if max_nodes <= 0:
            raise ConfigurationError("max_nodes must be positive")
        self._max_nodes = max_nodes
        self._instances: Dict[int, ProviderInstance] = {}

    # ------------------------------------------------------------------
    # Inventory views (all sorted: iteration order is part of the
    # determinism contract)
    # ------------------------------------------------------------------
    @property
    def max_nodes(self) -> int:
        """Pool ceiling — the runner must be built at least this big."""
        return self._max_nodes

    @property
    def elastic(self) -> bool:
        """Whether this pool can ever change shape.

        The service keys its additive output on this: a fixed pool
        adds **no** capacity phase, events, snapshot fields, spans,
        counters or checkpoint state.
        """
        return False

    def instances(self) -> List[ProviderInstance]:
        """The live inventory, sorted by node id."""
        return [self._instances[n] for n in sorted(self._instances)]

    def live_nodes(self) -> List[int]:
        """Node ids still hosting work (live *and* draining), sorted."""
        return sorted(self._instances)

    def schedulable_nodes(self) -> List[int]:
        """Node ids accepting *new* work (live, not draining), sorted."""
        return sorted(
            n for n, inst in self._instances.items() if inst.state == LIVE
        )

    def durable_nodes(self) -> List[int]:
        """Durable (never-preempted) node ids, sorted."""
        return sorted(
            n for n, inst in self._instances.items()
            if inst.node_class == DURABLE
        )

    def is_spot(self, node_id: int) -> bool:
        """Whether ``node_id`` is a spot instance (False if unknown)."""
        instance = self._instances.get(node_id)
        return instance is not None and instance.node_class == SPOT

    def is_draining(self, node_id: int) -> bool:
        """Whether ``node_id`` has a pending preemption reclaim."""
        instance = self._instances.get(node_id)
        return instance is not None and instance.state == DRAINING

    # ------------------------------------------------------------------
    # Serialization (the checkpoint contract)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able provider state (everything non-derivable)."""
        return {
            "provider": self.name,
            "max_nodes": self._max_nodes,
            "instances": [inst.to_dict() for inst in self.instances()],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Install a :meth:`state_dict` capture into this provider.

        The provider must have been constructed with the same
        configuration as the captured one (same name and ceiling) —
        the checkpoint carries state, not construction.
        """
        try:
            name = str(state["provider"])
            max_nodes = int(state["max_nodes"])
            entries = list(state["instances"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError("malformed provider state") from exc
        if name != self.name:
            raise ConfigurationError(
                f"checkpoint provider {name!r} does not match this "
                f"provider {self.name!r}"
            )
        if max_nodes != self._max_nodes:
            raise ConfigurationError(
                f"checkpoint max_nodes {max_nodes} does not match this "
                f"provider's {self._max_nodes}"
            )
        instances = [ProviderInstance.from_dict(entry) for entry in entries]
        self._instances = {inst.node_id: inst for inst in instances}
