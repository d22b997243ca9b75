"""The elastic provider: seeded synthetic instances with spot churn.

``ElasticProvider`` is the provider layer's workhorse: a pool that
starts at ``initial_nodes`` (the low ids durable, the rest spot, split
by ``spot_fraction``), can grow spot capacity up to ``max_nodes`` and
release it again under the :mod:`~repro.providers.autoscaler` policy,
and loses spot instances to seeded two-phase preemption driven by a
:class:`~repro.faults.plan.FaultPlan`'s ``preempt`` family:

1. **warning** — the plan draws, per (spot instance, epoch), whether a
   preemption notice arrives.  A warned instance flips to ``draining``:
   it keeps executing resident units (measurements still run on it)
   but accepts no new work, and the rescheduler gets
   ``preemption_warning_epochs`` epochs to evacuate it through the
   normal migration-cost-gated search.
2. **reclaim** — at ``reclaim_epoch`` the instance leaves the
   inventory.  Any units still resident are evicted by the service and
   their (batch) jobs requeued — never dropped.

Every decision is a pure function of (state, epoch, plan seed), so the
whole churn day replays byte-identically, including across a
checkpoint/resume in the middle of a warning window.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.providers.autoscaler import AutoscalerConfig, decide
from repro.providers.base import (
    DRAINING,
    DURABLE,
    LIVE,
    NODE_CLASSES,
    SPOT,
    CapacityEvent,
    CapacityProvider,
    ProviderInstance,
)


class ElasticProvider(CapacityProvider):
    """A growable pool of durable + spot instances under seeded churn.

    Parameters
    ----------
    max_nodes:
        Pool ceiling; the service's runner must be built this big so
        every mintable node id has a physical identity.
    initial_nodes:
        Instances live at epoch 0.
    spot_fraction:
        Fraction of the initial pool that is spot (rounded down, but
        at least one node stays durable).  Ids are assigned low-first
        to durable, so the durable set is ``0..d-1`` — deterministic
        and easy to read in event logs.
    churn:
        Optional :class:`~repro.faults.plan.FaultPlan` whose
        ``preemption_rate`` / ``preemption_warning_epochs`` drive spot
        preemption.  ``None`` (or a rate of 0) means no churn.
    autoscaler:
        Optional :class:`~repro.providers.autoscaler.AutoscalerConfig`;
        ``None`` disables scaling (the pool only changes through
        preemption).
    """

    name = "elastic"

    def __init__(
        self,
        max_nodes: int,
        *,
        initial_nodes: Optional[int] = None,
        spot_fraction: float = 0.5,
        churn: Optional[FaultPlan] = None,
        autoscaler: Optional[AutoscalerConfig] = None,
    ) -> None:
        super().__init__(max_nodes)
        initial = max_nodes if initial_nodes is None else initial_nodes
        if not 1 <= initial <= max_nodes:
            raise ConfigurationError(
                f"initial_nodes must be in [1, {max_nodes}], got {initial}"
            )
        if not 0.0 <= spot_fraction <= 1.0:
            raise ConfigurationError("spot_fraction must be in [0, 1]")
        self.churn = churn
        self.autoscaler = autoscaler
        spot_count = min(int(initial * spot_fraction), initial - 1)
        durable_count = initial - spot_count
        self._instances = {
            node_id: ProviderInstance(
                node_id=node_id,
                node_class=DURABLE if node_id < durable_count else SPOT,
            )
            for node_id in range(initial)
        }

    @property
    def elastic(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def step(
        self,
        epoch: int,
        *,
        queue_depth: int = 0,
        qos_margin: Optional[float] = None,
        idle_nodes: Optional[List[int]] = None,
    ) -> List[CapacityEvent]:
        """One epoch boundary's worth of capacity changes, in order.

        The service calls this once per epoch *before* anything else
        happens, so the epoch's admission and rescheduling see a
        consistent capacity picture.  Autoscaling first (driven by the
        *previous* boundary's queue depth and predicted
        mission-critical QoS margin), then the seeded preemption
        lifecycle.  The returned events are already ordered the way
        the service logs them.
        """
        events = self.autoscale(
            epoch,
            queue_depth=queue_depth,
            qos_margin=qos_margin,
            idle_nodes=list(idle_nodes or []),
        )
        events.extend(self.poll(epoch))
        return events

    def grow(
        self, count: int, epoch: int, *, node_class: str = SPOT
    ) -> List[CapacityEvent]:
        """Launch ``count`` fresh instances (bounded by ``max_nodes``).

        New instances take the lowest free node ids, so growth is
        deterministic.  Returns the ``node_join`` event (empty list
        when the pool is already at its ceiling).
        """
        if count <= 0:
            return []
        if node_class not in NODE_CLASSES:
            raise ConfigurationError(f"unknown node class {node_class!r}")
        free = [
            n for n in range(self._max_nodes) if n not in self._instances
        ]
        taken = free[:count]
        if not taken:
            return []
        for node_id in taken:
            self._instances[node_id] = ProviderInstance(
                node_id=node_id,
                node_class=node_class,
                launched_epoch=epoch,
            )
        return [CapacityEvent(
            kind="node_join",
            epoch=epoch,
            nodes=tuple(taken),
            node_class=node_class,
            details=(("pool_size", len(self._instances)),),
        )]

    def shrink(self, nodes: List[int], epoch: int) -> List[CapacityEvent]:
        """Release the given (idle) instances back to the provider.

        The caller — the autoscaler path — is responsible for only
        releasing nodes with no resident units.  Returns the
        ``node_leave`` event.
        """
        released = sorted(n for n in nodes if n in self._instances)
        if not released:
            return []
        for node_id in released:
            del self._instances[node_id]
        return [CapacityEvent(
            kind="node_leave",
            epoch=epoch,
            nodes=tuple(released),
            reason="autoscale",
            details=(("pool_size", len(self._instances)),),
        )]

    def autoscale(
        self,
        epoch: int,
        *,
        queue_depth: int,
        qos_margin: Optional[float],
        idle_nodes: List[int],
    ) -> List[CapacityEvent]:
        """This boundary's scaling decision (none without an autoscaler)."""
        if self.autoscaler is None:
            return []
        idle_spot = [
            n for n in idle_nodes
            if self.is_spot(n) and not self.is_draining(n)
        ]
        action, count, victims, reason = decide(
            self.autoscaler,
            queue_depth=queue_depth,
            qos_margin=qos_margin,
            live_count=len(self._instances),
            max_nodes=self._max_nodes,
            idle_spot=idle_spot,
        )
        if action == "hold":
            return []
        events: List[CapacityEvent] = []
        if action == "grow":
            joins = self.grow(count, epoch, node_class=SPOT)
            if not joins:
                return []
            events.append(CapacityEvent(
                kind="autoscale",
                epoch=epoch,
                nodes=joins[0].nodes,
                reason=reason,
                details=(
                    ("action", "grow"),
                    ("pool_size", len(self._instances)),
                ),
            ))
            events.extend(joins)
        else:
            leaves = self.shrink(victims, epoch)
            if not leaves:
                return []
            events.append(CapacityEvent(
                kind="autoscale",
                epoch=epoch,
                nodes=leaves[0].nodes,
                reason=reason,
                details=(
                    ("action", "shrink"),
                    ("pool_size", len(self._instances)),
                ),
            ))
            events.extend(leaves)
        return events

    def poll(self, epoch: int) -> List[CapacityEvent]:
        """Advance the two-phase preemption lifecycle to ``epoch``.

        Reclaims due this epoch fire first (their warnings are already
        on the log), then fresh warnings are drawn — so a warning's
        evacuation window is a real window even when
        ``preemption_warning_epochs`` is 0 (warning and reclaim then
        land in the same poll, reclaim event after warning event).
        """
        if self.churn is None or self.churn.config.preemption_rate <= 0.0:
            return []
        events: List[CapacityEvent] = []
        reclaimed = sorted(
            n for n, inst in self._instances.items()
            if inst.state == DRAINING
            and inst.reclaim_epoch is not None
            and inst.reclaim_epoch <= epoch
        )
        for node_id in reclaimed:
            del self._instances[node_id]
        if reclaimed:
            events.append(CapacityEvent(
                kind="preempt_reclaim",
                epoch=epoch,
                nodes=tuple(reclaimed),
                node_class=SPOT,
                details=(("pool_size", len(self._instances)),),
            ))
        window = self.churn.config.preemption_warning_epochs
        warned = []
        for node_id in sorted(self._instances):
            instance = self._instances[node_id]
            if instance.node_class != SPOT or instance.state != LIVE:
                continue
            if self.churn.preempts(node_id, epoch):
                instance.state = DRAINING
                instance.reclaim_epoch = epoch + window
                warned.append(node_id)
        if warned:
            events.append(CapacityEvent(
                kind="preempt_warning",
                epoch=epoch,
                nodes=tuple(warned),
                node_class=SPOT,
                details=(("reclaim_epoch", epoch + window),),
            ))
            if window == 0:
                # Zero-window plans reclaim immediately: flush the
                # instances this same boundary so the service never
                # schedules onto them.
                for node_id in warned:
                    del self._instances[node_id]
                events.append(CapacityEvent(
                    kind="preempt_reclaim",
                    epoch=epoch,
                    nodes=tuple(warned),
                    node_class=SPOT,
                    details=(("pool_size", len(self._instances)),),
                ))
        return events

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        # The churn plan and autoscaler are construction-time
        # configuration (rebuilt from the blueprint/CLI on resume);
        # only their identity is recorded, to catch mismatched resumes.
        state["churn_signature"] = (
            None if self.churn is None else self.churn.signature()
        )
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        recorded = state.get("churn_signature")
        current = None if self.churn is None else self.churn.signature()
        if recorded != current:
            raise ConfigurationError(
                "checkpoint was captured under a different churn plan; "
                "resume with the same --churn configuration"
            )
        super().load_state(state)
