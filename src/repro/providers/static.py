"""The fixed-capacity provider: the paper's fixed pool of hosts.

``StaticProvider`` is the pool a service runs on unless it is handed
an elastic one: the whole pool is durable, live from epoch 0, and
never changes.  It is not elastic, so the service gives it no
capacity phase and records nothing about it — no events, snapshot
block, spans, counters or checkpoint state.
"""

from __future__ import annotations

from repro.providers.base import DURABLE, CapacityProvider, ProviderInstance


class StaticProvider(CapacityProvider):
    """A fixed, fully durable pool of ``num_nodes`` instances."""

    name = "static"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        self._instances = {
            node_id: ProviderInstance(node_id=node_id, node_class=DURABLE)
            for node_id in range(num_nodes)
        }
