"""Property test: predictions read node ids only to order the nodes.

``PredictionEnergy`` memoizes a prediction by the workload and the
co-runner names on each spanned node, in node order, with no node ids.
That is exact only if every model's ``predict_under_corunners`` returns
the same float after the spanned nodes are relabeled in an
order-preserving way.  This checks it for the interference-aware model
with and without the network domain, the online model with learned
corrections, the naive proportional model and the multiway predictor.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multiway import MultiwayPredictor
from repro.core.naive import NaiveProportionalModel

from tests.properties.test_admission_wave import POLICIES, WORKLOADS, _model


def _predictor(kind, rng, policies):
    if kind == "online":
        return _model(rng, policies, network=rng.random() < 0.5, online=True)
    base = _model(rng, policies, network=kind == "network", online=False)
    if kind == "naive":
        return NaiveProportionalModel(base)
    if kind == "multiway":
        return MultiwayPredictor(base, collision_surcharge=rng.choice([0.0, 0.15]))
    return base


@pytest.mark.parametrize(
    "kind", ["compute", "network", "online", "naive", "multiway"]
)
@given(seed=st.integers(0, 2**32 - 1), policies=st.permutations(POLICIES))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_order_preserving_relabeling_keeps_every_bit(kind, seed, policies):
    rng = random.Random(seed)
    model = _predictor(kind, rng, policies)
    span = rng.randint(1, 6)
    nodes = sorted(rng.sample(range(64), span))
    relabeled = sorted(rng.sample(range(1000), span))
    co_runners = {}
    for node in nodes:
        names = [rng.choice(WORKLOADS) for _ in range(rng.randint(0, 3))]
        # A node with no co-runners may be listed empty or left out.
        if names or rng.random() < 0.5:
            co_runners[node] = names
    moved = {
        new: co_runners[old]
        for old, new in zip(nodes, relabeled)
        if old in co_runners
    }
    workload = rng.choice(WORKLOADS)
    before = model.predict_under_corunners(workload, nodes, co_runners)
    after = model.predict_under_corunners(workload, relabeled, moved)
    assert float(after).hex() == float(before).hex()
