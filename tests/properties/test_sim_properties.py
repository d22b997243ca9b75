"""Property-based tests for simulator invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.execution import CoRunExecutor, DeployedInstance
from tests._synthetic import QUIET_NOISE, bsp_workload


class TestExecutionProperties:
    @given(
        iterations=st.integers(min_value=1, max_value=6),
        units=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_solo_time_matches_base_time(self, iterations, units, seed):
        # In the quiet environment a BSP solo run takes exactly its
        # base_time regardless of scale (weak scaling) and seed.
        workload = bsp_workload(iterations=iterations, base_time=7.0)
        instance = DeployedInstance(
            "app", workload, {i: i for i in range(units)}
        )
        results = CoRunExecutor([instance], seed=seed, noise=QUIET_NOISE).run()
        assert results["app"].finish_time == pytest.approx(7.0)

    @given(
        pressure_score=st.floats(min_value=0.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_interference_never_speeds_up(self, pressure_score, seed):
        target = bsp_workload("t", base_time=5.0, score=0.0)
        co = bsp_workload("c", score=pressure_score, base_time=500.0)
        solo = CoRunExecutor(
            [DeployedInstance("t", target, {0: 0, 1: 1})],
            seed=seed,
            noise=QUIET_NOISE,
        ).run()["t"].finish_time
        pressured = CoRunExecutor(
            [
                DeployedInstance("t", target, {0: 0, 1: 1}),
                DeployedInstance("c", co, {0: 1}),
            ],
            seed=seed,
            noise=QUIET_NOISE,
            sustained=True,
        ).run()["t"].finish_time
        assert pressured >= solo - 1e-9

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, seed):
        workload = bsp_workload(noise_cv=0.2)
        instance = DeployedInstance("app", workload, {0: 0, 1: 1})

        def once():
            return CoRunExecutor([instance], seed=seed).run()["app"].finish_time

        assert once() == once()
