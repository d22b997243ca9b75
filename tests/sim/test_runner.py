"""Tests for the measurement oracle (ClusterRunner)."""

import pytest

from repro.errors import ConfigurationError
from tests._synthetic import quiet_runner, synthetic_factory


@pytest.fixture
def runner():
    return quiet_runner(num_nodes=4)


class TestSolo:
    def test_solo_cached(self, runner):
        first = runner.solo_time("app")
        second = runner.solo_time("app")
        assert first == second

    def test_solo_positive(self, runner):
        assert runner.solo_time("app") > 0

    def test_solo_varies_by_units(self, runner):
        # Different unit counts are distinct baselines (collective
        # costs differ), cached separately.
        assert (
            runner.solo_time("app", num_units=2) is not None
            and runner.solo_time("app", num_units=4) is not None
        )


class TestMeasure:
    def test_no_interference_is_one(self, runner):
        assert runner.measure("app", 0.0, 4) == 1.0
        assert runner.measure("app", 5.0, 0) == 1.0

    def test_normalized_above_one_under_pressure(self, runner):
        assert runner.measure("app", 8.0, 4) > 1.0

    def test_monotone_in_count(self, runner):
        # Noise-free BSP: more interfering nodes never speeds things up.
        times = [runner.measure("app", 8.0, k) for k in range(0, 5)]
        assert times == sorted(times)

    def test_deterministic(self, runner):
        assert runner.measure("app", 4.0, 2) == runner.measure("app", 4.0, 2)

    def test_rep_changes_nothing_when_quiet(self, runner):
        # The environment is noise-free, so repetitions agree exactly.
        assert runner.measure("app", 4.0, 2, rep=0) == pytest.approx(
            runner.measure("app", 4.0, 2, rep=1)
        )

    def test_measurement_counter(self, runner):
        before = runner.measurement_count
        runner.measure("app", 3.0, 2)
        assert runner.measurement_count == before + 1

    def test_interfering_node_selection(self, runner):
        # Bubbles fill from the highest-numbered node down.
        assert runner.interfering_nodes(2) == [2, 3]
        assert runner.interfering_nodes(0) == []
        assert runner.interfering_nodes(2, span=3) == [1, 2]

    def test_interfering_count_bounds(self, runner):
        with pytest.raises(ConfigurationError):
            runner.interfering_nodes(5)

    def test_span_limits_deployment(self, runner):
        full = runner.full_span_deployment("app")
        half = runner.full_span_deployment("app", span=2)
        assert full.num_units == 4
        assert half.num_units == 2

    def test_invalid_span(self, runner):
        with pytest.raises(ConfigurationError):
            runner.full_span_deployment("app", span=9)


class TestHeterogeneous:
    def test_all_zero_is_one(self, runner):
        assert runner.measure_heterogeneous("app", {0: 0.0, 1: 0.0}) == 1.0

    def test_matches_homogeneous(self, runner):
        hetero = runner.measure_heterogeneous(
            "app", {n: 6.0 for n in runner.interfering_nodes(2)}
        )
        homog = runner.measure("app", 6.0, 2)
        assert hetero == pytest.approx(homog, rel=0.01)

    def test_bad_node_rejected(self, runner):
        with pytest.raises(ConfigurationError):
            runner.measure_heterogeneous("app", {7: 3.0})


class TestCoRuns:
    def test_corun_pair_keys(self, runner):
        times = runner.corun_pair("appA", "appB")
        assert set(times) == {"appA#0", "appB#1"}

    def test_corun_with_self(self, runner):
        times = runner.corun_pair("appA", "appA")
        assert set(times) == {"appA#0", "appA#1"}

    def test_corun_slower_than_solo(self):
        runner = quiet_runner(
            num_nodes=4,
            factory=synthetic_factory(loud={"score": 6.0}, tgt={"score": 6.0}),
        )
        times = runner.corun_pair("tgt", "loud")
        assert times["tgt#0"] > 1.2

    def test_run_deployments(self, runner):
        times = runner.run_deployments(
            [
                ("a", "appA", {0: 0, 1: 1}),
                ("b", "appB", {0: 2, 1: 3}),
            ]
        )
        assert set(times) == {"a", "b"}
        # Disjoint nodes: no interference, normalized ~1.
        assert times["a"] == pytest.approx(1.0, abs=0.02)


class TestSoloAccounting:
    def test_solo_counts_reps_once_per_key(self):
        runner = quiet_runner()
        runner.solo_time("app")
        runner.solo_time("app")
        assert runner.solo_measurement_count == runner.SOLO_REPS
        runner.solo_time("app", num_units=2)
        assert runner.solo_measurement_count == 2 * runner.SOLO_REPS

    def test_solo_not_counted_as_measurement(self):
        runner = quiet_runner()
        runner.solo_time("app")
        assert runner.measurement_count == 0

    def test_total_combines_both(self):
        runner = quiet_runner()
        runner.measure("app", 8.0, 2)
        assert runner.total_measurement_count == (
            runner.measurement_count + runner.solo_measurement_count
        )
        assert runner.measurement_count == 1
        assert runner.solo_measurement_count == runner.SOLO_REPS
