"""Tests for noise models."""

import numpy as np
import pytest

from repro._util import make_rng
from repro.sim.noise import (
    EC2_NOISE,
    PRIVATE_TESTBED_NOISE,
    AmbientNoise,
    NoiseProfile,
    StallModel,
    TaskJitter,
)


class TestTaskJitter:
    def test_zero_cv_is_deterministic(self):
        jitter = TaskJitter(0.0, make_rng(0))
        assert all(jitter.sample() == 1.0 for _ in range(10))

    def test_unit_mean(self):
        jitter = TaskJitter(0.2, make_rng(0))
        samples = [jitter.sample() for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)

    def test_cv_matches(self):
        jitter = TaskJitter(0.15, make_rng(1))
        samples = np.array([jitter.sample() for _ in range(20000)])
        assert samples.std() / samples.mean() == pytest.approx(0.15, abs=0.01)

    def test_always_positive(self):
        jitter = TaskJitter(0.5, make_rng(2))
        assert all(jitter.sample() > 0 for _ in range(1000))

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            TaskJitter(-0.1, make_rng(0))

    @pytest.mark.parametrize(
        "chunks", [(1,), (7,), (5, 1, 17), (64, 3, 200, 2, 1, 31)]
    )
    def test_stage_sized_samples_equal_scalar_samples(self, chunks):
        bulk_rng, scalar_rng = make_rng(11), make_rng(11)
        bulk, scalar = TaskJitter(0.3, bulk_rng), TaskJitter(0.3, scalar_rng)
        for count in chunks:
            got = list(bulk.samples(count))
            want = [scalar.sample() for _ in range(count)]
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state
        assert bulk_rng.random() == scalar_rng.random()

    def test_zero_cv_samples_draw_nothing(self):
        rng = make_rng(3)
        before = rng.bit_generator.state
        assert list(TaskJitter(0.0, rng).samples(9)) == [1.0] * 9
        assert rng.bit_generator.state == before


class TestAmbientNoise:
    def test_draw_covers_all_nodes(self):
        noise = AmbientNoise(max_pressure=2.0, occupancy=0.5)
        draw = noise.draw(8, seed=3)
        assert set(draw) == set(range(8))

    def test_pressures_bounded(self):
        noise = AmbientNoise(max_pressure=2.0, occupancy=1.0)
        draw = noise.draw(100, seed=4)
        assert all(0.0 <= p <= 2.0 for p in draw.values())

    def test_zero_occupancy_silent(self):
        noise = AmbientNoise(max_pressure=2.0, occupancy=0.0)
        assert all(p == 0.0 for p in noise.draw(20, seed=5).values())

    def test_deterministic_per_seed(self):
        noise = AmbientNoise()
        assert noise.draw(8, seed=6) == noise.draw(8, seed=6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AmbientNoise(max_pressure=-1)
        with pytest.raises(ValueError):
            AmbientNoise(occupancy=1.5)


class TestStallModel:
    def test_disabled_never_stalls(self):
        stall = StallModel(prob_at_max=0.0)
        assert stall.factor(make_rng(0), 8.0, reacts=True) == 1.0

    def test_non_reacting_workload_never_stalls(self):
        # A workload whose working set is untouched by the co-runner
        # does not fault on the contention path.
        stall = StallModel(prob_at_max=1.0)
        assert stall.factor(make_rng(0), 8.0, reacts=False) == 1.0

    def test_zero_pressure_never_stalls(self):
        stall = StallModel(prob_at_max=1.0)
        assert stall.factor(make_rng(0), 0.0, reacts=True) == 1.0

    def test_certain_stall_multiplies(self):
        stall = StallModel(prob_at_max=1.0, scale=0.5)
        factor = stall.factor(make_rng(0), 8.0, reacts=True)
        assert factor > 1.0

    def test_frequency_scales_with_pressure(self):
        stall = StallModel(prob_at_max=0.5, scale=0.5)
        rng = make_rng(1)
        high = sum(stall.factor(rng, 8.0, True) > 1.0 for _ in range(4000))
        rng = make_rng(1)
        low = sum(stall.factor(rng, 2.0, True) > 1.0 for _ in range(4000))
        assert high > 2.5 * low

    @pytest.mark.parametrize(
        "prob, slots, sustained, expected",
        [
            (0.0, [(2.0, 8.0)], False, True),
            (0.5, [(1.0, 0.0), (1.0, 0.0)], False, True),
            (0.5, [(1.0, 0.0), (1.3, 2.0)], False, False),
            (0.5, [(1.0, 2.0), (1.0, 0.0)], False, False),
            (0.5, [(1.0, 2.0), (1.0, 0.0)], True, True),
            (0.5, [(1.0, 2.0), (1.3, 2.0)], True, False),
        ],
    )
    def test_never_draws(self, prob, slots, sustained, expected):
        """``slots`` are ``(slowdown, pressure)``; only sustained slots stay."""
        stall = StallModel(prob_at_max=prob)
        assert stall.never_draws(slots, sustained) is expected

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StallModel(prob_at_max=1.5)
        with pytest.raises(ValueError):
            StallModel(scale=-1.0)


class TestNoiseProfiles:
    def test_private_testbed_has_no_ambient(self):
        assert PRIVATE_TESTBED_NOISE.ambient is None

    def test_ec2_noisier_than_private(self):
        assert EC2_NOISE.jitter_scale > PRIVATE_TESTBED_NOISE.jitter_scale
        assert EC2_NOISE.ambient is not None
        assert EC2_NOISE.stall.prob_at_max > PRIVATE_TESTBED_NOISE.stall.prob_at_max

    def test_invalid_jitter_scale(self):
        with pytest.raises(ValueError):
            NoiseProfile(jitter_scale=-1.0)
