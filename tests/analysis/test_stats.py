"""Tests for the sampling statistics of Section 3.3."""

import numpy as np
import pytest

from repro.analysis.stats import finite_population_correction, margin_of_error
from repro.errors import ConfigurationError


class TestFinitePopulationCorrection:
    def test_full_sample_is_zero(self):
        assert finite_population_correction(100, 100) == 0.0

    def test_small_sample_near_one(self):
        assert finite_population_correction(10, 1_000_000) == pytest.approx(
            1.0, abs=1e-4
        )

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            finite_population_correction(0, 10)
        with pytest.raises(ConfigurationError):
            finite_population_correction(11, 10)


class TestMarginOfError:
    def test_papers_calculation(self):
        # Section 3.3: 60 samples of 12,870 configurations with the
        # observed standard deviations give roughly +/-1.7 at 99%.
        rng = np.random.default_rng(0)
        sample = rng.normal(5.0, 5.0, size=60)  # sd ~= 5 percentage points
        moe = margin_of_error(sample, population_size=12870, confidence=0.99)
        assert moe == pytest.approx(1.7, abs=0.4)

    def test_higher_confidence_wider(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        lo = margin_of_error(sample, population_size=1000, confidence=0.90)
        hi = margin_of_error(sample, population_size=1000, confidence=0.99)
        assert hi > lo

    def test_invalid_confidence(self):
        with pytest.raises(ConfigurationError):
            margin_of_error([1.0, 2.0], population_size=100, confidence=0.5)

    def test_needs_two_samples(self):
        with pytest.raises(ConfigurationError):
            margin_of_error([1.0], population_size=100)
