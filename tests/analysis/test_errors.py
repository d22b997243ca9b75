"""Tests for error metrics."""

import pytest

from repro.analysis.errors import ErrorSummary, absolute_percent_error
from repro.errors import ConfigurationError


class TestAbsolutePercentError:
    def test_basic(self):
        assert absolute_percent_error(1.1, 1.0) == pytest.approx(10.0)

    def test_symmetric_in_magnitude(self):
        assert absolute_percent_error(0.9, 1.0) == pytest.approx(10.0)

    def test_zero_actual(self):
        with pytest.raises(ConfigurationError):
            absolute_percent_error(1.0, 0.0)


class TestErrorSummary:
    def test_statistics(self):
        summary = ErrorSummary.of([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.mean == 3.0
        assert summary.median == 3.0
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p25 == 2.0
        assert summary.p75 == 4.0
        assert summary.count == 5

    def test_single_sample(self):
        summary = ErrorSummary.of([3.0])
        assert summary.std == 0.0
        assert summary.mean == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorSummary.of([])
