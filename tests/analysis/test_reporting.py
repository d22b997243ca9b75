"""Tests for plain-text rendering."""

import pytest

from repro.analysis.reporting import format_series, format_table
from repro.errors import ConfigurationError


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "value"], [("a", 1.5), ("longer", 2.25)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in text
        assert "2.25" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [("only-one",)])

    def test_custom_float_format(self):
        text = format_table(["x"], [(1.23456,)], float_format="{:.4f}")
        assert "1.2346" in text


class TestFormatSeries:
    def test_columns(self):
        text = format_series("k", [0, 1], {"real": [1.0, 1.5], "naive": [1.0, 1.1]})
        assert "real" in text and "naive" in text
        assert "1.500" in text

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_series("k", [0, 1], {"s": [1.0]})
