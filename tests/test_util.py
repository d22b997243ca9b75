"""Tests for internal helpers."""

import numpy as np
import pytest

from repro._util import child_rng, make_rng, mean, stable_seed


class TestMakeRng:
    def test_returns_generator(self):
        assert isinstance(make_rng(0), np.random.Generator)

    def test_passthrough_generator(self):
        rng = np.random.default_rng(1)
        assert make_rng(rng) is rng

    def test_same_seed_same_stream(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_none_allowed(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestChildRng:
    def test_deterministic_given_parent_state(self):
        a = child_rng(make_rng(7), "x")
        b = child_rng(make_rng(7), "x")
        assert a.random() == b.random()

    def test_different_labels_differ(self):
        parent = make_rng(7)
        a = child_rng(parent, "x")
        parent2 = make_rng(7)
        b = child_rng(parent2, "y")
        assert a.random() != b.random()


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_order_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_fits_32_bits(self):
        assert 0 <= stable_seed("workload", "solo", 3) < 2**32

    def test_label_boundaries_matter(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])
