"""Property test: a ``DrawStream`` replays NumPy's PCG64 draws bit for bit.

The annealing search draws each proposal in one ``proposal(units)``
call (``choice(len(units), 2, replace=False)``, then ``integers`` of
each chosen instance's units) and its acceptance tests (``random()``)
from :class:`repro._util.DrawStream`.  The oracle is a
twin NumPy generator making the same calls: every value must be equal,
and after the stream hands its generator back, the two generators'
states and their next NumPy draws must be equal too.  Sequences start
with or without a buffered 32-bit half and are long enough to cross
the stream's raw-word blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import DrawStream

#: Bounds the replica must handle: 1 draws nothing, 2**32 is the raw
#: 32-bit draw, and powers of two never reject.
SPECIAL_BOUNDS = [1, 2, 2**31 - 1, 2**32] + [2**j for j in range(2, 32)]

bounds = st.one_of(
    st.sampled_from(SPECIAL_BOUNDS), st.integers(1, 2**32)
)
operations = st.one_of(
    st.tuples(st.just("integers"), bounds, st.integers(1, 40)),
    st.tuples(st.just("pair"), st.integers(2, 10**6), st.integers(1, 40)),
    st.tuples(st.just("random"), st.just(0), st.integers(1, 300)),
    st.tuples(
        st.just("proposal"),
        st.lists(st.one_of(st.integers(1, 8), bounds), min_size=2, max_size=60),
        st.integers(1, 40),
    ),
)


def twin_generators(seed, buffered):
    """Two equal PCG64 generators, optionally holding a buffered half."""
    twins = (np.random.default_rng(seed), np.random.default_rng(seed))
    if buffered:
        for rng in twins:
            rng.integers(2**31)
        assert twins[0].bit_generator.state["has_uint32"] == 1
    return twins


def numpy_draw(rng, name, arg):
    if name == "integers":
        return int(rng.integers(arg))
    if name == "pair":
        first, second = rng.choice(arg, 2, replace=False)
        return int(first), int(second)
    if name == "proposal":
        first, second = numpy_draw(rng, "pair", len(arg))
        return (
            first, second, int(rng.integers(arg[first])),
            int(rng.integers(arg[second])),
        )
    return rng.random()


def stream_draw(draws, name, arg):
    return draws.random() if name == "random" else getattr(draws, name)(arg)


def assert_handed_back(streamed, oracle):
    assert streamed.bit_generator.state == oracle.bit_generator.state
    for name, arg in (
        ("integers", 2**31), ("random", 0), ("pair", 48),
        ("proposal", [4, 1, 2**32, 3]),
    ):
        assert numpy_draw(streamed, name, arg) == numpy_draw(oracle, name, arg)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    buffered=st.booleans(),
    ops=st.lists(operations, min_size=1, max_size=30),
)
def test_stream_matches_numpy(seed, buffered, ops):
    streamed, oracle = twin_generators(seed, buffered)
    with DrawStream(streamed) as draws:
        for name, arg, repeat in ops:
            for _ in range(repeat):
                got = stream_draw(draws, name, arg)
                assert got == numpy_draw(oracle, name, arg)
    assert_handed_back(streamed, oracle)


@pytest.mark.parametrize("buffered", [False, True])
def test_long_mixed_run_crosses_blocks(buffered):
    streamed, oracle = twin_generators(2016, buffered)
    with DrawStream(streamed) as draws:
        for step in range(3000):
            name = ("pair", "integers", "random", "proposal")[step % 4]
            if name == "proposal":
                arg = [1 + (step + i) % 4 for i in range(2 + step % 47)]
            else:
                arg = 2 + step % 47 if name == "pair" else 1 + step % 4
            got = stream_draw(draws, name, arg)
            assert got == numpy_draw(oracle, name, arg)
    assert_handed_back(streamed, oracle)


def test_exception_still_hands_back():
    streamed, oracle = twin_generators(7, True)
    with pytest.raises(RuntimeError):
        with DrawStream(streamed) as draws:
            assert draws.integers(10) == int(oracle.integers(10))
            assert draws.random() == oracle.random()
            raise RuntimeError("search failed")
    assert_handed_back(streamed, oracle)


def test_unused_stream_leaves_generator_alone():
    streamed, oracle = twin_generators(8, True)
    with DrawStream(streamed):
        pass
    assert_handed_back(streamed, oracle)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
)
def test_refuses_other_bit_generators(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        DrawStream(np.random.Generator(bit_generator(1)))


@pytest.mark.parametrize("bound", [0, -3, 2**32 + 1, 2**40])
def test_refuses_bounds_outside_32_bits(bound):
    with DrawStream(np.random.default_rng(1)) as draws:
        with pytest.raises(ValueError):
            draws.integers(bound)
