"""The bulk Mersenne Twister replay equals ``random.Random`` draw for draw.

:class:`~repro.fleet.mtstream.MTStream` rebuilds ``random()``,
``uniform``, ``expovariate`` and ``randrange`` (a ``choice`` indexes
with it) from raw MT19937 words, following CPython's own construction
(``random()`` from two words, ``_randbelow`` by rejection on
``getrandbits(bit_length)``).
That construction is a CPython implementation detail, so these
properties pin it on every interpreter the suite runs on: any
interleaving of scalar and bulk draws, at any block size, must return
exactly what ``random.Random(seed)`` returns, and leave both streams
at the same point.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import mtstream
from repro.fleet.mtstream import BLOCK_WORDS, MTStream, follow

#: Bounds whose rejection rates differ: none (2048), half (1, 2, 4,
#: 2049), a quarter or less (3, 5, 2000).
RANDRANGE_BOUNDS = (1, 2, 3, 4, 5, 2000, 2048, 2049)

_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

op_st = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), _finite, _finite),
    st.tuples(st.just("expovariate"), st.floats(0.01, 100.0)),
    st.tuples(st.just("choice"), st.integers(1, 9)),
    st.tuples(st.just("randrange"), st.sampled_from(RANDRANGE_BOUNDS)),
    st.tuples(st.just("randbelow"),
              st.lists(st.sampled_from(RANDRANGE_BOUNDS), max_size=40)),
    st.tuples(st.just("randbelow"),
              st.sampled_from(RANDRANGE_BOUNDS).map(lambda b: [b] * 60)),
    st.tuples(st.just("arrivals"), st.floats(0.5, 60.0),
              st.floats(0.0, 4.0)),
)


def _reference(rng: random.Random, op):
    name, *args = op
    if name == "choice":
        return rng.choice(tuple(range(args[0])))
    if name == "randbelow":
        return [rng.randrange(s) for s in args[0]]
    if name == "arrivals":
        rate_hz, duration_s = args
        times = []
        t = rng.expovariate(rate_hz)
        while t < duration_s:
            times.append(t)
            t += rng.expovariate(rate_hz)
        return times
    return getattr(rng, name)(*args)


def _replayed(stream: MTStream, op):
    name, *args = op
    if name == "choice":
        seq = tuple(range(args[0]))
        return seq[stream.randrange(len(seq))]
    if name == "randbelow":
        return stream.randbelow(
            np.asarray(args[0], dtype=np.int64)).tolist()
    if name == "arrivals":
        return stream.arrivals(*args).tolist()
    return getattr(stream, name)(*args)


class TestReplayMatchesRandom:
    @given(seed=st.integers(0, 2 ** 40),
           block_words=st.sampled_from((1, 5, 64, BLOCK_WORDS)),
           ops=st.lists(op_st, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_draw_for_draw(self, seed, block_words, ops):
        rng = random.Random(seed)
        with mock.patch.object(mtstream, "BLOCK_WORDS", block_words):
            stream = MTStream(seed)
            for op in ops:
                assert _replayed(stream, op) == _reference(rng, op), op
            # Both streams stopped on the same word.
            assert stream.random() == rng.random()

    @given(seed=st.integers(0, 2 ** 40),
           bound=st.sampled_from(RANDRANGE_BOUNDS),
           sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bulk_randbelow_crosses_blocks(self, seed, bound, sizes):
        """Bulk draws larger than a block, uniform and mixed bounds."""
        rng = random.Random(seed)
        with mock.patch.object(mtstream, "BLOCK_WORDS", 97):
            stream = MTStream(seed)
            uniform = np.full(500, bound, dtype=np.int64)
            assert (stream.randbelow(uniform).tolist()
                    == [rng.randrange(bound) for _ in range(500)])
            mixed = np.asarray(sizes * 10, dtype=np.int64)
            assert (stream.randbelow(mixed).tolist()
                    == [rng.randrange(s) for s in mixed.tolist()])
            assert stream.random() == rng.random()


class TestFollow:
    @given(steps=st.lists(st.integers(1, 5), min_size=1, max_size=200),
           start=st.integers(0, 50), count=st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_pointer_doubling_equals_walk(self, steps, start, count):
        size = len(steps)
        sentinel = size
        step = np.array([min(i + s, sentinel) for i, s in enumerate(steps)]
                        + [sentinel], dtype=np.int64)
        start = min(start, sentinel)
        walk, p = [], start
        for _ in range(count):
            walk.append(p)
            p = int(step[p])
        assert follow(step, start, count).tolist() == walk
