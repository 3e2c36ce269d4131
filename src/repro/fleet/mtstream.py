"""CPython's ``random.Random(seed)`` stream, drawn in bulk.

The fleet's traces and its ``random`` placement policy are defined by
``random.Random`` call sequences (the scalar trace generators in
``tests/fleet/reference_trace.py`` and
:class:`~repro.fleet.policies.RandomPolicy` are the reference).
Calling those methods once per request is the dominant cost of a
million-request campaign, so :class:`MTStream` reproduces the same
stream without the per-call overhead: numpy's
``MT19937`` is seeded from ``random.Random(seed).getstate()`` and draws
the raw 32-bit words in bounded blocks, and every primitive is rebuilt
from those words exactly as CPython (3.9-3.12) builds it:

* ``random()`` = ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53`` - two
  words, exact in float64 whatever the evaluation order;
* ``getrandbits(k <= 32)`` = ``w >> (32 - k)`` - one word;
* ``_randbelow(n)`` (behind ``choice`` and ``randrange``) draws
  ``getrandbits(n.bit_length())`` until the value is below ``n`` -
  one or more words, ``n == 1`` included;
* ``uniform(a, b)`` = ``a + (b - a) * random()``;
* ``expovariate(lam)`` = ``-log(1 - random()) / lam`` with ``math.log``
  (libm), never ``np.log``: numpy's SIMD log is not guaranteed to
  round like libm.

Consumers work on a *window*: ``words`` holds the unconsumed tail of
the previous block plus one fresh block, and ``pos`` is the cursor
into it.  A consumer reads ahead from ``pos`` through the per-window
helpers (:meth:`floats`, :meth:`accept_index`, :meth:`below`), moves
``pos`` past what it used, and calls :meth:`refill` when the next
unit no longer fits.  The scalar methods (:meth:`random`,
:meth:`randrange`, ...) advance the same cursor, so bulk and scalar
draws interleave freely.  tests/properties/test_mtstream_props.py pins
the stream against ``random.Random`` draw for draw.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Callable, Dict, Hashable, List, TypeVar

import numpy as np

#: Fresh 32-bit words drawn per :meth:`MTStream.refill`.  Bounds the
#: window (and its per-window Python lists) whatever the trace size.
#: Read at each refill, so tests can shrink it to force block crossings.
BLOCK_WORDS = 1 << 15

_T = TypeVar("_T")
_TWO_26 = 67108864.0
_TWO_NEG_53 = 1.0 / 9007199254740992.0


def _res53(first, second):
    """CPython's ``random()`` from its two words (ints or uint64 arrays)."""
    return ((first >> 5) * _TWO_26 + (second >> 6)) * _TWO_NEG_53


class MTStream:
    """Bulk replay of ``random.Random(seed)``; see the module docstring."""

    def __init__(self, seed: int) -> None:
        state = random.Random(seed).getstate()[1]
        self._bits = np.random.MT19937()
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(state[:624], dtype=np.uint32),
                      "pos": state[624]}}
        #: The current window of raw words (uint64 holding 32-bit values).
        self.words = np.empty(0, dtype=np.uint64)
        #: Cursor: index into ``words`` of the next unconsumed word.
        self.pos = 0
        self._memo: Dict[Hashable, object] = {}
        #: ``words`` as a Python list, built on the window's first
        #: scalar draw; empty until then.
        self._word_list: List[int] = []

    # -- windows ---------------------------------------------------------------

    def refill(self) -> None:
        """Drop the consumed prefix and append one fresh block."""
        self.words = np.concatenate(
            (self.words[self.pos:],
             self._bits.random_raw(BLOCK_WORDS)))
        self.pos = 0
        self._memo.clear()
        self._word_list = []

    def floats(self, positions: np.ndarray) -> np.ndarray:
        """``random()`` as drawn from each window position (two words)."""
        return _res53(self.words[positions], self.words[positions + 1])

    def below(self, n: int, positions: np.ndarray) -> np.ndarray:
        """The ``getrandbits(n.bit_length())`` value of each position."""
        return self.words[positions] >> (32 - n.bit_length())

    def memo(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, computed once per window (refills forget it)."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def accept_index(self, n: int) -> np.ndarray:
        """Next accepted ``_randbelow(n)`` word at or after each position.

        Entry ``q`` is the smallest window position ``>= q`` whose word
        ``_randbelow(n)`` accepts, so a draw that starts at ``q`` ends
        on that word: a reverse running minimum over the accepted
        positions.  Positions with no accepted word ahead (and the
        one-past-the-end position) hold ``len(words)``.  Cached per
        window.
        """
        def build() -> np.ndarray:
            size = len(self.words)
            hits = np.where(self.below(n, slice(None)) < n,
                            np.arange(size), size)
            return np.append(np.minimum.accumulate(hits[::-1])[::-1], size)
        return self.memo(("accept", n), build)

    def float_array(self) -> np.ndarray:
        """``random()`` from every window position but the last (cached)."""
        return self.memo("floats", lambda: _res53(self.words[:-1],
                                                  self.words[1:]))

    # -- scalar draws (the random.Random methods) ------------------------------

    def _word(self) -> int:
        try:
            word = self._word_list[self.pos]
        except IndexError:
            if self.pos >= len(self.words):
                self.refill()
            self._word_list = self.words.tolist()
            word = self._word_list[self.pos]
        self.pos += 1
        return word

    def random(self) -> float:
        first = self._word()
        return _res53(first, self._word())

    def randrange(self, stop: int) -> int:
        """``randrange(stop)`` (and ``choice`` of a ``stop``-long
        sequence): ``_randbelow(stop)``, inlined."""
        if not 0 < stop < 1 << 32:
            raise ValueError("MTStream.randrange supports 0 < stop < 2**32")
        shift = 32 - stop.bit_length()
        r = self._word() >> shift
        while r >= stop:
            r = self._word() >> shift
        return r

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def expovariate(self, lambd: float) -> float:
        return -math.log(1.0 - self.random()) / lambd

    # -- bulk draws ------------------------------------------------------------

    def arrivals(self, rate_hz: float, duration_s: float) -> np.ndarray:
        """Poisson arrival times below ``duration_s``: the running sum
        of ``expovariate(rate_hz)`` draws, consuming the terminating
        draw too (the scalar ``t = e; while t < d: ...; t += e`` loop).

        ``np.add.accumulate`` adds strictly left to right, so every
        time equals the scalar running sum to the bit.
        """
        times = array("d")   # grows in place: no second copy
        carry = None
        while True:
            n = (len(self.words) - self.pos) // 2
            if n == 0:
                self.refill()
                continue
            end = self.pos + 2 * n
            r = _res53(self.words[self.pos:end:2],
                       self.words[self.pos + 1:end:2])
            e = -np.fromiter(map(math.log, (1.0 - r).tolist()),
                             dtype=np.float64, count=n) / rate_hz
            if carry is not None:
                e[0] = carry + e[0]
            t = np.add.accumulate(e)
            stop = int(np.searchsorted(t, duration_s, side="left"))
            times.frombytes(memoryview(t[:stop]).cast("B"))
            if stop < n:
                self.pos += 2 * (stop + 1)
                return np.frombuffer(times, dtype=np.float64)
            carry = float(t[-1])
            self.pos += 2 * n

    def randbelow(self, sizes: np.ndarray) -> np.ndarray:
        """``[randrange(s) for s in sizes]``, in order, as int64.

        With one bound for every draw the draws are simply the accepted
        words in stream order, found with one vectorized scan; mixed
        bounds draw through :meth:`randrange`.
        """
        m = len(sizes)
        if m == 0 or sizes.min() != sizes.max():
            return np.fromiter(map(self.randrange, sizes.tolist()),
                               dtype=np.int64, count=m)
        bound = int(sizes[0])
        if not 0 < bound < 1 << 32:
            raise ValueError("MTStream.randrange supports 0 < stop < 2**32")
        out = np.empty(m, dtype=np.int64)
        done = 0
        while done < m:
            if self.pos >= len(self.words):
                self.refill()
            # _randbelow accepts more than half of its words, so about
            # twice the draws still owed (plus slack) usually cover
            # them; scan no further than that.
            end = min(len(self.words), self.pos + 2 * (m - done) + 64)
            values = self.below(bound, slice(self.pos, end))
            hits = np.flatnonzero(values < bound)[:m - done]
            out[done:done + len(hits)] = values[hits]
            done += len(hits)
            self.pos = (self.pos + int(hits[-1]) + 1 if done == m
                        else end)
        return out


def follow(step: np.ndarray, start: int, count: int) -> np.ndarray:
    """``[start, step[start], step[step[start]], ...]``, ``count`` long.

    Pointer doubling: each round extends the path by the jumps it
    already knows and squares the jump table, so ``count`` steps cost
    ``log2(count)`` whole-table gathers instead of a Python loop.
    ``step`` must map its own indices into itself (a fixed point makes
    a sentinel).
    """
    path = np.array([start], dtype=np.int64)
    jump = step
    while len(path) < count:
        path = np.concatenate((path, jump[path]))
        if len(path) < count:
            jump = jump[jump]
    return path[:count]
