"""Seeded open-loop arrival traces: the fleet's stand-in for traffic.

Three generator families, all driven by the draw sequence of one
``random.Random(seed)`` (Mersenne Twister - platform-stable), so a
:class:`TraceSpec` maps to exactly one request sequence forever:

* ``diurnal`` - a non-homogeneous Poisson process whose rate follows a
  one-period sinusoid over the trace (the classic day/night curve),
  sampled by thinning;
* ``bursty`` - a background Poisson stream plus seeded burst clusters:
  each burst is a cloud of near-simultaneous requests for *one* hot
  workload (a cache-stampede / hot-content shape);
* ``adversarial`` - synchronized thundering-herd waves: every wave
  lands a block of identical-workload requests at *exactly* the same
  instant with the tightest deadline, plus a thin background trickle.
  Built to stress tie-breaking, hotspot collapse, and deadline
  accounting in the dispatcher.

:func:`trace_columns` expands a spec into flat arrival-ordered
columns (~18 bytes per request), replaying the Mersenne Twister words
in bulk from an :class:`~repro.fleet.mtstream.MTStream`.  The scalar
form it replays - one ``random.Random`` method call per draw, one
:class:`FleetRequest` per request - is the test oracle in
``tests/fleet/reference_trace.py``.

Requests carry a *relative* deadline (a latency budget from arrival);
the dispatcher turns it absolute.  Request ids are positional in
arrival order, so the trace itself is part of the fleet fingerprint.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import HarnessError
from repro.fleet.mtstream import MTStream, follow
from repro.workloads.registry import workload_by_abbrev

#: The arrival-trace families :func:`trace_columns` implements.
TRACE_KINDS: Tuple[str, ...] = ("diurnal", "bursty", "adversarial")

#: Default request mix: tablet-supported workloads with strongly
#: asymmetric per-platform energy (MB and MM are far cheaper on the
#: tablet, BS far cheaper on the desktop), so placement quality is
#: visible in the fleet totals.
DEFAULT_TRACE_WORKLOADS: Tuple[str, ...] = ("MB", "MM", "RT", "BS")

#: Diurnal swing: rate(t) = mean * (1 + AMP * sin(...)), so the peak
#: runs at (1+AMP)x the mean and the trough at (1-AMP)x.
_DIURNAL_AMPLITUDE = 0.8
#: Bursty split: this fraction of the load arrives in bursts, the rest
#: as background Poisson.
_BURST_LOAD_FRACTION = 0.6
#: Mean requests per burst (geometric-ish, via an exponential draw).
_BURST_MEAN_SIZE = 12.0
#: Seconds a burst's requests are smeared over.
_BURST_WINDOW_S = 0.5
#: Adversarial split: fraction of the load arriving in synchronized
#: waves (the rest is the background trickle).
_WAVE_LOAD_FRACTION = 0.8
_N_WAVES = 8


@dataclass(frozen=True)
class FleetRequest:
    """One kernel request in the arrival stream."""

    #: Positional id in arrival order (ties broken by generation
    #: order), so the id sequence is itself deterministic.
    req_id: int
    #: Arrival time on the fleet clock, seconds.
    t_arrival_s: float
    #: Table-1 workload abbreviation.
    workload: str
    #: Relative latency budget: the request misses its deadline when
    #: completion exceeds ``t_arrival_s + deadline_s``.
    deadline_s: float


@dataclass(frozen=True)
class TraceSpec:
    """Frozen description of one arrival trace (seed included).

    Hashable and canonically serializable: the trace participates in
    the :meth:`~repro.fleet.dispatcher.FleetResult.fingerprint`
    through :meth:`canonical`, never through the expanded request
    list.
    """

    kind: str = "bursty"
    duration_s: float = 60.0
    #: Long-run average arrival rate, requests/second (each family
    #: redistributes the same total load in its own shape).
    mean_rate_hz: float = 4.0
    workloads: Tuple[str, ...] = DEFAULT_TRACE_WORKLOADS
    seed: int = 2016
    #: Relative-deadline budget range, drawn uniformly per request
    #: (adversarial waves always use the tight end).
    deadline_lo_s: float = 30.0
    deadline_hi_s: float = 120.0
    #: Fraction of each request's deadline the dispatcher may spend
    #: *holding* it for a lower-carbon window (0 disables deferral).
    #: Derived per request as ``deferral_fraction * deadline_s``, so
    #: the RNG draw sequence - and therefore every existing trace -
    #: is untouched.
    deferral_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if self.kind not in TRACE_KINDS:
            raise HarnessError(f"unknown trace kind {self.kind!r}; "
                               f"expected one of {TRACE_KINDS}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0.0):
            raise HarnessError("trace duration_s must be finite and positive")
        if not (math.isfinite(self.mean_rate_hz) and self.mean_rate_hz > 0.0):
            raise HarnessError(
                "trace mean_rate_hz must be finite and positive")
        if not self.workloads:
            raise HarnessError("trace needs at least one workload")
        for abbrev in self.workloads:
            workload_by_abbrev(abbrev)  # fail fast with did-you-mean
        if not (0.0 < self.deadline_lo_s <= self.deadline_hi_s
                and math.isfinite(self.deadline_hi_s)):
            raise HarnessError(
                "need 0 < deadline_lo_s <= deadline_hi_s, both finite")
        if not (math.isfinite(self.deferral_fraction)
                and 0.0 <= self.deferral_fraction <= 1.0):
            raise HarnessError("deferral_fraction must be in [0, 1]")

    def canonical(self) -> str:
        base = (f"{self.kind}|{self.duration_s!r}|{self.mean_rate_hz!r}"
                f"|{','.join(self.workloads)}|{self.seed}"
                f"|{self.deadline_lo_s!r}|{self.deadline_hi_s!r}")
        # Appended only when deferral is on: zero-deferral specs keep
        # their pre-existing canonical form (golden fingerprints).
        if self.deferral_fraction > 0.0:
            base += f"|defer={self.deferral_fraction!r}"
        return base


# The helpers below replay the oracle's draw sequence in bulk.  Every
# arithmetic expression is kept textually identical to the oracle's:
# re-associating even one product changes float rounding, which flips
# an accept/reject draw and desynchronizes the stream.


#: Arrivals per block of diurnal acceptance rates (``math.sin`` list).
_RATE_BLOCK = 1 << 15


class _Columns:
    """The trace's columns, grown piece by piece in generation order.

    ``array`` buffers grow in place (realloc), so appending the
    bounded pieces never holds a second copy of a column, and numpy
    views them zero-copy for the final sort.  Each column grows on its
    own (background arrival times exist before their workload and
    deadline draws) but lists its rows in generation order.
    """

    def __init__(self) -> None:
        self.t = array("d")
        self.w = array("H")
        self.d = array("d")

    def add(self, t: Optional[np.ndarray] = None,
            w: Optional[np.ndarray] = None,
            d: Optional[np.ndarray] = None) -> None:
        for column, piece, dtype in ((self.t, t, np.float64),
                                     (self.w, w, np.uint16),
                                     (self.d, d, np.float64)):
            if piece is not None:
                column.frombytes(memoryview(
                    np.ascontiguousarray(piece, dtype=dtype)).cast("B"))

    def sorted(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrival order, generation order among equal arrival times.

        Without equal times the sorted order is unique, so the faster
        unstable sort finds it; only a trace with ties (adversarial
        waves) pays for the stable sort.  Each unsorted buffer is
        released right after its gather, so the peak holds one sorted
        column beside the three unsorted ones.
        """
        unsorted = np.frombuffer(self.t, dtype=np.float64)
        order = np.argsort(unsorted)
        t = unsorted[order]
        if np.any(t[1:] == t[:-1]):
            del order, t
            order = np.argsort(unsorted, kind="stable")
            t = unsorted[order]
        del unsorted
        self.t = array("d")
        w = np.frombuffer(self.w, dtype=np.uint16)[order]
        self.w = array("H")
        d = np.frombuffer(self.d, dtype=np.float64)[order]
        self.d = array("d")
        return t, w, d


def _add_tags(spec: TraceSpec, stream: MTStream, index: np.ndarray,
              at: np.ndarray, cols: _Columns) -> None:
    """The workload and deadline of rows whose ``choice(workloads)``
    ends on window positions ``at`` (the ``uniform(lo, hi)`` deadline
    takes the next two words)."""
    lo, hi = spec.deadline_lo_s, spec.deadline_hi_s
    cols.add(w=index[stream.below(len(spec.workloads), at)],
             d=lo + (hi - lo) * stream.floats(at + 1))


def _background_rows(spec: TraceSpec, stream: MTStream, rate_hz: float,
                     index: np.ndarray, cols: _Columns) -> None:
    """Poisson arrivals at ``rate_hz``, then each arrival's
    ``choice(workloads)`` + ``uniform(lo, hi)`` draws.

    A row's workload draw ends on the next accepted word ``q`` and its
    deadline takes ``q + 1, q + 2``, so the row after one starting at
    ``p`` starts at ``accept_index[p] + 3``: the rows of a window are
    one :func:`follow` over that jump table.
    """
    t = stream.arrivals(rate_hz, spec.duration_s)
    n = len(t)
    i = 0
    while i < n:
        size = len(stream.words)
        limit = size - 3   # a row's last word is q + 2
        p = stream.pos
        nxt = stream.accept_index(len(spec.workloads))
        sentinel = size + 1
        step = np.append(np.where(nxt <= limit, nxt + 3, sentinel),
                         sentinel)
        starts = follow(step, p, min(n - i, (size - p) // 3 + 1) + 1)
        rows = int(np.searchsorted(starts, sentinel)) - 1
        _add_tags(spec, stream, index, starts[1:rows + 1] - 3, cols)
        stream.pos = int(starts[rows])
        i += rows
        if i < n:
            stream.refill()
    cols.add(t=t)


def _diurnal_rows(spec: TraceSpec, stream: MTStream, peak_hz: float,
                  index: np.ndarray, cols: _Columns) -> None:
    """Poisson candidates at ``peak_hz``, thinned to the diurnal rate;
    the kept ones are tagged like :func:`_background_rows` tags its rows.

    Each candidate first draws ``random() * peak_hz < rate(t)``; only
    an accepted one draws a workload and a deadline.  Where the next
    row starts thus depends on the candidate's own rate, which no
    per-window jump table holds, so the walk is a Python loop over
    list lookups.
    """
    t = stream.arrivals(peak_hz, spec.duration_s)
    n = len(t)
    n_w = len(spec.workloads)
    i = block_stop = base = 0
    rate: List[float] = []
    while i < n:
        limit = len(stream.words) - 3   # a row's last word is q + 2
        p = stream.pos
        if i == block_stop:
            # Same expression as the scalar twin, sin from libm.
            base, block_stop = i, min(n, i + _RATE_BLOCK)
            phase = (2.0 * math.pi * t[i:block_stop] / spec.duration_s
                     - math.pi / 2.0)
            rate = (spec.mean_rate_hz * (
                1.0 + _DIURNAL_AMPLITUDE * np.array(
                    list(map(math.sin, phase.tolist()))))).tolist()
        nxt = stream.memo(("accept-list", n_w), lambda: (
            stream.accept_index(n_w).tolist()))
        scaled = stream.memo(("scaled", peak_hz), lambda: (
            stream.float_array() * peak_hz).tolist())
        kept: List[int] = []
        ends: List[int] = []
        j = i
        while j < block_stop and p <= limit:
            if scaled[p] < rate[j - base]:
                q = nxt[p + 2]
                if q > limit:
                    break
                kept.append(j)
                ends.append(q)
                p = q + 3
            else:
                p += 2
            j += 1
        cols.add(t=t[kept])
        _add_tags(spec, stream, index, np.asarray(ends, dtype=np.int64),
                  cols)
        stream.pos = p
        i = j
        if i < block_stop:
            stream.refill()


def _burst_rows(spec: TraceSpec, stream: MTStream, index: np.ndarray,
                cols: _Columns) -> None:
    """The bursty family's burst clusters, in generation order.

    A burst draws ``epoch``, ``size`` and its hot workload, then four
    words per item (arrival offset, deadline), so the items of every
    burst that ends before the trace does are gathered at a fixed
    stride.  A burst with ``epoch + window >= duration`` may drop
    items, and with them their deadline draws, so it replays scalar.
    """
    n_w = len(spec.workloads)
    dur = spec.duration_s
    lo, hi = spec.deadline_lo_s, spec.deadline_hi_s
    lam = 1.0 / _BURST_MEAN_SIZE
    burst_load = spec.mean_rate_hz * dur * _BURST_LOAD_FRACTION
    n_bursts = max(1, round(burst_load / _BURST_MEAN_SIZE))
    log = math.log
    b = 0
    while b < n_bursts:
        nxt = stream.accept_index(n_w).item
        r = stream.float_array().item
        size_w = len(stream.words)
        p = stream.pos
        starts: List[int] = []
        sizes: List[int] = []
        straddles = False
        while b < n_bursts and p + 4 < size_w:
            if 0.0 + (dur - 0.0) * r(p) + _BURST_WINDOW_S >= dur:
                straddles = True
                break
            size = 1 + int(-log(1.0 - r(p + 2)) / lam)
            end = nxt(p + 4) + 1 + 4 * size
            if end > size_w:
                break
            starts.append(p)
            sizes.append(size)
            p = end
            b += 1
        if sizes:
            at = np.asarray(starts, dtype=np.int64)
            counts = np.asarray(sizes, dtype=np.int64)
            hot = stream.accept_index(n_w)[at + 4]
            before = np.cumsum(counts) - counts
            items = (np.repeat(hot + 1 - 4 * before, counts)
                     + 4 * np.arange(int(counts.sum()), dtype=np.int64))
            epochs = 0.0 + (dur - 0.0) * stream.floats(at)
            cols.add(t=(np.repeat(epochs, counts)
                        + (0.0 + (_BURST_WINDOW_S - 0.0)
                           * stream.floats(items))),
                     w=np.repeat(index[stream.below(n_w, hot)], counts),
                     d=lo + (hi - lo) * stream.floats(items + 2))
        stream.pos = p
        if straddles:
            # The scalar twin, draw for draw.
            epoch = stream.uniform(0.0, dur)
            size = 1 + int(stream.expovariate(lam))
            hot_w = index[stream.randrange(n_w)]
            t_items, d_items = [], []
            for _ in range(size):
                t_item = epoch + stream.uniform(0.0, _BURST_WINDOW_S)
                if t_item < dur:
                    t_items.append(t_item)
                    d_items.append(stream.uniform(lo, hi))
            cols.add(t=np.asarray(t_items, dtype=np.float64),
                     w=np.full(len(t_items), hot_w, dtype=np.uint16),
                     d=np.asarray(d_items, dtype=np.float64))
            b += 1
        elif b < n_bursts:
            stream.refill()


def _wave_rows(spec: TraceSpec, index: np.ndarray, cols: _Columns) -> None:
    """The adversarial family's synchronized waves (no draws)."""
    wave_load = spec.mean_rate_hz * spec.duration_s * _WAVE_LOAD_FRACTION
    per_wave = max(1, round(wave_load / _N_WAVES))
    for wave in range(_N_WAVES):
        t = wave * spec.duration_s / _N_WAVES
        cols.add(t=np.full(per_wave, t),
                 w=np.full(per_wave, index[wave % len(index)]),
                 d=np.full(per_wave, spec.deadline_lo_s))


#: Background Poisson rate of each family, as a fraction of the mean
#: (diurnal's is the thinning peak).
_BACKGROUND_SHARE = {
    "diurnal": 1.0 + _DIURNAL_AMPLITUDE,
    "bursty": 1.0 - _BURST_LOAD_FRACTION,
    "adversarial": 1.0 - _WAVE_LOAD_FRACTION,
}


def trace_columns(spec: TraceSpec
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``spec`` into arrival-ordered columns.

    Returns ``(t_arrival_s, workload_idx, deadline_s)`` with row ``i``
    describing request id ``i`` - the columnar image of the scalar
    oracle (``tests/fleet/reference_trace.py``).  The sort on arrival
    time breaks ties by generation order (see :meth:`_Columns.sorted`),
    exactly like the oracle's ``(t, order)`` sort, so the two forms
    agree element-for-element.
    """
    stream = MTStream(spec.seed)
    # Duplicate workload names map to their last index, like the
    # scalar form's name -> index dict.
    by_name = {w: i for i, w in enumerate(spec.workloads)}
    index = np.array([by_name[w] for w in spec.workloads], dtype=np.uint16)
    rate_hz = spec.mean_rate_hz * _BACKGROUND_SHARE[spec.kind]
    cols = _Columns()
    rows = _diurnal_rows if spec.kind == "diurnal" else _background_rows
    rows(spec, stream, rate_hz, index, cols)
    if spec.kind == "bursty":
        _burst_rows(spec, stream, index, cols)
    elif spec.kind == "adversarial":
        _wave_rows(spec, index, cols)
    return cols.sorted()

