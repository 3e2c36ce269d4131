"""The scalar arrival-trace generators, kept as the test oracle.

This is the object-per-request form ``repro.fleet.trace`` expanded a
:class:`~repro.fleet.trace.TraceSpec` with before the fleet grew one
columnar generator: every draw is one ``random.Random(seed)`` method
call, and the requests are sorted on ``(arrival, generation order)``.
It is slow and obvious on purpose.  ``trace_columns`` replays the
same Mersenne Twister words in bulk (``repro.fleet.mtstream``) and
must reproduce it element for element under the same seed
(``tests/fleet/test_trace.py``,
``tests/properties/test_fleet_trace_props.py``); the per-request
dispatch oracle (``tests/fleet/reference_dispatch.py``) routes its
output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.fleet.trace import (
    _BURST_LOAD_FRACTION,
    _BURST_MEAN_SIZE,
    _BURST_WINDOW_S,
    _DIURNAL_AMPLITUDE,
    _N_WAVES,
    _WAVE_LOAD_FRACTION,
    FleetRequest,
    TraceSpec,
)


@dataclass
class _Draft:
    """A request before ids are assigned (generation order retained)."""

    t: float
    workload: str
    deadline_s: float
    order: int = field(default=0)


def _finalize(drafts: List[_Draft]) -> Tuple[FleetRequest, ...]:
    for i, draft in enumerate(drafts):
        draft.order = i
    drafts.sort(key=lambda d: (d.t, d.order))
    return tuple(
        FleetRequest(req_id=i, t_arrival_s=d.t, workload=d.workload,
                     deadline_s=d.deadline_s)
        for i, d in enumerate(drafts))


def _poisson_arrivals(rng: random.Random, rate_hz: float,
                      duration_s: float) -> List[float]:
    times: List[float] = []
    t = rng.expovariate(rate_hz)
    while t < duration_s:
        times.append(t)
        t += rng.expovariate(rate_hz)
    return times


def _diurnal(spec: TraceSpec, rng: random.Random) -> List[_Draft]:
    # Thinning: draw a homogeneous process at the peak rate, accept
    # each candidate with probability rate(t)/peak.  One full sinusoid
    # period spans the trace, trough first (night), peak mid-trace.
    peak = spec.mean_rate_hz * (1.0 + _DIURNAL_AMPLITUDE)
    drafts: List[_Draft] = []
    for t in _poisson_arrivals(rng, peak, spec.duration_s):
        phase = 2.0 * math.pi * t / spec.duration_s - math.pi / 2.0
        rate = spec.mean_rate_hz * (
            1.0 + _DIURNAL_AMPLITUDE * math.sin(phase))
        if rng.random() * peak < rate:
            drafts.append(_Draft(
                t=t, workload=rng.choice(spec.workloads),
                deadline_s=rng.uniform(spec.deadline_lo_s,
                                       spec.deadline_hi_s)))
    return drafts


def _bursty(spec: TraceSpec, rng: random.Random) -> List[_Draft]:
    background_rate = spec.mean_rate_hz * (1.0 - _BURST_LOAD_FRACTION)
    drafts = [
        _Draft(t=t, workload=rng.choice(spec.workloads),
               deadline_s=rng.uniform(spec.deadline_lo_s,
                                      spec.deadline_hi_s))
        for t in _poisson_arrivals(rng, background_rate, spec.duration_s)]
    burst_load = spec.mean_rate_hz * spec.duration_s * _BURST_LOAD_FRACTION
    n_bursts = max(1, round(burst_load / _BURST_MEAN_SIZE))
    for _ in range(n_bursts):
        epoch = rng.uniform(0.0, spec.duration_s)
        size = 1 + int(rng.expovariate(1.0 / _BURST_MEAN_SIZE))
        hot = rng.choice(spec.workloads)  # one hot workload per burst
        for _ in range(size):
            t = epoch + rng.uniform(0.0, _BURST_WINDOW_S)
            if t < spec.duration_s:
                drafts.append(_Draft(
                    t=t, workload=hot,
                    deadline_s=rng.uniform(spec.deadline_lo_s,
                                           spec.deadline_hi_s)))
    return drafts


def _adversarial(spec: TraceSpec, rng: random.Random) -> List[_Draft]:
    trickle_rate = spec.mean_rate_hz * (1.0 - _WAVE_LOAD_FRACTION)
    drafts = [
        _Draft(t=t, workload=rng.choice(spec.workloads),
               deadline_s=rng.uniform(spec.deadline_lo_s,
                                      spec.deadline_hi_s))
        for t in _poisson_arrivals(rng, trickle_rate, spec.duration_s)]
    wave_load = spec.mean_rate_hz * spec.duration_s * _WAVE_LOAD_FRACTION
    per_wave = max(1, round(wave_load / _N_WAVES))
    for wave in range(_N_WAVES):
        t = wave * spec.duration_s / _N_WAVES
        workload = spec.workloads[wave % len(spec.workloads)]
        for _ in range(per_wave):
            # Identical timestamps on purpose: the dispatcher's
            # tie-breaking (request id order) must be deterministic.
            drafts.append(_Draft(t=t, workload=workload,
                                 deadline_s=spec.deadline_lo_s))
    return drafts


_GENERATORS = {
    "diurnal": _diurnal,
    "bursty": _bursty,
    "adversarial": _adversarial,
}


def generate_trace(spec: TraceSpec) -> Tuple[FleetRequest, ...]:
    """Expand ``spec`` into its (deterministic) request sequence."""
    rng = random.Random(spec.seed)
    return _finalize(_GENERATORS[spec.kind](spec, rng))
