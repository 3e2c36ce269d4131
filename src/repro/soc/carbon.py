"""Seeded time-varying grid carbon-intensity signal.

Fleet-level scheduling gets a second axis beyond joules: *when* a
joule is drawn matters, because the grid's carbon intensity (gCO2 per
kWh) swings over the day.  :class:`CarbonSpec` declares a synthetic
but realistically shaped signal - a diurnal fundamental plus a few
seeded harmonics and high-frequency "weather" terms - and
:class:`CarbonTrace` evaluates it as a pure function of simulated
time, so every query is deterministic and order-independent: the
trace draws all of its randomness (per-region harmonic amplitudes and
phases) from one ``random.Random(seed)`` at construction and never
touches an RNG again.

Regions model geographically separated grid interconnects: each
region gets its own harmonic phases (offset so region peaks are
staggered through the period), which is what makes *spatial*
placement interact with *temporal* shifting in the fleet dispatcher.

The carbon-weighted objective is ``g CO2 = intensity(t)/J_PER_KWH *
E`` - energy is still the thing being spent; intensity is the
exchange rate at the moment it is spent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import HarnessError, require_ints

#: Joules per kilowatt-hour - converts g/kWh intensity into grams per
#: joule when weighting simulated energy.
J_PER_KWH = 3.6e6

#: Floor on the evaluated signal, g/kWh.  Real grids never reach zero
#: and a zero intensity would make carbon-weighted objectives
#: degenerate (any energy free at that instant).
MIN_INTENSITY_GCO2_KWH = 1.0

#: High-frequency "weather" terms layered on top of the declared
#: harmonics (count, and the frequency multiplier stride they use).
_N_NOISE_TERMS = 3
_NOISE_STRIDE = 5


@dataclass(frozen=True)
class CarbonSpec:
    """Frozen description of one carbon-intensity signal.

    Canonically serializable so it can participate in fleet
    fingerprints: a spec maps to exactly one signal forever.
    """

    #: Long-run mean intensity, gCO2/kWh (~world grid average).
    base_gco2_kwh: float = 300.0
    #: Peak swing of the diurnal fundamental, gCO2/kWh.
    amplitude_gco2_kwh: float = 120.0
    #: Fundamental period, seconds (a day by default; tests shrink it
    #: so short traces still see full swings).
    period_s: float = 86400.0
    #: Seeded harmonics beyond the fundamental (solar duck-curve
    #: shoulders and the like).
    n_harmonics: int = 2
    #: Amplitude of the high-frequency stochastic terms, gCO2/kWh.
    noise_gco2_kwh: float = 15.0
    #: Distinct grid regions; fleet nodes map onto regions round-robin
    #: (``node_index % n_regions``).
    n_regions: int = 4
    seed: int = 2016

    def __post_init__(self) -> None:
        require_ints("carbon", n_harmonics=self.n_harmonics,
                     n_regions=self.n_regions, seed=self.seed)
        if not (math.isfinite(self.base_gco2_kwh)
                and self.base_gco2_kwh > 0.0):
            raise HarnessError("carbon base_gco2_kwh must be positive "
                               "and finite")
        if not (math.isfinite(self.amplitude_gco2_kwh)
                and self.amplitude_gco2_kwh >= 0.0):
            raise HarnessError("carbon amplitude_gco2_kwh must be >= 0")
        if not (math.isfinite(self.period_s) and self.period_s > 0.0):
            raise HarnessError("carbon period_s must be positive")
        if self.n_harmonics < 1:
            raise HarnessError("carbon n_harmonics must be >= 1")
        if not (math.isfinite(self.noise_gco2_kwh)
                and self.noise_gco2_kwh >= 0.0):
            raise HarnessError("carbon noise_gco2_kwh must be >= 0")
        if self.n_regions < 1:
            raise HarnessError("carbon n_regions must be >= 1")

    def canonical(self) -> str:
        return (f"{self.base_gco2_kwh!r}|{self.amplitude_gco2_kwh!r}"
                f"|{self.period_s!r}|{self.n_harmonics}"
                f"|{self.noise_gco2_kwh!r}|{self.n_regions}|{self.seed}")

    def trace(self) -> "CarbonTrace":
        return CarbonTrace(self)


class CarbonTrace:
    """A :class:`CarbonSpec` expanded into an evaluable signal.

    All randomness is drawn at construction, in a fixed order (region
    by region, term by term), from one Mersenne Twister - after that,
    :meth:`intensity` is a pure function of ``(t_s, region)``.
    """

    def __init__(self, spec: CarbonSpec) -> None:
        self.spec = spec
        rng = random.Random(spec.seed)
        # terms[region] = list of (frequency multiple, amplitude, phase)
        self._terms: List[List[Tuple[float, float, float]]] = []
        for region in range(spec.n_regions):
            # Structural stagger: region peaks walk through the period
            # so no two regions trough simultaneously.
            stagger = 2.0 * math.pi * region / spec.n_regions
            terms: List[Tuple[float, float, float]] = []
            for k in range(1, spec.n_harmonics + 1):
                amp = spec.amplitude_gco2_kwh * rng.uniform(0.5, 1.0) / k
                phase = rng.uniform(0.0, 2.0 * math.pi) + stagger
                terms.append((float(k), amp, phase))
            for j in range(1, _N_NOISE_TERMS + 1):
                mult = float(spec.n_harmonics + _NOISE_STRIDE * j)
                amp = spec.noise_gco2_kwh * rng.uniform(0.5, 1.0)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                terms.append((mult, amp, phase))
            self._terms.append(terms)

    def intensity(self, t_s: float, region: int = 0) -> float:
        """Signal value at ``t_s`` seconds, gCO2/kWh (floored)."""
        terms = self._terms[region % self.spec.n_regions]
        omega = 2.0 * math.pi / self.spec.period_s
        value = self.spec.base_gco2_kwh
        for mult, amp, phase in terms:
            value += amp * math.sin(mult * omega * t_s + phase)
        return max(MIN_INTENSITY_GCO2_KWH, value)

    def grams(self, energy_j: float, t_s: float, region: int = 0) -> float:
        """Carbon mass of ``energy_j`` joules drawn at ``t_s``, grams."""
        return self.intensity(t_s, region) * energy_j / J_PER_KWH

    def median_intensity(self, duration_s: float, region: int = 0,
                         samples: int = 257) -> float:
        """Median of the signal over ``[0, duration_s]``.

        Evaluated on an evenly spaced deterministic sample grid, so
        reports and tests agree on what "below-median window" means.
        """
        if duration_s <= 0.0:
            raise HarnessError("median window duration must be positive")
        if samples < 2:
            raise HarnessError("median needs at least two samples")
        values = sorted(
            self.intensity(duration_s * i / (samples - 1), region)
            for i in range(samples))
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return 0.5 * (values[mid - 1] + values[mid])
