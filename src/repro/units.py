"""Unit constants and small conversion helpers.

All internal quantities in the library use SI base units: seconds,
joules, watts, hertz, and bytes.  Specs and papers quote GHz, GB/s,
milliseconds and microjoules, so these helpers keep conversions explicit
and greppable instead of scattering bare ``1e9`` literals around.
"""

from __future__ import annotations

# --- time -----------------------------------------------------------------

MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9


def ms(value: float) -> float:
    """Milliseconds -> seconds."""
    return value * MILLISECONDS


def us(value: float) -> float:
    """Microseconds -> seconds."""
    return value * MICROSECONDS


# --- frequency ------------------------------------------------------------

KHZ = 1e3
MHZ = 1e6
GHZ = 1e9


def ghz(value: float) -> float:
    """GHz -> Hz."""
    return value * GHZ


def mhz(value: float) -> float:
    """MHz -> Hz."""
    return value * MHZ


# --- data -----------------------------------------------------------------

KIB = 1024
MIB = 1024 ** 2
GIB = 1024 ** 3
CACHELINE_BYTES = 64


def gb_per_s(value: float) -> float:
    """GB/s (decimal) -> bytes/s."""
    return value * 1e9


# --- energy ---------------------------------------------------------------

#: Intel RAPL energy-status unit on Haswell-class parts: 1/2^14 J.
HASWELL_ENERGY_UNIT_J = 1.0 / (1 << 14)

#: Bay Trail (Silvermont) uses a coarser microjoule-scale unit.
BAYTRAIL_ENERGY_UNIT_J = 1.0 / (1 << 5) * 1e-3  # 31.25 uJ
