"""Emulation of the ``MSR_PKG_ENERGY_STATUS`` energy register.

Real RAPL hardware exposes accumulated package energy as a 32-bit
counter in platform-specific energy units (2**-14 J on Haswell-class
parts) that silently wraps around.  The paper samples this MSR to
measure each micro-benchmark's energy; our characterization and
evaluation code reads this emulated register through exactly the same
read / subtract / handle-wraparound protocol it would use on hardware,
so the black-box boundary is preserved.
"""

from __future__ import annotations

from repro.errors import SimulationError

_MSR_BITS = 32
_MSR_MASK = (1 << _MSR_BITS) - 1


class EnergyMsr:
    """A wrapping 32-bit energy accumulator in hardware energy units."""

    def __init__(self, energy_unit_j: float) -> None:
        if energy_unit_j <= 0:
            raise SimulationError("energy unit must be positive")
        self.energy_unit_j = energy_unit_j
        self._accumulated_j = 0.0

    def deposit(self, joules: float) -> None:
        """Called by the simulator as power integrates over time.

        One call may advance the register across several 32-bit wraps
        (a macro-step deposits ``power * duration`` at once); the
        accumulator stays unwrapped and wraps only at :meth:`read`.
        """
        if joules < 0:
            raise SimulationError("cannot deposit negative energy")
        self._accumulated_j += joules

    def read(self) -> int:
        """Raw register read: quantized, wrapped to 32 bits."""
        return int(self._accumulated_j / self.energy_unit_j) & _MSR_MASK

    @staticmethod
    def delta_units(before: int, after: int) -> int:
        """Units elapsed between two raw reads, handling one wraparound.

        **Multi-wraparound hazard**: the modular subtraction recovers
        the true delta only while fewer than 2**32 units elapsed
        between the reads.  A measurement window long enough for the
        register to wrap *more than once* silently under-reports by a
        whole multiple of 2**32 units - the arithmetic cannot detect
        it, exactly as on real RAPL hardware.  Harness code must keep
        each window below :meth:`max_window_joules` (on the simulated
        Haswell unit, 2**32 * 2**-14 J is roughly 262 kJ, or about
        75 minutes at a 58 W package draw).
        """
        return (after - before) & _MSR_MASK

    def max_window_joules(self) -> float:
        """Largest energy a single read/read window can measure safely.

        Windows whose true energy meets or exceeds this bound alias
        under the 32-bit modular arithmetic of :meth:`delta_units`
        (see the multi-wraparound hazard note there).  Measurement
        loops should sample the register often enough that every
        window stays strictly below this value.
        """
        return float(1 << _MSR_BITS) * self.energy_unit_j

    def joules_between(self, before: int, after: int) -> float:
        """Joules elapsed between two raw reads of *this* register.

        Subject to the multi-wraparound hazard of :meth:`delta_units`:
        callers are responsible for keeping the window below
        :meth:`max_window_joules`.
        """
        return self.delta_units(before, after) * self.energy_unit_j

    @property
    def lifetime_joules(self) -> float:
        """Exact accumulated energy (test/diagnostic use only - not
        observable through the hardware interface)."""
        return self._accumulated_j

    @property
    def wrap_count(self) -> int:
        """How many times the 32-bit register has wrapped so far.

        Diagnostic-only (real hardware cannot report this); the
        observability layer exports it so a harness can tell whether a
        long measurement window risked the multi-wraparound hazard of
        :meth:`delta_units`.
        """
        return int(self._accumulated_j / self.energy_unit_j) >> _MSR_BITS
