"""Package control unit (PCU) firmware model.

This is the *black box* the paper's whole approach exists to cope with:
vendor firmware that silently re-clocks the CPU and GPU to share the
package power budget, with policies that differ across SKUs and are not
exposed to software.  The scheduler under test never reads this module;
it only sees the consequences through time and the energy MSR.

The model captures the behaviours the paper documents:

* **Power sharing.** While the GPU is active, the CPU's frequency
  target drops from max turbo to a co-execution target
  (``cpu_coexec_freq_hz``).
* **Activation throttle + slow release (hysteresis).** When the GPU
  becomes active, the CPU is immediately dropped to a low floor and
  then ramps back up slowly (``cpu_ramp_up_hz_per_s``).  GPU bursts
  shorter than the ramp time therefore hold the CPU at low frequency
  for the whole burst - this is exactly the Fig. 4 phenomenon where ten
  short GPU executions drop desktop package power from ~60 W to <40 W,
  and it is why the paper's short/long workload classification (100 ms
  threshold) earns its keep.
* **Package cap feedback.** The PCU samples package power on an
  absolute grid of ``sample_interval_s`` multiples and walks the CPU
  frequency down when the cap is exceeded (CPU-first throttling, as on
  real integrated parts where the GPU is the scarcer resource).

**Fast-forward contract.**  The simulator's event-driven fast path
(docs/PERFORMANCE.md) relies on three guarantees this module provides:

* :meth:`Pcu.settled` - true when stepping the controller would change
  nothing: both frequencies exactly at target, no cap throttle, last
  power at or under the cap, no GPU activity edge pending.  All PCU
  dynamics are then frozen until an external event.
* :meth:`Pcu.time_to_next_transition` - the one *self-scheduled* policy
  change a settled controller still has in its future: the
  co-execution -> turbo CPU target release ``gpu_idle_release_s`` after
  the GPU went idle.  Both clock modes align a tick to this instant so
  the ramp that follows starts at the same time everywhere.
* :meth:`Pcu.macro_step` - advances a settled controller across a span
  in one jump; only the GPU-activity timestamp moves.

To make those guarantees mode-independent, two behaviours are defined
in span terms rather than tick terms: ``last_gpu_active_t`` records the
*end* of the last GPU-active step (so it is the same whether the span
was one macro-step or many ticks), and cap-feedback sampling fires on
the absolute time grid ``k * sample_interval_s`` (so its instants do
not depend on where ticks happened to fall).  Sampling is a no-op
unless the package is over cap or a throttle is decaying; the
simulator uses :meth:`Pcu.bound_dt` to land ticks exactly on the grid
only while that "armed" condition holds.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass

from repro.soc.spec import PlatformSpec

#: Tolerance for "this instant lies on the sample grid", relative to
#: the sample interval.  Wide enough to absorb accumulated float error
#: in the simulation clock, narrow against the smallest tick (1e-7 s).
_GRID_TOL = 1e-6

_INF = float("inf")


def _grid_after(t: float, interval: float) -> float:
    """Smallest grid multiple strictly after ``t`` (FP-tolerant: a ``t``
    within tolerance below ``k * interval`` counts as already on it)."""
    return (math.floor(t / interval + _GRID_TOL) + 1.0) * interval


@dataclass
class PcuState:
    """Mutable PCU state (frequencies are actual, not targets)."""

    cpu_freq_hz: float
    gpu_freq_hz: float
    #: Simulation time up to which the GPU has been seen active (the
    #: *end* of the last GPU-active step - span semantics, so exact
    #: ticking and macro-stepping agree on the release instant).
    last_gpu_active_t: float
    #: Extra CPU throttle (Hz) currently applied by cap feedback.
    cap_throttle_hz: float


class Pcu:
    """The firmware controller.  Stepped once per simulator tick.

    The spec's policy parameters are copied into private attributes at
    construction: :meth:`step` and friends run once per simulator tick,
    and the spec is frozen, so the copies never go stale.
    """

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.state = PcuState(
            cpu_freq_hz=spec.cpu.min_freq_hz,
            gpu_freq_hz=spec.gpu.min_freq_hz,
            last_gpu_active_t=float("-inf"),
            cap_throttle_hz=0.0,
        )
        self._gpu_was_active = False
        #: True while the CPU is climbing back from a GPU-activation
        #: throttle; ramp-up is slow until the target is reached.
        self._throttle_recovery = False
        #: Runtime-supplied efficiency hint in [0, 1] (the cooperative
        #: extension of the paper's conclusion): 0 = default policy,
        #: 1 = pace the co-executing CPU down to the activation floor.
        #: Stock firmware ignores such hints; this models a PCU that
        #: exposes one as a software knob.
        self.power_hint = 0.0
        pcu, cpu, gpu = spec.pcu, spec.cpu, spec.gpu
        self._cpu_min_hz = cpu.min_freq_hz
        self._cpu_turbo_hz = cpu.turbo_freq_hz
        self._gpu_min_hz = gpu.min_freq_hz
        self._gpu_turbo_hz = gpu.turbo_freq_hz
        self._coexec_hz = pcu.cpu_coexec_freq_hz
        self._floor_hz = pcu.cpu_gpu_activation_floor_hz
        self._hint_span_hz = pcu.cpu_coexec_freq_hz - pcu.cpu_gpu_activation_floor_hz
        self._release_s = pcu.gpu_idle_release_s
        self._cold_s = pcu.gpu_cold_threshold_s
        self._sample_s = pcu.sample_interval_s
        self._cap_w = pcu.package_cap_w
        self._ramp_up = pcu.cpu_ramp_up_hz_per_s
        self._recovery_ramp = pcu.cpu_recovery_ramp_hz_per_s
        self._ramp_down = pcu.cpu_ramp_down_hz_per_s
        self._gpu_ramp = pcu.gpu_ramp_hz_per_s

    # -- policy ----------------------------------------------------------------

    def _cpu_target_hz(self, now: float, cpu_active: bool, gpu_active: bool) -> float:
        if not cpu_active:
            return self._cpu_min_hz
        st = self.state
        if gpu_active or (now - st.last_gpu_active_t) < self._release_s:
            # An efficiency hint paces the co-executing CPU between its
            # normal sharing target and the activation floor.
            target = self._coexec_hz - self.power_hint * self._hint_span_hz
        else:
            target = self._cpu_turbo_hz
        target -= st.cap_throttle_hz
        # max(min, min(target, turbo)), without the calls.
        turbo = self._cpu_turbo_hz
        target = turbo if turbo < target else target
        lowest = self._cpu_min_hz
        return target if target > lowest else lowest

    def _gpu_target_hz(self, gpu_active: bool) -> float:
        return self._gpu_turbo_hz if gpu_active else self._gpu_min_hz

    def _sample_armed(self, last_package_power_w: float) -> bool:
        """Would a cap-feedback sample do anything right now?"""
        return (self.state.cap_throttle_hz > 0.0
                or last_package_power_w > self._cap_w)

    # -- fast-forward contract ---------------------------------------------------

    def settled(self, now: float, cpu_active: bool, gpu_active: bool,
                last_package_power_w: float) -> bool:
        """True when a step would leave every controller output unchanged.

        Requires: no GPU activity edge pending, no cap throttle applied
        and none about to be (power at or under cap), and both
        frequencies exactly at their targets (the ramp code clamps onto
        targets exactly, so equality is the right test).  While settled,
        the only self-scheduled change left is the target flip reported
        by :meth:`time_to_next_transition`.
        """
        st = self.state
        if gpu_active != self._gpu_was_active:
            return False
        if st.cap_throttle_hz != 0.0:
            return False
        if last_package_power_w > self._cap_w:
            return False
        return (st.cpu_freq_hz == self._cpu_target_hz(now, cpu_active, gpu_active)
                and st.gpu_freq_hz == self._gpu_target_hz(gpu_active))

    def time_to_next_transition(self, now: float, cpu_active: bool,
                                gpu_active: bool) -> float:
        """Absolute time of the next self-scheduled policy change.

        With constant device activity the only such change is the
        co-execution -> turbo CPU target release, ``gpu_idle_release_s``
        after the GPU was last active.  Returns ``inf`` when nothing is
        scheduled.  Both clock modes bound their steps by this so the
        post-release ramp starts at the same instant everywhere.
        """
        if cpu_active and not gpu_active:
            # Same arithmetic as _cpu_target_hz's recency test, so the
            # reported release instant and the actual target flip agree
            # to the ulp.  The result may be at or an ulp before ``now``
            # when the flip is imminent; callers clamp their step to
            # _MIN_DT and tick across it.
            last = self.state.last_gpu_active_t
            if (now - last) < self._release_s:
                return last + self._release_s
        return _INF

    def bound_dt(self, now: float, dt: float,
                 last_package_power_w: float) -> float:
        """Clip ``dt`` so armed cap-feedback samples land on their grid.

        Sampling is a no-op unless the package is over cap or a
        throttle is decaying; only then must ticks hit the absolute
        grid ``k * sample_interval_s`` exactly, keeping the feedback's
        firing instants independent of prior tick placement.
        """
        if not self._sample_armed(last_package_power_w):
            return dt
        return min(dt, _grid_after(now, self._sample_s) - now)

    def edge_pending(self, gpu_active: bool) -> bool:
        """Would the next step apply a GPU activity edge?

        The batched-transient path of the fast clock mode requires
        constant device activity over the span it plans; an unapplied
        edge means the very next step runs activation-throttle logic
        and must stay on the scalar path.
        """
        return gpu_active != self._gpu_was_active

    def clone(self) -> "Pcu":
        """Independent copy for schedule *planning* (fast clock mode).

        The simulator's batched-transient path steps a throwaway clone
        through upcoming ticks to learn the exact frequency/dt schedule
        without touching live state, evaluates the rate/power models
        once over the whole schedule, then advances the real controller
        to the committed prefix.  The clone shares the (immutable) spec
        and its policy constants, and copies all mutable state.
        """
        twin = copy.copy(self)
        twin.state = dataclasses.replace(self.state)
        return twin

    def macro_step(self, now: float, dt: float, cpu_active: bool,
                   gpu_active: bool) -> "tuple[float, float]":
        """Advance a settled controller by ``dt`` in one jump.

        Caller contract: :meth:`settled` was true at ``now``, activity
        is constant over the span, and ``dt`` does not cross
        :meth:`time_to_next_transition`.  Under those conditions the
        only state that moves is the GPU-activity timestamp.
        """
        if gpu_active:
            self.state.last_gpu_active_t = now + dt
        return self.state.cpu_freq_hz, self.state.gpu_freq_hz

    # -- stepping ----------------------------------------------------------------

    def step(self, now: float, dt: float, cpu_active: bool, gpu_active: bool,
             last_package_power_w: float) -> "tuple[float, float]":
        """Advance the controller by ``dt``; returns (cpu_freq, gpu_freq).

        ``last_package_power_w`` is the power measured over the previous
        tick - the feedback signal for cap enforcement.
        """
        st = self.state

        # A GPU activation edge after a genuine idle period throttles
        # the CPU immediately: hard floor, then a slow recovery ramp
        # (the Fig. 4 hysteresis).  Rapid back-to-back kernel launches
        # within the release window count as sustained GPU use and do
        # not re-trigger the floor - otherwise multi-invocation
        # workloads could never co-execute, contradicting the paper's
        # Fig. 3 steady-state co-execution power.
        if gpu_active and not self._gpu_was_active:
            cold = (now - st.last_gpu_active_t) > self._cold_s
            if cold:
                st.cpu_freq_hz = min(st.cpu_freq_hz, self._floor_hz)
                self._throttle_recovery = True
        self._gpu_was_active = gpu_active

        # Cap-feedback sample when this step lands on the absolute
        # sample grid.  Off-grid steps skip it; the simulator only
        # forces grid alignment (bound_dt) while a sample would have
        # an effect, so nothing observable is ever missed.
        x = now / self._sample_s
        if abs(x - round(x)) <= _GRID_TOL:
            # Package-cap feedback (integral controller on CPU freq).
            if last_package_power_w > self._cap_w:
                overshoot = last_package_power_w / self._cap_w - 1.0
                st.cap_throttle_hz += overshoot * 0.4e9
            elif st.cap_throttle_hz > 0.0:
                st.cap_throttle_hz = max(0.0, st.cap_throttle_hz - 0.05e9)

        if gpu_active:
            st.last_gpu_active_t = now + dt

        # Frequency ramping toward targets.
        cpu_target = self._cpu_target_hz(now, cpu_active, gpu_active)
        cpu_freq = st.cpu_freq_hz
        if cpu_freq < cpu_target:
            # Recovery from the activation throttle is slow only while
            # the GPU is still active or recently so (power sharing);
            # once the GPU has genuinely gone idle, turbo re-engages at
            # the normal fast ramp - Fig. 4's package power returns to
            # ~60 W *between* bursts.
            slow = self._throttle_recovery and (
                gpu_active or (now - st.last_gpu_active_t) < self._release_s)
            ramp = self._recovery_ramp if slow else self._ramp_up
            cpu_freq = cpu_freq + ramp * dt
            # min(target, freq) / max(target, freq) below, without the
            # calls: same comparison, same object returned.
            cpu_freq = cpu_freq if cpu_freq < cpu_target else cpu_target
            st.cpu_freq_hz = cpu_freq
            if cpu_freq >= cpu_target:
                self._throttle_recovery = False
        elif cpu_freq > cpu_target:
            cpu_freq = cpu_freq - self._ramp_down * dt
            cpu_freq = cpu_freq if cpu_freq > cpu_target else cpu_target
            st.cpu_freq_hz = cpu_freq

        gpu_target = self._gpu_turbo_hz if gpu_active else self._gpu_min_hz
        gpu_freq = st.gpu_freq_hz
        if gpu_freq < gpu_target:
            gpu_freq = gpu_freq + self._gpu_ramp * dt
            gpu_freq = gpu_freq if gpu_freq < gpu_target else gpu_target
            st.gpu_freq_hz = gpu_freq
        elif gpu_freq > gpu_target:
            gpu_freq = gpu_freq - self._gpu_ramp * dt
            gpu_freq = gpu_freq if gpu_freq > gpu_target else gpu_target
            st.gpu_freq_hz = gpu_freq

        return cpu_freq, gpu_freq
