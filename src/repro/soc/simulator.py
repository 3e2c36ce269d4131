"""Virtual-clock execution engine for the simulated integrated SoC.

The simulator advances in small ticks (0.5-1 ms, per platform spec).
Each tick it: steps the PCU (frequency policy + ramping), computes both
devices' instantaneous throughput under memory contention, retires work
from each device's :class:`~repro.soc.work.WorkRegion`, integrates
package power into the energy MSR, updates performance counters, and
optionally records a trace sample.

Execution is organized into *phases*, matching the runtime structure of
the paper's Fig. 7 algorithm:

* a **profiling phase** (``stop_when_gpu_done=True``): the GPU runs a
  fixed-size chunk while CPU workers drain a shared pool; the phase
  ends the moment the GPU finishes and the CPU workers are terminated
  (OnlineProfile, lines 28-35);
* a **partitioned phase**: GPU and CPU each own a region; the phase
  ends when both are done (lines 23-25) - one device typically
  finishes first and the other continues alone, which is exactly the
  structure of the paper's T(alpha) model (Eq. 4).

One CPU hardware context acts as the *GPU proxy thread*: while a GPU
kernel is being launched or is resident, one CPU worker contributes no
item throughput (it is driving the GPU), matching the paper's runtime.

**Clock modes** (``PlatformSpec.tick_mode``, see docs/PERFORMANCE.md):
in ``"exact"`` mode every span is ticked (with an adaptive up-to-8x
stretch once the PCU stops moving); in ``"fast"`` mode, spans where the
PCU reports itself :meth:`~repro.soc.pcu.Pcu.settled` - and therefore
every per-tick quantity is provably constant - are *fast-forwarded* in
one closed-form macro-step to the next event: min(CPU completion, GPU
completion, PCU target transition, pending discrete event, phase
deadline).  Transients (kernel launches, frequency ramps, cap
throttling, device-finish crossovers) run through the identical
per-tick code in both modes, which is what keeps fast-vs-exact
divergence on end-to-end time/energy/items below 1e-6 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.obs.observer import Observer, resolve
from repro.soc.cost_model import KernelCostModel
from repro.soc.counters import CounterDelta, CounterSnapshot, PerfCounters
from repro.soc.device import DeviceRates, compute_rates, compute_rates_batch
from repro.soc.msr import EnergyMsr
from repro.soc.pcu import Pcu
from repro.soc.power import (
    PowerBreakdown,
    idle_power,
    package_power,
    package_power_batch,
)
from repro.soc.spec import PlatformSpec
from repro.soc.trace import SPAN_DECIMATION_TICKS, PowerTrace, TraceSample
from repro.soc.work import WorkRegion

#: Smallest tick the event-alignment logic will produce.
_MIN_DT = 1e-7

#: Items-remaining below which a region counts as finished.
_DONE_EPS = 1e-9

#: Most ticks one batched-transient evaluation will plan ahead
#: (bounds planning memory; longer transients simply batch again).
_BATCH_MAX_TICKS = 4096

#: Below this many plannable ticks the vectorized evaluation costs more
#: than it saves (numpy's per-op overhead outweighs the saved model
#: calls); fall back to the scalar tick path, which memoizes instead.
_BATCH_MIN_TICKS = 16

#: Entry cap for the fast-mode model memos (see ``_memoized_rates``);
#: cleared wholesale when exceeded, which in practice never happens
#: inside one application run.
_MEMO_MAX_ENTRIES = 262144

_INF = float("inf")


def _memoized_rates(rates, memo: dict, kernel_name: str):
    """``rates`` (:func:`~repro.soc.device.compute_rates` with the spec
    and kernel bound) behind ``memo`` - fast clock mode only.

    Keyed on every model input; a hit returns the object a fresh
    evaluation would produce bit-for-bit, so this is invisible to
    fast-vs-exact equivalence.  Kernel cost models are keyed by name:
    within one run a name denotes one parameter set.
    """
    def cached(cpu_freq, gpu_freq, cpu_cores, dispatch, cpu_active,
               gpu_active):
        key = (kernel_name, cpu_freq, gpu_freq, cpu_cores, dispatch,
               cpu_active, gpu_active)
        value = memo.get(key)
        if value is None:
            value = rates(cpu_freq, gpu_freq, cpu_cores, dispatch,
                          cpu_active, gpu_active)
            if len(memo) >= _MEMO_MAX_ENTRIES:
                memo.clear()
            memo[key] = value
        return value
    return cached


def _memoized_power(power, memo: dict):
    """``power`` (:func:`~repro.soc.power.package_power` with the spec
    bound) behind ``memo`` - fast clock mode only.

    The key carries exactly the fields the power model reads from the
    rates (stall fractions and traffic) plus the explicit arguments, so
    a hit is bit-identical to a fresh evaluation.
    """
    def cached(rates, cpu_freq, gpu_freq, cpu_cores, gpu_active):
        key = (rates.cpu_memory_stall_fraction,
               rates.gpu_memory_stall_fraction,
               rates.cpu_traffic_bytes_per_s,
               rates.gpu_traffic_bytes_per_s,
               cpu_freq, gpu_freq, cpu_cores, gpu_active)
        value = memo.get(key)
        if value is None:
            value = power(rates, cpu_freq, gpu_freq, cpu_cores, gpu_active)
            if len(memo) >= _MEMO_MAX_ENTRIES:
                memo.clear()
            memo[key] = value
        return value
    return cached


@dataclass
class PhaseRequest:
    """One phase of kernel execution."""

    cost: KernelCostModel
    cpu_region: Optional[WorkRegion]
    gpu_region: Optional[WorkRegion]
    #: Profiling mode: terminate CPU workers as soon as the GPU chunk
    #: completes, leaving the CPU region partially processed.
    stop_when_gpu_done: bool = False
    #: Cap on wall time for this phase (safety net).
    max_duration_s: float = 600.0


@dataclass(frozen=True)
class PhaseResult:
    """What the runtime observes about a completed phase."""

    start_t: float
    end_t: float
    cpu_items: float
    gpu_items: float
    #: Proxy-thread view of GPU time: launch start to kernel completion.
    gpu_time_s: float
    #: Time the GPU was actually executing (excludes launch overhead).
    gpu_busy_time_s: float
    counters: CounterDelta
    #: Exact energy over the phase (diagnostic; schedulers must use the
    #: MSR interface instead to stay black-box).
    energy_j: float

    @property
    def duration_s(self) -> float:
        return self.end_t - self.start_t


class IntegratedProcessor:
    """A simulated integrated CPU-GPU package with PCU, MSR and counters."""

    def __init__(self, spec: PlatformSpec, trace_enabled: bool = False,
                 observer: "Optional[Observer]" = None) -> None:
        self.spec = spec
        self.now = 0.0
        self.pcu = Pcu(spec)
        self.msr = EnergyMsr(spec.energy_unit_j)
        self.counters = PerfCounters()
        self.trace = PowerTrace(enabled=trace_enabled)
        self.observer = resolve(observer)
        self._fast = spec.tick_mode == "fast"
        self._last_package_w = idle_power(spec).package_w
        self._last_phase_ticks = 0
        self._last_phase_macro_steps = 0
        self._event_sources: List[object] = []
        # Fast-mode model memo: many-launch workloads replay virtually
        # identical launch/ramp transients thousands of times, so the
        # same (frequency, configuration) model inputs recur endlessly.
        # Values are cached result objects - bit-identical to fresh
        # evaluation - so fast-vs-exact equivalence is unaffected.
        self._rates_memo = {}
        self._power_memo = {}
        # The power model with the platform bound (fast mode:
        # memoized); _run_phase_inner binds the rate model per phase.
        self._power = partial(package_power, spec)
        if self._fast:
            self._power = _memoized_power(self._power, self._power_memo)

    # -- software-visible interface (what schedulers may use) -------------------

    def read_energy_msr(self) -> int:
        """Raw MSR_PKG_ENERGY_STATUS read."""
        return self.msr.read()

    def energy_joules_between(self, before: int, after: int) -> float:
        return self.msr.joules_between(before, after)

    def snapshot_counters(self) -> CounterSnapshot:
        return self.counters.snapshot(self.now)

    @property
    def gpu_busy(self) -> bool:
        """GPU performance counter A26."""
        return self.counters.gpu_busy

    def set_power_hint(self, hint: float) -> None:
        """Hand the PCU a runtime efficiency hint in [0, 1].

        The cooperative extension sketched in the paper's conclusion
        ("incorporate feedback from our user-level runtime in power
        management techniques"): 0 restores the stock policy, 1 asks
        the firmware to pace the co-executing CPU for efficiency.
        """
        if not 0.0 <= hint <= 1.0:
            raise SimulationError(f"power hint {hint} outside [0, 1]")
        self.pcu.power_hint = hint

    # -- discrete events ---------------------------------------------------------

    def add_event_source(self, source: object) -> None:
        """Register a discrete event source (harness/fault plumbing).

        ``source`` must expose ``next_event_time(now) -> float`` (the
        absolute time of its next event, ``inf`` when exhausted) and
        ``fire(now) -> None``; ``next_event_time`` must advance past
        ``now`` after ``fire``.  The clock never steps - and never
        macro-steps - across a pending event: both clock modes bound
        their advance to the event horizon, so a scheduled fault lands
        on-tick regardless of fast-forwarding.
        """
        self._event_sources.append(source)

    def _event_horizon(self) -> float:
        """Fire every due source, then return the earliest future event."""
        horizon = float("inf")
        for source in self._event_sources:
            t_next = source.next_event_time(self.now)
            while t_next <= self.now + 1e-12:
                source.fire(self.now)
                t_next = source.next_event_time(self.now)
            horizon = min(horizon, t_next)
        return horizon

    # -- execution ---------------------------------------------------------------

    def idle(self, duration_s: float) -> None:
        """Advance the clock with both devices idle."""
        if duration_s < 0:
            raise SimulationError("cannot idle for negative time")
        remaining = duration_s
        tick = self.spec.tick_s
        # Idle power depends only on the spec - one computation serves
        # the whole wait, however it is stepped.
        breakdown = idle_power(self.spec)
        pcu = self.pcu
        fast = self._fast
        sources = self._event_sources
        while remaining > _MIN_DT:
            now = self.now
            horizon = self._event_horizon() if sources else _INF
            if fast and pcu.settled(now, False, False, self._last_package_w):
                # Both devices idle and the PCU parked: the rest of the
                # wait is one constant-power macro-step (up to the next
                # discrete event).
                dt = min(remaining, horizon - now)
                if dt > tick:
                    pcu.macro_step(now, dt, cpu_active=False,
                                   gpu_active=False)
                    self._account_span(dt, breakdown, False)
                    remaining -= dt
                    continue
            dt = min(tick, remaining)
            if horizon - now < dt:
                dt = horizon - now
            dt = pcu.bound_dt(now, dt, self._last_package_w)
            dt = max(dt, _MIN_DT)
            pcu.step(now, dt, cpu_active=False, gpu_active=False,
                     last_package_power_w=self._last_package_w)
            self._account_tick(dt, breakdown, False)
            remaining -= dt

    def run_phase(self, request: PhaseRequest) -> PhaseResult:
        """Execute one phase to completion and return observations."""
        obs = self.observer
        if not obs.enabled:
            return self._run_phase_inner(request)
        if request.stop_when_gpu_done:
            kind = "profiling"
        elif request.cpu_region is not None and request.gpu_region is not None:
            kind = "partitioned"
        elif request.gpu_region is not None:
            kind = "gpu-only"
        else:
            kind = "cpu-only"
        with obs.span("soc.phase", kernel=request.cost.name, kind=kind):
            result = self._run_phase_inner(request)
        obs.inc("soc.phases")
        obs.inc("soc.ticks", self._last_phase_ticks)
        obs.inc("soc.macro_steps", self._last_phase_macro_steps)
        obs.observe("soc.phase_ticks", self._last_phase_ticks)
        obs.observe("soc.phase_s", result.duration_s)
        obs.set_gauge("soc.msr_wraps", self.msr.wrap_count)
        return result

    def _run_phase_inner(self, request: PhaseRequest) -> PhaseResult:
        # One hot path for both clock modes: phase constants are read
        # into locals before the loop and the models are called through
        # bound partials (fast mode wraps them in memos and adds the
        # macro-step and batch regimes).  Every expression keeps its
        # operands and their order, so results are bit-identical.
        spec = self.spec
        cost = request.cost
        cpu_region = request.cpu_region
        gpu_region = request.gpu_region

        # Region progress is read as ``stop_item - _pos``: ``x > eps``
        # is exactly ``WorkRegion.items_remaining > eps``.
        gpu_present = (gpu_region is not None
                       and gpu_region.stop_item - gpu_region._pos > _DONE_EPS)
        cpu_present = (cpu_region is not None
                       and cpu_region.stop_item - cpu_region._pos > _DONE_EPS)
        if not gpu_present and not cpu_present:
            raise SimulationError("phase with no work on either device")
        stop_when_gpu_done = request.stop_when_gpu_done
        if stop_when_gpu_done and not gpu_present:
            raise SimulationError("stop_when_gpu_done requires a GPU region")

        counters = self.counters
        msr = self.msr
        # The phase's CounterDelta is built from these start values
        # directly (the field-by-field subtraction of
        # CounterSnapshot.delta, minus two throwaway snapshots).
        start_t = self.now
        start_instructions = counters.instructions_retired
        start_loadstores = counters.loadstore_instructions
        start_l3_misses = counters.l3_misses
        start_cpu_items = counters.cpu_items
        start_gpu_items = counters.gpu_items
        start_gpu_busy = counters.gpu_busy_time_s
        start_energy = msr.lifetime_joules

        launch_remaining = spec.gpu.kernel_launch_overhead_s if gpu_present else 0.0
        # items_remaining, which is this difference when positive.
        gpu_dispatch_items = (gpu_region.stop_item - gpu_region._pos
                              if gpu_present else 0.0)
        cpu_stop = cpu_region.stop_item if cpu_present else 0.0
        gpu_stop = gpu_region.stop_item if gpu_present else 0.0
        gpu_done_t: Optional[float] = None
        gpu_busy_time = 0.0
        deadline = start_t + request.max_duration_s
        tick = spec.tick_s
        stretched_tick = tick * 8.0
        fast = self._fast
        # The proxy thread occupies a hardware context whenever it is
        # driving the GPU.  With SMT it shares a core with a worker
        # (mostly-blocked thread, ~15% of a core); without SMT (the
        # tablet's Atom) it costs a whole core.
        proxy_cost = 0.15 if spec.cpu.smt_per_core > 1 else 1.0
        num_cores = spec.cpu.num_cores
        cores_beside_proxy = max(num_cores - proxy_cost, 1.0)
        cores_alone = max(num_cores - 0.0, 1.0)
        cap_w = spec.pcu.package_cap_w
        rates = partial(compute_rates, spec, cost)
        if fast:
            rates = _memoized_rates(rates, self._rates_memo, cost.name)
        power = self._power
        pcu = self.pcu
        st = pcu.state
        sources = self._event_sources
        # Adaptive ticking: once the PCU has settled (no material
        # frequency movement) the tick stretches up to 8x.  Any event -
        # ramping, launch completion, a device finishing - snaps it
        # back to the base tick, so transients keep full resolution.
        # Fast mode layers macro-stepping on top: truly settled spans
        # are skipped in one jump; everything else runs through this
        # identical tick code.
        stable_ticks = 0
        total_ticks = 0
        macro_steps = 0
        prev_cpu_freq = st.cpu_freq_hz
        prev_gpu_freq = st.gpu_freq_hz

        while True:
            now = self.now
            cpu_done = (not cpu_present
                        or not cpu_stop - cpu_region._pos > _DONE_EPS)
            gpu_done = (gpu_present and launch_remaining <= 0.0
                        and not gpu_stop - gpu_region._pos > _DONE_EPS)
            if gpu_done and gpu_done_t is None:
                gpu_done_t = now
            if stop_when_gpu_done:
                if gpu_done:
                    break
            elif cpu_done and ((not gpu_present) or gpu_done):
                break
            if now >= deadline:
                raise SimulationError(
                    f"phase exceeded max duration {request.max_duration_s}s "
                    f"(kernel {cost.name})")

            event_horizon = self._event_horizon() if sources else _INF

            launching = gpu_present and launch_remaining > 0.0
            gpu_running = gpu_present and not launching and not gpu_done
            cpu_cores = 0.0
            if not cpu_done:
                cpu_cores = (cores_beside_proxy if launching or gpu_running
                             else cores_alone)
            cpu_active = cpu_cores > 0

            # Preliminary rates at current frequencies, to align the
            # tick with the next completion event.
            pre_cpu_freq = st.cpu_freq_hz
            pre_gpu_freq = st.gpu_freq_hz
            dispatch = gpu_dispatch_items if gpu_running else 0.0
            prelim = rates(pre_cpu_freq, pre_gpu_freq, cpu_cores, dispatch,
                           cpu_active, gpu_running)
            cpu_rate = prelim.cpu_items_per_s
            gpu_rate = prelim.gpu_items_per_s

            # Completion/transition bounds at the current rates: shared
            # by the macro-step gate, the batch plan cap, and the dt
            # selection below.  (A device that is still running has
            # work left, so WorkRegion.time_to_complete reduces to
            # work_remaining / rate here.)
            t_done_cpu = (cpu_region.work_remaining / cpu_rate
                          if cpu_cores > 0 and cpu_rate > 0 else _INF)
            t_done_gpu = (gpu_region.work_remaining / gpu_rate
                          if gpu_running and gpu_rate > 0 else _INF)
            t_trans = pcu.time_to_next_transition(now, cpu_active, gpu_running)
            last_w = self._last_package_w

            if fast and not launching:
                # Fast-forward: the PCU is settled and no launch
                # transient is in flight, so frequencies, rates and
                # power are all constant until the next event - jump
                # straight to it.
                if pcu.settled(now, cpu_active, gpu_running, last_w):
                    dt_macro = deadline - now
                    if t_trans - now < dt_macro:
                        dt_macro = t_trans - now
                    if event_horizon - now < dt_macro:
                        dt_macro = event_horizon - now
                    if t_done_cpu < dt_macro:
                        dt_macro = t_done_cpu
                    if t_done_gpu < dt_macro:
                        dt_macro = t_done_gpu
                    if dt_macro > tick:
                        breakdown = power(prelim, pre_cpu_freq, pre_gpu_freq,
                                          cpu_cores, gpu_running)
                        # Settled implies the previous tick was at or
                        # under the cap with this same configuration;
                        # re-checking the span's own power keeps the
                        # first tick after a transient honest (fall
                        # through to exact ticking, where cap feedback
                        # will engage on schedule).
                        if breakdown.package_w <= cap_w:
                            pcu.macro_step(now, dt_macro, cpu_active,
                                           gpu_running)
                            if cpu_active:
                                done = cpu_region.consume(cpu_rate * dt_macro)
                                counters.account_cpu_items(done, cost)
                            if gpu_running:
                                done = gpu_region.consume(gpu_rate * dt_macro)
                                counters.account_gpu_items(done)
                                gpu_busy_time += dt_macro
                            counters.account_gpu_busy(gpu_running, dt_macro)
                            self._account_span(dt_macro, breakdown,
                                               gpu_running)
                            total_ticks += 1
                            macro_steps += 1
                            # The macro-step ends at an event, exactly
                            # where exact mode's event-bounded tick resets
                            # its stretch - keep the stability state in
                            # lockstep.
                            stable_ticks = 0
                            prev_cpu_freq = pre_cpu_freq
                            prev_gpu_freq = pre_gpu_freq
                            continue

                # Batched transient: the span ahead is not settled (a
                # ramp is in progress) but it is *pre-determined* - no
                # launch in flight, no GPU activity edge, no cap
                # throttle armed - so the whole tick/frequency schedule
                # can be planned on a PCU clone and the expensive
                # rate/power models evaluated once, vectorized, instead
                # of once per tick.  Committed ticks are element-wise
                # bit-identical to scalar ticking.
                if (st.cap_throttle_hz == 0.0 and last_w <= cap_w
                        and not pcu.edge_pending(gpu_running)):
                    # Don't plan (much) past the nearest completion: the
                    # estimate uses current rates, so it is only a
                    # planning heuristic - commit-time truncation, not
                    # this bound, decides what actually executes.
                    plan_cap = _BATCH_MAX_TICKS
                    if t_done_cpu != _INF:
                        plan_cap = min(plan_cap, 2 + int(t_done_cpu / tick))
                    if t_done_gpu != _INF:
                        plan_cap = min(plan_cap, 2 + int(t_done_gpu / tick))
                    advanced = self._transient_batch(
                        cost, cpu_region, gpu_region, cpu_active, cpu_cores,
                        gpu_running, gpu_dispatch_items, deadline,
                        event_horizon, stable_ticks, prev_cpu_freq,
                        prev_gpu_freq, plan_cap
                    ) if plan_cap >= _BATCH_MIN_TICKS else None
                    if advanced is not None:
                        (n_committed, stable_ticks, prev_cpu_freq,
                         prev_gpu_freq, span_busy) = advanced
                        total_ticks += n_committed
                        macro_steps += 1
                        gpu_busy_time += span_busy
                        continue

            dt = stretched_tick if stable_ticks > 16 else tick
            event_bounded = False
            if launching and launch_remaining < dt:
                dt = launch_remaining
                event_bounded = True
            if t_done_cpu < dt:
                dt = t_done_cpu
                event_bounded = True
            if t_done_gpu < dt:
                dt = t_done_gpu
                event_bounded = True
            if t_trans - now < dt:
                dt = t_trans - now
                event_bounded = True
            if event_horizon - now < dt:
                dt = event_horizon - now
                event_bounded = True
            dt = pcu.bound_dt(now, dt, last_w)
            if _MIN_DT > dt:
                dt = _MIN_DT

            cpu_freq, gpu_freq = pcu.step(now, dt, cpu_active, gpu_running,
                                          last_w)
            if (abs(cpu_freq - prev_cpu_freq) > 3e7
                    or abs(gpu_freq - prev_gpu_freq) > 3e7
                    or event_bounded or launching):
                stable_ticks = 0
            else:
                stable_ticks += 1
            prev_cpu_freq = cpu_freq
            prev_gpu_freq = gpu_freq
            if not (abs(cpu_freq - pre_cpu_freq) < 1e6
                    and abs(gpu_freq - pre_gpu_freq) < 1e6):
                prelim = rates(cpu_freq, gpu_freq, cpu_cores, dispatch,
                               cpu_active, gpu_running)
                cpu_rate = prelim.cpu_items_per_s
                gpu_rate = prelim.gpu_items_per_s

            if cpu_cores > 0:
                done = cpu_region.consume(cpu_rate * dt)
                counters.account_cpu_items(done, cost)
            if gpu_running:
                done = gpu_region.consume(gpu_rate * dt)
                counters.account_gpu_items(done)
                gpu_busy_time += dt
            if launching:
                launch_remaining -= dt

            breakdown = power(prelim, cpu_freq, gpu_freq, cpu_cores,
                              gpu_running)
            counters.account_gpu_busy(gpu_running, dt)
            self._account_tick(dt, breakdown, gpu_running)
            total_ticks += 1

        if gpu_present and gpu_done_t is None:
            gpu_done_t = self.now
        self._last_phase_ticks = total_ticks
        self._last_phase_macro_steps = macro_steps
        # The kernel has completed: the GPU busy counter (A26) must
        # read idle, whatever the final tick happened to be doing.
        counters.account_gpu_busy(False, 0.0)
        end_t = self.now
        cpu_items = counters.cpu_items - start_cpu_items
        gpu_items = counters.gpu_items - start_gpu_items
        return PhaseResult(
            start_t=start_t,
            end_t=end_t,
            cpu_items=cpu_items,
            gpu_items=gpu_items,
            gpu_time_s=(gpu_done_t - start_t) if gpu_present else 0.0,
            gpu_busy_time_s=gpu_busy_time,
            counters=CounterDelta(
                elapsed_s=end_t - start_t,
                instructions_retired=(counters.instructions_retired
                                      - start_instructions),
                loadstore_instructions=(counters.loadstore_instructions
                                        - start_loadstores),
                l3_misses=counters.l3_misses - start_l3_misses,
                cpu_items=cpu_items,
                gpu_items=gpu_items,
                gpu_busy_time_s=counters.gpu_busy_time_s - start_gpu_busy,
            ),
            energy_j=msr.lifetime_joules - start_energy,
        )

    # -- internals ---------------------------------------------------------------

    def _transient_batch(self, cost: KernelCostModel,
                         cpu_region: Optional[WorkRegion],
                         gpu_region: Optional[WorkRegion],
                         cpu_active: bool, cpu_cores: float,
                         gpu_running: bool, gpu_dispatch_items: float,
                         deadline: float, event_horizon: float,
                         stable_ticks: int, prev_cpu_freq: float,
                         prev_gpu_freq: float, plan_cap: int):
        """Plan, evaluate and commit one batched transient span.

        Two passes.  **Plan**: a PCU clone is stepped through the
        upcoming ticks, reproducing the scalar loop's dt selection
        (adaptive stretch, transition/event-horizon alignment) and the
        controller's frequency ramps, without evaluating the rate or
        power models.  **Evaluate**: the roofline and power models run
        once, vectorized, over the planned frequency arrays - each
        element bit-identical to the scalar call it replaces.  The plan
        is then truncated to the prefix the scalar loop would actually
        have executed unchanged: ticks before any device-completion
        bound would fire, and at most one tick whose power exceeds the
        cap (the next tick arms cap-feedback sampling and must run on
        the scalar path, exactly as in exact mode).

        Returns ``None`` when fewer than ``_BATCH_MIN_TICKS`` ticks are
        plannable (the scalar path is cheaper); otherwise commits all
        side effects (work, counters, MSR, trace, PCU state, clock) and
        returns ``(n_ticks, stable_ticks, prev_cpu_freq, prev_gpu_freq,
        gpu_busy_s)`` for the caller's loop state.
        """
        spec = self.spec
        tick = spec.tick_s
        plan = self.pcu.clone()
        now = self.now
        nows: List[float] = []
        dts: List[float] = []
        base_dts: List[float] = []
        pre_c: List[float] = []
        pre_g: List[float] = []
        post_c: List[float] = []
        post_g: List[float] = []
        stables: List[int] = []
        recovery: List[bool] = []
        st_count = stable_ticks
        pc = prev_cpu_freq
        pg = prev_gpu_freq
        # Plan pass.  The clone is stepped with a zero power signal:
        # cap-feedback sampling is a no-op at or under the cap, and the
        # commit pass truncates at the first over-cap tick, so the live
        # controller would see no-op samples over every committed tick
        # just the same.
        while len(dts) < plan_cap:
            if now >= deadline:
                break
            if event_horizon - now <= 1e-12:
                break
            if plan.settled(now, cpu_active, gpu_running, 0.0):
                break  # hand the rest of the span to the macro-step path
            base = tick * (8.0 if st_count > 16 else 1.0)
            dt = base
            event_bounded = False
            t_trans = plan.time_to_next_transition(now, cpu_active, gpu_running)
            if t_trans - now < dt:
                dt = t_trans - now
                event_bounded = True
            if event_horizon - now < dt:
                dt = event_horizon - now
                event_bounded = True
            dt = max(dt, _MIN_DT)
            f0c = plan.state.cpu_freq_hz
            f0g = plan.state.gpu_freq_hz
            f1c, f1g = plan.step(now, dt, cpu_active=cpu_active,
                                 gpu_active=gpu_running,
                                 last_package_power_w=0.0)
            nows.append(now)
            dts.append(dt)
            base_dts.append(base)
            pre_c.append(f0c)
            pre_g.append(f0g)
            post_c.append(f1c)
            post_g.append(f1g)
            moved = (abs(f1c - pc) > 3e7 or abs(f1g - pg) > 3e7)
            pc = f1c
            pg = f1g
            st_count = 0 if (moved or event_bounded) else st_count + 1
            stables.append(st_count)
            recovery.append(plan._throttle_recovery)
            now += dt
        n = len(dts)
        if n < _BATCH_MIN_TICKS:
            return None

        # Evaluate pass: rates at pre- and post-step frequencies (the
        # scalar loop reuses its preliminary rates when the step barely
        # moved the clocks - reproduce that selection per element).
        # Each tick's pre-step frequency IS the previous tick's
        # post-step frequency (``plan.step`` returns its own state), so
        # the 2n scalar evaluations collapse onto one (n+1)-point
        # frequency ladder evaluated in a single vectorized call;
        # pre/post views are strided slices of the same arrays.  Every
        # element is still bit-identical to its scalar counterpart -
        # the batch twin is elementwise, so neighbors can't perturb it.
        ladder_c = np.empty(n + 1)
        ladder_g = np.empty(n + 1)
        ladder_c[0] = pre_c[0]
        ladder_c[1:] = post_c
        ladder_g[0] = pre_g[0]
        ladder_g[1:] = post_g
        f_pre_c = ladder_c[:-1]
        f_pre_g = ladder_g[:-1]
        f_post_c = ladder_c[1:]
        f_post_g = ladder_g[1:]
        dts_a = np.array(dts)
        base_a = np.array(base_dts)
        dispatch = gpu_dispatch_items if gpu_running else 0.0
        r_all = compute_rates_batch(spec, cost, ladder_c, ladder_g, cpu_cores,
                                    dispatch, cpu_active=cpu_active,
                                    gpu_active=gpu_running)
        r_pre = DeviceRates(
            cpu_items_per_s=r_all.cpu_items_per_s[:-1],
            gpu_items_per_s=r_all.gpu_items_per_s[:-1],
            cpu_memory_stall_fraction=r_all.cpu_memory_stall_fraction[:-1],
            gpu_memory_stall_fraction=r_all.gpu_memory_stall_fraction[:-1],
            cpu_traffic_bytes_per_s=r_all.cpu_traffic_bytes_per_s[:-1],
            gpu_traffic_bytes_per_s=r_all.gpu_traffic_bytes_per_s[:-1],
        )
        r_post = DeviceRates(
            cpu_items_per_s=r_all.cpu_items_per_s[1:],
            gpu_items_per_s=r_all.gpu_items_per_s[1:],
            cpu_memory_stall_fraction=r_all.cpu_memory_stall_fraction[1:],
            gpu_memory_stall_fraction=r_all.gpu_memory_stall_fraction[1:],
            cpu_traffic_bytes_per_s=r_all.cpu_traffic_bytes_per_s[1:],
            gpu_traffic_bytes_per_s=r_all.gpu_traffic_bytes_per_s[1:],
        )
        reuse = ((np.abs(f_post_c - f_pre_c) < 1e6)
                 & (np.abs(f_post_g - f_pre_g) < 1e6))
        rates = DeviceRates(
            cpu_items_per_s=np.where(reuse, r_pre.cpu_items_per_s,
                                     r_post.cpu_items_per_s),
            gpu_items_per_s=np.where(reuse, r_pre.gpu_items_per_s,
                                     r_post.gpu_items_per_s),
            cpu_memory_stall_fraction=np.where(
                reuse, r_pre.cpu_memory_stall_fraction,
                r_post.cpu_memory_stall_fraction),
            gpu_memory_stall_fraction=np.where(
                reuse, r_pre.gpu_memory_stall_fraction,
                r_post.gpu_memory_stall_fraction),
            cpu_traffic_bytes_per_s=np.where(reuse,
                                             r_pre.cpu_traffic_bytes_per_s,
                                             r_post.cpu_traffic_bytes_per_s),
            gpu_traffic_bytes_per_s=np.where(reuse,
                                             r_pre.gpu_traffic_bytes_per_s,
                                             r_post.gpu_traffic_bytes_per_s),
        )
        breakdown = package_power_batch(spec, rates, f_post_c, f_post_g,
                                        cpu_cores, gpu_active=gpu_running)
        pkg = breakdown.package_w

        # Truncate to the prefix the scalar loop would run unchanged.
        n_commit = n
        cap_cpu = rates.cpu_items_per_s * dts_a
        cap_gpu = rates.gpu_items_per_s * dts_a
        if cpu_cores > 0:
            w_before = (cpu_region.work_remaining
                        - np.concatenate(([0.0], np.cumsum(cap_cpu)))[:n])
            # Conservative guard (1e-9 relative): truncating a tick
            # early is always safe - the scalar loop replays it exactly
            # - while committing a tick the scalar loop would have
            # completion-bounded is not.
            fired = ((r_pre.cpu_items_per_s > 0)
                     & (w_before <= r_pre.cpu_items_per_s * base_a
                        * (1.0 + 1e-9)))
            hits = np.flatnonzero(fired)
            if hits.size:
                n_commit = min(n_commit, int(hits[0]))
        if gpu_running:
            w_before = (gpu_region.work_remaining
                        - np.concatenate(([0.0], np.cumsum(cap_gpu)))[:n])
            fired = ((r_pre.gpu_items_per_s > 0)
                     & (w_before <= r_pre.gpu_items_per_s * base_a
                        * (1.0 + 1e-9)))
            hits = np.flatnonzero(fired)
            if hits.size:
                n_commit = min(n_commit, int(hits[0]))
        over = np.flatnonzero(pkg > spec.pcu.package_cap_w)
        if over.size:
            # The over-cap tick itself still ran with an under-cap power
            # signal; commit through it, then let the scalar path arm
            # grid-aligned cap sampling from the next tick on.
            n_commit = min(n_commit, int(over[0]) + 1)
        if n_commit < _BATCH_MIN_TICKS:
            return None

        k = n_commit - 1
        span_busy = 0.0
        trace_on = self.trace.enabled
        # Commit pass: replay the committed ticks' side effects in
        # order, scalar, from the precomputed arrays.  Work retirement,
        # counters, and MSR deposits land bit-identical to exact-mode
        # ticking (summation order and all) - only the model
        # evaluations above were batched.  Downstream consumers that
        # quantize (the MSR register) or knife-edge (scheduler argmins
        # over measured energy) therefore observe literally the same
        # values either way.
        for i in range(n_commit):
            dt_i = dts[i]
            if cpu_cores > 0:
                done = cpu_region.consume(float(cap_cpu[i]))
                self.counters.account_cpu_items(done, cost)
            if gpu_running:
                done = gpu_region.consume(float(cap_gpu[i]))
                self.counters.account_gpu_items(done)
                span_busy += dt_i
            self.counters.account_gpu_busy(gpu_running, dt_i)
            self.msr.deposit(float(pkg[i]) * dt_i)
            if trace_on:
                self.trace.append(TraceSample(
                    t=nows[i], dt=dt_i, package_w=float(pkg[i]),
                    cpu_w=float(breakdown.cpu_w[i]),
                    gpu_w=float(breakdown.gpu_w[i]),
                    uncore_w=float(breakdown.uncore_w[i]),
                    cpu_freq_hz=post_c[i], gpu_freq_hz=post_g[i],
                    gpu_active=gpu_running))
        self._last_package_w = float(pkg[k])
        live = self.pcu.state
        live.cpu_freq_hz = post_c[k]
        live.gpu_freq_hz = post_g[k]
        if gpu_running:
            live.last_gpu_active_t = nows[k] + dts[k]
        self.pcu._throttle_recovery = recovery[k]
        self.now = nows[k] + dts[k]
        return n_commit, stables[k], post_c[k], post_g[k], span_busy

    def _account_tick(self, dt: float, breakdown: PowerBreakdown,
                      gpu_active: bool) -> None:
        package_w = breakdown.package_w
        self.msr.deposit(package_w * dt)
        self._last_package_w = package_w
        # A TraceSample only when someone keeps it.
        if self.trace.enabled:
            st = self.pcu.state
            self.trace.append(TraceSample(
                t=self.now, dt=dt, package_w=package_w, cpu_w=breakdown.cpu_w,
                gpu_w=breakdown.gpu_w, uncore_w=breakdown.uncore_w,
                cpu_freq_hz=st.cpu_freq_hz, gpu_freq_hz=st.gpu_freq_hz,
                gpu_active=gpu_active))
        self.now += dt

    def _account_span(self, dt: float, breakdown: PowerBreakdown,
                      gpu_active: bool) -> None:
        """Account one constant-power macro-step (the bulk twin of
        :meth:`_account_tick`): one MSR deposit (the accumulator is
        unwrapped, so any number of register wraps is exact), one
        decimated run of synthesized trace samples."""
        package_w = breakdown.package_w
        self.msr.deposit(package_w * dt)
        self._last_package_w = package_w
        if self.trace.enabled:
            st = self.pcu.state
            self.trace.append_span(
                t=self.now, dt=dt, package_w=package_w, cpu_w=breakdown.cpu_w,
                gpu_w=breakdown.gpu_w, uncore_w=breakdown.uncore_w,
                cpu_freq_hz=st.cpu_freq_hz, gpu_freq_hz=st.gpu_freq_hz,
                gpu_active=gpu_active,
                max_sample_dt=SPAN_DECIMATION_TICKS * self.spec.tick_s)
        self.now += dt
