"""Oracles for the simulator's restructured hot path.

The per-tick arithmetic of the PCU, ``WorkRegion``/``CostProfile`` and
the kernel cost model's derived constants (which the rate and power
models read) was restructured for speed:
spec parameters copied once, cost-model constants computed once,
inlined ``min``/``max``, a bisect over Python lists instead of
``np.searchsorted``, progress read as ``stop_item - _pos``.  The contract is bit-identity, so the reference
formulations are kept here, verbatim in their arithmetic, and every
field is compared with ``==`` *and* by type (``repr``-based
fingerprints tell ``np.float64`` from ``float``).
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterization import CharacterizationMicrobench
from repro.core.categories import all_categories
from repro.harness.engine import KIND_CHAR_SWEEP, RunSpec
from repro.soc.cost_model import KernelCostModel
from repro.soc.device import DeviceRates, compute_rates
from repro.soc.pcu import Pcu
from repro.soc.power import package_power
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.spec import baytrail_tablet, haswell_desktop
from repro.soc.work import CostProfile, WorkRegion
from repro.units import CACHELINE_BYTES

_SPECS = {"desktop": haswell_desktop(), "tablet": baytrail_tablet()}


def _same(a, b):
    assert type(a) is type(b), (a, b)
    assert a == b or (a != a and b != b), (a, b)


# -- reference formulations ---------------------------------------------------


def _ref_per_item(cost):
    """KernelCostModel's per-item properties, as properties computed them."""
    loadstores = cost.instructions_per_item * cost.loadstore_fraction
    l3_misses = loadstores * cost.l3_miss_rate
    dram = l3_misses * CACHELINE_BYTES
    return {"loadstores_per_item": loadstores,
            "l3_misses_per_item": l3_misses,
            "dram_bytes_per_item": dram,
            "gpu_instructions_per_item": (cost.instructions_per_item
                                          * cost.gpu_instruction_expansion),
            "gpu_dram_bytes_per_item": dram * cost.gpu_traffic_factor}


def _ref_rates(spec, cost, cpu_freq_hz, gpu_freq_hz, cpu_active_cores,
               gpu_items_in_flight, cpu_active, gpu_active):
    """compute_rates, reading the per-item constants as properties did."""
    per_item = _ref_per_item(cost)
    cpu_bytes_per_item = per_item["dram_bytes_per_item"]
    gpu_bytes_per_item = per_item["gpu_dram_bytes_per_item"]
    cpu_compute = 0.0
    if cpu_active and cpu_active_cores > 0:
        instr_rate = spec.cpu.instruction_rate(cpu_freq_hz, cpu_active_cores)
        cpu_compute = (instr_rate * cost.cpu_simd_efficiency
                       / cost.instructions_per_item)
    gpu_compute = 0.0
    if gpu_active:
        if gpu_items_in_flight <= 0:
            occ = 0.0
        else:
            occ = min(1.0, gpu_items_in_flight
                      / spec.gpu.hardware_parallelism)
        instr_rate = spec.gpu.instruction_rate(gpu_freq_hz, occ)
        effective = cost.gpu_simd_efficiency * (1.0 - cost.gpu_divergence)
        gpu_compute = (instr_rate * effective
                       / per_item["gpu_instructions_per_item"])
    if cpu_bytes_per_item <= 0.0:
        return (cpu_compute, gpu_compute, 0.0, 0.0, 0.0, 0.0)
    cpu_solo = min(cpu_compute, spec.cpu.mem_bw_bytes_per_s / cpu_bytes_per_item)
    gpu_solo = min(gpu_compute, spec.gpu.mem_bw_bytes_per_s / gpu_bytes_per_item)
    total_demand = cpu_solo * cpu_bytes_per_item + gpu_solo * gpu_bytes_per_item
    shared = spec.memory.shared_bw_bytes_per_s
    if total_demand > shared and total_demand > 0:
        scale = shared / total_demand
        cpu_rate = cpu_solo * scale
        gpu_rate = gpu_solo * scale
    else:
        cpu_rate = cpu_solo
        gpu_rate = gpu_solo
    kappa = spec.memory.llc_contention_factor
    if kappa > 0.0 and cpu_rate > 0 and gpu_rate > 0:
        gpu_share = min(1.0, (gpu_rate * gpu_bytes_per_item) / shared)
        cpu_rate *= 1.0 - kappa * gpu_share
    cpu_stall = (0.0 if cpu_compute <= 0
                 else max(0.0, 1.0 - cpu_rate / cpu_compute))
    gpu_stall = (0.0 if gpu_compute <= 0
                 else max(0.0, 1.0 - gpu_rate / gpu_compute))
    return (cpu_rate, gpu_rate, cpu_stall, gpu_stall,
            cpu_rate * cpu_bytes_per_item, gpu_rate * gpu_bytes_per_item)


def _ref_power(spec, rates, cpu_freq_hz, gpu_freq_hz, cpu_active_cores,
               gpu_active):
    """package_power as (package, cpu, gpu, uncore) watts."""
    def stall_scaled(dynamic_w, stall_fraction, stall_factor):
        return dynamic_w * ((1.0 - stall_fraction)
                            + stall_fraction * stall_factor)
    cpu_w = 0.0
    if cpu_active_cores > 0:
        dyn = spec.cpu.dynamic_power_w(cpu_freq_hz, cpu_active_cores)
        dyn = stall_scaled(dyn, rates[2], spec.cpu.memory_stall_power_factor)
        cpu_w = dyn + spec.cpu.leakage_per_core_w * cpu_active_cores
    gpu_w = 0.0
    if gpu_active:
        dyn = spec.gpu.dynamic_power_w(gpu_freq_hz, 1.0)
        dyn = stall_scaled(dyn, rates[3], spec.gpu.memory_stall_power_factor)
        gpu_w = dyn + spec.gpu.leakage_w
    uncore_w = (spec.memory.uncore_static_w
                + spec.memory.traffic_power_w(rates[4] + rates[5]))
    return (cpu_w + gpu_w + uncore_w + spec.idle_power_w,
            cpu_w, gpu_w, uncore_w)


class _RefProfile:
    """CostProfile's integral/advance, as numpy-indexed code."""

    def __init__(self, profile):
        self.resolution = profile.resolution
        self.uniform = profile._uniform
        self.cum = (np.concatenate(([0.0], np.cumsum(profile.multipliers)))
                    / profile.resolution)

    def cum_at(self, u):
        x = min(max(u, 0.0), 1.0) * self.resolution
        idx = int(x)
        if idx >= self.resolution:
            return self.cum[-1]
        frac = x - idx
        return self.cum[idx] + frac * (self.cum[idx + 1] - self.cum[idx])

    def integral(self, u0, u1):
        if self.uniform:
            return u1 - u0
        return self.cum_at(u1) - self.cum_at(u0)

    def advance(self, u0, work):
        if self.uniform:
            return min(1.0, u0 + work)
        target = self.cum_at(u0) + work
        if target >= self.cum[-1]:
            return 1.0
        idx = int(np.searchsorted(self.cum, target, side="right")) - 1
        idx = min(max(idx, 0), self.resolution - 1)
        seg_lo = self.cum[idx]
        seg_hi = self.cum[idx + 1]
        frac = 0.0 if seg_hi <= seg_lo else (target - seg_lo) / (seg_hi - seg_lo)
        return max(u0, (idx + frac) / self.resolution)


class _RefRegion:
    """WorkRegion's queries and consume, through items_remaining."""

    def __init__(self, profile, n_total, start, stop):
        self.profile = profile
        self.n_total = n_total
        self.stop_item = stop
        self.pos = start

    @property
    def items_remaining(self):
        return max(0.0, self.stop_item - self.pos)

    @property
    def is_done(self):
        return self.items_remaining <= 1e-9

    @property
    def work_remaining(self):
        if self.items_remaining <= 0:
            return 0.0
        return (self.profile.integral(self.pos / self.n_total,
                                      self.stop_item / self.n_total)
                * self.n_total)

    def time_to_complete(self, rate):
        if self.is_done:
            return 0.0
        if rate <= 0:
            return float("inf")
        return self.work_remaining / rate

    def consume(self, capacity):
        if self.is_done or capacity == 0:
            return 0.0
        u0 = self.pos / self.n_total
        u_stop = self.stop_item / self.n_total
        u1 = self.profile.advance(u0, capacity / self.n_total)
        u1 = min(u1, u_stop)
        new_pos = u1 * self.n_total
        items = new_pos - self.pos
        self.pos = new_pos
        return items


class _RefPcu:
    """Pcu's policy and step, reading the spec on every call."""

    def __init__(self, spec):
        self.spec = spec
        self.cpu_freq_hz = spec.cpu.min_freq_hz
        self.gpu_freq_hz = spec.gpu.min_freq_hz
        self.last_gpu_active_t = float("-inf")
        self.cap_throttle_hz = 0.0
        self.gpu_was_active = False
        self.recovery = False
        self.power_hint = 0.0

    def cpu_target(self, now, cpu_active, gpu_active):
        pcu, cpu = self.spec.pcu, self.spec.cpu
        if not cpu_active:
            return cpu.min_freq_hz
        gpu_recent = (now - self.last_gpu_active_t) < pcu.gpu_idle_release_s
        if gpu_active or gpu_recent:
            target = (pcu.cpu_coexec_freq_hz
                      - self.power_hint * (pcu.cpu_coexec_freq_hz
                                           - pcu.cpu_gpu_activation_floor_hz))
        else:
            target = cpu.turbo_freq_hz
        target -= self.cap_throttle_hz
        return max(cpu.min_freq_hz, min(target, cpu.turbo_freq_hz))

    def gpu_target(self, gpu_active):
        gpu = self.spec.gpu
        return gpu.turbo_freq_hz if gpu_active else gpu.min_freq_hz

    def settled(self, now, cpu_active, gpu_active, last_w):
        if gpu_active != self.gpu_was_active:
            return False
        if self.cap_throttle_hz != 0.0:
            return False
        if last_w > self.spec.pcu.package_cap_w:
            return False
        return (self.cpu_freq_hz == self.cpu_target(now, cpu_active, gpu_active)
                and self.gpu_freq_hz == self.gpu_target(gpu_active))

    def time_to_next_transition(self, now, cpu_active, gpu_active):
        if cpu_active and not gpu_active:
            release = self.spec.pcu.gpu_idle_release_s
            if (now - self.last_gpu_active_t) < release:
                return self.last_gpu_active_t + release
        return float("inf")

    def bound_dt(self, now, dt, last_w):
        interval = self.spec.pcu.sample_interval_s
        if not (self.cap_throttle_hz > 0.0
                or last_w > self.spec.pcu.package_cap_w):
            return dt
        grid = (math.floor(now / interval + 1e-6) + 1.0) * interval
        return min(dt, grid - now)

    def step(self, now, dt, cpu_active, gpu_active, last_w):
        pcu = self.spec.pcu
        if gpu_active and not self.gpu_was_active:
            if (now - self.last_gpu_active_t) > pcu.gpu_cold_threshold_s:
                self.cpu_freq_hz = min(self.cpu_freq_hz,
                                       pcu.cpu_gpu_activation_floor_hz)
                self.recovery = True
        self.gpu_was_active = gpu_active
        x = now / pcu.sample_interval_s
        if abs(x - round(x)) <= 1e-6:
            if last_w > pcu.package_cap_w:
                overshoot = last_w / pcu.package_cap_w - 1.0
                self.cap_throttle_hz += overshoot * 0.4e9
            elif self.cap_throttle_hz > 0.0:
                self.cap_throttle_hz = max(0.0, self.cap_throttle_hz - 0.05e9)
        if gpu_active:
            self.last_gpu_active_t = now + dt
        cpu_target = self.cpu_target(now, cpu_active, gpu_active)
        if self.cpu_freq_hz < cpu_target:
            gpu_recent = ((now - self.last_gpu_active_t)
                          < pcu.gpu_idle_release_s)
            slow = self.recovery and (gpu_active or gpu_recent)
            ramp = (pcu.cpu_recovery_ramp_hz_per_s if slow
                    else pcu.cpu_ramp_up_hz_per_s)
            self.cpu_freq_hz = min(cpu_target, self.cpu_freq_hz + ramp * dt)
            if self.cpu_freq_hz >= cpu_target:
                self.recovery = False
        elif self.cpu_freq_hz > cpu_target:
            self.cpu_freq_hz = max(cpu_target, self.cpu_freq_hz
                                   - pcu.cpu_ramp_down_hz_per_s * dt)
        gpu_target = self.gpu_target(gpu_active)
        if self.gpu_freq_hz < gpu_target:
            self.gpu_freq_hz = min(gpu_target, self.gpu_freq_hz
                                   + pcu.gpu_ramp_hz_per_s * dt)
        elif self.gpu_freq_hz > gpu_target:
            self.gpu_freq_hz = max(gpu_target, self.gpu_freq_hz
                                   - pcu.gpu_ramp_hz_per_s * dt)
        return self.cpu_freq_hz, self.gpu_freq_hz


# -- strategies ----------------------------------------------------------------


@st.composite
def cost_models(draw):
    """Regular, irregular and zero-DRAM kernels."""
    kind = draw(st.sampled_from(["regular", "irregular", "zero-dram"]))
    return KernelCostModel(
        name=f"oracle-{kind}",
        instructions_per_item=draw(st.floats(10.0, 1e6)),
        loadstore_fraction=draw(st.floats(0.0, 1.0)),
        l3_miss_rate=(0.0 if kind == "zero-dram"
                      else draw(st.floats(0.0, 1.0))),
        cpu_simd_efficiency=draw(st.floats(0.05, 1.0)),
        gpu_simd_efficiency=draw(st.floats(0.05, 1.0)),
        gpu_divergence=draw(st.floats(0.0, 0.9)),
        gpu_instruction_expansion=draw(st.floats(0.5, 4.0)),
        gpu_traffic_factor=draw(st.floats(0.25, 2.0)),
        item_cost_cv=(draw(st.floats(0.1, 1.5)) if kind == "irregular"
                      else 0.0),
        cost_profile_scale=draw(st.floats(0.01, 0.5)),
        rng_tag=draw(st.integers(0, 50)),
    )


def _freq(spec, device, draw):
    side = spec.cpu if device == "cpu" else spec.gpu
    return draw(st.one_of(
        st.floats(side.min_freq_hz, side.turbo_freq_hz),
        st.sampled_from([side.min_freq_hz, side.turbo_freq_hz]),
        # np.float64 frequencies arise once a dt carries a numpy scalar.
        st.floats(side.min_freq_hz, side.turbo_freq_hz).map(np.float64)))


@st.composite
def model_inputs(draw):
    """Random frequencies, active cores and dispatch sizes."""
    spec = _SPECS[draw(st.sampled_from(sorted(_SPECS)))]
    cores = draw(st.sampled_from([0.0, 1.0, 3.0, 3.85, 4.0,
                                  float(spec.cpu.num_cores)]))
    return (spec, draw(cost_models()), _freq(spec, "cpu", draw),
            _freq(spec, "gpu", draw), cores,
            draw(st.one_of(st.just(0.0), st.floats(0.0, 20000.0),
                           st.sampled_from([448.0, 2048.0, 2240.0]))),
            draw(st.booleans()), draw(st.booleans()))


# -- the properties -----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cost_models())
def test_cost_model_constants_match_properties(cost):
    for name, want in _ref_per_item(cost).items():
        _same(getattr(cost, name), want)


@settings(max_examples=300, deadline=None)
@given(model_inputs())
def test_rates_and_power_match_reference(inputs):
    """The models read the cost model's constants as attributes now."""
    spec, cost, cpu_f, gpu_f, cores, dispatch, cpu_active, gpu_active = inputs
    expected = _ref_rates(spec, cost, cpu_f, gpu_f, cores, dispatch,
                          cpu_active, gpu_active)
    rates = compute_rates(spec, cost, cpu_f, gpu_f, cores, dispatch,
                          cpu_active, gpu_active)
    for field, want in zip(dataclasses.fields(DeviceRates), expected):
        _same(getattr(rates, field.name), want)
    power = package_power(spec, rates, cpu_f, gpu_f, cores, gpu_active)
    for got, want in zip((power.package_w, power.cpu_w, power.gpu_w,
                          power.uncore_w),
                         _ref_power(spec, expected, cpu_f, gpu_f, cores,
                                    gpu_active)):
        _same(got, want)


@settings(max_examples=150, deadline=None)
@given(cost=cost_models(),
       n_total=st.floats(100.0, 1e7),
       span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       capacities=st.lists(st.one_of(
           st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e6)),
           min_size=1, max_size=25),
       rate=st.one_of(st.just(0.0), st.floats(1e-3, 1e9)))
def test_work_region_matches_reference(cost, n_total, span, capacities, rate):
    lo, hi = sorted(span)
    profile = CostProfile(cost)
    ref_profile = _RefProfile(profile)
    region = WorkRegion.for_span(profile, n_total, lo * n_total, hi * n_total)
    ref = _RefRegion(ref_profile, n_total, lo * n_total, hi * n_total)
    for capacity in capacities:
        _same(region.items_remaining, ref.items_remaining)
        assert region.is_done == ref.is_done
        _same(region.work_remaining, ref.work_remaining)
        _same(region.time_to_complete(rate), ref.time_to_complete(rate))
        # What the simulator reads instead of the properties above.
        gap = region.stop_item - region._pos
        assert (gap > 1e-9) == (ref.items_remaining > 1e-9)
        # Capacity as a fraction of the work left hits every branch:
        # partial progress, exact completion, overshoot.
        _same(region.consume(capacity * (1.0 + ref.work_remaining)),
              ref.consume(capacity * (1.0 + ref.work_remaining)))
        _same(region.position, ref.pos)


@settings(max_examples=150, deadline=None)
@given(cost=cost_models(), u=st.floats(0.0, 1.0),
       work=st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 1.5)))
def test_cost_profile_matches_reference(cost, u, work):
    profile = CostProfile(cost)
    ref = _RefProfile(profile)
    _same(profile.advance(u, work), ref.advance(u, work))
    _same(profile.integral(0.0, u), ref.integral(0.0, u))
    if not ref.uniform:
        _same(profile._cum_at(u), ref.cum_at(u))


@st.composite
def pcu_programs(draw):
    spec = _SPECS[draw(st.sampled_from(sorted(_SPECS)))]
    steps = draw(st.lists(st.tuples(
        # dt: a completion-bounded tick can carry a numpy scalar.
        st.sampled_from([1e-7, 1e-4, 5e-4, 1e-3, 4e-3, np.float64(7.3e-4)]),
        st.booleans(), st.booleans(),                       # activity
        st.floats(0.0, 2.0 * spec.pcu.package_cap_w),       # last power
    ), min_size=1, max_size=120))
    hint = draw(st.sampled_from([0.0, 0.5, 1.0]))
    # Start anywhere in the frequency range, so short programs still
    # reach (and settle on) every target.
    start = (draw(st.floats(spec.cpu.min_freq_hz, spec.cpu.turbo_freq_hz)),
             draw(st.floats(spec.gpu.min_freq_hz, spec.gpu.turbo_freq_hz)),
             draw(st.sampled_from([0.0, 0.0, 1e8, 5e8])))
    return spec, hint, start, steps


@settings(max_examples=150, deadline=None)
@given(pcu_programs())
def test_pcu_matches_reference(program):
    spec, hint, (cpu_freq, gpu_freq, throttle), steps = program
    pcu = Pcu(spec)
    ref = _RefPcu(spec)
    pcu.power_hint = ref.power_hint = hint
    pcu.state.cpu_freq_hz = ref.cpu_freq_hz = cpu_freq
    pcu.state.gpu_freq_hz = ref.gpu_freq_hz = gpu_freq
    pcu.state.cap_throttle_hz = ref.cap_throttle_hz = throttle
    now = 0.0
    for dt, cpu_active, gpu_active, last_w in steps:
        _same(pcu._cpu_target_hz(now, cpu_active, gpu_active),
              ref.cpu_target(now, cpu_active, gpu_active))
        _same(pcu.time_to_next_transition(now, cpu_active, gpu_active),
              ref.time_to_next_transition(now, cpu_active, gpu_active))
        assert (pcu.settled(now, cpu_active, gpu_active, last_w)
                == ref.settled(now, cpu_active, gpu_active, last_w))
        bounded = pcu.bound_dt(now, dt, last_w)
        _same(bounded, ref.bound_dt(now, dt, last_w))
        dt = max(bounded, 1e-7)
        got = pcu.step(now, dt, cpu_active, gpu_active, last_w)
        want = ref.step(now, dt, cpu_active, gpu_active, last_w)
        _same(got[0], want[0])
        _same(got[1], want[1])
        st_ = pcu.state
        _same(st_.cpu_freq_hz, ref.cpu_freq_hz)
        _same(st_.gpu_freq_hz, ref.gpu_freq_hz)
        _same(st_.cap_throttle_hz, ref.cap_throttle_hz)
        _same(st_.last_gpu_active_t, ref.last_gpu_active_t)
        assert pcu._throttle_recovery == ref.recovery
        twin = pcu.clone()
        assert twin.state == pcu.state and twin.state is not pcu.state
        now += dt


def test_cached_constants_leave_canonical_and_pickles_unchanged():
    """The per-item constants live outside the dataclass fields: they
    must not reach equality, ``asdict`` (so ``RunSpec.canonical()`` and
    cache keys) or pickles, and every copy path recomputes them."""
    cost = KernelCostModel(name="k", instructions_per_item=120.0,
                           loadstore_fraction=0.3, l3_miss_rate=0.4,
                           gpu_traffic_factor=0.5, item_cost_cv=0.3)
    field_names = [f.name for f in dataclasses.fields(cost)]
    assert list(dataclasses.asdict(cost)) == field_names
    state = pickle.loads(pickle.dumps(cost)).__getstate__()
    assert list(state) == field_names
    bench = CharacterizationMicrobench(category=all_categories()[0],
                                       cost=cost, cpu_target_s=0.01)
    spec = RunSpec(platform=_SPECS["desktop"], kind=KIND_CHAR_SWEEP,
                   workload="C-SS", sweep_step=0.5, microbench=bench)
    canonical = spec.canonical()
    pickled = pickle.dumps(cost)
    # Use the model on the hot path, then check nothing leaked.
    processor = IntegratedProcessor(_SPECS["desktop"])
    region = WorkRegion.for_span(CostProfile(cost), 1e5, 0.0, 1e5)
    processor.run_phase(PhaseRequest(cost=cost, cpu_region=region,
                                     gpu_region=None))
    assert spec.canonical() == canonical
    assert pickle.dumps(cost) == pickled
    for twin in (pickle.loads(pickled), copy.copy(cost), copy.deepcopy(cost),
                 dataclasses.replace(cost)):
        assert twin == cost and hash(twin) == hash(cost)
        for name, want in _ref_per_item(cost).items():
            _same(getattr(twin, name), want)
    changed = dataclasses.replace(cost, l3_miss_rate=0.1)
    assert changed.l3_misses_per_item == _ref_per_item(changed)[
        "l3_misses_per_item"]
