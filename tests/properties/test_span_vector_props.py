"""Property suites for the vectorized model twins.

The batched-transient path rests on **elementwise bit-identity**:
``compute_rates_batch`` / ``package_power_batch`` reproduce their
scalar twins *exactly* per element (same elementary operations in the
same order), which is what lets fast mode commit batched spans with
byte-stable results.

Plus the physical sanity the batch path must preserve: positivity,
stall fractions in [0, 1], and CPU throughput monotone in CPU
frequency when the GPU is off the memory system.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.cost_model import KernelCostModel
from repro.soc.device import DeviceRates, compute_rates, compute_rates_batch
from repro.soc.power import package_power, package_power_batch
from repro.soc.spec import baytrail_tablet, haswell_desktop

_SPECS = {"desktop": haswell_desktop(), "tablet": baytrail_tablet()}

def _freqs(spec, n, rng_seed):
    rng = np.random.default_rng(rng_seed)
    cpu = rng.uniform(spec.cpu.min_freq_hz, spec.cpu.turbo_freq_hz, n)
    gpu = rng.uniform(spec.gpu.min_freq_hz, spec.gpu.turbo_freq_hz, n)
    return cpu, gpu


@st.composite
def cost_models(draw):
    return KernelCostModel(
        name="prop",
        instructions_per_item=draw(st.floats(10.0, 1e6)),
        loadstore_fraction=draw(st.floats(0.0, 1.0)),
        l3_miss_rate=draw(st.floats(0.0, 1.0)),
        cpu_simd_efficiency=draw(st.floats(0.05, 1.0)),
        gpu_simd_efficiency=draw(st.floats(0.05, 1.0)),
        gpu_divergence=draw(st.floats(0.0, 0.9)),
        gpu_instruction_expansion=draw(st.floats(0.5, 4.0)),
        gpu_traffic_factor=draw(st.floats(0.25, 2.0)),
    )


case_st = st.tuples(
    st.sampled_from(sorted(_SPECS)),
    cost_models(),
    st.integers(1, 64),          # span length
    st.integers(0, 2**32 - 1),   # frequency rng seed
    st.floats(0.0, 4096.0),      # gpu items in flight
    st.booleans(),               # cpu active
    st.booleans(),               # gpu active
)


@settings(max_examples=60, deadline=None)
@given(case_st)
def test_rates_batch_bit_identical_to_scalar(case):
    platform, cost, n, seed, dispatch, cpu_active, gpu_active = case
    spec = _SPECS[platform]
    cpu_f, gpu_f = _freqs(spec, n, seed)
    cores = float(spec.cpu.num_cores)
    batch = compute_rates_batch(spec, cost, cpu_f, gpu_f, cores, dispatch,
                                cpu_active=cpu_active, gpu_active=gpu_active)
    for i in range(n):
        scalar = compute_rates(spec, cost, cpu_f[i], gpu_f[i], cores,
                               dispatch, cpu_active=cpu_active,
                               gpu_active=gpu_active)
        # Bit-identity, not approx: fast mode's byte-stable commit
        # replay depends on exact equality.
        assert float(np.asarray(batch.cpu_items_per_s).reshape(-1)[i]) \
            == scalar.cpu_items_per_s
        assert float(np.asarray(batch.gpu_items_per_s).reshape(-1)[i]) \
            == scalar.gpu_items_per_s
        assert float(np.asarray(
            batch.cpu_memory_stall_fraction).reshape(-1)[i]) \
            == scalar.cpu_memory_stall_fraction
        assert float(np.asarray(
            batch.gpu_memory_stall_fraction).reshape(-1)[i]) \
            == scalar.gpu_memory_stall_fraction
        assert float(np.asarray(
            batch.cpu_traffic_bytes_per_s).reshape(-1)[i]) \
            == scalar.cpu_traffic_bytes_per_s
        assert float(np.asarray(
            batch.gpu_traffic_bytes_per_s).reshape(-1)[i]) \
            == scalar.gpu_traffic_bytes_per_s


@settings(max_examples=60, deadline=None)
@given(case_st)
def test_power_batch_bit_identical_to_scalar(case):
    platform, cost, n, seed, dispatch, cpu_active, gpu_active = case
    spec = _SPECS[platform]
    cpu_f, gpu_f = _freqs(spec, n, seed)
    cores = float(spec.cpu.num_cores) if cpu_active else 0.0
    rates = compute_rates_batch(spec, cost, cpu_f, gpu_f, cores, dispatch,
                                cpu_active=cpu_active, gpu_active=gpu_active)
    batch = package_power_batch(spec, rates, cpu_f, gpu_f, cores, gpu_active)
    pkg = np.asarray(batch.package_w).reshape(-1)
    for i in range(n):
        scalar_rates = DeviceRates(*(
            float(np.asarray(getattr(rates, f.name)).reshape(-1)[i])
            for f in DeviceRates.__dataclass_fields__.values()))
        scalar = package_power(spec, scalar_rates, cpu_f[i], gpu_f[i],
                               cores, gpu_active)
        assert float(pkg[i]) == scalar.package_w
        # Physical sanity on the batched path: no component negative,
        # package never below the idle floor.
        assert float(pkg[i]) >= spec.idle_power_w > 0.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SPECS)), cost_models(),
       st.integers(0, 2**32 - 1))
def test_cpu_rate_monotone_in_frequency_gpu_idle(platform, cost, seed):
    """With the GPU off the memory system, raising the CPU clock never
    lowers CPU throughput (roofline: compute leg rises, bandwidth leg
    caps)."""
    spec = _SPECS[platform]
    rng = np.random.default_rng(seed)
    cpu_f = np.sort(rng.uniform(spec.cpu.min_freq_hz,
                                spec.cpu.turbo_freq_hz, 16))
    gpu_f = np.full_like(cpu_f, spec.gpu.min_freq_hz)
    rates = compute_rates_batch(spec, cost, cpu_f, gpu_f,
                                float(spec.cpu.num_cores), 0.0,
                                cpu_active=True, gpu_active=False)
    items = np.asarray(rates.cpu_items_per_s).reshape(-1)
    assert np.all(items >= 0.0)
    assert np.all(np.diff(items) >= 0.0)
    stalls = np.asarray(rates.cpu_memory_stall_fraction).reshape(-1)
    assert np.all((stalls >= 0.0) & (stalls <= 1.0))
