"""Black-box characterization of a *new* platform.

The whole point of the paper's approach: when a new SKU arrives, no
vendor documentation is needed - run the eight micro-benchmarks once,
fit the curves, and the scheduler works.  This example defines a
fictional "ultrabook" SoC (between the desktop and the tablet), runs
the one-time characterization against it, prints the fitted polynomial
equations (the y-equations of Figs. 5-6), and schedules a workload.

Run:  python examples/characterize_custom_platform.py
"""

from repro.core.categories import all_categories
from repro.core.characterization import PowerCharacterizer
from repro.core.metrics import EDP
from repro.core.scheduler import EnergyAwareScheduler
from repro.harness.experiment import run_application
from repro.harness.report import heading
from repro.soc.spec import CpuSpec, GpuSpec, MemorySpec, PcuSpec, PlatformSpec
from repro.units import gb_per_s, ghz, ms
from repro.workloads.microbench import standard_microbenches
from repro.workloads.registry import workload_by_abbrev


def ultrabook() -> PlatformSpec:
    """A fictional 15 W-class SoC: 2 cores + 12 EUs."""
    return PlatformSpec(
        name="ultrabook-15w",
        cpu=CpuSpec(
            name="ultrabook-cpu", num_cores=2, smt_per_core=2,
            min_freq_hz=ghz(0.6), base_freq_hz=ghz(1.8),
            turbo_freq_hz=ghz(3.0), effective_ipc=4.0,
            mem_bw_bytes_per_s=gb_per_s(14.0),
            dyn_power_coeff_w=0.38, dyn_power_exponent=2.2,
            leakage_per_core_w=0.3, memory_stall_power_factor=0.9),
        gpu=GpuSpec(
            name="ultrabook-gpu", num_eus=12, threads_per_eu=7,
            simd_width=16, min_freq_hz=ghz(0.3), turbo_freq_hz=ghz(0.95),
            effective_ipc_per_eu=7.0, mem_bw_bytes_per_s=gb_per_s(12.0),
            dyn_power_coeff_w=9.0, dyn_power_exponent=1.9, leakage_w=0.6,
            memory_stall_power_factor=0.7,
            kernel_launch_overhead_s=ms(0.03)),
        memory=MemorySpec(
            shared_bw_bytes_per_s=gb_per_s(15.0),
            traffic_power_w_per_bps=0.3 / gb_per_s(1.0),
            uncore_static_w=1.0, llc_contention_factor=0.45),
        pcu=PcuSpec(
            sample_interval_s=ms(1.0), package_cap_w=15.0,
            cpu_coexec_freq_hz=ghz(2.2),
            cpu_gpu_activation_floor_hz=ghz(1.0),
            cpu_ramp_up_hz_per_s=ghz(1.0) / ms(1.0),
            cpu_recovery_ramp_hz_per_s=ghz(0.012) / ms(1.0),
            cpu_ramp_down_hz_per_s=ghz(1.0) / ms(1.0),
            gpu_ramp_hz_per_s=ghz(1.0) / ms(1.0),
            gpu_idle_release_s=ms(10.0), gpu_cold_threshold_s=0.3),
        idle_power_w=2.5,
        energy_unit_j=1.0 / (1 << 14),
        tick_s=ms(0.5),
        gpu_profile_size=12 * 7 * 16,  # match the hardware parallelism
    )


def main() -> None:
    platform = ultrabook()
    print(heading(f"One-time characterization of {platform.name}"))

    characterizer = PowerCharacterizer(
        spec=platform, microbenches=standard_microbenches(), sweep_step=0.1)
    characterization = characterizer.characterize()

    for category in all_categories():
        curve = characterization.curve_for(category)
        print(f"[{category.short_code}] {curve.equation(digits=2)}")

    # The characterization is cacheable: ship it with the device image.
    cached_json = characterization.to_json()
    print(f"\n(cache size: {len(cached_json)} bytes of JSON)")

    workload = workload_by_abbrev("MM")
    scheduler = EnergyAwareScheduler(characterization, EDP)
    run = run_application(platform, workload, scheduler, "EAS")
    print(f"\nScheduled {workload.name} on the new platform: "
          f"alpha={run.final_alpha:.2f}, {run.time_s:.3f} s, "
          f"{run.energy_j:.2f} J "
          f"({run.average_power_w:.2f} W average package power)")


if __name__ == "__main__":
    main()
