"""Simulator clock-mode speed: exact vs fast.

The full Table-1 suite runs under EAS on both platforms in both clock
modes.  For each (platform, mode) the bench records suite wall-clock,
total simulator ticks and macro-steps (from the ``soc.*``
observability counters), per-workload wall-clock and results, and the
fast mode's maximum observed error against the exact reference, which
must stay inside the 1e-6 contract.  Everything lands in
``BENCH_sim.json`` (path overridable via ``$BENCH_SIM_JSON``).

Speedup gates (see docs/PERFORMANCE.md for the full analysis):

* ``$SIM_SPEED_MIN_SPEEDUP`` (default 5.0) - the tick-dense tablet
  suite, where fast-forwarding pays off massively.
* ``$SIM_SPEED_MIN_DESKTOP`` (default 0.7) - the desktop suite, a
  *no-regression floor*, not a speedup target.  The desktop's
  many-launch workloads ramp the PCU continuously (frequencies never
  recur, phases never settle, spans stay under the batch minimum), so
  no memoization/macro-step lever applies; fast mode runs at parity
  with exact there, and the floor only guards against it becoming an
  outright slowdown beyond machine noise.

Workload construction and platform characterization are prewarmed
before any timing, so wall-clock measures simulation, not setup.
"""

import json
import os
import sys
import time
from dataclasses import replace

from repro.core.metrics import EDP
from repro.core.scheduler import EnergyAwareScheduler
from repro.harness.experiment import run_application
from repro.harness.suite import get_characterization
from repro.obs.observer import Observer
from repro.soc.spec import baytrail_tablet, haswell_desktop
from repro.soc.trace import TraceSample
from repro.workloads.registry import suite_workloads

OUTPUT_PATH = os.environ.get("BENCH_SIM_JSON", "BENCH_sim.json")
MIN_SPEEDUP = float(os.environ.get("SIM_SPEED_MIN_SPEEDUP", "5.0"))
MIN_DESKTOP = float(os.environ.get("SIM_SPEED_MIN_DESKTOP", "0.7"))

#: Contract held against the exact reference: ``fast`` promises this
#: relative agreement on every end-to-end observable.
REL_TOL = 1e-6

MODES = ("exact", "fast")


def _prewarm(base_spec, tablet):
    """Construct every workload and the characterization table before
    the clock starts: the bench times simulation, not setup."""
    get_characterization(base_spec)
    return [(w, w.make_kernel(tablet=tablet),
             list(w.invocations(tablet=tablet)))
            for w in suite_workloads(tablet=tablet)]


def _run_suite(base_spec, tablet, tick_mode):
    """EAS over the platform's Table-1 suite in one clock mode."""
    spec = replace(base_spec, tick_mode=tick_mode)
    characterization = get_characterization(base_spec)
    totals = {"ticks": 0, "macro_steps": 0, "phases": 0}
    per_workload = {}
    started = time.perf_counter()
    for workload in suite_workloads(tablet=tablet):
        observer = Observer()
        scheduler = EnergyAwareScheduler(characterization, EDP)
        w_started = time.perf_counter()
        run = run_application(spec, workload, scheduler, "EAS",
                              tablet=tablet, observer=observer)
        w_wall = time.perf_counter() - w_started
        counters = observer.metrics.snapshot()["counters"]
        for key in totals:
            totals[key] += int(counters.get(f"soc.{key}", 0))
        per_workload[workload.abbrev] = {
            "time_s": run.time_s, "energy_j": run.energy_j,
            "wall_s": round(w_wall, 4)}
    wall_s = time.perf_counter() - started
    phases = max(1, totals["phases"])
    return {
        "wall_s": round(wall_s, 3),
        "ticks": totals["ticks"],
        "macro_steps": totals["macro_steps"],
        "phases": totals["phases"],
        "ticks_per_phase": round(totals["ticks"] / phases, 2),
        "per_workload": per_workload,
    }


def _max_rel_error(exact, candidate):
    """Worst per-workload divergence from exact, in the contract's
    hybrid absolute/relative form."""
    worst = 0.0
    for abbrev, ex in exact["per_workload"].items():
        cand = candidate["per_workload"][abbrev]
        for field in ("time_s", "energy_j"):
            scale = max(1.0, abs(ex[field]))
            worst = max(worst, abs(ex[field] - cand[field]) / scale)
    return worst


def _trace_sample_memory():
    """Per-sample footprint of the (slotted on 3.10+) trace dataclass."""
    sample = TraceSample(t=0.0, dt=1e-3, package_w=30.0, cpu_w=20.0,
                         gpu_w=5.0, uncore_w=3.0, cpu_freq_hz=3.9e9,
                         gpu_freq_hz=1.2e9, gpu_active=True)
    slotted = not hasattr(sample, "__dict__")
    bytes_per_sample = sys.getsizeof(sample)
    if not slotted:
        bytes_per_sample += sys.getsizeof(sample.__dict__)
    return {
        "slotted": slotted,
        "bytes_per_sample": bytes_per_sample,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def _compare_platform(base_spec, tablet):
    _prewarm(base_spec, tablet)
    modes = {mode: _run_suite(base_spec, tablet, mode) for mode in MODES}
    exact = modes["exact"]
    fast = modes["fast"]
    error = _max_rel_error(exact, fast)
    assert error <= REL_TOL, (
        f"{base_spec.name}/fast: end-to-end divergence {error:.2e} "
        f"exceeds the {REL_TOL:.0e} contract - the speedup is "
        f"meaningless if the mode computed something else")
    return {
        "modes": modes,
        "max_rel_error": {"fast": error},
        "speedup": {"fast": round(
            exact["wall_s"] / max(fast["wall_s"], 1e-9), 2)},
    }


def test_sim_speed(benchmark):
    report = {
        "suite": "EAS over the Table-1 workloads, both clock modes",
        "min_speedup_tick_dense": MIN_SPEEDUP,
        "min_speedup_desktop_floor": MIN_DESKTOP,
        "platforms": {},
        "trace_sample_memory": _trace_sample_memory(),
    }

    def _measure():
        report["platforms"]["tablet"] = _compare_platform(
            baytrail_tablet(), tablet=True)
        report["platforms"]["desktop"] = _compare_platform(
            haswell_desktop(), tablet=False)
        return report

    benchmark.pedantic(_measure, rounds=1, iterations=1, warmup_rounds=0)

    with open(OUTPUT_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    tablet = report["platforms"]["tablet"]
    desktop = report["platforms"]["desktop"]
    for name, platform in report["platforms"].items():
        benchmark.extra_info[f"{name}_fast_speedup"] = (
            platform["speedup"]["fast"])
        benchmark.extra_info[f"{name}_ticks_exact"] = (
            platform["modes"]["exact"]["ticks"])

    # Fast mode must actually accelerate structurally: fewer scalar
    # ticks and real macro-steps on both platforms.
    for platform in (tablet, desktop):
        exact = platform["modes"]["exact"]
        assert platform["modes"]["fast"]["ticks"] < exact["ticks"]
        assert platform["modes"]["fast"]["macro_steps"] > 0
        assert exact["macro_steps"] == 0

    # Headline gate: the tick-dense tablet suite.
    tablet_speedup = tablet["speedup"]["fast"]
    assert tablet_speedup >= MIN_SPEEDUP, (
        f"tablet suite fast speedup {tablet_speedup}x below the "
        f"{MIN_SPEEDUP}x floor "
        f"(exact {tablet['modes']['exact']['wall_s']}s, "
        f"fast {tablet['modes']['fast']['wall_s']}s)")

    # Desktop no-regression floor: fast mode runs at parity on the
    # ramp-dominated desktop suite (see docs/PERFORMANCE.md); the
    # floor flags only a real slowdown beyond machine noise.
    desktop_speedup = desktop["speedup"]["fast"]
    assert desktop_speedup >= MIN_DESKTOP, (
        f"desktop suite fast speedup {desktop_speedup}x fell below the "
        f"{MIN_DESKTOP}x no-regression floor "
        f"(exact {desktop['modes']['exact']['wall_s']}s, "
        f"fast {desktop['modes']['fast']['wall_s']}s)")
