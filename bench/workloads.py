"""The benchmark's workloads: one child process sets up and runs one pass.

``bench/run.py`` starts this file as a fresh interpreter per pass::

    python3 bench/workloads.py '{"workload": "service_jobs", ...}'

with ``src`` on ``PYTHONPATH`` and ``REPRO_CACHE_DIR`` unset.  The child
reaches ``repro`` only through public entry points, marks the end of its
set-up with ``time.monotonic()`` (the parent subtracts its own spawn
time, so interpreter start and imports count as set-up), runs one timed
pass, and writes a JSON result to ``result_path``.  Importing this
module (the runner does, for the workload table) imports no ``repro``
code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

#: Figures timed by the figure workloads, in registry order.  A subset
#: of ``repro all``: the full cold run (~60 s on 2 cores) cannot repeat
#: three times inside one benchmark run.  fig5 keeps the desktop
#: characterization (re-done on every warm run, as the real ``all``
#: does), table1 the in-process simulator path, chaos the engine pool
#: and the cache, fig2-fig4 the power-timeline figures.
FIGURES: Tuple[str, ...] = ("fig2", "fig3", "fig4", "fig5", "table1",
                            "chaos")

#: Service campaign: (platform, workload, scheduler, metric), submitted
#: three times on one fresh store.  Pass 1 profiles and writes table G;
#: later passes start from table G (warm EAS jobs) or replay the result
#: cache (``perf`` jobs take the cold engine path once).
SERVICE_SPECS: Tuple[Tuple[str, str, str, str], ...] = tuple(
    [("desktop", w, "eas", "edp") for w in ("BS", "MM", "RT", "MB", "NB",
                                             "SM")]
    + [("tablet", w, "eas", "energy") for w in ("MM", "RT", "MB", "NB",
                                                 "SM")]
    + [("desktop", w, "perf", "edp") for w in ("BS", "RT", "MB", "SM")])
SERVICE_PASSES = 3

#: Fleet campaign over a 2000-node half-desktop fleet, bursty trace at
#: 1000 Hz over four workloads: (op id, policy, requests, carbon).
#: Stateless policies stream large traces; the view-reading policies
#: cost O(nodes) per request, so theirs are small.
FLEET_NODES = 2000
FLEET_RATE_HZ = 1000.0
FLEET_WORKLOADS = ("MB", "MM", "RT", "BS")
FLEET_OPS: Tuple[Tuple[str, str, int, bool], ...] = (
    ("round_robin", "round_robin", 1_000_000, False),
    ("random", "random", 500_000, False),
    ("least_loaded", "least_loaded", 100_000, False),
    ("energy_aware", "energy_aware", 1_000, False),
    ("deadline_aware", "deadline_aware", 1_000, False),
    ("energy_aware_carbon", "energy_aware", 1_000, True),
)
#: Requests in the set-up dispatch that resolves the fleet's cells.
FLEET_WARMUP_REQUESTS = 200

WORKLOADS: Dict[str, str] = {
    "figures_cold": "figure subset of `repro all` from an empty cache: "
                    "simulator, EAS, engine pool and cache writes work",
    "figures_warm": "the same figures again on the filled cache: cache "
                    "reads, re-characterization and rendering dominate",
    "service_jobs": "closed-loop jobs on one fresh service store: sqlite, "
                    "a fork per job, table-G hits and result replays",
    "fleet_dispatch": "six dispatches over a 2000-node fleet: trace "
                      "generation, vectorized and per-request placement",
}

_TIMING_LINE = re.compile(r"\n\[\S+ regenerated in [0-9.]+s\]\s*$")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _op(op_id: str, wall_s: float, ok: bool = True,
        error: Optional[str] = None, **extra: Any) -> Dict[str, Any]:
    return dict(id=op_id, wall_s=wall_s, ok=ok, error=error, **extra)


# -- figures ----------------------------------------------------------------------

def _figures(cfg: Dict[str, Any], clock: "PassClock"):
    from repro.harness.cli import main

    clock.setup_done()
    ops: List[Dict[str, Any]] = []
    checks: Dict[str, Tuple[str, int]] = {}
    argv = ["--jobs", str(cfg["jobs"]), "--seed", str(cfg["seed"]),
            "--cache-dir", cfg["cache_dir"]]
    for fid in FIGURES:
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                main(["--figure", fid] + argv)
        except Exception as exc:
            ops.append(_op(fid, time.perf_counter() - started, False,
                           f"{type(exc).__name__}: {exc}"))
            continue
        wall = time.perf_counter() - started
        ops.append(_op(fid, wall))
        checks[fid] = (_sha(_TIMING_LINE.sub("", out.getvalue())), 1)
    clock.pass_done()
    return ops, checks


# -- service ----------------------------------------------------------------------

def _service(cfg: Dict[str, Any], clock: "PassClock"):
    from repro.harness.suite import get_characterization
    from repro.service.daemon import SchedulerService
    from repro.service.jobs import JobSpec
    from repro.service.store import DONE
    from repro.soc.spec import baytrail_tablet, haswell_desktop

    service = SchedulerService(os.path.join(cfg["cache_dir"], "jobs.db"),
                               cfg["cache_dir"])
    try:
        for factory in (haswell_desktop, baytrail_tablet):
            get_characterization(factory())
        specs = [JobSpec(workload=w, platform=p, scheduler=s, metric=m,
                         seed=cfg["seed"])
                 for p, w, s, m in SERVICE_SPECS]
        clock.setup_done()
        ops: List[Dict[str, Any]] = []
        for pass_no in range(SERVICE_PASSES):
            for spec in specs:
                op_id = f"{spec.platform}.{spec.workload}.{spec.scheduler}"
                started = time.perf_counter()
                submitted = service.submit(spec)
                if submitted.accepted:
                    service.run_until_idle()
                wall = time.perf_counter() - started
                job = (service.store.job(submitted.job_id)
                       if submitted.accepted else None)
                ok = job is not None and job.state == DONE
                ops.append(_op(op_id, wall, ok, None if ok else (
                    submitted.decision.reason if job is None
                    else f"job {job.id} ended {job.state}: {job.error}"),
                    pass_no=pass_no + 1))
        clock.pass_done()
        checks = {"campaign": (service.fingerprint(), len(ops))}
    finally:
        service.close()
    return ops, checks


# -- fleet ------------------------------------------------------------------------

def _fleet(cfg: Dict[str, Any], clock: "PassClock"):
    from dataclasses import replace

    from repro.fleet import FleetSpec, TraceSpec, dispatch_stream, run_fleet
    from repro.harness.engine import ExecutionEngine, ResultCache
    from repro.soc.carbon import CarbonSpec

    seed = cfg["seed"]
    engine = ExecutionEngine(jobs=cfg["jobs"], cache=ResultCache(
        os.path.join(cfg["cache_dir"], "runs")))
    fleet = FleetSpec(n_nodes=FLEET_NODES, desktop_fraction=0.5,
                      tick_mode="fast", seed=seed)

    def trace(requests: int) -> TraceSpec:
        return TraceSpec(kind="bursty", duration_s=requests / FLEET_RATE_HZ,
                         mean_rate_hz=FLEET_RATE_HZ,
                         workloads=FLEET_WORKLOADS, seed=seed)

    # Set-up: one small dispatch resolves every (class, workload) cell
    # into the fresh cache; the timed dispatches then read them back.
    dispatch_stream(fleet, trace(FLEET_WARMUP_REQUESTS),
                    policy="round_robin", engine=engine)
    clock.setup_done()
    ops: List[Dict[str, Any]] = []
    checks: Dict[str, Tuple[str, int]] = {}
    for op_id, policy, requests, carbon in FLEET_OPS:
        started = time.perf_counter()
        try:
            if carbon:
                result = run_fleet(
                    replace(fleet, carbon=CarbonSpec()),
                    replace(trace(requests), deferral_fraction=0.5),
                    policy=policy, engine=engine)
            else:
                result = dispatch_stream(fleet, trace(requests),
                                         policy=policy, engine=engine)
        except Exception as exc:
            ops.append(_op(op_id, time.perf_counter() - started, False,
                           f"{type(exc).__name__}: {exc}"))
            continue
        wall = time.perf_counter() - started
        ops.append(_op(op_id, wall, requests=result.n_requests))
        checks[op_id] = (result.fingerprint(), 1)
    clock.pass_done()
    return ops, checks


RUNNERS = {"figures_cold": _figures, "figures_warm": _figures,
           "service_jobs": _service, "fleet_dispatch": _fleet}


class PassClock:
    """The two instants a runner marks: set-up done, pass done.

    In a traced child the root span (everything after the layer
    modules are imported) closes with the pass, so its self time is
    the part of the run no wrapped layer accounts for.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup_at = self.pass_start = self.pass_s = 0.0
        self.traced_wall_s = 0.0

    def setup_done(self) -> None:
        self.setup_at = time.monotonic()
        self.pass_start = time.perf_counter()

    def pass_done(self) -> None:
        self.pass_s = time.perf_counter() - self.pass_start
        if self.tracer is not None:
            self.traced_wall_s = self.tracer.end()


def run_child(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Set up and run one pass; return the result the runner reads."""
    tracer = saved = None
    if cfg["trace"]:
        import layers

        tracer = layers.Tracer()
        saved = layers.install(tracer)
        tracer.begin(f"bench.{cfg['workload']}")
    clock = PassClock(tracer)
    try:
        ops, checks = RUNNERS[cfg["workload"]](cfg, clock)
    finally:
        if saved is not None:
            layers.uninstall(saved)
    result = {
        "setup_done": clock.setup_at,
        "pass_s": clock.pass_s,
        "ops": ops,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {"stats": tracer.stats, "counts": tracer.counts,
                           "events": tracer.events,
                           "dropped": tracer.dropped,
                           "wall_s": clock.traced_wall_s}
    return result


def main(argv: List[str]) -> int:
    cfg = json.loads(argv[1])
    result = run_child(cfg)
    with open(cfg["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
