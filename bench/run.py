"""Run the repository benchmark: set-up, wall, latency and memory per workload.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out PATH]

Each pass of a workload runs in a fresh interpreter (``bench/workloads.py``)
with ``src`` on ``PYTHONPATH``, ``REPRO_CACHE_DIR`` unset and its own
temporary cache and store under ``.bench_tmp/`` (removed afterwards).
Passes repeat until at least three have run and together they have
measured ``--seconds``; every metric is a median over the passes.
Every output is checked against ``bench/fingerprints.json`` (for its
seed) and across passes, cold against warm and traced against untraced.

``--trace 1`` alternates untraced and traced passes, all with a serial
engine so that worker-side layers run in the traced process, and reports
the per-layer metrics instead, plus a Chrome trace in
``.bench_out/trace-<workload>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A pass that crashes stops the
run with exit code 2 and no result line.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
#: Seconds each run measures when ``--seconds`` is not given (the
#: ``run_seconds`` of BENCHMARK.json).
DEFAULT_SECONDS = 6
MIN_PASSES = 3
#: No new pass starts once a run is this old, so that it ends within
#: three minutes however slow the machine.
RUN_BUDGET_S = 120.0
PASS_TIMEOUT_S = 150.0

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A pass crashed or left no result: the run has no valid numbers."""


# -- passes -----------------------------------------------------------------------

def _run_pass(cfg: Dict[str, Any], work_dir: str) -> Dict[str, Any]:
    """Start one child, wait for it (killing its whole process group on
    timeout) and return its result with the spawn instant attached."""
    cfg = dict(cfg, result_path=os.path.join(work_dir, "result.json"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=work_dir)
    env.pop("REPRO_CACHE_DIR", None)
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            json.dumps(cfg)]
    spawned = time.monotonic()
    child = subprocess.Popen(argv, cwd=ROOT, env=env,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{cfg['workload']}: pass exceeded "
                         f"{PASS_TIMEOUT_S:.0f} s")
    finally:
        # Reap anything the child left behind in its session.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:
            pass
    if child.returncode != 0 or not os.path.exists(cfg["result_path"]):
        raise BenchError(f"{cfg['workload']}: pass exited with code "
                         f"{child.returncode}\n{output[-4000:]}")
    with open(cfg["result_path"]) as fh:
        result = json.load(fh)
    os.remove(cfg["result_path"])
    result["setup_s"] = result["setup_done"] - spawned
    result["traced"] = cfg["trace"]
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               work_root: str) -> Tuple[List[Dict[str, Any]],
                                         List[Dict[str, Any]]]:
    """(untimed priming passes, measured passes) for one run."""
    cfg = {"workload": workload, "seed": seed, "jobs": 1 if trace else 2,
           "trace": False}
    shared = None
    priming: List[Dict[str, Any]] = []
    if workload == "figures_warm":
        shared = os.path.join(work_root, "warm-cache")
        os.makedirs(shared)
        priming.append(_run_pass(dict(cfg, cache_dir=shared), work_root))
    passes: List[Dict[str, Any]] = []
    min_passes = MIN_PASSES + 1 if trace else MIN_PASSES
    started = time.monotonic()
    measured = 0.0
    while len(passes) < min_passes or measured < seconds:
        if time.monotonic() - started > RUN_BUDGET_S:
            break
        cache_dir = shared or os.path.join(work_root, f"cache-{len(passes)}")
        os.makedirs(cache_dir, exist_ok=True)
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(dict(cfg, cache_dir=cache_dir,
                                     trace=traced), work_root))
        if shared is None:
            shutil.rmtree(cache_dir)
        measured += passes[-1]["pass_s"]
    return priming, passes


# -- correctness ------------------------------------------------------------------

def load_fingerprints() -> Dict[str, Any]:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def fingerprint_group(workload: str) -> str:
    """Both figure workloads render the same figures."""
    return "figures" if workload.startswith("figures") else workload


def check_outputs(workload: str, seed: int, priming, passes,
                  expected: Dict[str, Any]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages).

    An operation fails when it raised or its job did not finish, or
    when an output digest differs from the recorded one (for the
    recorded seed) or from the other passes of this run.  A digest that
    covers several operations (the service campaign) fails all of them.
    """
    recorded = (expected.get(fingerprint_group(workload), {})
                if expected.get("seed") == seed else {})
    everything = priming + passes
    digests: Dict[str, collections.Counter] = collections.defaultdict(
        collections.Counter)
    for result in everything:
        for cid, (digest, _) in result["checks"].items():
            digests[cid][digest] += 1
    reference = {cid: recorded.get(cid) or seen.most_common(1)[0][0]
                 for cid, seen in digests.items()}
    attempted = failed = 0
    messages: List[str] = []
    for result in everything:
        bad = 0
        for op in result["ops"]:
            if not op["ok"]:
                bad += 1
                messages.append(f"{workload}: {op['id']} failed: "
                                f"{op['error']}")
        for cid, (digest, weight) in result["checks"].items():
            if digest != reference[cid]:
                bad += weight
                messages.append(f"{workload}: fingerprint mismatch on {cid}: "
                                f"expected {reference[cid]} got {digest}")
        attempted += len(result["ops"])
        failed += min(bad, len(result["ops"]))
    return attempted, failed, messages


# -- metrics ----------------------------------------------------------------------

def end_to_end(passes: List[Dict[str, Any]]
               ) -> Dict[str, Tuple[float, int]]:
    """(value, samples) of each end-to-end metric, untraced passes only.

    ``wall_s`` is the typical pass: the sum, over the operations of one
    pass, of each operation's median across passes.  A burst of host
    contention then has to hit the same operation in most passes to
    count, not merely some operation in most passes.
    """
    plain = [p for p in passes if not p["traced"]]
    per_op: Dict[Tuple[str, int], List[float]] = collections.defaultdict(
        list)
    for p in plain:
        seen: Dict[str, int] = collections.Counter()
        for op in p["ops"]:
            per_op[(op["id"], seen[op["id"]])].append(op["wall_s"])
            seen[op["id"]] += 1
    return {
        "setup_s": (stats.median([p["setup_s"] for p in plain]), len(plain)),
        "wall_s": (sum(stats.median(v) for v in per_op.values()),
                   len(plain)),
        "peak_rss_mb": (stats.median([p["peak_rss_mb"] for p in plain]),
                        len(plain)),
    }


def op_breakdown(passes: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Median wall (and request rate, where ops carry requests) per op id."""
    by_id: Dict[str, List[Dict[str, Any]]] = collections.defaultdict(list)
    for p in passes:
        if not p["traced"]:
            for op in p["ops"]:
                by_id[op["id"]].append(op)
    out: Dict[str, Dict[str, float]] = {}
    for op_id, ops in by_id.items():
        row = {"wall_s": stats.median([op["wall_s"] for op in ops]),
               "n": len(ops)}
        if "requests" in ops[0]:
            row["req_per_s"] = stats.median(
                [op["requests"] / op["wall_s"] for op in ops])
        out[op_id] = row
    return out


def per_layer(workload: str, passes: List[Dict[str, Any]]
              ) -> Dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    span_stats: Dict[str, List[float]] = {}
    counts: Dict[str, float] = collections.Counter()
    for p in traced:
        for name, (calls, self_s) in p["trace"]["stats"].items():
            acc = span_stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        counts.update(p["trace"]["counts"])
    wall = sum(p["trace"]["wall_s"] for p in traced)
    out = layers.layer_metrics(span_stats, counts, wall,
                               root=f"bench.{workload}")
    traced_pass_s = sum(p["pass_s"] for p in traced)
    for fid in workloads.FIGURES:
        fig_s = sum(op["wall_s"] for p in traced for op in p["ops"]
                    if op["id"] == fid)
        out[f"figure.{fid}.wall_frac"] = (fig_s / traced_pass_s
                                          if traced_pass_s else 0.0)
    rates = op_breakdown(plain)
    for policy in layers.FLEET_POLICIES:
        out[f"fleet.dispatch.{policy}.req_per_s"] = rates.get(
            policy, {}).get("req_per_s", 0.0)
    out["trace.overhead_frac"] = (
        stats.median([p["pass_s"] for p in traced])
        / stats.median([p["pass_s"] for p in plain]) - 1.0)
    return out


# -- one workload -----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work_root: str, expected: Dict[str, Any]) -> Dict[str, Any]:
    priming, passes = run_passes(workload, seed, seconds, trace, work_root)
    attempted, failed, messages = check_outputs(workload, seed, priming,
                                                passes, expected)
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(passes), "correct": failed == 0,
        "attempted": attempted, "failed": failed, "messages": messages,
        "ops": op_breakdown(passes),
        "digests": {cid: d for p in priming + passes
                    for cid, (d, _) in p["checks"].items()},
    }
    if trace:
        spec = layers.per_layer_spec(workloads.FIGURES)
        values = per_layer(workload, passes)
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, (unit, _) in spec.items()}
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        trace_path = os.path.join(ROOT, ".bench_out",
                                  f"trace-{workload}.json")
        with open(trace_path, "w") as fh:
            json.dump(layers.chrome_trace(
                [p["trace"]["events"] for p in passes if p["traced"]],
                {"workload": workload, "seed": seed}), fh)
        result["chrome_trace"] = os.path.relpath(trace_path, ROOT)
        return result
    values = end_to_end(passes)
    result["metrics"] = {name: {"value": values[name][0], "unit": unit,
                                "n": values[name][1]}
                         for name, unit in END_TO_END.items()}
    op_walls = [op["wall_s"] for p in passes for op in p["ops"]]
    result["op_p50_s"] = stats.median(op_walls)
    p90 = stats.tail_percentile(op_walls, 90)
    if p90 is not None:
        result["op_p90_s"] = p90
    result["pass_spread"] = stats.spread([p["pass_s"] for p in passes])
    return result


def envelope(seed: int) -> Dict[str, Any]:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds")}


def print_result(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed) ==")
    for message in result["messages"]:
        print(f"  ! {message}")
    for name, m in result["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{n}")
    if "pass_spread" in result:
        print(f"  spread of pass walls within the run: "
              f"{result['pass_spread']:.1%}")
        ops = sum(row["n"] for row in result["ops"].values())
        print(f"  operation latency: p50 {result['op_p50_s']:.4g} s, p90 "
              + (f"{result['op_p90_s']:.4g} s" if "op_p90_s" in result
                 else "withheld (fewer than 10 samples beyond it)")
              + f" (n={ops})")
    for op_id, row in result["ops"].items():
        rate = (f"  {row['req_per_s']:.4g} req/s"
                if "req_per_s" in row else "")
        print(f"    op {op_id:<40} {row['wall_s']:>10.4f} s "
              f"(n={row['n']}){rate}")
    if "chrome_trace" in result:
        print(f"  chrome trace: {result['chrome_trace']}")


def write_fingerprints(results: List[Dict[str, Any]], seed: int) -> None:
    """Record this run's digests as the reference for ``seed``."""
    if any(not r["correct"] for r in results):
        raise BenchError("refusing to record fingerprints from a run "
                         "with failures")
    recorded = load_fingerprints()
    if recorded.get("seed") != seed:
        recorded = {"seed": seed}
    for r in results:
        recorded[fingerprint_group(r["workload"])] = dict(
            sorted(r["digests"].items()))
    with open(FINGERPRINTS, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run the benchmark and print every metric with its unit.")
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per run (at least "
                             f"{MIN_PASSES} passes run regardless)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="append each workload's full result as one "
                             "JSON line (input of bench/compare.py)")
    parser.add_argument("--write-fingerprints", action="store_true",
                        help="record this run's output digests as the "
                             "reference for --seed")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: the running pass's process
    # group is killed and the temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])

    work_root = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(work_root)
    try:
        # Recording checks only that the passes agree with each other.
        expected = ({} if args.write_fingerprints
                    else load_fingerprints())
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), work_root, expected)
            print_result(result)
            results.append(result)
        if args.write_fingerprints:
            write_fingerprints(results, args.seed)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass

    if args.out:
        env = envelope(args.seed)
        with open(args.out, "a") as fh:
            for result in results:
                fh.write(json.dumps(dict(result, envelope=env)) + "\n")

    single = len(results) == 1
    metrics = {(name if single else f"{r['workload']}.{name}"):
               {"value": m["value"], "unit": m["unit"]}
               for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
