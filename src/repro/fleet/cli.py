"""Fleet subcommand: ``python -m repro fleet``.

Examples::

    python -m repro fleet --nodes 64 --trace bursty --policy all
    python -m repro fleet --nodes 1000 --trace diurnal --policy energy_aware \\
        --tick-mode fast --jobs 4
    python -m repro fleet --nodes 32 --policy random,energy_aware \\
        --duration 30 --rate 2 --tick-mode fast --fingerprint-only

Routes a seeded arrival trace across a mixed desktop/tablet fleet
under one or more placement policies (:func:`dispatch_stream`) and
prints the per-policy accounting plus a byte-stable stream
fingerprint (identical on reruns and at any ``--jobs N``; see
docs/FLEET.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.errors import HarnessError, UnknownNameError, closest_names
from repro.fleet.dispatcher import FleetComparisonResult, dispatch_stream
from repro.fleet.topology import FleetSpec
from repro.fleet.trace import DEFAULT_TRACE_WORKLOADS, TRACE_KINDS, TraceSpec
from repro.fleet.policies import PLACEMENT_POLICIES
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.soc.spec import TICK_MODES


def _parse_policies(text: str) -> List[str]:
    if text == "all":
        return list(PLACEMENT_POLICIES)
    policies = [p.strip() for p in text.split(",") if p.strip()]
    if not policies:
        raise HarnessError("--policy needs at least one policy name")
    for policy in policies:
        if policy not in PLACEMENT_POLICIES:
            raise UnknownNameError(
                f"unknown placement policy {policy!r}; expected one of "
                f"{PLACEMENT_POLICIES} or 'all'",
                suggestions=closest_names(policy, list(PLACEMENT_POLICIES)))
    return policies


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Dispatch a seeded arrival trace across a simulated "
                    "fleet of desktop/tablet SoCs under pluggable "
                    "placement policies.")
    parser.add_argument("--nodes", type=int, default=64, metavar="N",
                        help="fleet size (default: 64)")
    parser.add_argument("--desktop-fraction", type=float, default=0.5,
                        metavar="F",
                        help="fraction of nodes that are desktop class "
                             "(default: 0.5; the rest are tablet class)")
    parser.add_argument("--policy", default="energy_aware",
                        metavar="P[,P...]",
                        help="placement policy, comma-separated list, or "
                             f"'all' (choices: {', '.join(PLACEMENT_POLICIES)}"
                             "; default: energy_aware)")
    parser.add_argument("--trace", choices=TRACE_KINDS, default="bursty",
                        help="arrival-trace family (default: bursty)")
    parser.add_argument("--duration", type=float, default=60.0, metavar="S",
                        help="trace duration, fleet-clock seconds "
                             "(default: 60)")
    parser.add_argument("--rate", type=float, default=4.0, metavar="HZ",
                        help="mean arrival rate, requests/second "
                             "(default: 4)")
    parser.add_argument("--workloads",
                        default=",".join(DEFAULT_TRACE_WORKLOADS),
                        metavar="W[,W...]",
                        help="workload mix by Table-1 abbreviation "
                             f"(default: {','.join(DEFAULT_TRACE_WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=2016,
                        help="seed for trace generation and the random "
                             "policy (default: 2016)")
    parser.add_argument("--metric", default="edp",
                        help="per-node EAS objective metric "
                             "(default: edp)")
    parser.add_argument("--tick-mode", choices=TICK_MODES, default="exact",
                        help="node simulator clock mode (default: exact)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for cell simulations "
                             "(default: 1 = serial; fingerprints are "
                             "byte-identical at any N)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed run-result "
                             "cache entirely")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root for characterizations and run "
                             "results")
    parser.add_argument("--fingerprint-only", action="store_true",
                        help="print only 'policy fingerprint' lines "
                             "(CI-friendly)")
    args = parser.parse_args(argv)

    policies = _parse_policies(args.policy)
    fleet = FleetSpec(n_nodes=args.nodes,
                      desktop_fraction=args.desktop_fraction,
                      tick_mode=args.tick_mode, metric=args.metric,
                      seed=args.seed)
    trace = TraceSpec(kind=args.trace, duration_s=args.duration,
                      mean_rate_hz=args.rate,
                      workloads=tuple(
                          w.strip() for w in args.workloads.split(",")
                          if w.strip()),
                      seed=args.seed)
    if args.no_cache:
        cache = None
    elif args.cache_dir:
        cache = ResultCache(os.path.join(args.cache_dir, "runs"))
    else:
        cache = ResultCache.from_env()
    engine = ExecutionEngine(jobs=args.jobs, cache=cache)

    started = time.perf_counter()
    results = tuple(
        dispatch_stream(fleet, trace, policy=policy, engine=engine)
        for policy in policies)
    if len(results) == 1:
        result = results[0]
        if args.fingerprint_only:
            print(f"{result.policy} {result.fingerprint()}")
        else:
            print(result.render())
    else:
        comparison = FleetComparisonResult(fleet=fleet, trace=trace,
                                           results=results)
        if args.fingerprint_only:
            for result in comparison.results:
                print(f"{result.policy} {result.fingerprint()}")
            print(f"combined {comparison.fingerprint()}")
        else:
            print(comparison.render())
    if not args.fingerprint_only:
        print(f"\n[fleet dispatched in {time.perf_counter() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
