"""Service subcommands of ``python -m repro``: serve / submit / status /
cancel / drain.

Examples::

    python -m repro serve  --db /tmp/eas.db --cache-dir /tmp/eas-cache
    python -m repro submit --db /tmp/eas.db --workload CC --scheduler eas
    python -m repro submit --db /tmp/eas.db --workload BS \\
        --platform tablet --priority 5 --tenant interactive
    python -m repro status --db /tmp/eas.db
    python -m repro status --db /tmp/eas.db --json
    python -m repro status --db /tmp/eas.db --fingerprint
    python -m repro cancel --db /tmp/eas.db --job 3
    python -m repro drain  --db /tmp/eas.db

``serve`` runs the claim loop in the foreground until drained
(``--until-idle`` exits once the queue is empty - the batch/CI mode).
``drain`` asks a running daemon to finish its in-flight job and exit:
it sets the store's drain flag and, when the advertised pid is alive,
also sends SIGTERM.  ``kill -9`` of the daemon is always safe; the
next ``serve`` recovers orphaned jobs and replays idempotently.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time
from typing import List, Optional

from repro.errors import ReproError, ServiceError
from repro.harness.engine import SCHEDULER_KINDS
from repro.harness.report import format_table
from repro.obs.export import write_metrics
from repro.obs.observer import Observer
from repro.service.daemon import (
    DRAIN_FLAG,
    PID_KEY,
    SchedulerService,
)
from repro.service.jobs import JobSpec
from repro.service.store import DurableStore
from repro.soc.spec import PLATFORMS, TICK_MODES


def _add_db(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", required=True, metavar="PATH",
                        help="durable store sqlite file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="crash-safe persistent scheduler service")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the daemon claim loop")
    _add_db(serve)
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed result cache root "
                            "(default: alongside the db)")
    serve.add_argument("--until-idle", action="store_true",
                       help="exit once no job is live (batch/CI mode)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the service metrics snapshot on exit")

    submit = sub.add_parser("submit", help="enqueue one job")
    _add_db(submit)
    submit.add_argument("--workload", required=True, metavar="ABBREV")
    submit.add_argument("--platform", choices=tuple(PLATFORMS),
                        default="desktop")
    submit.add_argument("--scheduler", choices=SCHEDULER_KINDS,
                        default="eas")
    submit.add_argument("--metric", default="edp",
                        help="objective name; NAME@SECONDS (e.g. edp@2) "
                             "runs deadline-constrained EAS "
                             "(docs/OBJECTIVES.md)")
    submit.add_argument("--alpha", type=float, default=None,
                        help="static scheduler offload ratio")
    submit.add_argument("--deadline", type=float, default=None, metavar="S",
                        help="race scheduler budget: sprint at alpha_PERF, "
                             "then idle out the remainder")
    submit.add_argument("--fault-level", type=float, default=0.0)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--tick-mode", choices=TICK_MODES, default="exact")
    submit.add_argument("--cold", action="store_true",
                        help="skip the persisted table G (eas only)")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--timeout", type=float, default=60.0, metavar="S")
    submit.add_argument("--retries", type=int, default=2)
    submit.add_argument("--cache-dir", default=None, metavar="DIR")

    status = sub.add_parser("status", help="inspect jobs and counters")
    _add_db(status)
    status.add_argument("--job", type=int, default=None, metavar="ID")
    status.add_argument("--json", action="store_true", dest="as_json")
    status.add_argument("--fingerprint", action="store_true",
                        help="print the campaign fingerprint over every "
                             "DONE job's result payload")
    status.add_argument("--cache-dir", default=None, metavar="DIR")

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    _add_db(cancel)
    cancel.add_argument("--job", type=int, required=True, metavar="ID")

    drain = sub.add_parser("drain", help="ask the daemon to finish and exit")
    _add_db(drain)
    drain.add_argument("--wait", type=float, default=10.0, metavar="S",
                       help="seconds to wait for the daemon to exit")
    return parser


def _default_cache_dir(db_path: str, override: Optional[str]) -> str:
    if override:
        return override
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    directory = os.path.dirname(os.path.abspath(db_path))
    return os.path.join(directory or tempfile.gettempdir(), "service-cache")


def _make_service(db: str, cache_dir: Optional[str],
                  observer: Optional[Observer] = None) -> SchedulerService:
    return SchedulerService(db, _default_cache_dir(db, cache_dir),
                            observer=observer)


def _cmd_serve(args: argparse.Namespace) -> int:
    observer = Observer(metadata={"component": "repro.service",
                                  "db": args.db})
    service = _make_service(args.db, args.cache_dir, observer=observer)
    try:
        service.serve_forever(until_idle=args.until_idle)
    finally:
        if args.metrics_out:
            write_metrics(args.metrics_out, observer,
                          extra_meta={"store_counters":
                                      service.store.counters()})
            print(f"[wrote service metrics to {args.metrics_out}]")
        service.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    try:
        spec = JobSpec(
            workload=args.workload, platform=args.platform,
            scheduler=args.scheduler, metric=args.metric, alpha=args.alpha,
            fault_level=args.fault_level, seed=args.seed,
            tick_mode=args.tick_mode, warm_table=not args.cold,
            deadline_s=args.deadline)
    except ServiceError as exc:
        print(f"rejected: invalid job spec: {exc}", file=sys.stderr)
        return 1
    service = _make_service(args.db, args.cache_dir)
    try:
        outcome = service.submit(spec, tenant=args.tenant,
                                 priority=args.priority,
                                 max_retries=args.retries,
                                 timeout_s=args.timeout)
    finally:
        service.close()
    if not outcome.accepted:
        print(f"rejected: {outcome.decision.reason}", file=sys.stderr)
        return 1
    print(outcome.job_id)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    service = _make_service(args.db, args.cache_dir)
    try:
        if args.fingerprint:
            print(service.fingerprint())
            return 0
        snapshot = service.store.status_snapshot()
        if args.job is not None:
            jobs = [j for j in snapshot["jobs"] if j["id"] == args.job]
            if not jobs:
                print(f"no job with id {args.job}", file=sys.stderr)
                return 1
            print(json.dumps(jobs[0], indent=2, sort_keys=True))
            return 0
        if args.as_json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        states = snapshot["states"]
        print(f"store: {snapshot['path']} "
              f"(schema v{snapshot['schema_version']})")
        print("  " + "  ".join(f"{state}={states[state]}"
                               for state in states if states[state]))
        counters = snapshot["counters"]
        if counters:
            print("  " + "  ".join(f"{k}={v:g}"
                                   for k, v in counters.items()))
        rows = [(j["id"], j["tenant"], j["state"], j["attempts"],
                 j["spec"].get("workload", "?"),
                 j["spec"].get("scheduler", "?"),
                 (j["result_key"] or "")[:12],
                 (j["error"] or "")[:40])
                for j in snapshot["jobs"]]
        if rows:
            print(format_table(
                ["id", "tenant", "state", "att", "wl", "sched",
                 "result", "error"], rows))
    finally:
        service.close()
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    with DurableStore(args.db) as store:
        ok, reason = store.cancel_job(args.job)
    if not ok:
        print(reason, file=sys.stderr)
        return 1
    print(f"job {args.job} cancelled")
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    with DurableStore(args.db) as store:
        store.set_meta(DRAIN_FLAG, "1")
        pid_text = store.get_meta(PID_KEY)
        pid = int(pid_text) if pid_text and pid_text.isdigit() else None
        if pid is not None:
            try:
                os.kill(pid, signal.SIGTERM)
            except (OSError, ProcessLookupError):
                pid = None
        deadline = time.monotonic() + args.wait
        while time.monotonic() < deadline:
            if store.get_meta(PID_KEY) is None:
                print("daemon drained")
                return 0
            time.sleep(0.05)
    print("drain requested (daemon has not confirmed exit)",
          file=sys.stderr)
    return 1


_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "cancel": _cmd_cancel,
    "drain": _cmd_drain,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
