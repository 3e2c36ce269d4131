"""Kill-and-restart chaos: SIGKILL the scheduler daemon, prove nothing breaks.

The campaign exercises the crash-safety contract of
:class:`~repro.service.daemon.SchedulerService` (docs/SERVICE.md) the
only way that contract can honestly be tested: by killing the daemon
with SIGKILL - no handler, no cleanup, no warning - at randomized but
seeded points during a job campaign, restarting it, and asserting

1. **no lost jobs** - after recovery drains the queue, every
   submitted job is ``DONE``; orphaned ``CLAIMED``/``RUNNING`` rows
   were re-enqueued, none vanished;
2. **no duplicated side effects** - the durable store's
   ``completions`` counter equals the number of jobs: the
   completion transaction (DONE + table-G merge + counter) committed
   *exactly once* per job even when the attempt ran more than once;
3. **byte-identical results** - the campaign fingerprint (spec hash +
   canonical result payload per job) equals the fingerprint of an
   uninterrupted reference run of the same campaign.

The daemon leads its own process group and runs every job in a
forked child, as ``serve`` does.  The SIGKILL hits the daemon's pid
alone, so a job child it had started is orphaned and may finish and
write its result while recovery runs - the orphaned-child case of
docs/SERVICE.md section 2.  Once a cell's invariants are checked, the
harness SIGKILLs the old process group, so nothing outlives the cell.

Each kill point runs in a fresh store + cache, so points are
independent and the sweep is deterministic per seed.  The platform
characterization is computed once per platform and seeded into every
fresh store, so the sweep measures crash recovery, not re-profiling.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.report import format_table, heading
from repro.harness.suite import get_characterization
from repro.service.daemon import SchedulerService
from repro.service.jobs import JobSpec
from repro.service.store import DONE, DurableStore

#: Default campaign workloads: tablet-capable, many-invocation suite
#: applications so table G actually accumulates state worth replaying.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("BS", "MM", "RT")

#: Default sweep shape - the acceptance floor is 10 points x 2 platforms.
DEFAULT_KILL_POINTS = 10
DEFAULT_PLATFORMS: Tuple[str, ...] = ("desktop", "tablet")


def _campaign_specs(platform: str, workloads: Sequence[str],
                    tick_mode: str = "fast") -> List[JobSpec]:
    return [JobSpec(workload=abbrev, platform=platform, scheduler="eas",
                    tick_mode=tick_mode)
            for abbrev in workloads]


def _submit_all(service: SchedulerService,
                specs: Sequence[JobSpec]) -> List[int]:
    ids = []
    for spec in specs:
        outcome = service.submit(spec)
        if not outcome.accepted:
            raise AssertionError(
                f"chaos submission rejected: {outcome.decision.reason}")
        ids.append(outcome.job_id)
    return ids


def _seed_store(db_path: str, char_by_platform: Dict[str, str]) -> None:
    """Pre-seed a fresh store with the per-platform characterization."""
    with DurableStore(db_path) as store:
        for name, text in char_by_platform.items():
            store.save_characterization(name, text)


def _daemon_main(db_path: str, cache_dir: str) -> None:
    """Child entry point: serve the queue until idle, then exit.

    The daemon leads a new process group, which the job children it
    forks inherit, so the harness can end them all after the cell.
    """
    os.setpgid(0, 0)
    service = SchedulerService(db_path, cache_dir)
    try:
        service.run_until_idle()
    finally:
        service.close()


def _kill_group(pgid: int) -> None:
    """SIGKILL every process left in a killed daemon's group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass(frozen=True)
class CrashChaosCell:
    """One kill point: kill the daemon at ``delay_s``, recover, check."""

    platform: str
    kill_point: int
    delay_s: float
    #: False when the daemon finished before the kill landed (the
    #: sweep's late points intentionally straddle campaign completion).
    killed: bool
    recovered_jobs: int
    replays: int
    ok: bool
    error: str = ""
    fingerprint: str = ""

    def canonical(self) -> str:
        return (f"{self.platform}|{self.kill_point}|{self.killed:d}|"
                f"{int(self.ok)}|{self.fingerprint}|{self.error}")


@dataclass
class CrashChaosResult:
    """Full sweep: platforms x kill points, against reference runs."""

    seed: int
    workloads: List[str]
    #: Uninterrupted reference fingerprint per platform.
    references: Dict[str, str] = field(default_factory=dict)
    cells: List[CrashChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    @property
    def kills(self) -> int:
        return sum(1 for cell in self.cells if cell.killed)

    def fingerprint(self) -> str:
        payload = "\n".join([
            f"{self.seed}|{','.join(self.workloads)}",
            *(f"{p}|{fp}" for p, fp in sorted(self.references.items())),
            *(cell.canonical() for cell in self.cells),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def render(self) -> str:
        rows = [(cell.platform, cell.kill_point, f"{cell.delay_s:.3f}",
                 "yes" if cell.killed else "no", cell.recovered_jobs,
                 cell.replays,
                 "ok" if cell.ok else f"FAILED: {cell.error}")
                for cell in self.cells]
        table = format_table(
            ["platform", "point", "kill at (s)", "killed", "recovered",
             "replays", "status"], rows)
        verdict = ("all invariants held" if self.ok
                   else "INVARIANT VIOLATION")
        summary = (f"{len(self.cells)} kill points, {self.kills} landed "
                   f"mid-run, seed={self.seed}: {verdict}")
        return "\n".join([heading("Crash-restart chaos campaign"),
                          table, "", summary])


def _reference_run(platform: str, workloads: Sequence[str],
                   char_by_platform: Dict[str, str],
                   root: str, tick_mode: str = "fast") -> Tuple[str, float]:
    """Uninterrupted campaign through the same machinery; returns the
    fingerprint every kill point must reproduce, and the wall time the
    kill delays are drawn from."""
    db = os.path.join(root, f"ref-{platform}.db")
    cache = os.path.join(root, f"ref-{platform}-cache")
    _seed_store(db, char_by_platform)
    service = SchedulerService(db, cache)
    try:
        _submit_all(service,
                    _campaign_specs(platform, workloads, tick_mode))
        start = time.monotonic()
        service.run_until_idle()
        wall = time.monotonic() - start
        states = service.store.state_counts()
        if states[DONE] != len(workloads):
            raise AssertionError(
                f"reference run incomplete on {platform}: {states}")
        return service.fingerprint(), wall
    finally:
        service.close()


def _run_kill_point(platform: str, point: int, delay_s: float,
                    workloads: Sequence[str],
                    char_by_platform: Dict[str, str],
                    reference: str, root: str,
                    tick_mode: str = "fast") -> CrashChaosCell:
    import multiprocessing

    db = os.path.join(root, f"kill-{platform}-{point}.db")
    cache = os.path.join(root, f"kill-{platform}-{point}-cache")
    _seed_store(db, char_by_platform)

    submitter = SchedulerService(db, cache)
    try:
        job_ids = _submit_all(
            submitter, _campaign_specs(platform, workloads, tick_mode))
    finally:
        submitter.close()

    ctx = multiprocessing.get_context("fork")
    daemon = ctx.Process(target=_daemon_main, args=(db, cache))
    daemon.start()
    time.sleep(delay_s)
    killed = daemon.is_alive()
    if killed:
        os.kill(daemon.pid, signal.SIGKILL)
    daemon.join()

    # Restart: recover orphans, drain the queue, check the invariants.
    service = SchedulerService(db, cache)
    try:
        recovered = service.recover()
        service.run_until_idle()
        store = service.store
        states = store.state_counts()
        counters = store.counters()
        fingerprint = service.fingerprint()
        problems = []
        if states[DONE] != len(job_ids):
            problems.append(f"lost jobs: states={states}")
        if counters.get("completions") != float(len(job_ids)):
            problems.append("duplicated side effects: completions="
                            f"{counters.get('completions')}")
        if fingerprint != reference:
            problems.append("fingerprint mismatch vs uninterrupted run")
        return CrashChaosCell(
            platform=platform, kill_point=point, delay_s=delay_s,
            killed=killed, recovered_jobs=recovered,
            replays=int(counters.get("recoveries", 0.0)),
            ok=not problems, error="; ".join(problems),
            fingerprint=fingerprint)
    finally:
        service.close()
        _kill_group(daemon.pid)


def run_crash_chaos(platforms: Sequence[str] = DEFAULT_PLATFORMS,
                    kill_points: int = DEFAULT_KILL_POINTS,
                    workloads: Sequence[str] = DEFAULT_WORKLOADS,
                    seed: int = 2016,
                    work_dir: Optional[str] = None,
                    tick_mode: str = "fast") -> CrashChaosResult:
    """SIGKILL the daemon at ``kill_points`` seeded delays per platform.

    Delays span (0, ~90% of the uninterrupted wall time], so the sweep
    covers kills during planning, mid-execution, and around completion
    commits.  Every cell asserts the three crash-safety invariants
    against an uninterrupted reference run of the same campaign.
    """
    result = CrashChaosResult(seed=seed, workloads=list(workloads))
    root = work_dir or tempfile.mkdtemp(prefix="crashchaos-")
    owns_root = work_dir is None
    try:
        char_by_platform: Dict[str, str] = {}
        for platform in platforms:
            spec = JobSpec(workload=workloads[0], platform=platform,
                           tick_mode=tick_mode).to_runspec().platform
            char_by_platform[spec.name] = (
                get_characterization(spec).to_json())
        for platform in platforms:
            reference, wall = _reference_run(
                platform, workloads, char_by_platform, root, tick_mode)
            result.references[platform] = reference
            for point in range(kill_points):
                rng = random.Random(f"{seed}:{platform}:{point}")
                delay_s = rng.uniform(0.02, max(0.1, wall * 0.9))
                result.cells.append(_run_kill_point(
                    platform, point, delay_s, workloads,
                    char_by_platform, reference, root, tick_mode))
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)
    return result


def regenerate_crash_chaos(tick_mode: Optional[str] = None
                           ) -> CrashChaosResult:
    """Registry entry point: the full acceptance sweep (10 x 2)."""
    return run_crash_chaos(tick_mode=tick_mode or "fast")
