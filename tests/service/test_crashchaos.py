"""Kill-and-restart chaos, tier-1 sized: a small seeded sweep must
uphold all three crash-safety invariants (no lost jobs, no duplicated
side effects, byte-identical fingerprints).  The full acceptance sweep
(10 kill points x 2 platforms) runs as the ``crashchaos`` experiment.
"""

import os
import time

import pytest

from repro.harness.crashchaos import run_crash_chaos
from repro.harness.figures import REGENERATORS
from repro.service import daemon as daemon_mod


def _live_members(pgid: int):
    """Pids of the non-zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            members.append(int(entry))
    return members


class TestCrashChaosSmall:
    def test_invariants_hold_across_kill_points(self, tmp_path):
        result = run_crash_chaos(
            platforms=("tablet",), kill_points=3,
            workloads=("BS", "MM"), seed=7, work_dir=str(tmp_path))
        assert result.ok, result.render()
        assert len(result.cells) == 3
        # Seeded delays land at least one kill mid-run; a sweep where
        # every daemon finished first would have tested nothing.
        assert result.kills >= 1
        reference = result.references["tablet"]
        for cell in result.cells:
            assert cell.fingerprint == reference

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process groups from /proc")
    def test_killed_daemon_group_leaves_nothing_alive(self, tmp_path,
                                                      monkeypatch):
        """A job child orphaned by the daemon's SIGKILL must not
        outlive its cell.  Children forked by a chaos daemon run in the
        daemon's own process group; there the patched job hangs, so
        only the harness's group kill can end the orphan.  Recovery
        runs in this process's group and executes the job normally."""
        harness_group = os.getpgrp()
        marks = tmp_path / "orphans"
        marks.mkdir()
        real = daemon_mod._run_warm_payload

        def hang_in_daemon_group(*args, **kwargs):
            if os.getpgrp() != harness_group:
                (marks / str(os.getpgrp())).touch()
                time.sleep(60.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(daemon_mod, "_run_warm_payload",
                            hang_in_daemon_group)
        # Seed 43 draws all three delays past 60% of the reference
        # wall, so each daemon has forked its job child by the kill.
        result = run_crash_chaos(
            platforms=("tablet",), kill_points=3, workloads=("BS",),
            seed=43, work_dir=str(tmp_path / "work"))
        assert result.ok, result.render()
        assert result.kills == 3
        groups = sorted(int(path.name) for path in marks.iterdir())
        assert groups, "no kill landed while a job child ran"
        # SIGKILL is delivered asynchronously: allow a killed process a
        # moment to be scheduled and die.
        deadline = time.monotonic() + 5.0
        alive = {pgid: _live_members(pgid) for pgid in groups}
        while any(alive.values()) and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = {pgid: _live_members(pgid) for pgid in groups}
        assert not any(alive.values()), alive

    def test_render_and_fingerprint(self, tmp_path):
        result = run_crash_chaos(
            platforms=("tablet",), kill_points=1,
            workloads=("BS",), seed=11, work_dir=str(tmp_path))
        text = result.render()
        assert "Crash-restart chaos campaign" in text
        assert "all invariants held" in text
        assert len(result.fingerprint()) == 64

    def test_registered_as_experiment(self):
        assert "crashchaos" in REGENERATORS
