"""The service CLI end to end: ``submit``, ``serve`` and ``status``
through :func:`repro.service.cli.main`, on one store."""

import json
import signal

import pytest

from repro.service.cli import main
from repro.service.daemon import SchedulerService


@pytest.fixture
def restore_signals():
    """``serve`` installs SIGTERM/SIGINT drain handlers in this process;
    put the previous handlers back afterwards."""
    saved = {sig: signal.getsignal(sig)
             for sig in (signal.SIGTERM, signal.SIGINT)}
    yield
    for sig, handler in saved.items():
        signal.signal(sig, handler)


class TestServiceCli:
    def test_submit_serve_status_round_trip(self, tmp_path, capsys,
                                            restore_signals):
        store = ["--db", str(tmp_path / "svc.db"),
                 "--cache-dir", str(tmp_path / "cache")]
        job = ["--workload", "BS", "--platform", "tablet",
               "--tick-mode", "fast"]
        assert main(["submit", *store, *job]) == 0
        assert main(["submit", *store, *job, "--scheduler", "cpu"]) == 0
        ids = capsys.readouterr().out.split()
        assert ids == ["1", "2"]

        assert main(["serve", *store, "--until-idle"]) == 0
        assert main(["status", *store, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert [j["state"] for j in snapshot["jobs"]] == ["DONE", "DONE"]
        assert snapshot["counters"]["completions"] == 2

        assert main(["status", *store, "--fingerprint"]) == 0
        printed = capsys.readouterr().out.strip()
        service = SchedulerService(str(tmp_path / "svc.db"),
                                   str(tmp_path / "cache"))
        try:
            assert printed == service.fingerprint()
        finally:
            service.close()

    def test_submit_invalid_spec_is_rejected(self, tmp_path, capsys):
        assert main(["submit", "--db", str(tmp_path / "svc.db"),
                     "--workload", "XYZ"]) == 1
        assert capsys.readouterr().err.startswith(
            "rejected: invalid job spec: ")

    @pytest.mark.parametrize("flag", [
        ["--max-depth", "1"], ["--tenant-quota", "1"], ["--poll", "0.1"],
        ["--inline"]])
    def test_removed_serve_flags_are_usage_errors(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--db", str(tmp_path / "svc.db"),
                  "--until-idle", *flag])
        assert exc.value.code == 2
