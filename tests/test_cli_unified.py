"""The unified ``python -m repro`` front door."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_module(args, **env_extra):
    import os

    env = dict(os.environ, PYTHONPATH=SRC, **env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


class TestDispatch:
    def test_no_args_prints_usage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "subcommands" in out
        assert "fleet" in out

    def test_help_variants(self, capsys):
        for flag in ("-h", "--help", "help"):
            assert main([flag]) == 0
            assert "usage" in capsys.readouterr().out

    def test_list_routes_to_harness(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "fleet" in out

    def test_unknown_subcommand_did_you_mean(self, capsys):
        assert main(["flet"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand" in err
        assert "fleet" in err

    def test_value_subcommand_requires_value(self, capsys):
        assert main(["figure"]) == 2
        assert "needs a value" in capsys.readouterr().err

    def test_figure_routes_to_harness(self, capsys):
        assert main(["figure", "4"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_repro_error_exits_2(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_fleet_routes_to_fleet_cli(self, capsys):
        assert main(["fleet", "--nodes", "4", "--duration", "5",
                     "--rate", "1", "--tick-mode", "fast", "--no-cache",
                     "--workloads", "MM", "--policy", "least_loaded",
                     "--fingerprint-only"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("least_loaded ")

    def test_status_routes_to_service(self, tmp_path, capsys):
        assert main(["status", "--db", str(tmp_path / "svc.db")]) == 0

    @pytest.mark.parametrize("command", ["all", "status"])
    def test_subcommand_help_names_front_door(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: python -m repro ")


class TestModuleEntrypoints:
    def test_python_m_repro_works(self):
        proc = _run_module(["-m", "repro", "list"])
        assert proc.returncode == 0
        assert "fig9" in proc.stdout

    def test_unknown_subcommand_exit_code(self):
        proc = _run_module(["-m", "repro", "serv"])
        assert proc.returncode == 2
        assert "serve" in proc.stderr  # did-you-mean

    @pytest.mark.parametrize("module", ["repro.harness", "repro.service"])
    def test_subpackages_are_not_entry_points(self, module):
        proc = _run_module(["-m", module])
        assert proc.returncode != 0
        assert "cannot be directly executed" in proc.stderr
