"""The unified command-line front door: ``python -m repro``.

One entry point, subcommand-per-surface::

    python -m repro figure 9              # tables & figures (harness)
    python -m repro figure fleet
    python -m repro list
    python -m repro all --jobs 4
    python -m repro run CC --strategies cpu,eas
    python -m repro tenants 'BS,CC:5' --arbiter priority
    python -m repro fleet --nodes 1000 --policy all --tick-mode fast
    python -m repro serve --cache-dir ~/.cache/repro
    python -m repro submit --workload MB --follow
    python -m repro status; python -m repro cancel ID; python -m repro drain

Every subcommand delegates to the surface that owns it - the
figure/run/tenants family to :mod:`repro.harness.cli`, the fleet
dispatcher to :mod:`repro.fleet.cli`, the scheduler service to
:mod:`repro.service.cli` - so each keeps its full flag set
(``python -m repro SUBCOMMAND --help``).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.errors import ReproError, closest_names

#: subcommand -> one-line help.  Handlers import lazily so
#: ``python -m repro list`` does not pay service/fleet import cost and
#: vice versa.
_SUBCOMMANDS: Dict[str, str] = {
    "figure": "regenerate a table/figure by id (see 'list')",
    "experiment": "alias of 'figure'",
    "list": "list available experiment ids",
    "all": "regenerate every table and figure",
    "run": "run one workload under selected strategies",
    "tenants": "run a multiprogram co-scheduling experiment",
    "fleet": "dispatch an arrival trace across a simulated fleet",
    "serve": "run the durable scheduler service daemon",
    "submit": "submit a job to the scheduler service",
    "status": "show scheduler-service job status",
    "cancel": "cancel a queued scheduler-service job",
    "drain": "stop the scheduler service daemon cleanly",
}

#: Subcommands that translate to a harness flag taking a value
#: (``repro figure 9`` -> ``--figure 9``).
_HARNESS_VALUE_COMMANDS = ("figure", "experiment", "run", "tenants")
#: Subcommands that translate to a bare harness flag.
_HARNESS_FLAG_COMMANDS = ("list", "all")
_SERVICE_COMMANDS = ("serve", "submit", "status", "cancel", "drain")


def _usage() -> str:
    lines = ["usage: python -m repro SUBCOMMAND [options]", "",
             "subcommands:"]
    width = max(len(name) for name in _SUBCOMMANDS)
    lines.extend(f"  {name:<{width}}  {help_text}"
                 for name, help_text in _SUBCOMMANDS.items())
    lines.append("")
    lines.append("run 'python -m repro SUBCOMMAND --help' for "
                 "subcommand options")
    return "\n".join(lines)


def _dispatch(command: str, rest: List[str]) -> int:
    if command in _HARNESS_VALUE_COMMANDS:
        from repro.harness.cli import main as harness_main

        if not rest or rest[0].startswith("-"):
            print(f"error: 'repro {command}' needs a value "
                  f"(e.g. python -m repro {command} "
                  f"{'9' if command in ('figure', 'experiment') else 'CC'})",
                  file=sys.stderr)
            return 2
        return harness_main([f"--{command}", rest[0], *rest[1:]])
    if command in _HARNESS_FLAG_COMMANDS:
        from repro.harness.cli import main as harness_main

        return harness_main([f"--{command}", *rest])
    if command == "fleet":
        from repro.fleet.cli import main as fleet_main

        return fleet_main(rest)
    if command in _SERVICE_COMMANDS:
        from repro.service.cli import main as service_main

        return service_main([command, *rest])
    raise AssertionError(f"unrouted subcommand {command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    command, rest = args[0], args[1:]
    if command not in _SUBCOMMANDS:
        suggestions = closest_names(command, list(_SUBCOMMANDS))
        hint = (f" (did you mean: {', '.join(suggestions)}?)"
                if suggestions else "")
        print(f"error: unknown subcommand {command!r}{hint}\n",
              file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2
    try:
        return _dispatch(command, rest)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
