"""Record exact-mode golden fingerprints into tests/goldens/.

The golden file pins the byte-stable reference semantics of the
simulator: sha256 fingerprints of EAS suite runs, alpha sweeps, a chaos
campaign, a small fleet dispatch, and multiprogram co-runs, all under
``tick_mode="exact"``.  ``tests/soc/test_golden_regression.py`` fails
with a readable diff when any entry drifts; the fast clock mode is
held to these same references by the differential sweep.

Usage::

    PYTHONPATH=src python tools/record_goldens.py [--entry NAME ...]

Re-recording is a deliberate act: only run this when an *intentional*
simulation-semantics change has been reviewed, and say so in the
commit message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.harness.diff import (  # noqa: E402
    collect_exact_fingerprints,
    exact_fingerprint_entries,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "tests",
                           "goldens", "exact_mode.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entry", action="append", default=None,
                        help="record only the named entries "
                             "(default: every known entry)")
    parser.add_argument("--output", default=GOLDEN_PATH)
    args = parser.parse_args(argv)

    entries = args.entry or exact_fingerprint_entries()
    existing = {}
    if os.path.exists(args.output):
        with open(args.output) as fh:
            existing = json.load(fh).get("fingerprints", {})

    fingerprints = dict(existing)
    for entry in entries:
        started = time.perf_counter()
        fingerprints[entry] = collect_exact_fingerprints([entry])[entry]
        status = ""
        if entry in existing and existing[entry] != fingerprints[entry]:
            status = "  (CHANGED)"
        print(f"{entry}: {fingerprints[entry][:16]}... "
              f"[{time.perf_counter() - started:.1f}s]{status}")

    payload = {
        "comment": ("Exact-mode golden fingerprints. Regenerate with "
                    "tools/record_goldens.py only for reviewed, "
                    "intentional simulation-semantics changes."),
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    os.makedirs(os.path.dirname(args.output), exist_ok=True)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fingerprints)} fingerprints to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
