#!/usr/bin/env python3
"""Record the reference digests every benchmark pass is checked against.

    python3 perfbench/record_reference.py

Runs each workload once, untraced, and writes ``perfbench/reference.json``.
The grad-audit report depends on its seed, so it is recorded for every seed
the benchmark maps ``--seed`` onto.  Re-record only in a change that alters
the counters, statuses or reports on purpose, and show the diff.
"""

import json
import sys

from run import AUDIT_SEEDS, REFERENCE, WORKLOADS, import_cglab, run_pass, workload_argv


def _digests(name: str, seed: int) -> dict:
    res = run_pass(name, workload_argv(name, seed, None))
    if res.rc != 0:
        raise SystemExit(f"{name} (seed {seed}) exited {res.rc}")
    return res.digests


def main() -> int:
    import_cglab()
    reference = {}
    for name in WORKLOADS:
        if name == "grad-audit":
            reference[name] = {str(s): _digests(name, s) for s in range(AUDIT_SEEDS)}
        else:
            reference[name] = _digests(name, 0)
        print(name, "recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
