#!/usr/bin/env python3
"""Record the default-seed reference outputs that ``checks`` compares against.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted: it overwrites
``perfbench/reference/``.  The outputs must first pass every
reference-free invariant.  Every 50th sweep row and every cat state are kept.
"""

from __future__ import annotations

import json
import sys

import checks
import run

SWEEP_STRIDE = 50


def main() -> int:
    run.RUN_DIR.mkdir(exist_ok=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    recorded = {"seed": run.DEFAULT_SEED, "src_sha256": run.src_digest()}

    sweep = run.SweepGrid(run.DEFAULT_SEED, use_reference=False)
    cat = run.CatState(run.DEFAULT_SEED, use_reference=False)
    outcomes = {"sweep-grid": sweep.run(), "cat-state": cat.run()}
    for name, outcome in outcomes.items():
        if outcome.failed:
            print(f"{name}: outputs fail the invariants: {outcome.problems}", file=sys.stderr)
            return 1

    _, rows = checks.parse_sweep(sweep.out.read_text())
    kept = [[int(i), [float(v) for v in rows[i]]] for i in range(0, len(rows), SWEEP_STRIDE)]
    documents = {
        "sweep-grid": dict(recorded, argv=sweep.argv[:-2], rows=kept),
        "cat-state": dict(recorded, points=cat.points, states=[
            {key: result[key] for key in ("sigma", "branches", "qrdm", "pairs")}
            for result in cat.results
        ]),
    }
    for name, document in documents.items():
        (run.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(document) + "\n")
        print(f"wrote {run.REFERENCE_DIR / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
