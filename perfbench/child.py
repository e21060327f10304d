"""Child process of the benchmark.

    python3 perfbench/child.py cat POINTS.json RESULTS.json
    python3 perfbench/child.py trace SPANS.json cat POINTS.json RESULTS.json
    python3 perfbench/child.py trace SPANS.json cli ARG...

``cat`` evolves one Gaussian cat state per point and evaluates the 16
branch-pair phases and contrasts, timing each point.  ``trace`` first wraps
sgipair's public callables (see ``tracing``), runs the same work, and writes
the spans when it ends.  ``cli`` work is ``sgipair.cli.main(ARG...)``, the
in-process form of one ``sgipair`` command.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

PARAMS = ("f_q", "g", "s", "n_p", "gamma_x", "gamma_z")


def _pairs(z) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in z]


def run_cat(points_path: str, results_path: str) -> int:
    from sgipair import dynamics
    from sgipair.potentials import UnitlessParams

    points = json.loads(Path(points_path).read_text())
    labels = [dynamics.BranchLabel.from_bits(row, col) for row in range(4) for col in range(4)]
    results = []
    for point in points:
        start = time.perf_counter()
        try:
            params = UnitlessParams(**{key: point[key] for key in PARAMS})
            tau = point["tau"]
            state = dynamics.evolve_cat_state(dynamics.initial_cat_state(params), params, tau)
            pairs = [dynamics.branch_pair_phase_contrast(label, params, tau) for label in labels]
        except Exception as exc:  # one failed point must not hide the others
            results.append({"latency_s": time.perf_counter() - start, "error": repr(exc)})
            continue
        latency = time.perf_counter() - start
        results.append(
            {
                "latency_s": latency,
                "sigma": [float(v) for v in state.sigma.ravel()],
                "branches": _pairs(
                    z for label in labels for z in state.branches[label].vector
                ),
                "qrdm": _pairs(state.qrdm.ravel()),
                "pairs": [[float(phase), float(contrast)] for phase, contrast in pairs],
            }
        )
    Path(results_path).write_text(json.dumps(results))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cat":
        return run_cat(*argv[1:3])
    if argv[0] != "trace":
        raise SystemExit(f"unknown child mode {argv[0]!r}")
    import sgipair  # noqa: F401  (load the modules before wrapping them)
    import tracing

    spans_path, work, rest = argv[1], argv[2], argv[3:]
    if work == "cli":
        from sgipair import cli
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(rest) if work == "cli" else run_cat(*rest[:2])
    finally:
        tracer.write(Path(spans_path))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
