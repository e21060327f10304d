"""The benchmark's default-seed output checks, run in process on the current program.

``perfbench/checks.py`` holds the checks that every benchmark pass applies to the
program's output, and ``perfbench/reference/`` the values recorded for the default
seed.  Here the recorded cat-state points and sweep arguments are run through the
benchmark's own cat-state child and ``sgipair.cli.main``, so a change that the
benchmark would refuse as wrong output fails the suite first.  The outputs go to a
temporary directory.
"""

import importlib.util
import json
from pathlib import Path

from sgipair import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """The module ``perfbench/<name>.py``, loaded under its own name with a prefix."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, child, workloads = (_load(name) for name in ("checks", "child", "workloads"))


def _reference(name: str) -> dict:
    return json.loads((PERFBENCH / "reference" / f"{name}.json").read_text())


def test_recorded_cat_state_points_pass_the_benchmark_checks(tmp_path):
    reference = _reference("cat-state")
    points, results = tmp_path / "points.json", tmp_path / "results.json"
    points.write_text(json.dumps(reference["points"]))
    assert child.run_cat(str(points), str(results)) == 0
    states = json.loads(results.read_text())
    assert len(states) == len(reference["states"]) == 48
    problems = [
        (k, problem)
        for k, (state, expected) in enumerate(zip(states, reference["states"]))
        for problem in checks.check_cat_state(state, expected)
    ]
    assert problems == []


def test_recorded_sweep_passes_the_benchmark_checks(tmp_path):
    reference = _reference("sweep-grid")
    out = tmp_path / "sweep.csv"
    argv = workloads.sweep_argv(reference["seed"], str(out))
    assert argv == [*reference["argv"], "--out", str(out)]
    assert cli.main(argv) == 0
    axes = workloads.sweep_axes(reference["seed"])
    assert checks.check_sweep(out.read_text(), axes, reference) == []
