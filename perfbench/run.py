#!/usr/bin/env python3
"""Benchmark of the sgipair calculator: three workloads, end-to-end and per-layer.

Run it from the root of a source checkout (it needs ``src/sgipair``):

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads (each stresses a different layer; see README.md):

* ``sweep-grid``  one ``sgipair sweep`` call over a seeded 10,000-point
  (g, s, gamma_x) grid: the closed forms in ``dynamics`` and
  ``entanglement`` plus CSV output in ``cli``.
* ``verify-full`` one ``sgipair verify --level full --json-out`` call: the
  moment and Fock oracles.
* ``cat-state``   in-process library calls, one child process per pass over
  48 seeded points: ``evolve_cat_state`` plus 16
  ``branch_pair_phase_contrast`` per point (adaptive memory integrals).

The load is a closed loop with one client: one child process at a time, each
started after the previous one ended, with BLAS/OpenMP pinned to one thread.
Children get a minimal environment and only the generated arguments or point
files.  With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds``; with ``--trace 1`` it runs one traced pass and reports the
per-layer metrics of ``layers.py``.  Every output is checked
(``checks.py``); the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
REFERENCE_DIR = HERE / "reference"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
DEFAULT_SEED = 0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# A run must end within 180 s; children still running at this point are killed.
DEADLINE_S = 170.0

_START = time.perf_counter()


def remaining_s() -> float:
    return DEADLINE_S - (time.perf_counter() - _START)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


@dataclass
class Child:
    code: int | None  # None when killed at the deadline
    wall_s: float
    stderr: str

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {self.code}: {tail[0][:300]}"


def spawn(args: list[str]) -> Child:
    """Run ``python3 ARGS`` to completion and time it from start to exit."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC)}
    env.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))
    killed = []
    with open(RUN_DIR / "child-stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )

        def kill() -> None:
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(remaining_s(), 1.0), kill)
        timer.start()
        code = proc.wait()
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        err.seek(0)
        return Child(None if killed else code, wall, err.read())


def child_args(work: list[str], spans: Path | None) -> list[str]:
    """Arguments of a child doing ``work`` (``cli ARG...`` or ``cat IN OUT``).

    With ``spans`` the child traces the work and writes its spans there.
    Untraced CLI work runs as ``python3 -m sgipair.cli``, like the installed
    ``sgipair`` command.
    """
    if spans is not None:
        return [str(HERE / "child.py"), "trace", str(spans), *work]
    if work[0] == "cli":
        return ["-m", "sgipair.cli", *work[1:]]
    return [str(HERE / "child.py"), *work]


def peak_rss_mb() -> float:
    """Largest resident set of any child so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


@dataclass
class Pass:
    """One pass over a workload: its wall time and per-operation outcomes."""

    wall_s: float
    latencies: list[float]
    problems: list[list[str]]  # one list per operation; empty means correct
    items: int  # items completed by correct operations

    @property
    def failed(self) -> int:
        return sum(1 for found in self.problems if found)


def load_reference(name: str):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


class SweepGrid:
    name = "sweep-grid"
    module = "sgipair.cli"

    def __init__(self, seed: int, use_reference: bool = True):
        self.axes = workloads.sweep_axes(seed)
        self.out = RUN_DIR / "sweep.csv"
        self.argv = workloads.sweep_argv(seed, str(self.out))
        use = use_reference and seed == DEFAULT_SEED
        self.reference = load_reference(self.name) if use else None
        self.items = workloads.sweep_points()

    def run(self, spans: Path | None = None) -> Pass:
        self.out.unlink(missing_ok=True)
        child = spawn(child_args(["cli", *self.argv], spans))
        if child.code != 0:
            problems = [child.describe()]
        else:
            problems = checks.check_sweep(self.out.read_text(), self.axes, self.reference)
        return Pass(child.wall_s, [child.wall_s], [problems], 0 if problems else self.items)


class VerifyFull:
    name = "verify-full"
    module = "sgipair.cli"
    # Oracle cases of one call: 4 moment-equation cases and 2 Fock runs.
    items = 6

    def __init__(self, seed: int):
        self.json_out = RUN_DIR / "verify.json"
        self.text_out = RUN_DIR / "verify.txt"
        self.argv = workloads.verify_argv(str(self.json_out), str(self.text_out))

    def run(self, spans: Path | None = None) -> Pass:
        self.json_out.unlink(missing_ok=True)
        child = spawn(child_args(["cli", *self.argv], spans))
        problems = checks.check_verify(child.code, self.json_out)
        return Pass(child.wall_s, [child.wall_s], [problems], 0 if problems else self.items)


class CatState:
    name = "cat-state"
    module = "sgipair.dynamics"

    def __init__(self, seed: int, use_reference: bool = True):
        self.points = workloads.cat_points(seed)
        self.points_path = RUN_DIR / "cat-points.json"
        self.points_path.write_text(json.dumps(self.points))
        self.results_path = RUN_DIR / "cat-results.json"
        use = use_reference and seed == DEFAULT_SEED
        self.reference = load_reference(self.name)["states"] if use else None
        self.results: list[dict] = []

    def run(self, spans: Path | None = None) -> Pass:
        self.results_path.unlink(missing_ok=True)
        child = spawn(child_args(["cat", str(self.points_path), str(self.results_path)], spans))
        if child.code != 0:
            return Pass(child.wall_s, [], [[child.describe()]] * len(self.points), 0)
        self.results = json.loads(self.results_path.read_text())
        if len(self.results) != len(self.points):
            return Pass(child.wall_s, [], [["wrong number of results"]] * len(self.points), 0)
        problems = [
            checks.check_cat_state(result, self.reference[k] if self.reference else None)
            for k, result in enumerate(self.results)
        ]
        latencies = [result["latency_s"] for result in self.results]
        return Pass(child.wall_s, latencies, problems, sum(1 for p in problems if not p))


WORKLOADS = {cls.name: cls for cls in (SweepGrid, VerifyFull, CatState)}


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def tail_latency(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile has ten beyond it, and the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    """End-to-end metrics: set-up repeats, then passes for ``seconds``."""
    setup = [spawn(["-c", f"import {workload.module}"]) for _ in range(SETUP_REPEATS)]
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start < seconds and remaining_s() > 2.0 * passes[-1].wall_s
    ):
        passes.append(workload.run())
    walls = [p.wall_s for p in passes]
    latencies = [x for p in passes for x in p.latencies] or walls
    tail, percentile = tail_latency(latencies)
    attempted = sum(len(p.problems) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": statistics.median(c.wall_s for c in setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing {workload.module}",
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_s": f"n={len(latencies)}",
        "op_tail_s": f"p{percentile:.1f}, n={len(latencies)}"
        + (" (maximum: fewer than 11 samples)" if len(latencies) <= 10 else ""),
        "items_per_s": "median over passes of correct items / pass wall time",
        "peak_rss_mb": "largest resident set of any child process",
    }
    lines = [f"{name} = {metrics[name]!r} {UNITS[name]}  ({notes[name]})" for name in metrics]
    lines.append(f"failed_ratio = {failed}/{attempted} = {failed / attempted!r}")
    return metrics, passes, lines + _problem_lines(passes, setup)


def import_times() -> dict[str, float]:
    """Median cumulative import time of sgipair.cli and scipy.integrate (-X importtime)."""
    cli, integrate = [], []
    for _ in range(IMPORTTIME_REPEATS):
        child = spawn(["-X", "importtime", "-c", "import sgipair.cli"])
        total = scipy_integrate = 0.0
        for line in child.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative_s = int(fields[1]) / 1e6
            name = fields[2][1:]
            if name in ("sgipair", "sgipair.cli"):  # top level: not indented
                total += cumulative_s
            if name.strip() == "scipy.integrate":
                scipy_integrate = cumulative_s
        cli.append(total)
        integrate.append(scipy_integrate)
    return {"cli": statistics.median(cli), "scipy_integrate": statistics.median(integrate)}


def trace(workload) -> tuple[dict, list[Pass], list[str]]:
    """Per-layer metrics from one traced pass of the workload."""
    imports = import_times()
    spans_path = RUN_DIR / f"spans-{workload.name}.json"
    spans_path.unlink(missing_ok=True)
    traced = workload.run(spans=spans_path)
    if spans_path.exists():
        doc = json.loads(spans_path.read_text())
    else:
        doc = {"names": [], "name": [], "parent": [], "start_ns": [], "end_ns": [],
               "events": [], "overhead_ns": 0}
    for event in doc["events"]:
        index = event["span"]
        event["seconds"] = (doc["end_ns"][index] - doc["start_ns"][index]) / 1e9
    overhead = doc["overhead_ns"] / 1e9
    metrics = layers.layer_metrics(tracing.summarize(doc), doc["events"], imports, overhead)
    lines = [
        f"traced pass wall_s = {traced.wall_s!r} s",
        "wait time: none recorded; the program is one thread with no queue",
    ]
    for name, unit, _, moves, where in layers.LAYERS:
        lines.append(f"{name} = {metrics[name]!r} {unit}  (should move {moves} on {where})")
    return metrics, [traced], lines + _problem_lines([traced], [])


def _problem_lines(passes: list[Pass], setup: list[Child]) -> list[str]:
    lines = [f"FAILED set-up: {c.describe()}" for c in setup if c.code != 0]
    for p in passes:
        for k, found in enumerate(p.problems):
            lines += [f"FAILED operation {k}: {problem}" for problem in found]
    return lines


# --------------------------------------------------------------------------
# Header and self-test
# --------------------------------------------------------------------------


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def header(args: argparse.Namespace) -> list[str]:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return [
        f"cpu: {cpu}",
        f"nproc: {os.cpu_count()}",
        f"python: {platform.python_version()}  numpy: {numpy.__version__}  scipy: {scipy.__version__}",
        f"git commit: {git_commit()}",
        f"src sha256: {src_digest()}",
        f"blas/openmp threads: {BLAS_THREADS} ({', '.join(THREAD_VARS)})",
        "mode: self-test"
        if args.self_test
        else f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}",
        "load: closed loop, one client, one child process at a time",
    ]


# The coupling shift ``sgipair verify --negative-control`` applies.
G_SHIFT = 1e-3


def _shifted_sweep_row(row) -> list[float]:
    """One sweep row recomputed by ``sgipair qrdm`` with g shifted by G_SHIFT.

    The parameter columns keep their grid values, as under the negative
    control, which shifts only the coupling the closed forms use.
    """
    col = {name: float(row[index]) for name, index in checks.COLUMNS.items()}
    report = RUN_DIR / "shifted-row.txt"
    options = {"fq": "f_q", "s": "s", "np": "n_p", "gamma-x": "gamma_x", "gamma-z": "gamma_z", "tau": "tau"}
    argv = ["-m", "sgipair.cli", "qrdm", "--negativity", "exact", "--g", repr(col["g"] + G_SHIFT)]
    for option, name in options.items():
        argv += [f"--{option}", repr(col[name])]
    child = spawn(argv + ["--out", str(report)])
    if child.code != 0:
        raise RuntimeError(f"sgipair qrdm failed: {child.describe()}")
    values = {}
    for line in report.read_text().splitlines():
        key, _, value = line.strip().partition(": ")
        values.setdefault(key, value)
    shifted = dict(col, phi=float(values["phase"]))
    for name in ("c_s_np_1", "c_s_np_2", "c_gamma_1", "c_gamma_2", "c_z"):
        shifted[name] = float(values[name])
    shifted["neg_exact"] = shifted["negativity"] = float(values["exact"])
    shifted["neg_closed"] = float(values["closed_form"])
    shifted["neg_witness"] = float(values["witness_trace"])
    return [shifted[name] for name in checks.SWEEP_HEADER]


def self_test() -> tuple[int, int, list[str]]:
    """Wrong outputs, made on purpose, that the checks must count as failed.

    The three wrong operations mimic ``verify --negative-control``: a sweep
    row and a cat state recomputed with the coupling shifted by G_SHIFT at
    the same point, and that negative-control run itself.  Returns (correct
    operations that failed, wrong operations caught, report lines).
    """
    lines, clean_failures, caught = [], 0, 0

    sweep = SweepGrid(DEFAULT_SEED)
    clean_failures += sweep.run().failed
    _, rows = checks.parse_sweep(sweep.out.read_text())
    neg_exact = checks.COLUMNS["neg_exact"]
    target = next(i for i, _ in sweep.reference["rows"] if rows[i, neg_exact] > 0.0)
    rows[target] = _shifted_sweep_row(rows[target])
    text = ",".join(checks.SWEEP_HEADER) + "\n"
    text += "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    found = checks.check_sweep(text, sweep.axes, sweep.reference)
    caught += bool(found)
    lines.append(f"sweep row {target} at g + {G_SHIFT}: {found or 'NOT CAUGHT'}")

    json_out = RUN_DIR / "negative-control.json"
    json_out.unlink(missing_ok=True)
    child = spawn(
        ["-m", "sgipair.cli", "verify", "--level", "fast", "--negative-control",
         "--json-out", str(json_out), "--out", str(RUN_DIR / "negative-control.txt")]
    )
    found = checks.check_verify(child.code, json_out)
    caught += bool(found)
    lines.append(f"verify --level fast --negative-control: {found or 'NOT CAUGHT'}")

    cat = CatState(DEFAULT_SEED)
    clean_failures += cat.run().failed
    reference = cat.reference[0]
    cat.points_path.write_text(json.dumps([dict(cat.points[0], g=cat.points[0]["g"] + G_SHIFT)]))
    cat.points, cat.reference = cat.points[:1], None
    shifted = cat.run()
    if shifted.failed:
        raise RuntimeError(f"shifted cat state fails its invariants: {shifted.problems[0]}")
    found = checks.check_cat_state(cat.results[0], reference)
    caught += bool(found)
    lines.append(f"cat state 0 at g + {G_SHIFT}: {found or 'NOT CAUGHT'}")
    lines.append(f"correct operations that failed: {clean_failures}")
    return clean_failures, caught, lines


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="sweep-grid")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test", action="store_true", help="check that the checks catch wrong outputs"
    )
    args = parser.parse_args(argv)
    if not (SRC / "sgipair" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'sgipair'} not found; run from a source checkout", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)

    for line in header(args):
        print(f"# {line}")
    if args.self_test:
        clean_failures, caught, lines = self_test()
        print("\n".join(lines))
        result = {"correct": clean_failures == 0 and caught == 3, "attempted": 3,
                  "failed": caught, "metrics": {}}
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, passes, lines = trace(workload)
        units = layers.UNITS
    else:
        metrics, passes, lines = measure(workload, args.seconds)
        units = UNITS
    print("\n".join(lines))
    attempted = sum(len(p.problems) for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
