"""Per-layer metrics of the traced run and the end-to-end metric each should move.

Each row is (metric, unit, better, moves, workload).  ``moves`` names the
end-to-end metric a change to that layer should move, and ``workload`` the
workload where it should show; on the other workloads the prediction is no
change.  A layer a workload never reaches reads 0 there.  Step counts are
computed from what the oracle returns (``MomentTrajectories.step``) and from
its inputs (``FockProblem`` grid and dt), not counted inside the program.
"""

from __future__ import annotations

import math

from workloads import MOMENT_CASES

# Qubit-sector blocks the diffusive Fock path integrates: entries (row, col)
# of the 4x4 QRDM with row <= col.
FOCK_BLOCKS = 10

_ALL = "all"
_SWEEP, _VERIFY, _CAT = "sweep-grid", "verify-full", "cat-state"


def _timed(span: str, moves: str, workload: str, time_key: str = "s") -> list[tuple]:
    return [
        (f"{span}.calls", "count", "lower", moves, workload),
        (f"{span}.{time_key}", "s", "lower", moves, workload),
    ]


LAYERS: list[tuple[str, str, str, str, str]] = [
    ("cli.import_s", "s", "lower", "setup_s", _ALL),
    ("cli.import.scipy_integrate_s", "s", "lower", "setup_s", _ALL),
    *_timed("cli.main", "wall_s", _SWEEP, "self_s"),
    *_timed("cli.run_sweep", "wall_s", _SWEEP),
    *_timed("potentials.UnitlessParams", "items_per_s", _SWEEP),
    *_timed("design.required_force", "items_per_s", _SWEEP),
    ("phase_space.mode_frequency.calls", "count", "lower", "items_per_s", _SWEEP),
    *_timed("dynamics.open_qrdm", "items_per_s", _SWEEP),
    *_timed("entanglement.evaluate_negativity", "items_per_s", _SWEEP),
    *_timed("entanglement.witness_operator", "items_per_s", _SWEEP),
    *_timed("entanglement.partial_transpose", "items_per_s", _SWEEP),
    *_timed("dynamics.evolve_cat_state", "op_p50_s", _CAT),
    *_timed("dynamics.general_first_moments", "op_p50_s", _CAT),
    *_timed("dynamics.branch_pair_phase_contrast", "op_p50_s", _CAT),
    ("phase_space.propagator.calls", "count", "lower", "op_p50_s", _CAT),
    *_timed("phase_space.lyapunov_integral", "op_p50_s", _CAT),
    *[
        (f"oracle.integrate_moments.{case}.s", "s", "lower", "wall_s", _VERIFY)
        for case in MOMENT_CASES
    ],
    ("oracle.moment_rk4_steps", "count", "lower", "wall_s", _VERIFY),
    ("oracle.moment_halvings", "count", "lower", "wall_s", _VERIFY),
    ("oracle.moment_useful_ratio", "ratio", "higher", "wall_s", _VERIFY),
    ("oracle.fock_propagate.pure.s", "s", "lower", "wall_s", _VERIFY),
    ("oracle.fock_propagate.diffusive.s", "s", "lower", "wall_s", _VERIFY),
    ("oracle.fock_rk4_steps", "count", "lower", "wall_s", _VERIFY),
    ("oracle.fock_leakage", "1", "lower", "wall_s", _VERIFY),
    ("oracle.fock_trace_error", "1", "lower", "wall_s", _VERIFY),
    ("dynamics.branch_trajectories.calls", "count", "lower", "none", _VERIFY),
    ("phase_space.evolve_covariance.calls", "count", "lower", "none", _VERIFY),
    ("trace.spans", "count", "lower", "none", _ALL),
    ("trace.overhead_s", "s", "lower", "none", _ALL),
]

UNITS = {name: unit for name, unit, *_ in LAYERS}


def _steps(grid: list[float], dt: float) -> int:
    """RK4 steps the oracle takes over a sample grid at nominal step dt."""
    return sum(max(1, math.ceil((b - a) / dt)) for a, b in zip(grid, grid[1:]))


def layer_metrics(
    spans: dict[str, tuple[int, float, float]],
    events: list[dict],
    imports: dict[str, float],
    overhead_s: float,
) -> dict[str, float]:
    """Values of every LAYERS metric from one traced pass.

    ``events`` are the tracer's oracle events, each with the ``seconds`` of
    its span added.
    """
    values: dict[str, float] = {
        "cli.import_s": imports["cli"],
        "cli.import.scipy_integrate_s": imports["scipy_integrate"],
        "trace.spans": sum(calls for calls, _, _ in spans.values()),
        "trace.overhead_s": overhead_s,
    }
    for name, *_ in LAYERS:
        if name in values or name.startswith("oracle."):
            continue
        span, _, field = name.rpartition(".")
        calls, total, own = spans.get(span, (0, 0.0, 0.0))
        values[name] = {"calls": calls, "s": total, "self_s": own}[field]

    moments = [e for e in events if e["kind"] == "moments"]
    fock = [e for e in events if e["kind"] == "fock"]
    for case in MOMENT_CASES:
        values[f"oracle.integrate_moments.{case}.s"] = 0.0
    total_steps = useful_steps = halvings = 0
    for case, event in zip(MOMENT_CASES, moments):
        values[f"oracle.integrate_moments.{case}.s"] = event["seconds"]
    for event in moments:
        final = _steps(event["grid"], event["step"])
        rungs = round(math.log2(event["dt"] / event["step"]))
        halvings += rungs
        useful_steps += final
        total_steps += sum(_steps(event["grid"], event["dt"] / 2**k) for k in range(rungs + 1))
    values["oracle.moment_rk4_steps"] = total_steps
    values["oracle.moment_halvings"] = halvings
    values["oracle.moment_useful_ratio"] = useful_steps / total_steps if total_steps else 0.0

    values["oracle.fock_propagate.pure.s"] = sum(e["seconds"] for e in fock if e["pure"]) + 0.0
    values["oracle.fock_propagate.diffusive.s"] = sum(
        e["seconds"] for e in fock if not e["pure"]
    ) + 0.0
    values["oracle.fock_rk4_steps"] = sum(
        FOCK_BLOCKS * _steps(e["grid"], e["dt"]) for e in fock if not e["pure"]
    )
    values["oracle.fock_leakage"] = max((e["leakage"] for e in fock), default=0.0)
    values["oracle.fock_trace_error"] = max((e["trace_error"] for e in fock), default=0.0)
    return {name: values[name] for name, *_ in LAYERS}
