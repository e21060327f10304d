"""Batch command-line interface emitting plot-ready, deterministic data files.

Subcommands: ``sweep`` (parameter grids of phase, contrasts, and all three
negativities), ``trajectories`` (the four interferometric paths), ``qrdm``
and ``negativity`` (single-point reports), ``expand`` (potential expansion
coefficients), ``bounds`` (coupling and mass windows), and ``verify`` (the
oracle comparison suites, with a nonzero exit code on any failure).

Grids and trajectories are comma-separated with '#'-prefixed metadata and
17-significant-digit floats, so identical invocations produce byte-identical
files; reports are flat key-value text.  A sweep evaluates the closed forms
once on whole grid columns, through the same functions as the single-point
reports, so ``--workers`` is accepted as a no-op.  All computation is
deterministic (there is no random number generator anywhere), so
``--seedless`` is accepted as a no-op for interface compatibility.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, design, dynamics, entanglement, oracle
from .phase_space import final_time
from .potentials import (
    UnitlessParams,
    expand_potential,
    load_physical_config,
    nv_map,
    nv_params_from_config,
    potential_spec,
    read_key_values,
    table_coupling,
    to_unitless,
)

__all__ = ["main", "SweepSpec", "run_sweep"]

_AXIS_PARAMS = ("f_q", "g", "s", "n_p", "gamma_x", "gamma_z")


# --------------------------------------------------------------------------
# Output helpers
# --------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_text(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _csv_document(metadata: dict[str, str], header: list[str], rows) -> str:
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _report_document(title: str, tree: dict) -> str:
    lines = [f"{title}:"]

    def emit(node: dict, indent: int) -> None:
        pad = "  " * indent
        for key, value in node.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                emit(value, indent + 1)
            elif isinstance(value, float):
                lines.append(f"{pad}{key}: {_fmt(value)}")
            else:
                lines.append(f"{pad}{key}: {value}")

    emit(tree, 1)
    return "\n".join(lines) + "\n"


def _resolve_tau(selector: str, g: float) -> float:
    if selector == "final":
        return final_time(g)
    if selector == "2pi":
        return 2.0 * math.pi
    return float(selector)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    points: int
    log: bool = False

    def values(self) -> np.ndarray:
        if self.points < 2:
            raise ValueError(f"axis {self.name}: points must be >= 2")
        if self.log:
            if self.start <= 0.0 or self.stop <= 0.0:
                raise ValueError(f"axis {self.name}: log axis needs positive bounds")
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    @classmethod
    def parse(cls, text: str) -> "SweepAxis":
        parts = text.split(":")
        if len(parts) not in (4, 5):
            raise ValueError(
                f"axis {text!r}: expected name:min:max:points[:log|:linear]"
            )
        name = parts[0]
        if name not in _AXIS_PARAMS:
            raise ValueError(f"axis {text!r}: unknown parameter (use {_AXIS_PARAMS})")
        log = len(parts) == 5 and parts[4] == "log"
        if len(parts) == 5 and parts[4] not in ("log", "linear"):
            raise ValueError(f"axis {text!r}: scale must be 'log' or 'linear'")
        return cls(
            name=name,
            start=float(parts[1]),
            stop=float(parts[2]),
            points=int(parts[3]),
            log=log,
        )


@dataclass(frozen=True)
class SweepSpec:
    """Axes, fixed parameters, and selectors defining one sweep."""

    axes: tuple[SweepAxis, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    constraint_force: bool = False     # overrides f_q with 1/sqrt(120 g)
    tau_selector: str = "final"
    negativity_selector: str = "witness"


def run_sweep(spec: SweepSpec) -> tuple[list[str], np.ndarray]:
    """Evaluate a sweep grid as whole columns; rows are row-major over the axes.

    Every parameter column is validated before any closed form runs, so an
    out-of-domain axis fails with one error naming its first bad value.
    """
    columns = dict(spec.fixed)
    mesh = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    for axis, values in zip(spec.axes, mesh):
        columns[axis.name] = values.ravel()
    g = columns["g"]
    f_q = design.required_force(g) if spec.constraint_force else columns.get("f_q", 0.0)
    params = UnitlessParams(
        f_q=f_q,
        g=g,
        s=columns.get("s", 1.0),
        n_p=columns.get("n_p", 0.0),
        gamma_x=columns.get("gamma_x", 0.0),
        gamma_z=columns.get("gamma_z", 0.0),
    )
    tau = _resolve_tau(spec.tau_selector, g)
    rho, contrasts, phase = dynamics.open_qrdm(params, tau)
    result = entanglement.evaluate_negativity(rho, phase, contrasts)
    table = {
        "f_q": params.f_q,
        "g": params.g,
        "s": params.s,
        "n_p": params.n_p,
        "gamma_x": params.gamma_x,
        "gamma_z": params.gamma_z,
        "tau": tau,
        "phi": phase,
        "c_s_np_1": contrasts.c_s_np_1,
        "c_s_np_2": contrasts.c_s_np_2,
        "c_gamma_1": contrasts.c_gamma_1,
        "c_gamma_2": contrasts.c_gamma_2,
        "c_z": contrasts.c_z,
        "neg_exact": result.exact,
        "neg_closed": result.closed_form,
        "neg_witness": result.witness_trace,
    }
    table["negativity"] = table[f"neg_{spec.negativity_selector}"]
    return list(table), np.column_stack(np.broadcast_arrays(*table.values()))


def _cmd_sweep(args: argparse.Namespace) -> int:
    axes = tuple(SweepAxis.parse(text) for text in args.axis)
    if not axes:
        raise ValueError("sweep requires at least one --axis")
    fixed = {
        "f_q": args.fq,
        "g": args.g,
        "s": args.s,
        "n_p": args.np_phonons,
        "gamma_x": args.gamma_x,
        "gamma_z": args.gamma_z,
    }
    if args.state == "ground":
        fixed["s"], fixed["n_p"] = 1.0, 0.0
    elif args.state == "thermal":
        fixed["s"] = 1.0
    spec = SweepSpec(
        axes=axes,
        fixed=fixed,
        constraint_force=args.constraint_force,
        tau_selector=args.tau,
        negativity_selector=args.negativity,
    )
    header, rows = run_sweep(spec)
    metadata = {
        "generator": f"sgipair {__version__}",
        "command": "sweep",
        "axes": ";".join(args.axis),
        "state": args.state,
        "constraint_force": str(spec.constraint_force).lower(),
        "tau": spec.tau_selector,
        "negativity": spec.negativity_selector,
    }
    _write_text(args.out, _csv_document(metadata, header, rows))
    return 0


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


def _cmd_trajectories(args: argparse.Namespace) -> int:
    tau_max = _resolve_tau(args.tau_max, args.g)
    taus = np.linspace(0.0, tau_max, args.steps)
    header = ["tau", "q1_bit", "q2_bit", "x1", "p1", "x2", "p2"]
    rows = []
    to_bit = {+1: 0, -1: 1}
    for tau in taus:
        moments = dynamics.branch_trajectories(args.fq, args.g, float(tau))
        for label in sorted(moments, key=lambda l: (to_bit[l.j], to_bit[l.m])):
            vec = moments[label].vector.real
            rows.append([tau, to_bit[label.j], to_bit[label.m], *vec])
    metadata = {
        "generator": f"sgipair {__version__}",
        "command": "trajectories",
        "f_q": _fmt(args.fq),
        "g": _fmt(args.g),
        "tau_max": _fmt(tau_max),
        "closure_time": _fmt(final_time(args.g)),
        "residual_separation": _fmt(dynamics.residual_separation(args.fq, args.g)),
    }
    _write_text(args.out, _csv_document(metadata, header, rows))
    return 0


# --------------------------------------------------------------------------
# qrdm / negativity
# --------------------------------------------------------------------------


_CONTRAST_FIELDS = (
    "c1",
    "c2",
    "c_s_np_1",
    "c_s_np_2",
    "c_gamma_1",
    "c_gamma_2",
    "c_z",
)


def _unitless_from_args(args: argparse.Namespace) -> UnitlessParams:
    if args.config is not None:
        return to_unitless(load_physical_config(args.config))
    return UnitlessParams(
        f_q=args.fq,
        g=args.g,
        s=args.s,
        n_p=args.np_phonons,
        gamma_x=args.gamma_x,
        gamma_z=args.gamma_z,
    )


def _cmd_qrdm(args: argparse.Namespace) -> int:
    params = _unitless_from_args(args)
    tau = _resolve_tau(args.tau, params.g)
    rho, contrasts, phase = dynamics.open_qrdm(params, tau)
    result = entanglement.evaluate_negativity(rho, phase, contrasts)
    selected = {
        "exact": result.exact,
        "closed": result.closed_form,
        "witness": result.witness_trace,
    }[args.negativity]
    tree = {
        "parameters": {
            "f_q": params.f_q,
            "g": params.g,
            "s": params.s,
            "n_p": params.n_p,
            "gamma_x": params.gamma_x,
            "gamma_z": params.gamma_z,
            "tau": tau,
        },
        "phase": phase,
        "contrasts": {
            name: getattr(contrasts, name)
            for name in _CONTRAST_FIELDS
        },
        "qrdm": {
            f"({r},{c})": f"{rho[r, c].real:+.17g}{rho[r, c].imag:+.17g}j"
            for r in range(4)
            for c in range(4)
        },
        "negativity": {
            "exact": result.exact,
            "closed_form": result.closed_form,
            "witness_trace": result.witness_trace,
            "lambda_min": result.lambda_min,
            "selected": args.negativity,
        },
        "verdict": "entangled" if selected > 0.0 else "no entanglement",
    }
    _write_text(args.out, _report_document("qrdm", tree))
    return 0


# --------------------------------------------------------------------------
# expand
# --------------------------------------------------------------------------


def _cmd_expand(args: argparse.Namespace) -> int:
    physical = load_physical_config(args.config)
    theta = {"linear": 0.0, "parallel": math.pi / 2.0}.get(args.theta)
    if theta is None:
        theta = float(args.theta)
    spec = potential_spec(args.kind, physical, theta)
    coeffs = expand_potential(spec, physical.M, physical.omega)
    tree = {
        "kind": args.kind,
        "theta": theta,
        "strength_A": spec.A,
        "power_n": spec.n,
        "coefficients": {
            "force": coeffs.f,
            "coupling": coeffs.g,
            "cubic": coeffs.h,
            "quartic": coeffs.p,
        },
    }
    if args.theta in ("linear", "parallel"):
        force, coupling = table_coupling(args.kind, args.theta, physical)
        tree["catalogue"] = {"force": force, "coupling": coupling}
    _write_text(args.out, _report_document("expansion", tree))
    return 0


# --------------------------------------------------------------------------
# bounds
# --------------------------------------------------------------------------


def _constrained_negativity(g: float, unitless: UnitlessParams) -> dict:
    """Full closure-time negativity at coupling g under the detection constraint.

    Sharper numeric check behind the leading-order bounds: the coupling is
    clipped into the stable open interval before evaluating.
    """
    g_eval = min(max(g, 1e-9), 0.49)
    params = UnitlessParams(
        f_q=design.required_force(g_eval),
        g=g_eval,
        s=unitless.s,
        n_p=unitless.n_p,
        gamma_x=unitless.gamma_x,
        gamma_z=unitless.gamma_z,
    )
    rho, contrasts, phase = dynamics.open_qrdm(params, final_time(g_eval))
    result = entanglement.evaluate_negativity(rho, phase, contrasts)
    return {
        "g_evaluated": g_eval,
        "exact": result.exact,
        "witness_trace": result.witness_trace,
    }


def _cmd_bounds(args: argparse.Namespace) -> int:
    physical = load_physical_config(args.config)
    unitless = to_unitless(physical)
    g_report = design.g_bounds(
        x0_over_d=physical.x0 / physical.d,
        gamma_x=unitless.gamma_x,
        s=unitless.s,
        n_p=unitless.n_p,
    )
    m_min, m_max = design.mass_bounds(physical.d, physical.omega)
    ratio, valid = design.quartic_ratio(unitless.g, physical.x0, physical.d)
    budget = design.dephasing_budget(
        unitless.gamma_z, unitless.gamma_x, unitless.f_q
    )
    tree = {
        "note": "bound formulas are leading order (order-of-magnitude)",
        "unitless": {
            "f_q": unitless.f_q,
            "g": unitless.g,
            "s": unitless.s,
            "n_p": unitless.n_p,
            "gamma_x": unitless.gamma_x,
            "gamma_z": unitless.gamma_z,
            "stable": str(unitless.stable).lower(),
        },
        "coupling_window": {
            "g_min": g_report.g_min,
            "g_min_mechanism": g_report.min_mechanism,
            "g_max": g_report.g_max,
            "g_max_mechanism": g_report.max_mechanism,
            "candidates_lower": {
                b.mechanism: b.value for b in g_report.lower_candidates
            },
            "candidates_upper": {
                b.mechanism: b.value for b in g_report.upper_candidates
            },
        },
        "mass_window_unitary_kg": {
            "M_min": m_min,
            "M_min_mechanism": "quartic validity",
            "M_max": m_max,
            "M_max_mechanism": "trap stability",
        },
        "quartic": {"ratio": ratio, "gaussian_treatment_valid": str(valid).lower()},
        "constrained_negativity_at_bounds": {
            "at_g_min": _constrained_negativity(g_report.g_min, unitless),
            "at_g_max": _constrained_negativity(g_report.g_max, unitless),
        },
        "noise_budget": {
            "budget": budget.budget,
            "total_contrast": budget.total_contrast,
            "slack": budget.slack,
            "feasible": str(budget.feasible).lower(),
        },
    }
    if physical.S_FF > 0.0 or physical.omega_t is not None:
        nm_min, nm_max = design.mass_bounds_noisy(
            physical.d,
            physical.omega,
            physical.S_FF,
            unitless.s,
            unitless.n_p,
        )
        tree["mass_window_noisy_kg"] = {
            "M_min": nm_min,
            "M_min_mechanism": "diffusion",
            "M_max": nm_max,
            "M_max_mechanism": "squeezed deflection",
        }
    nv = nv_params_from_config(read_key_values(args.config))
    if nv is not None:
        omega_nv, force_nv = nv_map(nv)
        point = design.nv_operating_point(nv, physical.d)
        tree["nv"] = {
            "omega_from_gradient": omega_nv,
            "F_q_from_gradient": force_nv,
            "constraint_gradient_T_per_m": point.dB,
            "constraint_omega": point.omega,
            "constraint_F_q": point.F_q,
            "omega_times_d": point.omega_d,
        }
    _write_text(args.out, _report_document("bounds", tree))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    g_shift = 1e-3 if args.negative_control else 0.0
    report = oracle.verify_moments(g_shift=g_shift)
    if args.level == "full":
        fock = oracle.verify_fock(g_shift=g_shift)
        report.entries.extend(fock.entries)
        report.notes.update(fock.notes)
    if args.negative_control:
        report.notes["negative-control"] = (
            "closed-form coupling shifted by 1e-3; this run must FAIL"
        )
    text = report.to_text()
    _write_text(args.out, text)
    if args.json_out is not None:
        Path(args.json_out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_unitless_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fq", type=float, default=0.0, help="qubit force f_q")
    sub.add_argument("--g", type=float, default=0.0, help="entangling coupling g")
    sub.add_argument("--s", type=float, default=1.0, help="squeezing parameter")
    sub.add_argument(
        "--np", dest="np_phonons", type=float, default=0.0, help="initial phonon number"
    )
    sub.add_argument("--gamma-x", type=float, default=0.0, help="diffusion rate")
    sub.add_argument("--gamma-z", type=float, default=0.0, help="dephasing rate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgipair",
        description="Closed-form dynamics and entanglement of two coupled SGIs",
    )
    parser.add_argument("--version", action="version", version=f"sgipair {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument(
        "--tau", default="final", help="time: 'final' (2pi/omega_g), '2pi', or a value"
    )
    common.add_argument(
        "--negativity",
        choices=("exact", "closed", "witness"),
        default="witness",
        help="which negativity a single 'negativity' column/verdict uses",
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; a sweep is evaluated as whole arrays",
    )
    common.add_argument(
        "--seedless",
        action="store_true",
        help="accepted for compatibility; all computation is deterministic",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", parents=[common], help="parameter-grid data file")
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        help="axis as name:min:max:points[:log|:linear]; repeatable",
    )
    sweep.add_argument(
        "--constraint-force",
        action="store_true",
        help="set f_q = 1/sqrt(120 g) at every grid point",
    )
    sweep.add_argument(
        "--state",
        choices=("ground", "thermal", "squeezed_thermal"),
        default="squeezed_thermal",
        help="initial-state family; ground/thermal pin s (and n_p) accordingly",
    )
    _add_unitless_options(sweep)

    traj = sub.add_parser(
        "trajectories", parents=[common], help="four interferometric paths"
    )
    traj.add_argument("--fq", type=float, required=True)
    traj.add_argument("--g", type=float, required=True)
    traj.add_argument("--tau-max", default="final")
    traj.add_argument("--steps", type=int, default=201)

    for name, help_text in (
        ("qrdm", "QRDM, phase, contrasts, and negativities at one point"),
        ("negativity", "alias of qrdm"),
    ):
        point = sub.add_parser(name, parents=[common], help=help_text)
        point.add_argument("--config", default=None, help="physical config file")
        _add_unitless_options(point)

    expand = sub.add_parser(
        "expand", parents=[common], help="potential expansion coefficients"
    )
    expand.add_argument("--config", required=True, help="physical config file")
    expand.add_argument(
        "--kind", choices=("newton", "coulomb", "casimir"), default="newton"
    )
    expand.add_argument(
        "--theta", default="parallel", help="'parallel', 'linear', or an angle in rad"
    )

    bounds = sub.add_parser(
        "bounds", parents=[common], help="coupling and mass windows"
    )
    bounds.add_argument("--config", required=True, help="physical config file")

    verify = sub.add_parser(
        "verify", parents=[common], help="oracle comparison suites"
    )
    verify.add_argument("--level", choices=("fast", "full"), default="fast")
    verify.add_argument("--json-out", default=None, help="machine-readable summary path")
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="perturb the closed-form coupling; the suite must then fail",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; out-of-domain input exits with status 2 and one error line."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "trajectories": _cmd_trajectories,
        "qrdm": _cmd_qrdm,
        "negativity": _cmd_qrdm,
        "expand": _cmd_expand,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
