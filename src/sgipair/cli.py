"""Batch command-line interface emitting plot-ready, deterministic data files.

Subcommands: ``sweep`` (parameter grids of phase, contrasts, and all three
negativities), ``trajectories`` (the four interferometric paths), ``qrdm``
(single-point report), ``expand`` (potential expansion coefficients),
``bounds`` (coupling and mass windows), and ``verify`` (the oracle
comparison suites, with a nonzero exit code on any failure).

Grids and trajectories are comma-separated with '#'-prefixed metadata and
17-significant-digit floats, so identical invocations produce byte-identical
files; reports are flat key-value text.  A sweep evaluates the closed forms
once on whole grid columns, through the same functions as the single-point
reports.  All computation is deterministic: there is no random number
generator anywhere.

Bad input exits with status 2 and one ``sgipair: error:`` line before any
work and before any output file is opened: out-of-domain parameters or
times (each named with the domain that ``potentials`` states for it),
``trajectories --steps`` below 1, an ``expand --theta`` that is not
``parallel``, ``linear`` or a finite angle, sweep axes that conflict (one
name given twice, or ``f_q`` with ``--constraint-force``), do not parse or
have a bound or span that is not finite, an ``--out`` or ``--json-out``
path that cannot be written, and a ``--config`` file that cannot be read or
holds an unknown key, a repeated key or a non-finite value (``phys.cfg:10:
M is already given on line 2``).  Config values out of float range, an
overflowing phase and a sweep grid too large for memory stop the same way
once met.  CSV columns are streamed in blocks of rows, each distinct column
and value formatted once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, design, dynamics, entanglement, oracle
from .dynamics import _PARAM_NAMES
from .phase_space import final_time
from .potentials import (
    UnitlessParams,
    _check,
    expand_potential,
    load_config,
    nv_map,
    potential_spec,
    table_coupling,
    to_unitless,
)

__all__ = ["main", "SweepSpec", "run_sweep"]

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


def _check_out_path(option: str, path: str | None) -> None:
    """Fail with one line, before any work, if ``path`` cannot be written."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"{option} {path}: is a directory")
    if not target.parent.is_dir():
        raise ValueError(f"{option} {path}: directory {target.parent} does not exist")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ValueError(f"{option} {path}: permission denied")


def _check_config_path(path: str | None) -> None:
    """Fail with one line, before any work, if the ``--config`` file cannot be read."""
    if path is None:
        return
    try:
        Path(path).open().close()
    except OSError as exc:
        raise ValueError(f"--config {path}: {exc.strerror}") from None


# Rows formatted per block: each block's text is built and written before the next.
_CSV_BLOCK_ROWS = 1024


def _format_column(column: np.ndarray) -> list[str]:
    """The '.17g' text of every entry, formatting each distinct bit pattern once.

    Bit patterns, not values, are deduplicated: -0.0 == 0.0 but prints "-0".
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    values = bits.view(np.float64).tolist()
    texts = np.array([format(value, ".17g") for value in values], dtype=object)
    return texts[inverse].tolist()


def _write_csv(out: str | None, metadata: dict[str, str], columns: dict) -> None:
    """Stream a '#'-metadata CSV of named 1-D columns to ``out`` (None or '-': stdout).

    The keys are the header, and every cell reads ``format(float(cell), ".17g")``.  The
    rows are formatted and written ``_CSV_BLOCK_ROWS`` at a time, a column given under
    two names once per block, so the text of the whole table is never held in memory.
    """
    cells = [np.asarray(column, dtype=float) for column in columns.values()]
    distinct = {id(column): column for column in cells}
    stream = sys.stdout if out is None or out == "-" else open(out, "w")
    try:
        stream.writelines(f"# {key} = {value}\n" for key, value in metadata.items())
        stream.write(",".join(columns) + "\n")
        for start in range(0, len(cells[0]), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            texts = {key: _format_column(column[block]) for key, column in distinct.items()}
            stream.write("\n".join(map(",".join, zip(*(texts[id(c)] for c in cells)))) + "\n")
    finally:
        if stream is not sys.stdout:
            stream.close()


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


def _param_values(source) -> dict:
    """The six model parameters of ``source`` by name, in ``UnitlessParams`` field order.

    ``source`` is a ``UnitlessParams`` or the parsed arguments: the names in
    ``_PARAM_NAMES`` are also the destinations of the parameter options, the
    sweep axis names and the first sweep columns.
    """
    return {name: getattr(source, name) for name in _PARAM_NAMES}


def _contrast_values(contrasts: dynamics.ContrastSet) -> dict:
    """The contrast exponents of ``contrasts`` by name, in ``ContrastSet`` field order."""
    return {item.name: getattr(contrasts, item.name) for item in fields(contrasts)}


def _resolve_tau(option: str, selector: str, g: float) -> float:
    """The time ``selector`` of ``option`` names: 'final' (2pi/omega_g), '2pi' or a number."""
    if selector == "final":
        return final_time(g)
    if selector == "2pi":
        return 2.0 * math.pi
    try:
        tau = float(selector)
    except ValueError:
        raise ValueError(f"{option}={selector!r} must be 'final', '2pi' or a number") from None
    _check("tau", tau)
    return tau


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
        if name not in _PARAM_NAMES:
            raise ValueError(f"axis {text!r}: unknown parameter (use {_PARAM_NAMES})")
        log = len(parts) == 5 and parts[4] == "log"
        if len(parts) == 5 and parts[4] not in ("log", "linear"):
            raise ValueError(f"axis {text!r}: scale must be 'log' or 'linear'")
        try:
            start, stop = float(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"axis {text!r}: min and max must be numbers") from None
        if not math.isfinite(stop - start):  # inf or NaN in either, or a span past the float range
            raise ValueError(f"axis {text!r}: min, max and max - min must be finite")
        try:
            points = int(parts[3])
        except ValueError:
            raise ValueError(f"axis {text!r}: points must be an integer") from None
        return cls(name=name, start=start, stop=stop, points=points, log=log)


@dataclass(frozen=True)
class SweepSpec:
    """Axes, fixed parameters, and selectors defining one sweep."""

    axes: tuple[SweepAxis, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    constraint_force: bool = False     # overrides f_q with 1/sqrt(120 g)
    tau_selector: str = "final"
    negativity_selector: str = "witness"

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"axis {name} is given more than once")
        if self.constraint_force and "f_q" in names:
            raise ValueError("axis f_q conflicts with --constraint-force, which sets f_q")


def run_sweep(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Sweep columns by header name, row-major over the axes; fixed values are broadcast views.

    ``negativity`` is its ``neg_*`` column itself.  Parameter columns are validated before
    any closed form runs, so an out-of-domain axis fails naming its first bad value.
    """
    columns = {"f_q": 0.0, **spec.fixed}
    mesh = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    for axis, values in zip(spec.axes, mesh):
        columns[axis.name] = values.ravel()
    if spec.constraint_force:
        columns["f_q"] = design.required_force(columns["g"])
    params = UnitlessParams(**columns)
    tau = _resolve_tau("--tau", spec.tau_selector, params.g)
    phase, contrasts = dynamics.open_phase_contrasts(params, tau)
    result = entanglement.evaluate_negativity(phase, contrasts)
    table = {
        **_param_values(params),
        "tau": tau,
        "phi": phase,
        **_contrast_values(contrasts),
        "neg_exact": result.exact,
        "neg_closed": result.closed_form,
        "neg_witness": result.witness_trace,
    }
    table = dict(zip(table, np.broadcast_arrays(*table.values())))
    return {**table, "negativity": table[f"neg_{spec.negativity_selector}"]}


def _cmd_sweep(args: argparse.Namespace) -> int:
    axes = tuple(SweepAxis.parse(text) for text in args.axis)
    if not axes:
        raise ValueError("sweep requires at least one --axis")
    spec = SweepSpec(
        axes=axes,
        fixed=_param_values(args),
        constraint_force=args.constraint_force,
        tau_selector=args.tau,
        negativity_selector=args.negativity,
    )
    try:
        columns = run_sweep(spec)
    except MemoryError:
        n_rows = math.prod(axis.points for axis in axes)
        raise ValueError(f"sweep grid of {n_rows} rows does not fit in memory") from None
    metadata = {
        "generator": f"sgipair {__version__}",
        "command": "sweep",
        "axes": ";".join(args.axis),
        "constraint_force": str(spec.constraint_force).lower(),
        "tau": spec.tau_selector,
        "negativity": spec.negativity_selector,
    }
    _write_csv(args.out, metadata, columns)
    return 0


# --------------------------------------------------------------------------
# trajectories
# --------------------------------------------------------------------------


def _cmd_trajectories(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ValueError(f"--steps={args.steps} must be >= 1")
    tau_max = _resolve_tau("--tau-max", args.tau_max, args.g)
    taus = np.linspace(0.0, tau_max, args.steps)
    moments = dynamics.branch_trajectories(args.f_q, args.g, taus)
    labels = sorted(moments, key=lambda label: label.qrdm_index)
    bits = np.tile([divmod(label.qrdm_index[0], 2) for label in labels], (len(taus), 1))
    paths = np.stack([moments[label].vector.real for label in labels], axis=-2).reshape(-1, 4)
    names = ("tau", "q1_bit", "q2_bit", "x1", "p1", "x2", "p2")
    columns = dict(zip(names, [np.repeat(taus, len(labels)), *bits.T, *paths.T]))
    metadata = {
        "generator": f"sgipair {__version__}",
        "command": "trajectories",
        "f_q": _fmt(args.f_q),
        "g": _fmt(args.g),
        "tau_max": _fmt(tau_max),
        "closure_time": _fmt(final_time(args.g)),
        "residual_separation": _fmt(dynamics.residual_separation(args.f_q, args.g)),
    }
    _write_csv(args.out, metadata, columns)
    return 0


# --------------------------------------------------------------------------
# qrdm
# --------------------------------------------------------------------------


def _unitless_from_args(args: argparse.Namespace) -> UnitlessParams:
    if args.config is not None:
        return to_unitless(load_config(args.config)[0])
    return UnitlessParams(**_param_values(args))


def _cmd_qrdm(args: argparse.Namespace) -> int:
    params = _unitless_from_args(args)
    tau = _resolve_tau("--tau", args.tau, params.g)
    rho, contrasts, phase = dynamics.open_qrdm(params, tau)
    result = entanglement.evaluate_negativity(phase, contrasts)
    selected = {
        "exact": result.exact,
        "closed": result.closed_form,
        "witness": result.witness_trace,
    }[args.negativity]
    tree = {
        "parameters": {**_param_values(params), "tau": tau},
        "phase": phase,
        "contrasts": _contrast_values(contrasts),
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
    theta = {"linear": 0.0, "parallel": math.pi / 2.0}.get(args.theta)
    if theta is None:
        try:
            theta = float(args.theta)
        except ValueError:
            theta = math.nan
        if not math.isfinite(theta):
            raise ValueError(
                f"--theta={args.theta} must be 'parallel', 'linear' or a finite angle in rad"
            )
    physical, _ = load_config(args.config)
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
    params = replace(unitless, f_q=design.required_force(g_eval), g=g_eval)
    phase, contrasts = dynamics.open_phase_contrasts(params, final_time(g_eval))
    result = entanglement.evaluate_negativity(phase, contrasts)
    return {
        "g_evaluated": g_eval,
        "exact": result.exact,
        "witness_trace": result.witness_trace,
    }


def _cmd_bounds(args: argparse.Namespace) -> int:
    physical, nv = load_config(args.config)
    x0 = physical.x0  # out of float range, this fails before the trap's stability is checked
    unitless = to_unitless(physical)
    g_report = design.g_bounds(
        x0_over_d=x0 / physical.d,
        gamma_x=unitless.gamma_x,
        s=unitless.s,
        n_p=unitless.n_p,
    )
    m_min, m_max = design.mass_bounds(physical.d, physical.omega)
    ratio, valid = design.quartic_ratio(unitless.g, x0, physical.d)
    # the budget spends the state's own single-flip exponent at closure, beside its negativity
    phase, contrasts = dynamics.open_phase_contrasts(unitless, final_time(unitless.g))
    budget = design.contrast_budget(contrasts.flip_exponents()[0])
    negativity = entanglement.evaluate_negativity(phase, contrasts)
    tree = {
        "note": "bound formulas are leading order (order-of-magnitude)",
        "unitless": _param_values(unitless),
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
            "exact_negativity": negativity.exact,
            "witness_trace": negativity.witness_trace,
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
    sub.add_argument("--fq", dest="f_q", type=float, default=0.0, help="qubit force f_q")
    sub.add_argument("--g", type=float, default=0.0, help="entangling coupling g")
    sub.add_argument("--s", type=float, default=1.0, help="squeezing parameter")
    sub.add_argument("--np", dest="n_p", type=float, default=0.0, help="initial phonon number")
    sub.add_argument("--gamma-x", type=float, default=0.0, help="diffusion rate")
    sub.add_argument("--gamma-z", type=float, default=0.0, help="dephasing rate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgipair",
        description="Closed-form dynamics and entanglement of two coupled SGIs",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"sgipair {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")

    # only the commands that evaluate the QRDM at one time read these
    selectors = argparse.ArgumentParser(add_help=False)
    selectors.add_argument(
        "--tau", default="final", help="time: 'final' (2pi/omega_g), '2pi', or a value"
    )
    selectors.add_argument(
        "--negativity",
        choices=("exact", "closed", "witness"),
        default="witness",
        help="which negativity a single 'negativity' column/verdict uses",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep",
        parents=[common, selectors],
        help="parameter-grid data file",
        allow_abbrev=False,
    )
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
    _add_unitless_options(sweep)

    traj = sub.add_parser(
        "trajectories", parents=[common], help="four interferometric paths", allow_abbrev=False
    )
    traj.add_argument("--fq", dest="f_q", type=float, required=True)
    traj.add_argument("--g", type=float, required=True)
    traj.add_argument("--tau-max", default="final")
    traj.add_argument("--steps", type=int, default=201)

    point = sub.add_parser(
        "qrdm",
        parents=[common, selectors],
        help="QRDM, phase, contrasts, and negativities at one point",
        allow_abbrev=False,
    )
    point.add_argument("--config", default=None, help="physical config file")
    _add_unitless_options(point)

    expand = sub.add_parser(
        "expand", parents=[common], help="potential expansion coefficients", allow_abbrev=False
    )
    expand.add_argument("--config", required=True, help="physical config file")
    expand.add_argument(
        "--kind", choices=("newton", "coulomb", "casimir"), default="newton"
    )
    expand.add_argument(
        "--theta", default="parallel", help="'parallel', 'linear', or an angle in rad"
    )

    bounds = sub.add_parser(
        "bounds", parents=[common], help="coupling and mass windows", allow_abbrev=False
    )
    bounds.add_argument("--config", required=True, help="physical config file")

    verify = sub.add_parser(
        "verify", parents=[common], help="oracle comparison suites", allow_abbrev=False
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
        "expand": _cmd_expand,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
    }
    try:
        _check_out_path("--out", None if args.out == "-" else args.out)
        _check_out_path("--json-out", getattr(args, "json_out", None))
        _check_config_path(getattr(args, "config", None))
        return handlers[args.command](args)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
