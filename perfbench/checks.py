"""Output checks of the three workloads; each returns a list of problems.

The checks never import sgipair.  Every seed is checked with
reference-free invariants rebuilt here from the paper's formulas; the default
seed is also compared with values recorded from the unmodified program
(``reference/``), at tolerances far below the effect of shifting the
coupling by 1e-3 (the shift ``sgipair verify --negative-control`` applies).
"""

from __future__ import annotations

import io
import json
import math
from pathlib import Path

import numpy as np

SWEEP_HEADER = (
    "f_q,g,s,n_p,gamma_x,gamma_z,tau,phi,c_s_np_1,c_s_np_2,c_gamma_1,c_gamma_2,"
    "c_z,neg_exact,neg_closed,neg_witness,negativity"
).split(",")
COLUMNS = {name: index for index, name in enumerate(SWEEP_HEADER)}

# Reference agreement: elementwise |a - b| <= REF_RTOL |b| + REF_ATOL max|b|.
REF_RTOL = 1e-8
REF_ATOL = 1e-12
# Invariants recomputed from the emitted values.
IDENTITY_RTOL = 1e-12
NEGATIVITY_ATOL = 1e-12
QRDM_ATOL = 1e-12
REBUILD_ATOL = 1e-9


def _close(actual, expected, rtol: float = REF_RTOL, atol: float = REF_ATOL) -> bool:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    scale = float(np.max(np.abs(expected), initial=0.0))
    return bool(np.all(np.abs(actual - expected) <= rtol * np.abs(expected) + atol * scale))


def _qrdm_batch(phi, single, sym, anti) -> np.ndarray:
    """QRDMs (N, 4, 4) of |+>|+> qubits from phases and contrast exponents."""
    n = len(phi)
    one = np.exp(-single)
    lower, upper = one * np.exp(1j * phi), one * np.exp(-1j * phi)
    both_sym, both_anti = np.exp(-sym), np.exp(-anti)
    rho = np.empty((n, 4, 4), dtype=complex)
    rho[:, [0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    rho[:, 0, 1] = rho[:, 0, 2] = rho[:, 3, 1] = rho[:, 3, 2] = upper
    rho[:, 1, 0] = rho[:, 2, 0] = rho[:, 1, 3] = rho[:, 2, 3] = lower
    rho[:, 0, 3] = rho[:, 3, 0] = both_sym
    rho[:, 1, 2] = rho[:, 2, 1] = both_anti
    return rho / 4.0


def _partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second qubit of (N, 4, 4) two-qubit matrices."""
    n = rho.shape[0]
    return rho.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)


def parse_sweep(text: str) -> tuple[list[str], np.ndarray]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], np.empty((0, len(SWEEP_HEADER)))
    body = io.StringIO("\n".join(lines[1:]))
    rows = np.loadtxt(body, delimiter=",", ndmin=2) if len(lines) > 1 else np.empty((0, 0))
    return lines[0].split(","), rows


def check_sweep(text: str, axes, reference: dict | None) -> list[str]:
    """Problems in one sweep CSV for the seeded axes (g, s, gamma_x)."""
    header, rows = parse_sweep(text)
    if header != SWEEP_HEADER:
        return [f"sweep header {header!r} differs from the expected columns"]
    expected_n = math.prod(axis[3] for axis in axes)
    if rows.shape != (expected_n, len(SWEEP_HEADER)):
        return [f"sweep rows have shape {rows.shape}, expected ({expected_n}, 17)"]
    if not np.all(np.isfinite(rows)):
        return ["sweep output holds non-finite values"]
    col = {name: rows[:, index] for name, index in COLUMNS.items()}
    problems = []

    values = [
        np.geomspace(start, stop, points) if log else np.linspace(start, stop, points)
        for _, start, stop, points, log in axes
    ]
    grid = np.meshgrid(*values, indexing="ij")
    for (name, *_), expected in zip(axes, grid):
        if not _close(col[name], expected.ravel(), IDENTITY_RTOL, 0.0):
            problems.append(f"sweep column {name} does not follow the requested axis")

    g, tau = col["g"], col["tau"]
    identities = {
        "f_q = 1/sqrt(120 g)": (col["f_q"], 1.0 / np.sqrt(120.0 * g)),
        "tau = 2 pi/sqrt(1 - 2g)": (tau, 2.0 * np.pi / np.sqrt(1.0 - 2.0 * g)),
        "n_p = 5": (col["n_p"], np.full_like(g, 5.0)),
        "gamma_z = 1e-3": (col["gamma_z"], np.full_like(g, 1e-3)),
        "c_z = gamma_z tau": (col["c_z"], col["gamma_z"] * tau),
        "negativity = neg_exact": (col["negativity"], col["neg_exact"]),
    }
    for label, (actual, expected) in identities.items():
        if not _close(actual, expected, IDENTITY_RTOL, 0.0):
            problems.append(f"sweep identity {label} broken")
    contrasts = ("c_s_np_1", "c_s_np_2", "c_gamma_1", "c_gamma_2", "c_z")
    if any(np.any(col[name] < 0.0) for name in contrasts):
        problems.append("sweep contrast exponent below zero")

    single = sum(col[name] for name in contrasts)
    sym = 4.0 * (col["c_s_np_2"] + col["c_gamma_2"]) + 2.0 * col["c_z"]
    anti = 4.0 * (col["c_s_np_1"] + col["c_gamma_1"]) + 2.0 * col["c_z"]
    rho = _qrdm_batch(col["phi"], single, sym, anti)
    lam = np.linalg.eigvalsh(_partial_transpose(rho))[:, 0]
    bad = np.abs(np.maximum(0.0, -2.0 * lam) - col["neg_exact"]) > NEGATIVITY_ATOL
    if bad.any():
        problems.append(
            f"neg_exact differs from -2 lambda_min of the rebuilt partial transpose "
            f"in {int(bad.sum())} rows (first row {int(np.argmax(bad))})"
        )
    witness = np.exp(-single) * np.sin(col["phi"]) - 0.25 * (2.0 - np.exp(-anti) - np.exp(-sym))
    bad = np.abs(witness - col["neg_witness"]) > NEGATIVITY_ATOL
    if bad.any():
        problems.append(f"neg_witness differs from Tr[W rho] in {int(bad.sum())} rows")

    if reference is not None:
        index = np.array([i for i, _ in reference["rows"]])
        expected = np.array([row for _, row in reference["rows"]])
        for name, column in COLUMNS.items():
            if not _close(rows[index, column], expected[:, column]):
                problems.append(f"sweep column {name} differs from the recorded reference")
    return problems


def check_cat_state(result: dict, reference: dict | None) -> list[str]:
    """Problems in one evolved cat state and its 16 branch-pair results."""
    if "error" in result:
        return [f"cat-state point raised {result['error']}"]
    problems = []
    qrdm = np.array([complex(*z) for z in result["qrdm"]]).reshape(4, 4)
    sigma = np.array(result["sigma"]).reshape(4, 4)
    branches = np.array([complex(*z) for z in result["branches"]]).reshape(16, 4)
    pairs = np.array(result["pairs"]).reshape(16, 2)
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(pairs))):
        return ["cat-state output holds non-finite values"]

    if np.max(np.abs(qrdm - qrdm.conj().T)) > QRDM_ATOL:
        problems.append("QRDM is not Hermitian")
    if abs(np.trace(qrdm) - 1.0) > QRDM_ATOL:
        problems.append(f"QRDM trace {np.trace(qrdm)} is not 1")
    if np.max(np.abs(sigma - sigma.T)) > QRDM_ATOL * np.max(np.abs(sigma)):
        problems.append("covariance is not symmetric")
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    margin = np.linalg.eigvalsh(sigma + 1j * omega)[0]
    if margin < -1e-9 * np.max(np.abs(sigma)):
        problems.append(f"covariance violates the uncertainty bound (margin {margin:.3e})")
    # The diagonal branches (row == col) carry real first moments.
    if np.max(np.abs(branches[[0, 5, 10, 15]].imag)) > 0.0:
        problems.append("diagonal branch moments are not real")
    rebuilt = 0.25 * np.exp(-pairs[:, 1] + 1j * pairs[:, 0]).reshape(4, 4)
    if np.max(np.abs(rebuilt - qrdm)) > REBUILD_ATOL:
        problems.append(
            "branch-pair phases and contrasts do not rebuild the QRDM "
            f"(max deviation {np.max(np.abs(rebuilt - qrdm)):.3e})"
        )

    if reference is not None:
        for key in ("sigma", "branches", "qrdm", "pairs"):
            if not _close(result[key], reference[key]):
                problems.append(f"cat-state {key} differs from the recorded reference")
    return problems


def check_verify(exit_code: int | None, json_path: Path) -> list[str]:
    """Problems in one ``verify --level full --json-out`` run."""
    if exit_code != 0:
        return [f"verify exited with code {exit_code}"]
    try:
        report = json.loads(Path(json_path).read_text())
    except (OSError, ValueError) as exc:
        return [f"verify JSON unreadable: {exc}"]
    if report.get("passed") is not True:
        return [f"verify JSON reports passed={report.get('passed')!r}: {report.get('failures')}"]
    names = [entry["name"] for entry in report.get("entries", [])]
    if "diffusive/qrdm" not in names or "arbitration/qrdm" not in names:
        return ["verify JSON lacks the Fock-oracle entries of --level full"]
    return []
