"""Entanglement quantification on the 4x4 qubit reduced density matrix.

Three routes to the same physics are kept side by side and never silently
reconciled, because they carry two different published normalizations:

* ``negativity_exact`` returns -2 lambda_min of the partial transpose, the
  convention under which a Bell state scores 1 (and the zero-contrast ideal
  QRDM scores |sin phi|).
* ``negativity_closed_form`` is the analytical eigenvalue display for the
  ideal closure-time QRDM; it equals -lambda_min, i.e. exactly half of
  ``negativity_exact`` on that family (|sin phi|/2 at zero contrast).
* ``witness_trace`` against the half-normalized Pauli witness reproduces
  exp(-C) sin(phi) - (1 - exp(-4C))/4, the detectable estimate, which at
  zero contrast coincides with the -2 lambda_min convention.

Callers choose a normalization explicitly; ``evaluate_negativity`` reports
all three from the phase and contrast exponents alone, by one 2x2-block
formula (``_lambda_min``) and the trace formula of ``witness_negativity``.
The eigensolver and the matrix trace remain for arbitrary matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ContrastSet
from .potentials import _require, _require_nonnegative

__all__ = [
    "PAULI",
    "WitnessOperator",
    "NegativityResult",
    "partial_transpose",
    "negativity_exact",
    "negativity_closed_form",
    "pauli_decompose",
    "pauli_compose",
    "witness_operator",
    "witness_negativity",
    "witness_trace",
    "evaluate_negativity",
]

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian two-qubit operator with its local-Pauli decomposition."""

    matrix: np.ndarray
    pauli_terms: tuple[tuple[float, str], ...]

    def as_pauli_sum(self) -> np.ndarray:
        """Rebuild the matrix from the stored Pauli terms."""
        return pauli_compose(self.pauli_terms)


@dataclass(frozen=True)
class NegativityResult:
    """The three negativity estimates for one QRDM, reported side by side.

    ``exact`` is the PPT value max(0, -2 lambda_min); ``closed_form`` is the
    ideal-QRDM analytical value at (phase, contrast), equal to -lambda_min
    and hence half of ``exact`` on that family; ``witness_trace`` is the
    Pauli-witness expectation value, equal to sin(phi) at zero contrast.
    ``lambda_min`` is the raw smallest eigenvalue of the partial transpose,
    for diagnostics.
    """

    exact: float
    closed_form: float
    witness_trace: float
    lambda_min: float


def _validate_qrdm(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"QRDM must be 4x4, got shape {rho.shape}")
    if np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj())) > 1e-10:
        raise ValueError("QRDM must be Hermitian")
    return rho


def partial_transpose(rho: np.ndarray, qubit: int = 2) -> np.ndarray:
    """Transpose one qubit's indices of two-qubit density matrices, shape (..., 4, 4)."""
    if qubit not in (1, 2):
        raise ValueError("qubit must be 1 or 2")
    rho = np.asarray(rho, dtype=complex)
    # Axes (..., row q1, row q2, col q1, col q2): swap one qubit's row and col.
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    if qubit == 2:
        blocks = np.swapaxes(blocks, -3, -1)
    else:
        blocks = np.swapaxes(blocks, -4, -2)
    return blocks.reshape(rho.shape)


def negativity_exact(rho: np.ndarray) -> float:
    """PPT negativity max(0, -2 lambda_min) of the partially transposed QRDM."""
    lam = np.linalg.eigvalsh(partial_transpose(_validate_qrdm(rho))).min(axis=-1)
    return np.maximum(0.0, -2.0 * lam)


def _exponents(phi, contrasts: ContrastSet | float):
    """Validated (single, sym, anti) flip exponents; a bare C is ContrastSet(c_s_np_2=C)."""
    _require("phi", phi, np.isfinite(phi), "must be finite")
    if not isinstance(contrasts, ContrastSet):
        _require_nonnegative("contrast", contrasts)
        contrasts = ContrastSet(c_s_np_2=contrasts)
    for name, value in vars(contrasts).items():
        _require(f"contrast {name}", value, np.isfinite(value), "must be finite")
    c = contrasts
    return c.single_flip_total, c.symmetric_flip_total, c.antisymmetric_flip_total


def _lambda_min(phi, single, sym, anti):
    """Smallest partial-transpose eigenvalue of the QRDM with these phases and exponents.

    The partial transpose commutes with X (x) X (the X-state structure).  With
    e = exp(-single), a = exp(-anti) and b = exp(-sym) it splits into blocks
    [[(1+a)/4, e cos(phi)/2], [., (1+b)/4]] and [[(1-a)/4, i e sin(phi)/2],
    [., (1-b)/4]], whose smaller eigenvalues det/(t/2 + sqrt(((a-b)/8)^2 +
    |off|^2)) are free of cancellation.  Elementwise over arrays.
    """
    e = np.exp(-single)
    # |a - b|/8 without cancellation or the overflow of expm1(anti - sym)
    gap = np.exp(-np.minimum(anti, sym)) * -np.expm1(-np.abs(anti - sym)) / 8.0
    blocks = (
        (1.0 + np.exp(-anti), 1.0 + np.exp(-sym), 0.5 * e * np.cos(phi)),
        (-np.expm1(-anti), -np.expm1(-sym), 0.5 * e * np.sin(phi)),
    )
    lam = []
    for four_p, four_q, off in blocks:
        denominator = (four_p + four_q) / 8.0 + np.hypot(gap, off)
        # A zero block (zero phase and exponents) is 0/0 with eigenvalue 0.
        denominator = np.where(denominator > 0.0, denominator, 1.0)
        # det/denominator with each product taken after the division, so that
        # tiny entries do not underflow in p q or |off|^2.
        lam.append(four_p / 4.0 * (four_q / 4.0 / denominator) - off * (off / denominator))
    return np.minimum(*lam)[()]


def negativity_closed_form(phi, contrast):
    """Analytical negative PT eigenvalue magnitude of the ideal QRDM.

    -lambda_min of the QRDM with exponents (C, 4C, 0), i.e. negativity_exact / 2
    on this matrix family: |sin phi|/2 at zero contrast, 0 at zero phase and
    sin^2(phi) exp(-2C) to relative order exp(-4C) at large C.  Elementwise
    over arrays of phi and contrast.
    """
    return np.maximum(-_lambda_min(phi, *_exponents(phi, contrast)), 0.0)


def pauli_decompose(matrix: np.ndarray) -> tuple[tuple[float, str], ...]:
    """Real coefficients of a Hermitian two-qubit operator in the Pauli basis.

    Coefficients of magnitude up to 1e-14 are rounding and are dropped.
    """
    matrix = np.asarray(matrix, dtype=complex)
    terms = []
    for name_a, op_a in PAULI.items():
        for name_b, op_b in PAULI.items():
            coeff = np.trace(np.kron(op_a, op_b).conj().T @ matrix) / 4.0
            if abs(coeff.imag) > 1e-12:
                raise ValueError("operator is not Hermitian")
            if abs(coeff.real) > 1e-14:
                terms.append((float(coeff.real), name_a + name_b))
    return tuple(terms)


def pauli_compose(terms: tuple[tuple[float, str], ...]) -> np.ndarray:
    """Sum of coeff * (sigma_a x sigma_b) over (coeff, 'ab') entries."""
    out = np.zeros((4, 4), dtype=complex)
    for coeff, name in terms:
        out += coeff * np.kron(PAULI[name[0]], PAULI[name[1]])
    return out


_PAULI_WITNESS_TERMS = ((0.5, "XX"), (0.5, "YZ"), (0.5, "ZY"), (-0.5, "II"))
_PAULI_WITNESS = WitnessOperator(
    matrix=pauli_compose(_PAULI_WITNESS_TERMS), pauli_terms=_PAULI_WITNESS_TERMS
)
_PAULI_WITNESS.matrix.flags.writeable = False


def witness_operator(w: float | None = None) -> WitnessOperator:
    """Entanglement witness, in either of the two published normalizations.

    With ``w`` given, returns the negativity witness built from the partially
    transposed eigenvector (1, iw, -iw, -1)/sqrt(2+2w^2); at the exact w its
    trace against the ideal QRDM is the negative PT eigenvalue magnitude
    (the closed-form normalization), and at w = 1 the matrix is
    -1/4 [[1, i, i, -1], [-i, 1, -1, -i], [-i, -1, 1, -i], [-1, i, i, 1]].

    With ``w`` omitted, returns the half-normalized Pauli form
    (XX + YZ + ZY - II)/2, which is exactly twice the w = 1 matrix and whose
    trace against the ideal QRDM is exp(-C) sin(phi) - (1 - exp(-4C))/4.
    This one is a shared constant with a read-only matrix.
    """
    if w is None:
        return _PAULI_WITNESS
    if w <= 0.0:
        raise ValueError(f"witness parameter w={w} must be > 0")
    matrix = (
        -np.array(
            [
                [1, 1j * w, 1j * w, -(w**2)],
                [-1j * w, w**2, -1, -1j * w],
                [-1j * w, -1, w**2, -1j * w],
                [-(w**2), 1j * w, 1j * w, 1],
            ],
            dtype=complex,
        )
        / (2.0 + 2.0 * w**2)
    )
    return WitnessOperator(matrix=matrix, pauli_terms=pauli_decompose(matrix))


def witness_negativity(phi, contrasts: ContrastSet | float):
    """Witness-trace negativity from the phase and contrast exponents.

    For a bare contrast value C this is the ideal closure-time expression
    exp(-C) sin(phi) - (1 - exp(-4C))/4.  For a full ContrastSet it is the
    trace of the Pauli witness against the open-dynamics QRDM,
    exp(-a) sin(phi) - (2 - exp(-b_anti) - exp(-b_sym))/4, with a the
    single-flip exponent and b_anti/b_sym the two both-flip exponents,
    elementwise over arrays.
    """
    single, sym, anti = _exponents(phi, contrasts)
    return np.exp(-single) * np.sin(phi) - 0.25 * (2.0 - np.exp(-anti) - np.exp(-sym))


def witness_trace(rho: np.ndarray, witness: WitnessOperator) -> float:
    """Real part of Tr[W rho], elementwise over rho of shape (..., 4, 4).

    The imaginary residue must be negligible.
    """
    value = np.trace(witness.matrix @ _validate_qrdm(rho), axis1=-2, axis2=-1)
    residue = np.max(np.abs(value.imag))
    if residue > 1e-12:
        raise ValueError(f"witness trace has imaginary residue {residue:.3e}")
    return value.real


def evaluate_negativity(phi, contrasts: ContrastSet | float) -> NegativityResult:
    """All three negativity estimates of the QRDM ``dynamics`` builds from phi and contrasts.

    Elementwise over arrays.  The closed form uses the single-flip contrast
    exponent, which is exact for the ideal closure-time QRDM and an
    approximation whenever the both-flip exponents deviate from (0, 4C).
    """
    single, sym, anti = _exponents(phi, contrasts)
    lam = _lambda_min(phi, single, sym, anti)
    return NegativityResult(
        exact=np.maximum(-2.0 * lam, 0.0),
        closed_form=negativity_closed_form(phi, single),
        witness_trace=witness_negativity(phi, contrasts),
        lambda_min=lam,
    )
