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
all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ContrastSet
from .potentials import _require

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
    phase: float
    contrast: float
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
    lam = _ppt_lambda_min(_validate_qrdm(rho))
    return np.maximum(0.0, -2.0 * lam)


def _ppt_lambda_min(rho: np.ndarray) -> float:
    """Smallest partial-transpose eigenvalue of an already validated QRDM stack."""
    return np.linalg.eigvalsh(partial_transpose(rho)).min(axis=-1)


def negativity_closed_form(phi, contrast):
    """Analytical negative PT eigenvalue magnitude of the ideal QRDM.

    (exp(-C)/2) [sqrt(sin^2 phi + f^2) - f] with f = exp(-C) sinh(2C)/2;
    reduces to |sin phi|/2 at zero contrast and to 0 at zero phase.  Equals
    -lambda_min of the partial transpose, i.e. negativity_exact / 2 on this
    matrix family.  Elementwise over arrays of phi and contrast.
    """
    _require("contrast", contrast, contrast >= 0.0, "must be >= 0")
    sin_sq = np.square(np.sin(phi))
    # Above C = 50, f ~ exp(C)/4 dominates; the exact value is
    # sin^2(phi) exp(-2C) up to a relative error exp(-4C), and the direct
    # form would overflow, so it is evaluated at min(C, 50) and discarded.
    direct_c = np.minimum(contrast, 50.0)
    f = 0.5 * np.exp(-direct_c) * np.sinh(2.0 * direct_c)
    # sqrt(s^2 + f^2) - f rewritten without cancellation at large f; the
    # 0/0 at sin phi = C = 0 is replaced by 0 below.
    with np.errstate(invalid="ignore"):
        direct = 0.5 * np.exp(-direct_c) * sin_sq / (np.sqrt(sin_sq + np.square(f)) + f)
    value = np.where(contrast > 50.0, sin_sq * np.exp(-2.0 * contrast), direct)
    return np.where(sin_sq == 0.0, 0.0, value)[()]


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


def witness_negativity(phi: float, contrasts: ContrastSet | float) -> float:
    """Witness-trace negativity from the phase and contrast exponents.

    For a bare contrast value C this is the ideal closure-time expression
    exp(-C) sin(phi) - (1 - exp(-4C))/4.  For a full ContrastSet it is the
    trace of the Pauli witness against the open-dynamics QRDM,
    exp(-a) sin(phi) - (2 - exp(-b_anti) - exp(-b_sym))/4, with a the
    single-flip exponent and b_anti/b_sym the two both-flip exponents.
    """
    if isinstance(contrasts, ContrastSet):
        single = contrasts.single_flip_total
        sym = contrasts.symmetric_flip_total
        anti = contrasts.antisymmetric_flip_total
    else:
        if contrasts < 0.0:
            raise ValueError(f"contrast={contrasts} must be >= 0")
        single = float(contrasts)
        sym = 4.0 * float(contrasts)
        anti = 0.0
    return float(
        np.exp(-single) * np.sin(phi) - 0.25 * (2.0 - np.exp(-anti) - np.exp(-sym))
    )


def witness_trace(rho: np.ndarray, witness: WitnessOperator) -> float:
    """Real part of Tr[W rho], elementwise over rho of shape (..., 4, 4).

    The imaginary residue must be negligible.
    """
    return _real_trace(_validate_qrdm(rho), witness)


def _real_trace(rho: np.ndarray, witness: WitnessOperator) -> float:
    """``witness_trace`` of an already validated QRDM stack."""
    value = np.trace(witness.matrix @ rho, axis1=-2, axis2=-1)
    residue = np.max(np.abs(value.imag))
    if residue > 1e-12:
        raise ValueError(f"witness trace has imaginary residue {residue:.3e}")
    return value.real


def evaluate_negativity(
    rho: np.ndarray, phi, contrasts: ContrastSet | float
) -> NegativityResult:
    """All three negativity estimates for one QRDM, or for a stack of shape (..., 4, 4).

    The closed form uses the single-flip contrast exponent, which is exact
    for the ideal closure-time QRDM and an approximation whenever the
    both-flip exponents deviate from (0, 4C).
    """
    if isinstance(contrasts, ContrastSet):
        contrast = contrasts.single_flip_total
    else:
        contrast = np.asarray(contrasts, dtype=float)[()]
    rho = _validate_qrdm(rho)
    lam = _ppt_lambda_min(rho)
    return NegativityResult(
        exact=np.maximum(0.0, -2.0 * lam),
        closed_form=negativity_closed_form(phi, contrast),
        witness_trace=_real_trace(rho, witness_operator()),
        phase=phi,
        contrast=contrast,
        lambda_min=lam,
    )
