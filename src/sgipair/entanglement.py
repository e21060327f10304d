"""Negativities of the qubit reduced density matrix from its phase and contrast exponents.

Every QRDM the calculator builds is an X state fixed by those, so no 4x4
matrix is formed; its three exponents are ``ContrastSet.flip_exponents``.
Three estimates are kept side by side and never silently reconciled,
because they carry two different published normalizations:

* ``exact`` is -2 lambda_min of the partial transpose, the convention under
  which a Bell state scores 1 (and the zero-contrast ideal QRDM scores
  |sin phi|).  lambda_min is one 2x2-block formula (``_lambda_min``).
* ``closed_form`` is the analytical eigenvalue display for the ideal
  closure-time QRDM; it equals -lambda_min, i.e. exactly half of ``exact``
  on that family (|sin phi|/2 at zero contrast).
* ``witness_trace`` is the trace of the half-normalized Pauli witness
  (XX + YZ + ZY - II)/2 against the QRDM, exp(-C) sin(phi) - (1 - exp(-4C))/4
  for the ideal one: the detectable estimate, which at zero contrast
  coincides with the -2 lambda_min convention.

Callers choose a normalization explicitly from the one ``NegativityResult``
that ``evaluate_negativity`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ContrastSet
from .potentials import _require

__all__ = ["NegativityResult", "evaluate_negativity"]

_FLOAT_MAX = np.finfo(float).max


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


def _exponents(phi, contrasts: ContrastSet):
    """Validated (single, sym, anti) flip exponents of a ContrastSet."""
    if not isinstance(contrasts, ContrastSet):
        raise TypeError(
            f"contrasts must be a ContrastSet, got {type(contrasts).__name__}; "
            "a bare contrast C is ContrastSet(c_s_np_2=C)"
        )
    _require("phi", phi, np.isfinite(phi), "must be finite")
    for name, value in vars(contrasts).items():
        _require(f"contrast {name}", value, np.isfinite(value), "must be finite")
    return contrasts.flip_exponents()


def _lambda_min(phi, single, sym, anti):
    """Smallest partial-transpose eigenvalue of the QRDM with these phases and exponents.

    The partial transpose commutes with X (x) X (the X-state structure).  With
    e = exp(-single), a = exp(-anti) and b = exp(-sym) it splits into blocks
    [[(1+a)/4, e cos(phi)/2], [., (1+b)/4]] and [[(1-a)/4, i e sin(phi)/2],
    [., (1-b)/4]], whose smaller eigenvalues det/(t/2 + sqrt(((a-b)/8)^2 +
    |off|^2)) are free of cancellation.  Elementwise over arrays.
    """
    e = np.exp(-single)
    # |a - b|/8 without cancellation or the overflow of expm1(anti - sym); the smaller
    # exponent, capped at the largest float, makes two inf exponents a gap of 0, not NaN
    low = np.minimum(anti, sym)
    gap = np.exp(-low) * -np.expm1(np.minimum(low, _FLOAT_MAX) - np.maximum(anti, sym)) / 8.0
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


def _witness(phi, single, sym, anti):
    """Witness trace of the QRDM with these phases and (validated) exponents."""
    return np.exp(-single) * np.sin(phi) - 0.25 * (2.0 - np.exp(-anti) - np.exp(-sym))


def evaluate_negativity(phi, contrasts: ContrastSet) -> NegativityResult:
    """All three negativity estimates of the QRDM ``dynamics`` builds from phi and contrasts.

    Elementwise over arrays.  The closed form is -lambda_min of the ideal QRDM
    ``ContrastSet(c_s_np_2=C)``, exponents (C, 4C, 0), for the single-flip exponent C: exact
    for the ideal closure-time QRDM and an approximation wherever the both-flip exponents
    differ.  The witness trace is exp(-a) sin(phi) - (2 - exp(-b_anti) - exp(-b_sym))/4,
    with a the single-flip exponent and b_anti/b_sym the two both-flip exponents.
    """
    single, sym, anti = _exponents(phi, contrasts)
    lam = _lambda_min(phi, single, sym, anti)
    ideal = ContrastSet(c_s_np_2=single)
    return NegativityResult(
        exact=np.maximum(-2.0 * lam, 0.0),
        closed_form=np.maximum(-_lambda_min(phi, *ideal.flip_exponents()), 0.0),
        witness_trace=_witness(phi, single, sym, anti),
        lambda_min=lam,
    )
