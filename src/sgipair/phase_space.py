"""Symplectic linear algebra and Gaussian-moment evolution for two coupled modes.

Quadratures are ordered (x1, p1, x2, p2) throughout, in ground-state-spread
units where the vacuum covariance matrix is the identity.  The two trapped
modes are coupled by a bilinear term of strength ``g`` (H = I + g C, never built); the
normal modes are the symmetric combination (frequency 1) and the antisymmetric combination
(frequency ``omega_g = sqrt(1 - 2g)``), which is real only for g < 1/2, the domain that
``potentials`` states for g.
The one noise channel is momentum diffusion at rate gamma_x, equal on both
modes, D = gamma_x diag(0, 1, 0, 1).  The propagator, its accumulated covariance
and the branch-pair memory integral m1 have closed forms, one 2x2 block per
normal mode (``_mode_entries``), which ``_normal_modes`` evaluates in one pass
over a point or a whole grid; only this module knows the normal-mode layout.
"""

from __future__ import annotations

import math

import numpy as np

from .potentials import _check, _require

__all__ = [
    "symplectic_form",
    "mode_frequency",
    "final_time",
    "propagator",
    "evolve_covariance",
    "heisenberg_ok",
]

# Single-mode symplectic block and its two-mode direct sum.
_OMEGA1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_OMEGA = np.block(
    [[_OMEGA1, np.zeros((2, 2))], [np.zeros((2, 2)), _OMEGA1]]
)


def symplectic_form() -> np.ndarray:
    """Two-mode symplectic form with blocks [[0, 1], [-1, 0]]."""
    return _OMEGA.copy()


def mode_frequency(g):
    """Antisymmetric-mode frequency sqrt(1 - 2g), elementwise over an array of g."""
    _check("g", g)
    return np.sqrt(1.0 - 2.0 * g)


def final_time(g):
    """Interferometer closure time 2*pi / sqrt(1 - 2g), elementwise over an array of g."""
    return 2.0 * np.pi / mode_frequency(g)


def propagator(g: float, tau) -> np.ndarray:
    """Closed-form symplectic propagator S_g(tau) = exp(tau * Omega * H), shape (..., 4, 4).

    The S of ``_normal_modes``, a rotation in each normal mode.  Broadcasts over g and tau.
    """
    _check("tau", tau)
    return _normal_modes(g, 0.0, tau)[..., 0, :, :]


def heisenberg_ok(sigma: np.ndarray) -> tuple[bool, float]:
    """Check sigma + i*Omega >= 0 and return (verdict, margin).

    The margin is the smallest eigenvalue of the Hermitian matrix
    sigma + i*Omega; vacuum saturates the bound with margin 0, and a margin
    down to -1e-10 passes as rounding.  A matrix that is not 4x4, finite and
    symmetric (|sigma - sigma^T| <= 1e-12 max|sigma|) raises.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (4, 4):
        raise ValueError(f"covariance matrix must be 4x4, got shape {sigma.shape}")
    _require("covariance matrix entry", sigma, np.isfinite(sigma), "must be finite")
    if np.max(np.abs(sigma - sigma.T)) > 1e-12 * np.max(np.abs(sigma)):
        raise ValueError("covariance matrix must be symmetric")
    margin = float(np.linalg.eigvalsh(sigma + 1j * _OMEGA)[0])
    return margin >= -1e-10, margin


def _series(numerator, first: int) -> list[float]:
    """Coefficients (-1)^k numerator(k)/(2k+1)! of the twelve k from ``first``, highest k first.

    Times x^(2 first + 1), their polynomial in x^2 is an odd Taylor series, to 1e-19 for x <= 1.
    """
    powers = range(first + 11, first - 1, -1)
    return [(-1) ** k * numerator(k) / math.factorial(2 * k + 1) for k in powers]


# The series of the shapes -A(x), -A(x/2) and P(x) of ``_mode_entries``, one per column, and
# the argument (x or x/2) of each.
_NEG_A = _series(lambda k: 2 * k, 1)
_SHAPE_SERIES = np.transpose([_NEG_A, _NEG_A, _series(lambda k: -(2 ** (2 * k + 1)), 1)])
_SHAPE_ARGUMENTS = [0, 1, 0]
_ARGUMENTS = np.array([1.0, 0.5, 2.0])  # x, x/2 and 2x from x
_MODE_COUPLING, _SUM_DIFFERENCE = np.array([0.0, 2.0]), np.array([[1.0], [-1.0]])  # w^2 = 1 - 2g
# A mode's 12 entries (S, L, m1, row-major) divide by w powers times _SCALES; 8 carry the rate.
# Entry [k, row, col] of the (x1,p1,x2,p2) matrices is entry 4k + 2 (row % 2) + col % 2 of the
# half sum (diagonal 2x2 blocks) or half difference (off-diagonal blocks) of the two modes.
_SCALES = np.array([1.0, 1.0, -1.0, 1.0, 4.0, 2.0, 2.0, 4.0, 0.5, -2.0, 2.0, 2.0])
_INTEGRAL_ENTRIES = np.arange(12) >= 4
_K, _ROW, _COL = np.indices((3, 4, 4))
_FROM_MODES = 12 * (_ROW // 2 != _COL // 2) + 4 * _K + 2 * (_ROW % 2) + _COL % 2


def _mode_entries(w, rate, tau) -> np.ndarray:
    """S = S(tau), L and m1 of normal modes of frequency w at D = diag(0, rate), (..., 12).

    S(u) is a mode's propagator, K(u) = S(u) D S(u)^T, L = int_0^tau K(u) du and m1 =
    int_0^tau K(u) Omega (S(u) - S) du.  S(u) is a rotation and K(u) Omega S(u) = S(u) D Omega,
    so both integrands are trigonometric polynomials of degree <= 2 in w u.  With x = w tau,
    A = sin x - x cos x, B = 1 - cos x - (x/2) sin x = 2 sin(x/2) A(x/2) and P = 2x - sin 2x:
    S = [[cos x, sin x/w], [-w sin x, cos x]],
    L = rate [[P/(4 w^3), sin^2 x/(2 w^2)], [sin^2 x/(2 w^2), tau/2 + sin(2x)/(4 w)]] and
    m1 = rate [[-B/w^2, A/(2 w^3)], [-A/(2 w), tau sin x/(2 w)]].  x, x/2 and 2x share one
    sin and one cos call, -A(x), -A(x/2) and P one np.polyval over their stacked series where
    x <= 1, and all 12 entries one division of numerators by scaled powers of w.  Broadcasts
    over w, rate and tau (without w's last axis).
    """
    tau = np.asarray(tau, dtype=float)[..., None]
    arguments = (w * tau)[..., None] * _ARGUMENTS  # x, x/2 and 2x
    sines, cosines = np.sin(arguments), np.cos(arguments)
    cosines[..., 2] = 1.0  # cos 2x goes unused; the third shape below is then 2x - sin 2x
    shapes = arguments * cosines - sines  # -A(x), -A(x/2) and P(x)
    if (arguments[..., 1] <= 1.0).any():  # some x/2 <= 1: a shape takes its series
        shape_x = arguments[..., _SHAPE_ARGUMENTS]
        small = shape_x <= 1.0
        y = np.square(np.where(small, shape_x, 0.0))  # 0 keeps the unused sums finite
        shapes = np.where(small, np.polyval(_SHAPE_SERIES, y) * y * shape_x, shapes)
    sin_x, sin_half, sin_2x, cos_x = sines[..., 0], sines[..., 1], sines[..., 2], cosines[..., 0]
    neg_a, neg_a_half, p = shapes[..., 0], shapes[..., 1], shapes[..., 2]
    sin_sq = np.square(sin_x)
    numerators = np.array([
        *(cos_x, sin_x, w * sin_x, cos_x),
        *(p, sin_sq, sin_sq, sin_2x),
        *(sin_half * neg_a_half, neg_a, neg_a, tau * sin_x),
    ])
    one, w2, w3 = np.ones_like(w), w**2, w**3
    powers = np.array([one, w, one, one, w3, w2, w2, w, w2, w3, w, w])
    entries = numerators.transpose(*range(1, numerators.ndim), 0) / (
        powers.transpose(*range(1, powers.ndim), 0) * _SCALES
    )
    entries[..., 7] += tau / 2.0
    return entries * np.where(_INTEGRAL_ENTRIES, np.asarray(rate)[..., None, None], 1.0)


def _normal_modes(g, rate, tau) -> np.ndarray:
    """S = S(tau), L and m1 at D = rate diag(0, 1, 0, 1): [..., k, :, :] of (..., 3, 4, 4).

    One pass over both normal modes (frequencies 1 and omega_g) of a point or a grid: their
    ``_mode_entries``, and one map of their half sums and differences to (x1,p1,x2,p2).
    """
    _check("g", g)
    modes = _mode_entries(np.sqrt(1.0 - np.multiply.outer(g, _MODE_COUPLING)), rate, tau)
    halves = 0.5 * (modes[..., :1, :] + _SUM_DIFFERENCE * modes[..., 1:, :])
    return halves.reshape(halves.shape[:-2] + (24,))[..., _FROM_MODES]


def evolve_covariance(sigma0: np.ndarray, g: float, tau, gamma_x: float = 0.0) -> np.ndarray:
    """Covariance at time tau: S sigma0 S^T plus the accumulated diffusion at rate gamma_x.

    The diffusion term L = int_0^tau S(tau-t) D S(tau-t)^T dt, D = gamma_x diag(0, 1, 0, 1),
    is the closed form of ``_normal_modes``, which gives S and L in one pass.  Broadcasts
    over tau, shape (..., 4, 4); sigma0 is checked once.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    ok, margin = heisenberg_ok(sigma0)
    if not ok:
        raise ValueError(
            f"initial covariance violates the uncertainty bound (margin {margin:.3e})"
        )
    _check("tau", tau)
    _check("gamma_x", gamma_x)
    s, lyapunov = np.moveaxis(_normal_modes(g, gamma_x, tau)[..., :2, :, :], -3, 0)
    sigma = s @ sigma0 @ np.swapaxes(s, -1, -2) + lyapunov
    return 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
