"""Symplectic linear algebra and Gaussian-moment evolution for two coupled modes.

Quadratures are ordered (x1, p1, x2, p2) throughout, in ground-state-spread
units where the vacuum covariance matrix is the identity.  The two trapped
modes are coupled by a bilinear term of strength ``g``; the normal modes are
the symmetric combination (frequency 1) and the antisymmetric combination
(frequency ``omega_g = sqrt(1 - 2g)``), which is real only for g < 1/2.
The one noise channel is momentum diffusion at rate gamma_x, equal on both
modes, D = gamma_x diag(0, 1, 0, 1).  Its accumulated covariance and the two
branch-pair memory integrals have closed forms, one 2x2 block per normal mode
(``_mode_integrals``); only this module knows the normal-mode layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import _require

__all__ = [
    "DriftSpec",
    "symplectic_form",
    "mode_frequency",
    "final_time",
    "sgi_hamiltonian_matrix",
    "sgi_diffusion_matrix",
    "sgi_drift_spec",
    "propagator",
    "evolve_covariance",
    "lyapunov_integral",
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


@dataclass(frozen=True)
class DriftSpec:
    """Linear drift vectors, one per qubit.

    The branch with qubit eigenvalues (j, m) feels the combined drift
    j*r_q1 + m*r_q2, entering the mean-motion equation as
    dr/dtau = Omega H r + Omega r_branch.
    """

    r_q1: np.ndarray
    r_q2: np.ndarray

    def branch_drift(self, j: int, m: int) -> np.ndarray:
        return j * self.r_q1 + m * self.r_q2


def sgi_drift_spec(f_q: float) -> DriftSpec:
    """Qubit-controlled force f_q on each mode's position."""
    return DriftSpec(
        r_q1=np.array([f_q, 0.0, 0.0, 0.0]),
        r_q2=np.array([0.0, 0.0, f_q, 0.0]),
    )


def _check_coupling(g) -> None:
    _require(
        "coupling g",
        g,
        (0.0 <= g) & (g < 0.5),
        "outside [0, 1/2); the trap is unstable at g >= 1/2",
    )


def _check_tau(tau) -> None:
    if type(tau) is float and math.isfinite(tau) and tau >= 0.0:
        return  # the common scalar call skips the array test
    _require("tau", tau, np.isfinite(tau) & (tau >= 0.0), "must be finite and >= 0")


def mode_frequency(g):
    """Antisymmetric-mode frequency sqrt(1 - 2g), elementwise over an array of g."""
    _check_coupling(g)
    return np.sqrt(1.0 - 2.0 * g)


def final_time(g):
    """Interferometer closure time 2*pi / sqrt(1 - 2g), elementwise over an array of g."""
    return 2.0 * np.pi / mode_frequency(g)


def sgi_hamiltonian_matrix(g: float) -> np.ndarray:
    """Quadratic-form matrix of the coupled-trap Hamiltonian.

    Returns the symmetric matrix H such that the quadratic part of the
    Hamiltonian is r^T H r / 2 (units of hbar*omega), i.e.
    diag(1-g, 1, 1-g, 1) plus a g coupling between x1 and x2.
    """
    _check_coupling(g)
    h = np.diag([1.0 - g, 1.0, 1.0 - g, 1.0])
    h[0, 2] = h[2, 0] = g
    return h


def _check_diffusion_rate(gamma_x) -> None:
    _require("diffusion rate gamma_x", gamma_x, gamma_x >= 0.0, "must be >= 0")


def sgi_diffusion_matrix(gamma_x: float) -> np.ndarray:
    """Momentum-diffusion matrix gamma_x * diag(0, 1, 0, 1).

    Normalized so that its Lyapunov integral, ``lyapunov_integral`` at rate
    gamma_x, is the diffusive covariance used by the open-dynamics contrast
    formulas (position dephasing at rate gamma_x/4 per mode).
    """
    _check_diffusion_rate(gamma_x)
    return gamma_x * np.diag([0.0, 1.0, 0.0, 1.0])


def _from_modes(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """(x1,p1,x2,p2) matrices, (..., 4, 4), from symmetric- and antisymmetric-mode 2x2 blocks."""
    half_sum, half_diff = 0.5 * (plus + minus), 0.5 * (plus - minus)
    top = np.concatenate([half_sum, half_diff], axis=-1)
    return np.concatenate([top, np.concatenate([half_diff, half_sum], axis=-1)], axis=-2)


def propagator(g: float, tau) -> np.ndarray:
    """Closed-form symplectic propagator S_g(tau) = exp(tau * Omega * H), shape (..., 4, 4).

    Built from the two normal modes: a rotation at frequency 1 in the
    symmetric mode and a rotation at frequency omega_g in the antisymmetric
    mode, mapped back to the (x1,p1,x2,p2) ordering.  Broadcasts over tau.
    """
    w = np.array([1.0, mode_frequency(g)])
    wt = w * np.asarray(tau, dtype=float)[..., None]
    c, s = np.cos(wt), np.sin(wt)
    modes = np.stack([c, s / w, -w * s, c], axis=-1).reshape(*c.shape, 2, 2)
    return _from_modes(modes[..., 0, :, :], modes[..., 1, :, :])


def heisenberg_ok(sigma: np.ndarray) -> tuple[bool, float]:
    """Check sigma + i*Omega >= 0 and return (verdict, margin).

    The margin is the smallest eigenvalue of the Hermitian matrix
    sigma + i*Omega; vacuum saturates the bound with margin 0, and a margin
    down to -1e-10 passes as rounding.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.allclose(sigma, sigma.T, atol=1e-12):
        raise ValueError("covariance matrix must be symmetric")
    margin = float(np.linalg.eigvalsh(sigma + 1j * _OMEGA)[0])
    return margin >= -1e-10, margin


def _odd_series(exact, numerator, first: int):
    """Shape exact(x) of x >= 0, summed as its odd Taylor series where it cancels (x <= 1).

    The series is sum_k (-1)^k numerator(k) x^(2k+1)/(2k+1)! over the twelve k from
    ``first``; for x <= 1 its first omitted term is below 1e-19 of the shape.
    """
    powers = range(first + 11, first - 1, -1)  # highest first, for np.polyval
    series = np.array([(-1) ** k * numerator(k) / math.factorial(2 * k + 1) for k in powers])

    def shape(x):
        small = x <= 1.0
        if not np.any(small):
            return exact(x)
        y = np.square(x)  # y^first by math.prod: ** would call pow on a numpy scalar
        return np.where(small, np.polyval(series, y) * math.prod([y] * first) * x, exact(x))[()]

    return shape


# Shapes of the normal-mode integrals below, with x = w tau.
_position_shape = _odd_series(lambda x: 2.0 * x - np.sin(2.0 * x), lambda k: -(2 ** (2 * k + 1)), 1)
_shape_a = _odd_series(lambda x: np.sin(x) - x * np.cos(x), lambda k: -2 * k, 1)
_shape_c = _odd_series(
    lambda x: 0.5 * x - 0.25 * np.sin(2.0 * x) - np.sin(x) + x * np.cos(x),
    lambda k: 2 * k - 2 ** (2 * k - 1),
    2,
)


def _mode_integrals(w: np.ndarray, rate: float, tau) -> np.ndarray:
    """Closed forms of the propagator integrals (L, m1, m2), shape (..., 3, 2, 2) over w.

    With S(u) = S_w(u), S = S(tau), D = diag(0, rate) and K(u) = S(u) D S(u)^T,
    L = int_0^tau K(u) du, m1 = int_0^tau K(u) Omega (S(u) - S) du and
    m2 = int_0^tau (S(u) - S)^T Omega^T K(u) Omega (S(u) + S - 2I) du.
    S(u) is symplectic, so K(u) Omega S(u) = S(u) D Omega and every integrand is a
    trigonometric polynomial of degree <= 2 in w u.  With x = w tau, A = sin x - x cos x,
    B = 1 - cos x - (x/2) sin x = 2 sin(x/2) A(x/2), C = x/2 - sin(2x)/4 - sin x + x cos x,
    Q = 2 sin^4(x/2) and P = 2x - sin 2x:
    L = rate [[P/(4 w^3), sin^2 x/(2 w^2)], [sin^2 x/(2 w^2), tau/2 + sin(2x)/(4 w)]],
    m1 = rate [[-B/w^2, A/(2 w^3)], [-A/(2 w), tau sin x/(2 w)]] and
    m2 = rate [[C/w, (Q + 2B)/w^2], [(Q - 2B)/w^2, -(2A + P/2)/(2 w^3)]].
    """
    x = w * tau
    sin_x, sin_half = np.sin(x), np.sin(0.5 * x)
    (a, a_half), c, p = _shape_a(np.array([x, 0.5 * x])), _shape_c(x), _position_shape(x)
    b = 2.0 * sin_half * a_half
    q = 2.0 * np.square(np.square(sin_half))
    xp = sin_x**2 / (2.0 * w**2)
    lyapunov = [p / (4.0 * w**3), xp, xp, tau / 2.0 + np.sin(2.0 * x) / (4.0 * w)]
    m1 = [-b / w**2, a / (2.0 * w**3), -a / (2.0 * w), tau * sin_x / (2.0 * w)]
    m2 = [c / w, (q + 2.0 * b) / w**2, (q - 2.0 * b) / w**2, -(2.0 * a + 0.5 * p) / (2.0 * w**3)]
    return rate * np.stack(lyapunov + m1 + m2, axis=-1).reshape(*x.shape, 3, 2, 2)


def _propagator_integrals(g: float, rate: float, tau) -> np.ndarray:
    """(L, m1, m2) at D = rate diag(0, 1, 0, 1) in (x1,p1,x2,p2) form, (3, ..., 4, 4) over tau."""
    w = np.array([1.0, mode_frequency(g)])
    blocks = _mode_integrals(w, rate, np.asarray(tau, dtype=float)[..., None])
    return np.moveaxis(_from_modes(blocks[..., 0, :, :, :], blocks[..., 1, :, :, :]), -3, 0)


def lyapunov_integral(g: float, tau, gamma_x: float) -> np.ndarray:
    """Accumulated diffusion int_0^tau S(tau-t) D S(tau-t)^T dt, D = gamma_x diag(0, 1, 0, 1).

    Evaluated in closed form, one 2x2 block per normal mode.  Broadcasts over tau.
    """
    _check_coupling(g)
    _check_tau(tau)
    _check_diffusion_rate(gamma_x)
    return _propagator_integrals(g, gamma_x, tau)[0]


def evolve_covariance(sigma0: np.ndarray, g: float, tau, gamma_x: float = 0.0) -> np.ndarray:
    """Covariance at time tau: S sigma0 S^T plus the diffusion integral at rate gamma_x.

    Broadcasts over tau, shape (..., 4, 4); sigma0 is checked once.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    ok, margin = heisenberg_ok(sigma0)
    if not ok:
        raise ValueError(
            f"initial covariance violates the uncertainty bound (margin {margin:.3e})"
        )
    s = propagator(g, tau)
    sigma = s @ sigma0 @ np.swapaxes(s, -1, -2) + lyapunov_integral(g, tau, gamma_x)
    return 0.5 * (sigma + np.swapaxes(sigma, -1, -2))
