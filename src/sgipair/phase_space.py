"""Symplectic linear algebra and Gaussian-moment evolution for two coupled modes.

Quadratures are ordered (x1, p1, x2, p2) throughout, in ground-state-spread
units where the vacuum covariance matrix is the identity.  The two trapped
modes are coupled by a bilinear term of strength ``g``; the normal modes are
the symmetric combination (frequency 1) and the antisymmetric combination
(frequency ``omega_g = sqrt(1 - 2g)``), which is real only for g < 1/2.
The one noise channel is momentum diffusion at rate gamma_x, equal on both
modes, D = gamma_x diag(0, 1, 0, 1); its accumulated covariance has a
closed form in the normal modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


# Taylor coefficients of 2x - sin 2x = sum_{k>=1} (-1)^(k+1) (2x)^(2k+1)/(2k+1)!, highest first.
_POSITION_SERIES = [
    (-1) ** (k + 1) * 2 ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(12, 0, -1)
]


def _position_shape(x: np.ndarray) -> np.ndarray:
    """2x - sin 2x >= 0, by its series where it cancels (x <= 1), which is only summed there."""
    out = 2.0 * x - np.sin(2.0 * x)
    small = x <= 1.0
    if small.any():
        x_sq = np.square(x[small])
        out[small] = np.polyval(_POSITION_SERIES, x_sq) * x_sq * x[small]
    return out


def _mode_lyapunov(w: np.ndarray, rate: float, tau: float) -> np.ndarray:
    """Closed form of int_0^tau S_w(t) diag(0, rate) S_w(t)^T dt, one 2x2 block per w."""
    xx = _position_shape(w * tau) / (4.0 * w**3)
    xp = np.sin(w * tau) ** 2 / (2.0 * w**2)
    pp = tau / 2.0 + np.sin(2.0 * w * tau) / (4.0 * w)
    return rate * np.stack([xx, xp, xp, pp], axis=-1).reshape(*xx.shape, 2, 2)


# Longest interval one Gauss-Legendre rule covers; bounds the nodes (and memory) per batch.
_MAX_PANEL = 256.0
# n-point Gauss-Legendre nodes and weights on [-1, 1], computed once per n.
_legendre_rule = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _gauss_legendre(g: float, tau: float, integrand) -> np.ndarray:
    """int_0^tau integrand(S_g(u)) du; ``integrand`` maps propagators (n, 4, 4) to (n, ...).

    Each integrand is a product of at most four propagators, a trigonometric polynomial of
    frequency <= 4, so ceil(2 tau) + 16 Gauss-Legendre nodes are converged to rounding.
    Intervals longer than ``_MAX_PANEL`` are split into equal panels with that rule each.
    """
    panels = max(1, math.ceil(tau / _MAX_PANEL))
    length = tau / panels
    nodes, weights = _legendre_rule(math.ceil(2.0 * length) + 16)
    return 0.5 * length * sum(
        np.tensordot(weights, integrand(propagator(g, length * (k + 0.5 * (nodes + 1.0)))), 1)
        for k in range(panels)
    )


def lyapunov_integral(g: float, tau: float, gamma_x: float) -> np.ndarray:
    """Accumulated diffusion int_0^tau S(tau-t) D S(tau-t)^T dt, D = gamma_x diag(0, 1, 0, 1).

    Evaluated in closed form, one 2x2 block per normal mode.
    """
    _check_coupling(g)
    _check_tau(tau)
    _check_diffusion_rate(gamma_x)
    if tau == 0.0 or gamma_x == 0.0:
        return np.zeros((4, 4))
    w = np.array([1.0, mode_frequency(g)])
    return _from_modes(*_mode_lyapunov(w, gamma_x, tau))


def evolve_covariance(
    sigma0: np.ndarray, g: float, tau: float, gamma_x: float = 0.0
) -> np.ndarray:
    """Covariance at time tau: S sigma0 S^T plus the diffusion integral at rate gamma_x."""
    sigma0 = np.asarray(sigma0, dtype=float)
    ok, margin = heisenberg_ok(sigma0)
    if not ok:
        raise ValueError(
            f"initial covariance violates the uncertainty bound (margin {margin:.3e})"
        )
    s = propagator(g, tau)
    sigma = s @ sigma0 @ s.T + lyapunov_integral(g, tau, gamma_x)
    return 0.5 * (sigma + sigma.T)
