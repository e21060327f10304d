"""Shared independent oracles used by the test suite.

These deliberately avoid the closed forms they are used to check: Taylor
coefficients come from numerical differentiation of the exact potential, and
reference QRDMs are assembled directly from a phase and contrast exponents.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from sgipair.potentials import HBAR, PotentialSpec


def taylor_coefficients(
    spec: PotentialSpec, M: float, omega: float, degree: int = 16
) -> list[float]:
    """First four Taylor coefficients of 2 V/(hbar omega) in u = x1 - x2.

    Chebyshev least-squares differentiation on a window that is tiny
    compared to the separation scale; returns [c1, c2, c3, c4] such that
    the expansion reads -c1 u - c2 u^2 - c3 u^3 - c4 u^4 after dropping the
    constant (i.e. the sampled series coefficients, sign included).
    """
    x0 = math.sqrt(HBAR / (2.0 * M * omega))
    scale = 2.0 / (HBAR * omega)
    u_scale = spec.d / (math.sqrt(2.0) * x0)
    window = 0.04 * u_scale
    nodes = np.cos(np.pi * (np.arange(161) + 0.5) / 161)  # Chebyshev points
    us = window * nodes
    values = np.array([scale * spec.exact(math.sqrt(2.0) * x0 * u) for u in us])
    cheb = np.polynomial.chebyshev.Chebyshev.fit(us, values, deg=degree, domain=[-window, window])
    series = cheb.convert(kind=np.polynomial.polynomial.Polynomial)
    return [float(series.coef[k]) for k in (1, 2, 3, 4)]


def central_difference_coefficients(
    spec: PotentialSpec, M: float, omega: float
) -> list[float]:
    """Same four coefficients from 4th-order central finite differences."""
    x0 = math.sqrt(HBAR / (2.0 * M * omega))
    scale = 2.0 / (HBAR * omega)
    u_scale = spec.d / (math.sqrt(2.0) * x0)
    h = 0.01 * u_scale

    def phi(u: float) -> float:
        return scale * spec.exact(math.sqrt(2.0) * x0 * u)

    samples = {k: phi(k * h) for k in range(-4, 5)}

    def stencil(weights: dict[int, float]) -> float:
        return sum(w * samples[k] for k, w in weights.items())

    d1 = stencil({-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12}) / h
    d2 = stencil({-2: -1 / 12, -1: 4 / 3, 0: -5 / 2, 1: 4 / 3, 2: -1 / 12}) / h**2
    d3 = stencil(
        {-3: 1 / 8, -2: -1, -1: 13 / 8, 1: -13 / 8, 2: 1, 3: -1 / 8}
    ) / h**3
    d4 = stencil(
        {-3: -1 / 6, -2: 2, -1: -13 / 2, 0: 28 / 3, 1: -13 / 2, 2: 2, 3: -1 / 6}
    ) / h**4
    return [d1, d2 / 2.0, d3 / 6.0, d4 / 24.0]


def ideal_qrdm(phi: float, contrast: float) -> np.ndarray:
    """Closure-time QRDM with single-flip exponent C, (00|11) entry 4C.

    Single-flip entries are exp(-C -/+ i phi), the (00|11) entry exp(-4C)
    and the (01|10) entry 1, all over 4.
    """
    upper = cmath.exp(-contrast - 1j * phi)
    lower = cmath.exp(-contrast + 1j * phi)
    both = math.exp(-4.0 * contrast)
    return (
        np.array(
            [
                [1.0, upper, upper, both],
                [lower, 1.0, 1.0, lower],
                [lower, 1.0, 1.0, lower],
                [both, upper, upper, 1.0],
            ]
        )
        / 4.0
    )


def reference_covariance(g: float, tau: float) -> np.ndarray:
    """Independent transcription of the published ground-state covariance sigma(tau)."""
    w = math.sqrt(1.0 - 2.0 * g)
    s2 = math.sin(w * tau) ** 2
    sin2 = math.sin(2.0 * w * tau)
    a = (2.0 - g * (3.0 + math.cos(2.0 * w * tau))) / (2.0 * w**2)
    b = (g / (2.0 * w)) * sin2
    c = -(g / w**2) * s2
    d = 0.5 * (g * math.cos(2.0 * w * tau) - g + 2.0)
    e = g * s2
    return np.array(
        [
            [a, b, c, -b],
            [b, d, -b, e],
            [c, -b, a, b],
            [-b, e, b, d],
        ]
    )


def reference_diffusion_covariance(g: float) -> np.ndarray:
    """Independent transcription of the published diffusive covariance at closure, unit rate.

    Two published powers, omega_g^(2/3) and omega_g^(3/2), are typeset
    corruptions of omega_g^(-3); this transcription uses the consistent
    power, which the quadrature oracle confirms.
    """
    w = math.sqrt(1.0 - 2.0 * g)
    s4 = math.sin(4.0 * math.pi / w)
    s2q = math.sin(2.0 * math.pi / w) ** 2
    a = math.pi * (1.0 - g) / w**3 - s4 / 8.0
    b = s2q / 4.0
    c = -math.pi * g / w**3 - s4 / 8.0
    d = math.pi / w + s4 / 8.0
    e = s4 / 8.0
    return np.array(
        [
            [a, b, c, b],
            [b, d, b, e],
            [c, b, a, b],
            [b, e, b, d],
        ]
    )


def squeezed_covariance_display(g: float, s: float) -> np.ndarray:
    """Independent transcription of the published closure-time squeezed covariance.

    Carries the published 1/(4 s omega_g^2) prefactor; its pp diagonal is
    known to sit (1 - s^2)/(2 s) below the propagated covariance, which the
    tests assert rather than assume away.
    """
    w = math.sqrt(1.0 - 2.0 * g)
    ds2 = 1.0 - s**2
    c4 = math.cos(4.0 * math.pi / w)
    s4 = math.sin(4.0 * math.pi / w)
    s2q = math.sin(2.0 * math.pi / w) ** 2
    xx = (3.0 * s**2 + 1.0 - ds2 * c4) / (4.0 * s)
    pp = (3.0 * s**2 + 1.0 + ds2 * c4) / (4.0 * s)
    xp = ds2 * s4 / (4.0 * s)
    xx_cross = 2.0 * ds2 * s2q / (4.0 * s)
    pp_cross = 2.0 * (s**2 - 1.0) * s2q / (4.0 * s)
    return np.array(
        [
            [xx, xp, xx_cross, xp],
            [xp, pp, xp, pp_cross],
            [xx_cross, xp, xx, xp],
            [xp, pp_cross, xp, pp],
        ]
    )
