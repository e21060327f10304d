"""Shared independent oracles used by the test suite.

These deliberately avoid the closed forms they are used to check: Taylor
coefficients come from numerical differentiation of the exact potential, and
reference QRDMs are assembled directly from a phase and contrast exponents.
The reference kernels at the end redo the two ``sgipair.oracle`` integrators
the direct way (stage-wise RK4, one block at a time, dense operators) to
check its step map, stacked generator and mode-local observables.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from sgipair.phase_space import symplectic_form
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


def reference_moment_states(problem, dt: float) -> np.ndarray:
    """Stage-wise RK4 of the moment equations, one derivative call per stage.

    Returns (T, 32) states: row-major sigma followed by the (+,+), (+,-),
    (-,+), (-,-) branch means.  Reference for the step-map integrator.
    """
    omega = symplectic_form()
    drift_matrix = omega @ problem.h_matrix
    pairs = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def deriv(y):
        sigma = y[:16].reshape(4, 4)
        out = np.empty_like(y)
        out[:16] = (drift_matrix @ sigma + sigma @ drift_matrix.T + problem.d_matrix).ravel()
        for idx, (j, m) in enumerate(pairs):
            r = y[16 + 4 * idx : 20 + 4 * idx]
            out[16 + 4 * idx : 20 + 4 * idx] = drift_matrix @ r + omega @ (
                problem.drifts.branch_drift(j, m)
            )
        return out

    y0 = np.concatenate([problem.sigma0.ravel()] + [problem.r0] * 4)
    return _rk4_samples(deriv, y0, problem.tau_grid, dt)


def _rk4_samples(deriv, y, grid, dt, after_slot=lambda y: y):
    samples = [y]
    for start, stop in zip(grid[:-1], grid[1:]):
        n_steps = max(1, math.ceil((stop - start) / dt))
        h = (stop - start) / n_steps
        for _ in range(n_steps):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * h * k1)
            k3 = deriv(y + 0.5 * h * k2)
            k4 = deriv(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = after_slot(y)
        samples.append(y)
    return np.array(samples)


def reference_fock_observables(problem):
    """QRDM, first moments and branch covariances from dense two-mode operators.

    Noise-free problems use the exact branch kets; otherwise each of the ten
    upper-triangle qubit-sector blocks is integrated on its own by
    stage-wise RK4, with single-mode operators applied by ``tensordot``.
    Observables are traces against dense ``np.kron`` operators.  Reference
    for the mode-local, stacked kernels of ``sgipair.oracle``.
    """
    from sgipair.dynamics import BranchLabel
    from sgipair.oracle import _single_mode_initial

    params, n = problem.params, problem.n_max
    dim = n * n
    grid = np.asarray(problem.tau_grid, dtype=float)
    rho0 = problem.qubit_rho0
    if rho0 is None:
        rho0 = np.full((4, 4), 0.25, dtype=complex)
    a = np.diag(np.sqrt(np.arange(1, n)), k=1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    eye = np.eye(n)
    quads = [np.kron(x, eye), np.kron(p, eye), np.kron(eye, x), np.kron(eye, p)]
    labels = [BranchLabel.from_bits(r, c) for r in range(4) for c in range(4)]
    gamma_x, gamma_q = params.gamma_x / 4.0, params.gamma_z / 4.0

    def bits(label):
        return 2 * (label.j < 0) + (label.m < 0), 2 * (label.k < 0) + (label.n < 0)

    def scalar(label):
        return gamma_q * ((label.j - label.k) ** 2 + (label.m - label.n) ** 2)

    blocks = {}  # label -> (T, dim, dim) density-operator block
    if params.gamma_x == 0.0 and params.s == 1.0 and params.n_p == 0.0:
        x1, p1, x2, p2 = quads
        h2 = (0.5 * (p1 @ p1 + p2 @ p2 + (1.0 - params.g) * (x1 @ x1 + x2 @ x2))
              + params.g * (x1 @ x2)).real
        kets = {}
        for j in (1, -1):
            for m in (1, -1):
                energies, vectors = np.linalg.eigh(h2 + params.f_q * (j * x1 + m * x2).real)
                phases = np.exp(-1j * np.outer(grid, energies))
                kets[(j, m)] = (phases * vectors[0].conj()) @ vectors.T
        for label in labels:
            ket, bra = kets[(label.j, label.m)], kets[(label.k, label.n)]
            weight = rho0[bits(label)] * np.exp(-scalar(label) * grid)
            blocks[label] = weight[:, None, None] * np.einsum("ta,tb->tab", ket, bra.conj())
    else:
        h_mode = (0.5 * (p @ p + (1.0 - params.g) * (x @ x))).real
        h_branch = {e: h_mode + e * params.f_q * x for e in (1, -1)}

        def left(op, block, mode):
            view = block.reshape(n, n, dim)
            if mode == 1:
                return np.tensordot(op, view, axes=(1, 0)).reshape(dim, dim)
            return np.tensordot(op, view, axes=(1, 1)).transpose(1, 0, 2).reshape(dim, dim)

        def right(op, block, mode):
            view = block.reshape(dim, n, n)
            if mode == 1:
                return np.tensordot(view, op, axes=(1, 0)).transpose(0, 2, 1).reshape(dim, dim)
            return np.tensordot(view, op, axes=(2, 0)).reshape(dim, dim)

        def hamiltonian(block, j, m, apply_):
            out = apply_(h_branch[j], block, 1) + apply_(h_branch[m], block, 2)
            return out + params.g * apply_(x, apply_(x, block, 1), 2)

        rho_cv = _single_mode_initial(params.s, params.n_p, n)
        rho_cv = np.kron(rho_cv, rho_cv)
        for label in labels:
            if bits(label)[0] > bits(label)[1]:
                continue

            def deriv(block, label=label):
                out = -1j * (hamiltonian(block, label.j, label.m, left)
                             - hamiltonian(block, label.k, label.n, right))
                for mode in (1, 2):
                    out -= gamma_x * (left(x @ x, block, mode) + right(x @ x, block, mode)
                                      - 2.0 * left(x, right(x, block, mode), mode))
                return out - scalar(label) * block

            def symmetrize(rho, diagonal=label.is_diagonal):
                return 0.5 * (rho + rho.conj().T) if diagonal else rho

            samples = _rk4_samples(deriv, rho0[bits(label)] * rho_cv, grid, problem.dt, symmetrize)
            blocks[label] = samples
            blocks[label.swapped] = samples.conj().transpose(0, 2, 1)

    qrdm = np.zeros((len(grid), 4, 4), dtype=complex)
    first, cov = {}, {}
    for label in labels:
        rho = blocks[label]
        overlap = np.trace(rho, axis1=1, axis2=2)
        qrdm[:, bits(label)[0], bits(label)[1]] = overlap
        first[label] = np.stack(
            [np.einsum("ba,tab->t", q, rho) for q in quads], axis=1
        ) / overlap[:, None]
        if label.is_diagonal:
            mean = first[label].real
            second = np.array(
                [
                    [np.einsum("ba,tab->t", qa @ qb + qb @ qa, rho).real for qb in quads]
                    for qa in quads
                ]
            ).transpose(2, 0, 1)
            cov[(label.j, label.m)] = (
                second / overlap.real[:, None, None] - 2.0 * mean[:, :, None] * mean[:, None, :]
            )
    return qrdm, first, cov
