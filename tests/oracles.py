"""Shared independent oracles used by the test suite.

These deliberately avoid the closed forms they are used to check: Taylor
coefficients come from numerical differentiation of the exact potential, the
propagator from scipy's matrix exponential, and reference QRDMs are assembled
directly from a phase and contrast exponents.  Their negativities come from
the eigensolver of the partial transpose and their witness values from
4x4 witness matrices, never from the package's X-state formulas.
The reference kernels at the end redo the two ``sgipair.oracle`` integrators
the direct way (stage-wise RK4 for the moments; for the Fock oracle a dense
Liouvillian per normal mode, exponentiated by scipy, and the two-mode system in
the product Fock basis of (x1, x2)) to check its step map, its stacked series
and its normal-mode factorization, and
evaluate the propagator integrals of ``phase_space``/``dynamics`` by
adaptive quadrature to check their per-mode closed forms.  The
branch-pair reference evaluates the general branch-pair formula one label at
a time, from S(tau), m1 and a memory integral m2 by Gauss-Legendre
quadrature, to check the cat-state branch moments and the QRDM phase and
contrast closed forms.  The CSV reference formats every cell on
its own, row by row, to check the CLI's block writer.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from sgipair.phase_space import propagator
from sgipair.potentials import HBAR, PotentialSpec

# Symplectic form of (x1, p1, x2, p2), and the force directions (j, 0, m, 0) of the branches
# (j, m) in the order (+,+), (+,-), (-,+), (-,-).
OMEGA = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
BRANCH_FORCES = {(j, m): np.array([j, 0.0, m, 0.0]) for j in (1, -1) for m in (1, -1)}


def sgi_hamiltonian(g: float) -> np.ndarray:
    """Quadratic form H of the coupled traps: diag(1-g, 1, 1-g, 1) plus g between x1 and x2."""
    return np.array([[1 - g, 0, g, 0], [0, 1, 0, 0], [g, 0, 1 - g, 0], [0, 0, 0, 1]], dtype=float)


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


def partial_transpose(rho: np.ndarray, qubit: int = 2) -> np.ndarray:
    """Partial transpose of one qubit, sum over k, l of E_kl rho E_kl, E_kl = |k><l| on that qubit.

    Broadcasts over stacks of shape (..., 4, 4).
    """
    flips = [np.outer(bra, ket) for bra in np.eye(2) for ket in np.eye(2)]
    ops = [np.kron(np.eye(2), f) if qubit == 2 else np.kron(f, np.eye(2)) for f in flips]
    return sum(op @ rho @ op for op in ops)


def eigensolver_negativity(rho: np.ndarray) -> np.ndarray:
    """PPT negativity max(0, -2 lambda_min) of the partial transpose, by ``eigvalsh``."""
    return np.maximum(0.0, -2.0 * np.linalg.eigvalsh(partial_transpose(rho))[..., 0])


def pauli_witness() -> np.ndarray:
    """Half-normalized Pauli witness (XX + YZ + ZY - II)/2."""
    i, x = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])
    y, z = np.array([[0.0, -1j], [1j, 0.0]]), np.diag([1.0, -1.0])
    return (np.kron(x, x) + np.kron(y, z) + np.kron(z, y) - np.kron(i, i)) / 2.0


def witness_matrix(w: float) -> np.ndarray:
    """Negativity witness -(|v><v|)^T2 of the partially transposed eigenvector v = (1, iw, -iw, -1).

    Normalized by |v|^2 = 2 + 2 w^2; its trace against the ideal QRDM at the
    exact w is the negative PT eigenvalue magnitude.
    """
    v = np.array([1.0, 1j * w, -1j * w, -1.0])
    return -partial_transpose(np.outer(v, v.conj())) / (2.0 + 2.0 * w**2)


def witness_trace(witness: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Real part of Tr[W rho], over stacks of rho of shape (..., 4, 4)."""
    return np.trace(witness @ rho, axis1=-2, axis2=-1).real


def propagator_expm(g: float, tau: float) -> np.ndarray:
    """Generic propagator exp(tau Omega H) by scipy's scaling-and-squaring matrix exponential.

    Reference for the closed-form ``phase_space.propagator``.
    """
    from scipy.linalg import expm

    return expm(tau * OMEGA @ sgi_hamiltonian(g))


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


def initial_moment_state(params) -> np.ndarray:
    """Row-major sigma0 of two squeezed thermal modes, then 16 zero branch means.

    Each mode has variances (1 + 2 n_p) s in x and (1 + 2 n_p)/s in p, uncorrelated.
    """
    variances = (1.0 + 2.0 * params.n_p) * np.array([params.s, 1.0 / params.s] * 2)
    return np.concatenate([np.diag(variances).ravel(), np.zeros(16)])


def reference_moment_states(problem, dt: float) -> np.ndarray:
    """Stage-wise RK4 of the moment equations, one derivative call per stage.

    Returns (T, 32) states: row-major sigma followed by the (+,+), (+,-),
    (-,+), (-,-) branch means, from ``initial_moment_state``.  The model is
    written out from ``problem.params``: H, the forces f_q (j, 0, m, 0) and
    the diffusion matrix gamma_x diag(0, 1, 0, 1).  Reference for the
    step-map integrator.
    """
    params = problem.params
    drift_matrix = OMEGA @ sgi_hamiltonian(params.g)
    diffusion = params.gamma_x * np.diag([0.0, 1.0, 0.0, 1.0])

    def deriv(y):
        sigma = y[:16].reshape(4, 4)
        out = np.empty_like(y)
        out[:16] = (drift_matrix @ sigma + sigma @ drift_matrix.T + diffusion).ravel()
        for idx, force in enumerate(BRANCH_FORCES.values()):
            r = y[16 + 4 * idx : 20 + 4 * idx]
            out[16 + 4 * idx : 20 + 4 * idx] = drift_matrix @ r + OMEGA @ (params.f_q * force)
        return out

    return _rk4_samples(deriv, initial_moment_state(params), problem.tau_grid, dt)


def _rk4_samples(deriv, y, grid, dt):
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
        samples.append(y)
    return np.array(samples)


def _taylor_samples(deriv, norm_bound, y, grid, after_slot):
    """exp(tau L) y on the grid, for a linear L with ||L|| <= ``norm_bound``.

    Each slot is split into substeps with h ||L|| <= 1, so the terms
    (hL)^k y / k! of the Taylor series of exp(hL) y shrink from the first
    on; a substep sums them until one is below 1e-17 of the sum.
    ``after_slot`` is applied to the state at every grid time.
    """
    samples = [y]
    for start, stop in zip(grid[:-1], grid[1:]):
        n_steps = max(1, math.ceil((stop - start) * norm_bound))
        h = (stop - start) / n_steps
        for _ in range(n_steps):
            term, total, order = y, y, 0
            while True:
                order += 1
                term = (h / order) * deriv(term)
                total = total + term
                if np.max(np.abs(term)) <= 1e-17 * np.max(np.abs(total)):
                    break
            y = total
        y = after_slot(y)
        samples.append(y)
    return np.array(samples)


def reference_two_mode_qrdm(problem):
    """QRDM of the two-mode system in the product Fock basis of (x1, x2), from dense operators.

    Noise-free problems use the exact branch kets; otherwise each of the ten
    upper-triangle qubit-sector blocks is propagated on its own by the
    Taylor series of its generator, exact to rounding, with single-mode
    operators applied by ``tensordot``.  Each QRDM entry is the trace of its
    block.  The truncation (n_max levels of x1 and of x2) differs from the
    oracle's (n_max levels of each normal mode), so the two agree where both
    are converged.
    """
    from sgipair.dynamics import BranchLabel
    from sgipair.oracle import _single_mode_initial

    params, n = problem.params, problem.n_max
    dim = n * n
    grid = np.asarray(problem.tau_grid, dtype=float)
    plus_plus = np.full(4, 0.5)  # |+>|+> in the computational basis 00, 01, 10, 11
    rho0 = np.outer(plus_plus, plus_plus)
    a = np.diag(np.sqrt(np.arange(1, n)), k=1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    eye = np.eye(n)
    labels = [BranchLabel.from_bits(r, c) for r in range(4) for c in range(4)]
    gamma_x, gamma_q = params.gamma_x / 4.0, params.gamma_z / 4.0

    def bits(label):
        return 2 * (label.j < 0) + (label.m < 0), 2 * (label.k < 0) + (label.n < 0)

    def scalar(label):
        return gamma_q * ((label.j - label.k) ** 2 + (label.m - label.n) ** 2)

    blocks = {}  # label -> (T, dim, dim) density-operator block
    if params.gamma_x == 0.0 and params.s == 1.0 and params.n_p == 0.0:
        x1, p1, x2, p2 = np.kron(x, eye), np.kron(p, eye), np.kron(eye, x), np.kron(eye, p)
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
        # Parity maps x to -x, so both branch spectra are the same; shifting h_mode
        # by their midpoint moves ket and bra alike and leaves the generator unchanged.
        levels = np.linalg.eigvalsh(h_mode + params.f_q * x)
        h_mode -= 0.5 * (levels[0] + levels[-1]) * eye
        h_branch = {e: h_mode + e * params.f_q * x for e in (1, -1)}
        x_norm = np.linalg.norm(x, 2)
        # ||L|| <= ||H_ket|| + ||H_bra|| + diffusion + dephasing
        branch_norm = levels[-1] - levels[0] + params.g * x_norm**2
        norm_bound = 2.0 * branch_norm + 8.0 * (gamma_x * x_norm**2 + gamma_q)

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

        factor = _single_mode_initial(params.s, params.n_p, n)
        rho_cv = np.kron(factor @ factor.T, factor @ factor.T)
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

            def symmetrize(rho, diagonal=label.j == label.k and label.m == label.n):
                return 0.5 * (rho + rho.conj().T) if diagonal else rho

            samples = _taylor_samples(
                deriv, norm_bound, rho0[bits(label)] * rho_cv, grid, symmetrize
            )
            blocks[label] = samples
            swapped = BranchLabel(j=label.k, k=label.j, m=label.n, n=label.m)
            blocks[swapped] = samples.conj().transpose(0, 2, 1)

    qrdm = np.zeros((len(grid), 4, 4), dtype=complex)
    for label in labels:
        qrdm[:, bits(label)[0], bits(label)[1]] = np.trace(blocks[label], axis1=1, axis2=2)
    return qrdm


def reference_single_mode_density(s: float, n_p: float, n_max: int) -> np.ndarray:
    """Fock-basis density matrix of a squeezed thermal single-mode state, as a matrix.

    The thermal weights w_k = n_p^k/(1 + n_p)^(k+1), renormalized over the n_max
    levels, squeezed as S diag(w) S^T with the squeezer S = exp(r (a^2 - a^dag^2)/2),
    r = -ln(s)/2, from the eigenvectors of the Hermitian i r (a^2 - a^dag^2)/2, and
    normalized to unit trace.  The form ``sgipair.oracle`` used before it kept
    the factor K of rho = K K^T.
    """
    weights = np.zeros(n_max)
    if n_p == 0.0:
        weights[0] = 1.0
    else:
        ratio = n_p / (1.0 + n_p)
        weights = ratio ** np.arange(n_max, dtype=float) / (1.0 + n_p)
        weights /= weights.sum()
    rho = np.diag(weights).astype(complex)
    if s != 1.0:
        a = np.diag(np.sqrt(np.arange(1, n_max)), k=1)
        r = -0.5 * np.log(s)
        energies, vectors = np.linalg.eigh(0.5j * r * (a @ a - a.T @ a.T))
        squeezer = ((vectors * np.exp(-1j * energies)) @ vectors.conj().T).real
        rho = squeezer @ rho @ squeezer.T
        rho /= np.trace(rho).real
    return rho


def reference_mode_qrdm(problem):
    """QRDM of the oracle's truncated normal-mode model, from a dense Liouvillian per mode.

    The modes x+- = (x1 +- x2)/sqrt(2) have w+^2 = 1 and w-^2 = 1 - 2g, and branch
    (j, m) drives them with F+- = f_q (j +- m)/sqrt(2).  Each mode has n_max Fock
    levels, as in ``sgipair.oracle``; its density operator rho evolves by
    d rho/dtau = -i (h_ket rho - rho h_bra) - (gamma_x/4) [x, [x, rho]] with
    h = p^2/2 + w^2 x^2/2 + F x, as one n^2 x n^2 matrix L on the row-major
    vec(rho), vec(A rho B) = (A kron B^T) vec(rho), exponentiated by scipy's
    ``expm`` at each grid time.  QRDM entry (row, col) is
    e^{-gamma_z n_diff tau}/4 Tr rho+ Tr rho-.  Same-truncation reference for
    the stacked Chebyshev series of ``fock_propagate``.
    """
    from scipy.linalg import expm

    from sgipair.dynamics import BranchLabel
    from sgipair.oracle import _single_mode_initial

    params, n = problem.params, problem.n_max
    grid = np.asarray(problem.tau_grid, dtype=float)
    a = np.diag(np.sqrt(np.arange(1, n)), k=1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    eye = np.eye(n)
    factor = _single_mode_initial(params.s, params.n_p, n)
    rho0 = (factor @ factor.T).ravel()
    curvatures = {+1: 1.0, -1: 1.0 - 2.0 * params.g}
    diffusion = np.kron(x @ x, eye) + np.kron(eye, (x @ x).T) - 2.0 * np.kron(x, x.T)

    def trace(sign, force_ket, force_bra):
        def h(force):
            return 0.5 * (p @ p) + 0.5 * curvatures[sign] * (x @ x) + force * x

        liouvillian = -1j * (np.kron(h(force_ket), eye) - np.kron(eye, h(force_bra).T))
        liouvillian -= 0.25 * params.gamma_x * diffusion
        return np.array([np.trace((expm(tau * liouvillian) @ rho0).reshape(n, n)) for tau in grid])

    qrdm = np.empty((len(grid), 4, 4), dtype=complex)
    for row in range(4):
        for col in range(4):
            label = BranchLabel.from_bits(row, col)
            flips = (label.j != label.k) + (label.m != label.n)
            entry = 0.25 * np.exp(-params.gamma_z * flips * grid)
            for sign in (+1, -1):
                forces = [params.f_q * (j + sign * m) / math.sqrt(2.0)
                          for j, m in ((label.j, label.m), (label.k, label.n))]
                entry = entry * trace(sign, *forces)
            qrdm[:, row, col] = entry
    return qrdm


def reference_propagator_integrals(g: float, tau: float, d_matrix: np.ndarray) -> dict:
    """The three propagator integrals by adaptive Gauss-Kronrod (``quad_vec``).

    With K(u) = S(u) D S(u)^T and S = S(tau), returns
    "lyapunov" = int_0^tau K(u) du,
    "m1" = int_0^tau K(u) Omega (S(u) - S) du and
    "m2" = int_0^tau (S(u) - S)^T Omega^T K(u) Omega (S(u) + S - 2I) du,
    each at relative tolerance 1e-11 and absolute tolerance 1e-14, one
    propagator per sample.  Reference for the closed-form L and m1 of
    ``phase_space._mode_entries`` (L is the diffusion term of
    ``evolve_covariance``) and for ``reference_m2``.
    """
    from scipy.integrate import quad_vec

    s = propagator(g, tau)

    def kernel(u: float) -> tuple[np.ndarray, np.ndarray]:
        s_u = propagator(g, u)
        return s_u, s_u @ d_matrix @ s_u.T

    def lyapunov(u: float) -> np.ndarray:
        return kernel(u)[1]

    def m1(u: float) -> np.ndarray:
        s_u, k_u = kernel(u)
        return k_u @ OMEGA @ (s_u - s)

    def m2(u: float) -> np.ndarray:
        s_u, k_u = kernel(u)
        return (s_u - s).T @ OMEGA.T @ k_u @ OMEGA @ (s_u + s - 2.0 * np.eye(4))

    return {
        name: quad_vec(integrand, 0.0, tau, epsrel=1e-11, epsabs=1e-14)[0]
        for name, integrand in (("lyapunov", lyapunov), ("m1", m1), ("m2", m2))
    }


def reference_m2(g, tau, gamma_x) -> np.ndarray:
    """m2 = int_0^tau (S(u) - S)^T Omega^T K(u) Omega (S(u) + S - 2I) du, shape (..., 4, 4).

    K(u) = S(u) D S(u)^T with D = gamma_x diag(0, 1, 0, 1) and S = S(tau).  The integrand is
    a trigonometric polynomial of frequency <= 3 in u, so a 16-node Gauss-Legendre rule on
    each of ceil(tau/2) equal panels is exact to rounding.  Broadcasts over g, tau
    and gamma_x, one ``propagator`` per node; a grid point takes only its own panels.
    """
    g, tau, gamma_x = np.broadcast_arrays(g, tau, gamma_x)
    shape = g.shape
    g, tau, gamma_x = g.ravel(), tau.ravel(), gamma_x.ravel()
    x, weights = np.polynomial.legendre.leggauss(16)
    panels = np.maximum(1.0, np.ceil(tau / 2.0))
    width = tau / panels
    s = propagator(g, tau)[:, None]
    d_matrix = gamma_x[:, None, None, None] * np.diag([0.0, 1.0, 0.0, 1.0])
    total = np.zeros(tau.shape + (4, 4))
    for panel in range(int(panels.max())):
        on = panels > panel
        s_u = propagator(g[on, None], width[on, None] * (panel + 0.5 * (x + 1.0)))
        k_u = s_u @ d_matrix[on] @ np.swapaxes(s_u, -1, -2)
        right = OMEGA @ (s_u + s[on] - 2.0 * np.eye(4))
        integrand = np.swapaxes(s_u - s[on], -1, -2) @ OMEGA.T @ k_u @ right
        total[on] += np.einsum("pn,pnij->pij", 0.5 * width[on, None] * weights, integrand)
    return total.reshape(shape + (4, 4))


def reference_branch_pair(
    s_tau, m1, params, tau, label, sigma, m2, h_matrix
) -> tuple[np.ndarray, tuple]:
    """First-moment vector and (phase, contrast) of one label by the general branch-pair formula.

    S(tau) and the memory integral m1 are those of ``phase_space._normal_modes`` of
    ``params`` at tau.  The displaced equilibria r solve H r = f_q (j, 0, m, 0) by LAPACK, and
    the shifts are delta = (S(tau) - I) r.  The evolved covariance sigma, the memory integral
    m2 and H also come from the caller.  One label at a time, one quadratic form at a time,
    broadcast over the grid axes of the inputs.
    """
    def form(a, matrix, b):  # a^T matrix b over the last axes
        return np.einsum("...i,...ij,...j->...", a, matrix, b)

    def apply(matrix, v):
        return np.einsum("...ij,...j->...i", matrix, v)

    def equilibrium(j, m):
        force = np.asarray(params.f_q)[..., None] * BRANCH_FORCES[j, m]
        return np.linalg.solve(h_matrix, force[..., None])[..., 0]

    r_ket, r_bra = equilibrium(label.j, label.m), equilibrium(label.k, label.n)
    delta_ket, delta_bra = apply(s_tau - np.eye(4), r_ket), apply(s_tau - np.eye(4), r_bra)
    delta_eq = r_ket - r_bra
    mismatch = delta_ket - delta_bra
    vector = 0.5 * (delta_ket + delta_bra) + 0j
    if label.j != label.k or label.m != label.n:
        vector += 0.5j * apply(sigma @ OMEGA, mismatch)
        vector += 0.5j * apply(m1, delta_eq)
    phase = form(delta_eq, OMEGA, 0.5 * (delta_ket + delta_bra))
    phase = phase + 0.5 * tau * form(delta_eq, h_matrix, r_ket + r_bra)
    contrast = 0.25 * form(mismatch, OMEGA.T @ sigma @ OMEGA, mismatch)
    # Independent qubit dephasing: (j-k)^2 + (m-n)^2 in units of gamma_z/4.
    dephasing = ((label.j - label.k) ** 2 + (label.m - label.n) ** 2) / 4.0
    contrast = contrast + params.gamma_z * tau * dephasing
    contrast = contrast + 0.25 * form(delta_eq, m2, delta_eq)
    return vector, (phase, contrast)


def csv_document(metadata: dict[str, str], header: list[str], rows) -> str:
    """A '#'-metadata CSV with every cell formatted on its own, row by row."""
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"
