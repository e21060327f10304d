"""Independent brute-force verification of the closed-form dynamics.

Two oracles, neither of which shares code with the closed forms they check:

* a fixed-step 4th-order integrator for the first- and second-moment
  equations of motion (valid for any Gaussian initial state and diffusion
  matrix).  The equations are linear and autonomous, dy/dtau = A y + b,
  so each classical RK4 step is applied as its exact one-step map
  y -> y + (M y + q), built once per step size from A and b; and
* truncated-Fock-space propagation of the full two-qubit x two-mode system.
  Noise-free branches are propagated exactly as kets.  Under position
  diffusion the ten independent qubit-sector blocks of the density
  operator are advanced by RK4 in the eigenbasis of the truncated position
  matrix x (the discrete-variable representation of Light, Hamilton and
  Lill, J. Chem. Phys. 82, 1400 (1985)).  There x is diagonal, so the
  potentials, the x1 x2 coupling, the position diffusion and the qubit
  dephasing are one elementwise factor, and only the kinetic energy p^2/2
  acts as a matrix, one real matrix product per mode axis.  The blocks run
  concurrently on one thread per available CPU, up to ten; each block's
  arithmetic is the same on any number of threads, so the results do not
  depend on it.

The Fock oracle adopts the rate normalization of the closed forms: the
position dissipator acts at gamma_x/4 per mode and the qubit dephasing at
gamma_z/4 per qubit, so that the single-flip QRDM exponents decay as
gamma_x- and gamma_z-linear closed-form contrasts.  ``compare`` packages
deviations into a machine-readable report.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dynamics import BranchLabel
from .phase_space import (
    DriftSpec,
    sgi_diffusion_matrix,
    sgi_drift_spec,
    sgi_hamiltonian_matrix,
    symplectic_form,
)
from .potentials import UnitlessParams, _require

__all__ = [
    "OracleError",
    "MomentOdeProblem",
    "MomentTrajectories",
    "integrate_moments",
    "FockProblem",
    "FockResult",
    "fock_propagate",
    "QuantityComparison",
    "ComparisonReport",
    "compare",
]

logger = logging.getLogger(__name__)

_OMEGA = symplectic_form()
_DIAGONAL_PAIRS = tuple(product((+1, -1), repeat=2))


class OracleError(RuntimeError):
    """Oracle self-diagnostics failed; results must not be trusted."""


def _check_tau_grid(tau_grid) -> None:
    """One ValueError unless the grid is finite, ascending and starts at 0."""
    grid = np.asarray(tau_grid, dtype=float)
    _require("tau_grid", grid, np.isfinite(grid), "must be finite")
    if grid.ndim != 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("tau_grid must be ascending and start at 0")


# --------------------------------------------------------------------------
# Moment-equation integrator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentOdeProblem:
    """Gaussian moment equations: quadratic form, drifts, diffusion, state."""

    h_matrix: np.ndarray
    drifts: DriftSpec
    d_matrix: np.ndarray
    sigma0: np.ndarray
    r0: np.ndarray
    tau_grid: np.ndarray

    def __post_init__(self) -> None:
        _check_tau_grid(self.tau_grid)

    @classmethod
    def for_sgi(
        cls,
        params: UnitlessParams,
        tau_grid: np.ndarray,
        sigma0: np.ndarray | None = None,
    ) -> "MomentOdeProblem":
        """Problem for the two-SGI model at the given dimensionless parameters."""
        if sigma0 is None:
            sigma0 = (1.0 + 2.0 * params.n_p) * np.diag(
                [params.s, 1.0 / params.s, params.s, 1.0 / params.s]
            )
        return cls(
            h_matrix=sgi_hamiltonian_matrix(params.g),
            drifts=sgi_drift_spec(params.f_q),
            d_matrix=sgi_diffusion_matrix(params.gamma_x),
            sigma0=np.asarray(sigma0, dtype=float),
            r0=np.zeros(4),
            tau_grid=np.asarray(tau_grid, dtype=float),
        )


@dataclass(frozen=True)
class MomentTrajectories:
    """Sampled covariance and diagonal-branch means on the problem's grid."""

    tau_grid: np.ndarray
    sigma: np.ndarray                     # (T, 4, 4)
    branch_means: dict[tuple[int, int], np.ndarray]  # (j, m) -> (T, 4)
    step: float


def _moment_generator(problem: MomentOdeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Matrix A and vector b of the linear moment equations dy/dtau = A y + b.

    State layout: row-major sigma (16) followed by the four diagonal branch
    means (4 each), in ``_DIAGONAL_PAIRS`` order.  With F = Omega H,
    d sigma/dtau = F sigma + sigma F^T + D and dr_jm/dtau = F r_jm + Omega d_jm.
    """
    drift_matrix = _OMEGA @ problem.h_matrix
    eye = np.eye(4)
    a = np.zeros((32, 32))
    a[:16, :16] = np.kron(drift_matrix, eye) + np.kron(eye, drift_matrix)
    a[16:, 16:] = np.kron(eye, drift_matrix)
    b = np.concatenate(
        [problem.d_matrix.ravel()]
        + [_OMEGA @ problem.drifts.branch_drift(j, m) for j, m in _DIAGONAL_PAIRS]
    )
    return a, b


def _rk4_step_map(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, q) such that one classical RK4 step of size h on y' = A y + b is y + (M y + q).

    On a linear autonomous system the four RK4 stages collapse into
    P = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) applied to A y + b.
    """
    ha = h * a
    eye = np.eye(len(a))
    poly = h * (eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0)))
    return poly @ a, poly @ b


def _integrate_once(problem: MomentOdeProblem, dt: float) -> MomentTrajectories:
    a, b = _moment_generator(problem)
    y = np.concatenate([problem.sigma0.ravel()] + [problem.r0] * 4)
    grid = problem.tau_grid
    states = np.empty((len(grid), 32))
    states[0] = y
    for slot in range(1, len(grid)):
        span = grid[slot] - grid[slot - 1]
        n_steps = max(1, int(np.ceil(span / dt)))
        m, q = _rk4_step_map(a, b, span / n_steps)
        for _ in range(n_steps):
            # The increment form keeps roundoff at the size of the step's change,
            # which the halving gate on O(1e3) squeezed-thermal sigmas relies on.
            y = y + (m @ y + q)
        states[slot] = y
    means = {
        pair: states[:, 16 + 4 * idx : 20 + 4 * idx] for idx, pair in enumerate(_DIAGONAL_PAIRS)
    }
    return MomentTrajectories(
        tau_grid=grid, sigma=states[:, :16].reshape(-1, 4, 4), branch_means=means, step=dt
    )


def integrate_moments(
    problem: MomentOdeProblem,
    dt: float = 2e-3,
    convergence_tol: float = 1e-10,
    check: bool = True,
    max_refinements: int = 6,
) -> MomentTrajectories:
    """Fixed-step RK4 trajectories of sigma and the four diagonal means.

    The moment equations are linear and autonomous, so each RK4 step is
    applied as its exact one-step map, built once per step size.  When
    ``check`` is set the step is refined until halving it changes no
    sampled value by more than ``convergence_tol``; failure to converge
    within ``max_refinements`` halvings raises OracleError.
    """
    _require("dt", dt, np.isfinite(dt) and dt > 0.0, "must be finite and > 0")
    if check:
        _require("max_refinements", max_refinements, max_refinements >= 1, "must be >= 1")
    coarse = _integrate_once(problem, dt)
    if not check:
        return coarse
    for _ in range(max_refinements):
        fine = _integrate_once(problem, dt / 2.0)
        dev = float(np.max(np.abs(coarse.sigma - fine.sigma)))
        for pair in _DIAGONAL_PAIRS:
            dev = max(
                dev,
                float(
                    np.max(np.abs(coarse.branch_means[pair] - fine.branch_means[pair]))
                ),
            )
        if dev <= convergence_tol:
            return fine
        dt /= 2.0
        coarse = fine
    raise OracleError(
        f"moment integration not converged: halving dt={dt} still moves "
        f"results by {dev:.3e} > {convergence_tol:.1e}"
    )


# --------------------------------------------------------------------------
# Truncated Fock-space oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FockProblem:
    """Truncated two-mode, two-qubit propagation setup.

    The qubits start in the 4x4 state ``qubit_rho0`` (default the equal
    superposition on both), the modes in identical squeezed thermal states
    per the parameters.  Results are accepted only while the population of
    the top two Fock levels of each mode stays below ``leakage_tol``; as a
    guideline, n_max of order 10*(2 f_q)^2 + 10 keeps ground-state runs
    comfortably inside the cutoff.
    """

    params: UnitlessParams
    tau_grid: np.ndarray
    n_max: int = 30
    qubit_rho0: np.ndarray | None = None
    dt: float = 1e-2           # RK4 step for the dissipative path
    leakage_tol: float = 1e-6

    def __post_init__(self) -> None:
        _require("n_max", self.n_max, isinstance(self.n_max, (int, np.integer)), "must be an int")
        if self.n_max < 8:
            raise ValueError(f"n_max={self.n_max} too small; need >= 8")
        _check_tau_grid(self.tau_grid)
        _require("dt", self.dt, np.isfinite(self.dt) and self.dt > 0.0, "must be finite and > 0")
        _require(
            "leakage_tol",
            self.leakage_tol,
            np.isfinite(self.leakage_tol) and self.leakage_tol > 0.0,
            "must be finite and > 0",
        )
        if self.qubit_rho0 is not None:
            rho = np.asarray(self.qubit_rho0)
            shape = "x".join(map(str, rho.shape))
            _require("qubit_rho0.shape", shape, rho.shape == (4, 4), "must be 4x4")
            _require("qubit_rho0", rho, np.isfinite(rho), "must be finite")
            error = float(np.max(np.abs(rho - rho.conj().T)))
            _require("qubit_rho0.hermiticity_error", error, error <= 1e-12, "must be <= 1e-12")
            trace = float(np.trace(rho).real)
            _require("qubit_rho0.trace", trace, abs(trace - 1.0) <= 1e-12, "must be 1 to 1e-12")


@dataclass(frozen=True)
class FockResult:
    """QRDM trajectory, per-branch CV moments, and truncation diagnostics."""

    tau_grid: np.ndarray
    qrdm: np.ndarray                      # (T, 4, 4) complex
    first_moments: dict[BranchLabel, np.ndarray]  # label -> (T, 4) complex
    branch_covariance: dict[tuple[int, int], np.ndarray]  # (j, m) -> (T, 4, 4)
    leakage: float
    trace_error: float
    n_max: int
    hermiticity_drift: float  # max |rho - rho^dagger| of a diagonal block, in the
    # eigenbasis of x, before its per-slot symmetrization; 0 on the exact pure path

    def phase(self, slot: int = -1) -> float:
        """Entangling phase -arg of the (00|01) QRDM entry at a grid slot."""
        return float(-np.angle(self.qrdm[slot, 0, 1]))


def _ladder(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max)), k=1)


def _quadratures(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated single-mode position (real) and momentum (imaginary) matrices."""
    a = _ladder(n_max)
    return (a + a.T) / np.sqrt(2.0), 1j * (a.T - a) / np.sqrt(2.0)


def _single_mode_initial(s: float, n_p: float, n_max: int) -> np.ndarray:
    """Fock-basis density matrix of a squeezed thermal single-mode state."""
    occupations = np.arange(n_max, dtype=float)
    if n_p == 0.0:
        weights = np.zeros(n_max)
        weights[0] = 1.0
    else:
        ratio = n_p / (1.0 + n_p)
        weights = ratio**occupations / (1.0 + n_p)
        weights /= weights.sum()  # renormalize the truncated tail
    rho = np.diag(weights).astype(complex)
    if s != 1.0:
        # squeeze x-variance by s: S = exp(r (a^2 - a^dag^2)/2), r = -ln(s)/2, which is
        # exp(-iH) for the Hermitian H = i r (a^2 - a^dag^2)/2; S is real (orthogonal)
        a = _ladder(n_max)
        r = -0.5 * np.log(s)
        energies, vectors = np.linalg.eigh(0.5j * r * (a @ a - a.T @ a.T))
        squeezer = ((vectors * np.exp(-1j * energies)) @ vectors.conj().T).real
        rho = squeezer @ rho @ squeezer.T
        rho /= np.trace(rho).real
    return rho


def _plus_plus_qrdm() -> np.ndarray:
    return np.full((4, 4), 0.25, dtype=complex)


def _bits_of(label: BranchLabel) -> tuple[int, int]:
    to_bit = {+1: 0, -1: 1}
    row = 2 * to_bit[label.j] + to_bit[label.m]
    col = 2 * to_bit[label.k] + to_bit[label.n]
    return row, col


def _edge_mask(n_max: int) -> np.ndarray:
    """(n1, n2) occupations in the top two Fock levels of either mode."""
    top = np.arange(n_max) >= n_max - 2
    return top[:, None] | top[None, :]


def fock_propagate(problem: FockProblem) -> FockResult:
    """Propagate the truncated system and trace out the modes.

    Noise-free problems (and problems with only qubit dephasing, which acts
    as an exact scalar decay on each qubit sector) are propagated exactly by
    eigendecomposition of the four branch Hamiltonians; observables come
    from the branch kets with x and p applied to one mode axis at a time.
    Position diffusion switches to fixed-step 4th-order integration of the
    ten independent qubit-sector blocks of the density operator, held in one
    complex array (block, n1, n2, n1', n2') in the eigenbasis of the
    truncated x and advanced on one thread per available CPU, up to ten; the
    results are bit-identical for any thread count.  There the generator is
    L(rho) = -i[K(rho) + P rho]:
    K applies the kinetic matrix T = p^2/2 to the two ket axes minus the two
    bra axes, and P is one elementwise factor holding the potentials, the
    coupling, the diffusion and the dephasing.  On this linear generator a
    classical RK4 step is the Horner form
    y + hL(y + h/2 L(y + h/3 L(y + h/4 L y))), which a change of basis
    leaves unchanged up to rounding.  The blocks return to the Fock basis
    at every grid slot for the observables and the leakage check.
    """
    grid = np.asarray(problem.tau_grid, dtype=float)
    qubit_rho0 = _plus_plus_qrdm() if problem.qubit_rho0 is None else problem.qubit_rho0
    params = problem.params
    if params.gamma_x == 0.0 and params.s == 1.0 and params.n_p == 0.0:
        result = _propagate_pure(problem, grid, qubit_rho0)
    else:
        result = _propagate_blocks(problem, grid, qubit_rho0)
    if not result.leakage <= problem.leakage_tol:  # a NaN leakage fails too
        raise OracleError(
            f"Fock truncation leakage {result.leakage:.3e} exceeds {problem.leakage_tol:.1e}; "
            f"increase n_max > {problem.n_max}"
        )
    return result


def _propagate_pure(problem, grid, qubit_rho0):
    """Exact branch kets |psi_jm(tau)>, combined into QRDM and moments analytically.

    Kets are kept as (T, n1, n2) arrays, so x and p act on one mode axis;
    every symmetrized second moment is 2 Re<q_a psi|q_b psi>.
    """
    params = problem.params
    n = problem.n_max
    x, p = _quadratures(n)
    eye = np.eye(n)
    x_sq = x @ x
    p_sq = (p @ p).real
    h2 = 0.5 * (
        np.kron(p_sq, eye) + np.kron(eye, p_sq)
        + (1.0 - params.g) * (np.kron(x_sq, eye) + np.kron(eye, x_sq))
    ) + params.g * np.kron(x, x)
    x1, x2 = np.kron(x, eye), np.kron(eye, x)

    kets, applied = {}, {}
    for j, m in _DIAGONAL_PAIRS:
        energies, vectors = np.linalg.eigh(h2 + params.f_q * (j * x1 + m * x2))
        phases = np.exp(-1j * np.outer(grid, energies))
        ket = ((phases * vectors[0].conj()) @ vectors.T).reshape(len(grid), n, n)
        kets[(j, m)] = ket
        # (T, 4, n1, n2): x1, p1, x2, p2 applied to the ket
        applied[(j, m)] = np.stack([x @ ket, p @ ket, ket @ x.T, ket @ p.T], axis=1)

    n_times = len(grid)
    gamma_qubit = params.gamma_z / 4.0
    qrdm = np.zeros((n_times, 4, 4), dtype=complex)
    first_moments = {}
    branch_cov = {}
    total_trace = np.zeros(n_times)
    leakage = 0.0
    edge = _edge_mask(n)
    for row in range(4):
        for col in range(4):
            label = BranchLabel.from_bits(row, col)
            ket, bra = kets[(label.j, label.m)], kets[(label.k, label.n)]
            weight = qubit_rho0[row, col] * np.exp(
                -gamma_qubit * ((label.j - label.k) ** 2 + (label.m - label.n) ** 2) * grid
            )
            inner = np.einsum("tab,tab->t", bra.conj(), ket)
            overlap = weight * inner
            qrdm[:, row, col] = overlap
            numerators = np.einsum("tab,tqab->tq", bra.conj(), applied[(label.j, label.m)])
            live = np.abs(overlap) > 1e-300
            moments = np.zeros((n_times, 4), dtype=complex)
            moments[live] = numerators[live] / inner[live, None]
            first_moments[label] = moments
            if label.is_diagonal:
                norm = inner.real
                total_trace += weight.real * norm
                leakage = max(leakage, float(np.max(np.sum(np.abs(ket[:, edge]) ** 2, axis=1))))
                q_ket = applied[(label.j, label.m)]
                gram = np.einsum("taxy,tbxy->tab", q_ket.conj(), q_ket).real
                mean = moments.real
                branch_cov[(label.j, label.m)] = 2.0 * (
                    gram / norm[:, None, None] - mean[:, :, None] * mean[:, None, :]
                )
    return FockResult(
        tau_grid=grid,
        qrdm=qrdm,
        first_moments=first_moments,
        branch_covariance=branch_cov,
        leakage=leakage,
        trace_error=float(np.max(np.abs(total_trace - 1.0))),
        n_max=n,
        hermiticity_drift=0.0,
    )


def _propagate_blocks(problem, grid, qubit_rho0):
    """Horner-form RK4 on the ten qubit-sector blocks, in the eigenbasis of x, concurrently.

    The stored blocks are the labels of the upper QRDM triangle; the lower
    ones are their conjugate transposes.  The state is one complex array
    (block, a, b, c, d): a, b are the ket modes and c, d the bra modes, each
    indexed by the eigenvalues xi of the truncated x = u diag(xi) u^T.  The
    kinetic matrix T = u^T (p^2/2) u is real symmetric, so on a bra axis the
    right product is the same matrix product as a left one.  Block
    (j, m | k, n) evolves under L(rho) = -i[K(rho) + P rho] with
    K = T_a + T_b - T_c - T_d and the elementwise factor
    P = U_jm(xi_a, xi_b) - U_kn(xi_c, xi_d)
        - i/4 [gamma_x ((xi_a - xi_c)^2 + (xi_b - xi_d)^2) + gamma_z ((j-k)^2 + (m-n)^2)],
    with the branch potential U_jm(x1, x2) = (1-g)(x1^2 + x2^2)/2 + g x1 x2
    + f_q (j x1 + m x2).  A stage of step fraction c scales its input by -ic
    once; then K is four real matrix products and P one elementwise product.
    The blocks are independent, so each is advanced on its own, which keeps
    the working set in cache, and the ten of a slot run as tasks on
    min(available CPUs, 10) threads (numpy releases the interpreter lock in
    these products).  A task advances its block with its worker's own four
    work buffers, symmetrizes it if diagonal, writes its Fock-basis copy and
    returns its hermiticity drift; it does the arithmetic of a serial loop,
    so the results are bit-identical for any thread count.  The main thread
    reads every task's result and records the slot.
    """
    params, n = problem.params, problem.n_max
    x, p = _quadratures(n)
    xi, u = np.linalg.eigh(x)
    kinetic = u.T @ (0.5 * (p @ p).real) @ u
    kinetic = _per_axis(0.5 * (kinetic + kinetic.T))
    to_fock = _per_axis(u)

    labels = [BranchLabel.from_bits(row, col) for row in range(4) for col in range(row, 4)]
    diagonal = [index for index, label in enumerate(labels) if label.is_diagonal]
    x_a, x_b, x_c, x_d = (xi.reshape((-1,) + (1,) * trailing) for trailing in (3, 2, 1, 0))

    def potential(e1, e2, x1, x2):
        return (
            0.5 * (1.0 - params.g) * (x1**2 + x2**2) + params.g * x1 * x2
            + params.f_q * (e1 * x1 + e2 * x2)
        )

    diffusion = params.gamma_x * ((x_a - x_c) ** 2 + (x_b - x_d) ** 2)
    factors = []
    for label in labels:
        flips = (label.j - label.k) ** 2 + (label.m - label.n) ** 2
        factors.append(
            potential(label.j, label.m, x_a, x_b) - potential(label.k, label.n, x_c, x_d)
            - 0.25j * (diffusion + params.gamma_z * flips)
        )

    n_times = len(grid)
    qrdm = np.zeros((n_times, 4, 4), dtype=complex)
    first_moments = {
        BranchLabel.from_bits(row, col): np.zeros((n_times, 4), dtype=complex)
        for row in range(4)
        for col in range(4)
    }
    branch_cov = {pair: np.zeros((n_times, 4, 4)) for pair in _DIAGONAL_PAIRS}
    edge = _edge_mask(n)
    leakage = trace_error = drift = 0.0

    def record(slot, rho):
        nonlocal leakage, trace_error
        if not np.isfinite(rho).all():
            raise OracleError(
                f"Fock RK4 diverged: the state at tau={grid[slot]} is not finite; "
                f"decrease dt={problem.dt}"
            )
        traces, moments, second, populations = _block_observables(rho, diagonal, x, p)
        for index, label in enumerate(labels):
            row, col = _bits_of(label)
            overlap = traces[index]
            qrdm[slot, row, col] = overlap
            if row != col:
                qrdm[slot, col, row] = np.conj(overlap)
            if abs(overlap) > 1e-300:
                first_moments[label][slot] = moments[index] / overlap
                if row != col:
                    first_moments[label.swapped][slot] = np.conj(moments[index] / overlap)
        total_trace = 0.0
        for index in diagonal:
            label = labels[index]
            norm = traces[index].real
            total_trace += norm
            if norm <= 1e-300:  # an unpopulated branch has no conditional state
                continue
            leakage = max(leakage, float(np.sum(populations[index][edge])) / norm)
            mean = first_moments[label][slot].real
            branch_cov[(label.j, label.m)][slot] = (
                second[index] / norm - 2.0 * mean[:, None] * mean[None, :]
            )
        trace_error = max(trace_error, abs(total_trace - 1.0))

    rho_cv = _single_mode_initial(params.s, params.n_p, n)
    weights = np.array([qubit_rho0[_bits_of(label)] for label in labels], dtype=complex)

    def product_state(single):
        return weights[:, None, None, None, None] * np.kron(single, single).reshape(n, n, n, n)

    record(0, product_state(rho_cv))
    y = product_state(u.T @ rho_cv @ u)
    fock = np.empty_like(y)
    owned = threading.local()  # each worker's four work buffers

    def advance(index, scales, n_steps):
        """Block ``index`` through one slot; returns its hermiticity drift (0 off-diagonal)."""
        if not hasattr(owned, "work"):
            owned.work = [np.empty_like(y[index]) for _ in range(4)]
        block, factor = y[index], factors[index]
        state, z, out, term = owned.work
        state[...] = block
        for _ in range(n_steps):
            stage = state
            for scale in scales:
                np.multiply(stage, scale, out=z)
                # out = y + K(z) + P z, the next stage, for z = -ic (previous stage)
                _on_axis(kinetic, 0, z, out)
                out += _on_axis(kinetic, 1, z, term)
                out -= _on_axis(kinetic, 2, z, term)
                out -= _on_axis(kinetic, 3, z, term)
                out += np.multiply(factor, z, out=term)
                out += state
                stage = out
            state, out = out, state
        block[...] = state
        block_drift = 0.0
        if index in diagonal:
            adjoint = block.conj().transpose(2, 3, 0, 1)
            block_drift = float(np.max(np.abs(block - adjoint)))
            block[...] = 0.5 * (block + adjoint)
        a, b = owned.work[:2]
        for axis, src, dst in ((0, block, a), (1, a, b), (2, b, a), (3, a, fock[index])):
            _on_axis(to_fock, axis, src, dst)
        return block_drift

    # the CPUs this process may run on; platforms without affinity report them all
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(cpus or 1, len(labels))
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        for slot in range(1, n_times):
            span = grid[slot] - grid[slot - 1]
            n_steps = max(1, int(np.ceil(span / problem.dt)))
            h = span / n_steps
            scales = [-1j * c for c in (h / 4.0, h / 3.0, h / 2.0, h)]
            # each task runs in a copy of this context, so numpy's error state holds there
            futures = [
                pool.submit(contextvars.copy_context().run, advance, index, scales, n_steps)
                for index in range(len(labels))
            ]
            drift = max([drift] + [future.result() for future in futures])
            record(slot, fock)
    if drift > 1e-9:
        logger.warning("hermiticity drift %.2e in the diagonal Fock blocks", drift)
    return FockResult(
        tau_grid=grid,
        qrdm=qrdm,
        first_moments=first_moments,
        branch_covariance=branch_cov,
        leakage=leakage,
        trace_error=trace_error,
        n_max=n,
        hermiticity_drift=drift,
    )


def _per_axis(matrix):
    """The factors of ``_on_axis`` for ``matrix``: itself, and kron(matrix^T, I2) on the last."""
    return matrix, matrix, matrix, np.kron(matrix.T, np.eye(2))


def _on_axis(factors, axis, src, dst):
    """dst = matrix applied to mode axis ``axis`` (0-3, the last four) of src, one real product.

    The product runs on the float views of the C-contiguous complex arrays, which
    reshape without a copy; on the last axis that view interleaves re and im, so
    there it is a right product with kron(matrix^T, I2).
    """
    n = src.shape[-1]
    src, dst = src.view(float), dst.view(float)
    if axis == 3:
        np.matmul(src.reshape(-1, 2 * n), factors[3], out=dst.reshape(-1, 2 * n))
    else:
        rows = (-1, n, 2 * n ** (3 - axis))
        np.matmul(factors[axis], src.reshape(rows), out=dst.reshape(rows))
    return dst.view(complex)


def _block_observables(rho, diagonal, x, p):
    """Traces, Tr[q rho] and, for diagonal blocks, Tr[{q_a, q_b} rho] of stacked blocks.

    ``rho`` is (block, n1, n2, n1', n2'); quadratures are ordered x1, p1, x2, p2.
    """
    quads = (x, p)
    traces = np.einsum("iabab->i", rho)
    reduced = (np.einsum("iabcb->iac", rho), np.einsum("iabad->ibd", rho))
    moments = np.stack(
        [np.einsum("ca,iac->i", quads[q % 2], reduced[q // 2]) for q in range(4)], axis=1
    )
    second = np.zeros((len(rho), 4, 4))
    for i in diagonal:
        for a in range(4):
            for b in range(a, 4):
                qa, qb = quads[a % 2], quads[b % 2]
                if a // 2 == b // 2:
                    value = np.einsum("ca,ac->", qa @ qb + qb @ qa, reduced[a // 2][i])
                else:
                    value = 2.0 * np.einsum("ca,db,abcd->", qa, qb, rho[i], optimize=True)
                second[i, a, b] = second[i, b, a] = value.real
    populations = np.einsum("iabab->iab", rho).real
    return traces, moments, second, populations


# --------------------------------------------------------------------------
# Comparison reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantityComparison:
    """Deviation summary for one named quantity."""

    name: str
    max_abs: float
    max_rel: float
    tau_worst: float
    tol: float
    passed: bool


@dataclass
class ComparisonReport:
    """Pass/fail table of closed-form-versus-oracle deviations."""

    entries: list[QuantityComparison] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    @property
    def failures(self) -> list[str]:
        return [entry.name for entry in self.entries if not entry.passed]

    def add(
        self,
        name: str,
        closed: np.ndarray,
        oracle: np.ndarray,
        tau_grid: np.ndarray,
        tol: float,
    ) -> QuantityComparison:
        closed = np.asarray(closed)
        oracle = np.asarray(oracle)
        if closed.shape != oracle.shape:
            raise ValueError(
                f"{name}: shape mismatch {closed.shape} vs {oracle.shape}"
            )
        dev = np.abs(closed - oracle)
        flat_worst = int(np.argmax(dev))
        worst_index = np.unravel_index(flat_worst, dev.shape)[0] if dev.ndim else 0
        scale = np.maximum(np.abs(oracle), 1e-300)
        entry = QuantityComparison(
            name=name,
            max_abs=float(dev.max()),
            max_rel=float((dev / scale).max()),
            tau_worst=float(np.asarray(tau_grid)[worst_index]) if dev.ndim else 0.0,
            tol=tol,
            passed=bool(dev.max() <= tol),
        )
        self.entries.append(entry)
        return entry

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": self.failures,
            "notes": dict(self.notes),
            "entries": [
                {
                    "name": e.name,
                    "max_abs": e.max_abs,
                    "max_rel": e.max_rel,
                    "tau_worst": e.tau_worst,
                    "tol": e.tol,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
        }

    def to_text(self) -> str:
        lines = ["quantity                                 max_abs    tol        verdict"]
        for e in self.entries:
            lines.append(
                f"{e.name:<40s} {e.max_abs:<10.3e} {e.tol:<10.1e} "
                f"{'pass' if e.passed else 'FAIL'}"
            )
        for key, value in self.notes.items():
            lines.append(f"note[{key}]: {value}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def compare(
    closed: dict[str, np.ndarray],
    oracle: dict[str, np.ndarray],
    tau_grid: np.ndarray,
    tolerances: dict[str, float],
) -> ComparisonReport:
    """Compare named closed-form and oracle trajectories at shared times."""
    report = ComparisonReport()
    if set(closed) != set(oracle):
        raise ValueError(
            f"quantity sets differ: {sorted(set(closed) ^ set(oracle))}"
        )
    for name in sorted(closed):
        report.add(name, closed[name], oracle[name], tau_grid, tolerances[name])
    return report


# --------------------------------------------------------------------------
# Verification suites
# --------------------------------------------------------------------------


def _closed_form_trajectories(
    params: UnitlessParams, tau_grid: np.ndarray, g_shift: float = 0.0
) -> tuple[np.ndarray, dict[tuple[int, int], np.ndarray]]:
    """Closed-form sigma(tau) and diagonal branch means on a grid.

    ``g_shift`` perturbs the closed-form coupling only, serving as the
    negative control: any nonzero shift must make the suite fail.
    """
    from .dynamics import branch_trajectories
    from .phase_space import evolve_covariance

    g = params.g + g_shift
    d_matrix = sgi_diffusion_matrix(params.gamma_x)
    sigma0 = (1.0 + 2.0 * params.n_p) * np.diag(
        [params.s, 1.0 / params.s, params.s, 1.0 / params.s]
    )
    sigmas = np.empty((len(tau_grid), 4, 4))
    means = {pair: np.empty((len(tau_grid), 4)) for pair in _DIAGONAL_PAIRS}
    for t, tau in enumerate(tau_grid):
        sigmas[t] = evolve_covariance(sigma0, g, tau, d_matrix)
        moments = branch_trajectories(params.f_q, g, tau)
        for label, bm in moments.items():
            means[(label.j, label.m)][t] = bm.vector.real
    return sigmas, means


def verify_moments(g_shift: float = 0.0) -> ComparisonReport:
    """Fast suite: closed forms versus the moment-equation integrator.

    Covers unitary ground-state, squeezed-thermal, and diffusive cases on a
    closure-spanning grid at 1e-8 tolerance.
    """
    from .phase_space import final_time

    cases = {
        "unitary-ground": UnitlessParams(f_q=1.0, g=0.1),
        "unitary-strong": UnitlessParams(f_q=0.6, g=0.3),
        "squeezed-thermal": UnitlessParams(f_q=0.8, g=0.1, s=1e-2, n_p=5.0),
        "diffusive": UnitlessParams(f_q=1.0, g=0.1, s=0.5, n_p=1.0, gamma_x=0.05),
    }
    report = ComparisonReport()
    for name, params in cases.items():
        tau_grid = np.linspace(0.0, final_time(params.g), 9)
        problem = MomentOdeProblem.for_sgi(params, tau_grid)
        oracle_traj = integrate_moments(problem)
        sigmas, means = _closed_form_trajectories(params, tau_grid, g_shift)
        report.add(f"{name}/sigma", sigmas, oracle_traj.sigma, tau_grid, 1e-8)
        for pair in _DIAGONAL_PAIRS:
            report.add(
                f"{name}/branch{pair}",
                means[pair],
                oracle_traj.branch_means[pair],
                tau_grid,
                1e-8,
            )
    report.notes["suite"] = "moment-equation oracle, fixed-step RK4, halving-checked"
    return report


def verify_fock(g_shift: float = 0.0, n_max: int = 30) -> ComparisonReport:
    """Full suite: truncated-Fock propagation versus the closed-form QRDM.

    Runs the arbitration point (f_q = 0.2, g = 0.05) without noise at the
    requested cutoff, then a diffusive run at a reduced cutoff, and records
    the constant/sign arbitration outcomes in the report notes.
    """
    from .dynamics import (
        contrast_c1,
        contrast_c2,
        entangling_phase,
        final_contrast,
        open_qrdm,
        unitary_qrdm,
    )
    from .phase_space import final_time

    report = ComparisonReport()
    params = UnitlessParams(f_q=0.2, g=0.05)
    g = params.g + g_shift
    tau_f = final_time(params.g)
    tau_grid = np.linspace(0.0, tau_f, 13)
    result = fock_propagate(FockProblem(params=params, tau_grid=tau_grid, n_max=n_max))

    closed_qrdm = np.array([unitary_qrdm(params.f_q, g, tau)[0] for tau in tau_grid])
    report.add("arbitration/qrdm", closed_qrdm, result.qrdm, tau_grid, 1e-3)
    report.add(
        "arbitration/phase(tau_f)",
        np.array([entangling_phase(params.f_q, g, tau_f)]),
        np.array([result.phase(-1)]),
        tau_grid[-1:],
        1e-3,
    )

    # Constant arbitration: the (00|11) exponent equals 4*C2(tau); at tau_f
    # the candidates are C_g (adopted) versus 2*C_g (the sign-flipped
    # intermediate-time display evaluated at closure).
    c2_fock = -np.log(np.abs(4.0 * result.qrdm[1:, 0, 3])) / 4.0
    c2_adopted = np.array([contrast_c2(params.f_q, g, tau) for tau in tau_grid[1:]])
    report.add("arbitration/c2-adopted", c2_adopted, c2_fock, tau_grid[1:], 1e-3)
    c_g = final_contrast(params.f_q, params.g)
    ratio = float(c2_fock[-1] / c_g)
    report.notes["c2-constant"] = (
        f"oracle C2(tau_f)/C_g = {ratio:.6f}: closure-time constant is C_g, "
        "not 2*C_g; adopted intermediate form 2 f_q^2 sin^2(tau/2) confirmed"
    )
    c1_fock = -np.log(np.abs(4.0 * result.qrdm[1:, 1, 2])) / 4.0
    c1_closed = np.array([contrast_c1(params.f_q, g, tau) for tau in tau_grid[1:]])
    report.add("arbitration/c1", c1_closed, c1_fock, tau_grid[1:], 1e-3)
    report.notes["contrast-signs"] = (
        "oracle off-diagonal magnitudes decay (exponents nonnegative): "
        "sign-normalized contrasts confirmed"
    )

    noisy = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
    noisy_grid = np.linspace(0.0, tau_f, 5)
    noisy_result = fock_propagate(
        FockProblem(params=noisy, tau_grid=noisy_grid, n_max=12, dt=2e-2)
    )
    noisy_closed = np.array(
        [
            open_qrdm(
                UnitlessParams(f_q=0.2, g=g, gamma_x=0.02), tau
            )[0]
            for tau in noisy_grid
        ]
    )
    report.add("diffusive/qrdm", noisy_closed, noisy_result.qrdm, noisy_grid, 1e-3)
    report.notes["dephasing-normalization"] = (
        "single-flip dephasing exponent is Gamma_z*tau as published; the "
        "published both-flip coefficient 4*Gamma_z*tau is refuted by the "
        "independent-qubit master equation (measured 2*Gamma_z*tau) and "
        "renders the matrix non-positive, so the doubled coefficient is "
        "adopted throughout"
    )
    report.notes["fock-diagnostics"] = (
        f"pure: n_max={n_max}, leakage={result.leakage:.2e}, "
        f"trace_error={result.trace_error:.2e}; "
        f"diffusive: n_max={noisy_result.n_max}, leakage={noisy_result.leakage:.2e}, "
        f"trace_error={noisy_result.trace_error:.2e}, "
        f"hermiticity_drift={noisy_result.hermiticity_drift:.2e}"
    )
    return report
