"""Independent brute-force verification of the closed-form dynamics.

Two oracles, neither of which shares code with the closed forms they check;
each writes out the two-SGI model itself, from ``UnitlessParams`` alone:

* a fixed-step 4th-order integrator for the first- and second-moment
  equations of motion.  ``_moment_generator`` states the quadratic form H,
  the qubit forces, the diffusion matrix D = gamma_x diag(0, 1, 0, 1) and the
  symplectic form.  The equations are linear and autonomous,
  dy/dtau = A y + b, so each classical RK4 step is the exact one-step map
  y -> y + (M y + q), built once per step size from A and b, and the n
  steps of a grid slot are applied by binary powers of that map; and
* truncated-Fock-space propagation of the two-qubit x two-mode system in its
  normal modes.  The potential matrix [[1-g, g], [g, 1-g]] is diagonalized by
  ``np.linalg.eigh``; in its eigenmodes every branch Hamiltonian, the
  position diffusion and the initial state factorize exactly, so each QRDM
  entry is its qubit dephasing factor over 4 times the product of two
  single-mode traces.  Under position diffusion each distinct single-mode
  density operator (mode, ket force, bra force), at most 18, is one run.
  Without it each trace is the inner product of two evolved kets, so the
  runs are the distinct (mode, force) kets, at most 6, each carrying the
  columns of the initial state's real factor K, rho_0 = K K^T.  The runs
  advance as one stacked Chebyshev series (Tal-Ezer and Kosloff, J. Chem.
  Phys. 81, 3967 (1984)) in the eigenbasis of the truncated position matrix
  x (the discrete-variable representation of Light, Hamilton and Lill,
  J. Chem. Phys. 82, 1400 (1985)).  There x is diagonal, so the potentials
  and the position diffusion are one elementwise factor, and only the
  kinetic energy p^2/2 acts as a matrix: one real matrix product on the ket
  axis, and for a density operator one more on the bra axis.  The series'
  spectral rectangles take their real extent exactly from the single-mode
  spectra.  Every grid time a series reaches reads its
  state from the same terms; under diffusion the generator is not normal,
  so a series spans at most ``FockProblem.dt`` and restarts at the last grid
  time it read.  The oracle is single-threaded.

Both oracles run the point the closed forms describe: qubits in |+>|+>, the
modes in the point's squeezed thermal state (1 + 2 n_p) diag(s, 1/s, s, 1/s),
and branch means from the origin.  A Fock run is accepted only while the
population of the top two Fock levels of each normal mode stays below 1e-6.

Both oracles adopt the rate normalization of the closed forms.  The moment
oracle's D is normalized so that its accumulated covariance is the diffusive
covariance of the open-dynamics contrasts (position dephasing at gamma_x/4
per mode).  In the Fock oracle the position dissipator acts at gamma_x/4 per
mode and the qubit dephasing at gamma_z/4 per qubit, so that the single-flip
QRDM exponents decay as gamma_x- and gamma_z-linear closed-form contrasts.
In those closed forms the phase and every contrast exponent but the qubit
dephasing c_z are f_q^2 times their value at f_q = 1 (c_z has no f_q), so
one drive strength per point checks each term's shape.
``ComparisonReport`` collects the deviations of the verification suites into
a machine-readable report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import product

import numpy as np

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
]

_OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])  # symplectic form of (x1, p1, x2, p2)
_DIAGONAL_PAIRS = tuple(product((+1, -1), repeat=2))


class OracleError(RuntimeError):
    """Oracle self-diagnostics failed; results must not be trusted."""


def _require_time_grid(tau_grid) -> None:
    """One ValueError unless the grid is finite, ascending and starts at 0."""
    grid = np.asarray(tau_grid, dtype=float)
    _require("tau_grid", grid, np.isfinite(grid), "must be finite")
    if grid.ndim != 1 or grid.size == 0 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0.0):
        raise ValueError("tau_grid must be ascending and start at 0")


# --------------------------------------------------------------------------
# Moment-equation integrator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentOdeProblem:
    """Moment equations of the two-SGI model at ``params`` on a grid from tau = 0.

    Both modes start in the point's squeezed thermal state, covariance
    (1 + 2 n_p) diag(s, 1/s, s, 1/s); every branch mean starts at the origin.
    """

    params: UnitlessParams
    tau_grid: np.ndarray

    def __post_init__(self) -> None:
        _require_time_grid(self.tau_grid)
        object.__setattr__(self, "tau_grid", np.asarray(self.tau_grid, dtype=float))


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
    means (4 each), in ``_DIAGONAL_PAIRS`` order.  The model is written out
    here: H = [[1-g, 0, g, 0], [0, 1, 0, 0], [g, 0, 1-g, 0], [0, 0, 0, 1]],
    the force f_q (j, 0, m, 0) on branch (j, m) and D = gamma_x diag(0, 1, 0, 1).
    With F = Omega H, d sigma/dtau = F sigma + sigma F^T + D and
    dr_jm/dtau = F r_jm + Omega f_q (j, 0, m, 0).
    """
    p = problem.params
    h = np.array([[1.0 - p.g, 0, p.g, 0], [0, 1, 0, 0], [p.g, 0, 1.0 - p.g, 0], [0, 0, 0, 1]])
    drift_matrix = _OMEGA @ h
    eye = np.eye(4)
    a = np.zeros((32, 32))
    a[:16, :16] = np.kron(drift_matrix, eye) + np.kron(eye, drift_matrix)
    a[16:, 16:] = np.kron(eye, drift_matrix)
    d = p.gamma_x * np.diag([0.0, 1.0, 0.0, 1.0])
    forces = [p.f_q * np.array([j, 0.0, m, 0.0]) for j, m in _DIAGONAL_PAIRS]
    b = np.concatenate([d.ravel()] + [_OMEGA @ force for force in forces])
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


def _apply_steps(y: np.ndarray, m: np.ndarray, q: np.ndarray, n_steps: int) -> np.ndarray:
    """y after ``n_steps`` increments y -> y + (M y + q), by binary powers of that map.

    Two increments compose to one with M2 = 2M + M M and q2 = 2q + M q, so each
    set bit k of ``n_steps`` applies the map's power 2^k: O(log n) products of M
    in place of n.  The increment form keeps roundoff at the size of the change,
    which the halving gate on O(1e3) squeezed-thermal sigmas relies on.
    """
    while True:
        if n_steps & 1:
            y = y + (m @ y + q)
        n_steps >>= 1
        if not n_steps:
            return y
        m, q = 2.0 * m + m @ m, 2.0 * q + m @ q


# Halving gate of ``integrate_moments``: the largest change of any sampled value it accepts,
# and the halvings it tries before giving up.
_CONVERGENCE_TOL, _MAX_HALVINGS = 1e-10, 6
# Largest population of the top two Fock levels of a mode that ``fock_propagate`` accepts.
_LEAKAGE_TOL = 1e-6


def _integrate_once(problem: MomentOdeProblem, dt: float) -> np.ndarray:
    """(T, 32) states on the grid at nominal step dt, in ``_moment_generator``'s layout."""
    a, b = _moment_generator(problem)
    p = problem.params
    sigma0 = (1.0 + 2.0 * p.n_p) * np.diag([p.s, 1.0 / p.s, p.s, 1.0 / p.s])
    y = np.concatenate([sigma0.ravel(), np.zeros(16)])
    grid = problem.tau_grid
    states = np.empty((len(grid), 32))
    states[0] = y
    for slot in range(1, len(grid)):
        span = grid[slot] - grid[slot - 1]
        n_steps = max(1, int(np.ceil(span / dt)))
        y = _apply_steps(y, *_rk4_step_map(a, b, span / n_steps), n_steps)
        states[slot] = y
    return states


def integrate_moments(problem: MomentOdeProblem, dt: float = 2e-3) -> MomentTrajectories:
    """Fixed-step RK4 trajectories of sigma and the four diagonal means.

    The moment equations are linear and autonomous, so each RK4 step is
    its exact one-step map, built once per step size, and the steps of a
    grid slot are composed by binary powers of that map (``_apply_steps``):
    O(log n) matrix products in place of n.  The step is refined until
    halving it changes no sampled value by more than ``_CONVERGENCE_TOL``;
    failure to converge within ``_MAX_HALVINGS`` halvings raises OracleError.
    """
    _require("dt", dt, np.isfinite(dt) and dt > 0.0, "must be finite and > 0")
    states = _integrate_once(problem, dt)
    for _ in range(_MAX_HALVINGS):
        dt /= 2.0
        coarse, states = states, _integrate_once(problem, dt)
        dev = float(np.max(np.abs(coarse - states)))
        if dev <= _CONVERGENCE_TOL:
            break
    else:
        raise OracleError(
            f"moment integration not converged: halving dt={dt} still moves "
            f"results by {dev:.3e} > {_CONVERGENCE_TOL:.1e}"
        )
    means = {
        pair: states[:, 16 + 4 * idx : 20 + 4 * idx] for idx, pair in enumerate(_DIAGONAL_PAIRS)
    }
    return MomentTrajectories(
        tau_grid=problem.tau_grid,
        sigma=states[:, :16].reshape(-1, 4, 4),
        branch_means=means,
        step=dt,
    )


# --------------------------------------------------------------------------
# Truncated Fock-space oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FockProblem:
    """Truncated-Fock propagation setup of the two-SGI point ``params``.

    Both qubits start in |+>, so every entry of the initial QRDM is 1/4, and
    both modes in the point's squeezed thermal state.  Each normal mode is
    truncated at ``n_max`` Fock levels, and results are accepted only while the
    population of its top two levels stays below ``_LEAKAGE_TOL`` = 1e-6; as a
    guideline, n_max of order 10*(2 f_q)^2 + 10 keeps ground-state runs
    comfortably inside the cutoff.
    """

    params: UnitlessParams
    tau_grid: np.ndarray
    n_max: int = 30
    dt: float = 1.0            # longest span of one Chebyshev series

    def __post_init__(self) -> None:
        _require("n_max", self.n_max, isinstance(self.n_max, (int, np.integer)), "must be an int")
        if self.n_max < 8:
            raise ValueError(f"n_max={self.n_max} too small; need >= 8")
        _require_time_grid(self.tau_grid)
        _require("dt", self.dt, np.isfinite(self.dt) and self.dt > 0.0, "must be finite and > 0")


@dataclass(frozen=True)
class FockResult:
    """QRDM trajectory and truncation diagnostics."""

    tau_grid: np.ndarray
    qrdm: np.ndarray                      # (T, 4, 4) complex
    leakage: float      # largest top-two-level population of a normal mode, relative to its trace
    trace_error: float  # largest |Tr qrdm - 1| on the grid
    n_max: int

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
    """Real factor K of a squeezed thermal single-mode state rho = K K^T in the Fock basis.

    K = S diag(sqrt(w)) over the thermal Fock weights w, S the squeezer: one
    column for n_p = 0, squeezed or not, and n_max columns otherwise.
    """
    if n_p == 0.0:
        weights = np.ones(1)
    else:
        ratio = n_p / (1.0 + n_p)
        weights = ratio ** np.arange(n_max, dtype=float) / (1.0 + n_p)
        weights /= weights.sum()  # renormalize the truncated tail
    factor = np.eye(n_max, len(weights)) * np.sqrt(weights)
    if s != 1.0:
        # squeeze x-variance by s: S = exp(r (a^2 - a^dag^2)/2), r = -ln(s)/2, which is
        # exp(-iH) for the Hermitian H = i r (a^2 - a^dag^2)/2; S is real (orthogonal)
        a = _ladder(n_max)
        r = -0.5 * np.log(s)
        energies, vectors = np.linalg.eigh(0.5j * r * (a @ a - a.T @ a.T))
        squeezer = ((vectors * np.exp(-1j * energies)) @ vectors.conj().T).real
        factor = squeezer @ factor
        factor /= np.linalg.norm(factor)  # Tr K K^T = 1
    return factor


def _dvr(n):
    """xi and u of the truncated x = u diag(xi) u^T, and the kinetic matrix T = u^T (p^2/2) u.

    T is real symmetric, so on a bra axis the right product is the same matrix.
    """
    x, p = _quadratures(n)
    xi, u = np.linalg.eigh(x)
    kinetic = u.T @ (0.5 * (p @ p).real) @ u
    return xi, u, 0.5 * (kinetic + kinetic.T)


def fock_propagate(problem: FockProblem) -> FockResult:
    """Propagate the truncated normal modes and form the QRDM from their traces.

    The potential matrix [[1-g, g], [g, 1-g]] has eigenvalues w_k^2 and
    eigenvectors R[:, k] (``np.linalg.eigh``).  In the normal modes
    x_k = sum_i R[i, k] x_i, with p_k alike, the branch Hamiltonian H_jm is a
    sum over k of p_k^2/2 + w_k^2 x_k^2/2 + F_k x_k, F_k = f_q (j R[0, k] + m R[1, k]).
    The position diffusion sum_i (x_i - x_i')^2 and the initial squeezed thermal
    state are the same in any rotated modes, and the qubit dephasing is a scalar
    on each qubit sector.  So sector (j, m | k, n) of the density operator is
    e^{-gamma_z n_diff tau}/4 times a product of one operator per mode, and
    QRDM entry (row, col) is e^{-gamma_z n_diff tau}/4 Tr rho_0(tau) Tr rho_1(tau).
    Each rho_k starts as the single-mode initial state and evolves by
    d rho/dtau = -i (h_ket rho - rho h_bra) - (gamma_x/4) [x, [x, rho]], with
    h = p^2/2 + w_k^2 x^2/2 + F x for the sector's ket and bra forces.  The
    factorization is exact in the model; each mode is still truncated and
    propagated by brute force, so the Gaussian premise stays tested.

    With diffusion (gamma_x > 0) each distinct (mode, F_ket, F_bra) is one run;
    the lower-triangle sectors run their own.  The runs are stacked as
    (runs, n, n) in the eigenbasis of the truncated x, where the potentials and
    the diffusion are one elementwise factor P and only T = p^2/2 acts as a
    matrix: from the left on the ket axis, from the right on the bra axis.
    Without diffusion rho_k(tau) = U_ket K K^T U_bra^dagger, with K the real
    factor of the initial state, so Tr rho_k sums conj(U_bra K) * U_ket K over
    all entries: only the distinct (mode, F) kets U K run, stacked as
    (kets, n, rank) with rank 1 for n_p = 0 and n otherwise, and each entry
    pairs its own two kets.
    Either generator (H = T (x) 1 - 1 (x) T + P, or h = T + P) is constant, so
    exp(-i tau H) is one Chebyshev series, exact to rounding.  Under diffusion
    H is not normal and its terms can grow, so a series reads every grid time
    within ``problem.dt`` of its start and restarts at the last of them; a slot
    longer than ``problem.dt`` is cut into equal steps (``_block_steps``).  All
    runs share one coefficient row per step.  The leakage is the top-two-level
    population of each run, or ket, of a diagonal sector, relative to its
    trace, or norm; the trace error is the largest |Tr QRDM - 1|.
    """
    params, n = problem.params, problem.n_max
    grid = np.asarray(problem.tau_grid, dtype=float)
    xi, u, kinetic = _dvr(n)
    g = params.g
    curvatures, rotation = np.linalg.eigh([[1.0 - g, g], [g, 1.0 - g]])

    # QRDM row r holds the qubit bits (r >> 1, r & 1), and bit 0 is the sigma_z eigenvalue +1
    bits = (np.arange(4)[:, None] >> [1, 0]) & 1  # (row, qubit)
    flips = (bits[:, None] != bits).sum(axis=-1)  # qubits whose ket and bra bits differ
    # the force on each mode of row r's ket: the products are exact, so equal entries of R cancel
    row_forces = (params.f_q * ((1 - 2 * bits) @ rotation)).tolist()
    # (mode, F_ket, F_bra) of entry (row, col) on each mode; runs and kets in first-occurrence order
    sector_runs = [
        (mode, row_forces[row][mode], row_forces[col][mode])
        for row, col, mode in product(range(4), range(4), range(2))
    ]
    runs = list(dict.fromkeys(sector_runs))
    on_run = np.array([runs.index(run) for run in sector_runs]).reshape(4, 4, 2)
    kets = list(dict.fromkeys((mode, force) for mode, *pair in runs for force in pair))
    on_ket, on_bra = np.array([[kets.index((mode, f)) for f in pair] for mode, *pair in runs]).T
    mode, force = (np.array(column) for column in zip(*kets))
    potentials = 0.5 * curvatures[mode][:, None] * xi**2 + force[:, None] * xi  # (kets, n)
    # the ascending spectrum of each h, (kets, n), gives the real extents exactly
    levels = np.linalg.eigvalsh(kinetic + potentials[..., None] * np.eye(n))
    diagonal = on_run[range(4), range(4)].ravel()
    start = (u.T @ _single_mode_initial(params.s, params.n_p, n)).astype(complex)
    pure = params.gamma_x == 0.0
    if pure:  # a run is U_ket K K^T U_bra^dagger: each ket U K alone evolves, (kets, n, rank)
        # one rectangle holds every spectrum: its centre's phase cancels in each inner product
        half, centres, rho = _rectangles(levels[:, :1].min(0), levels[:, -1:].max(0), 0.0)
        factor = potentials[..., None] - centres[:, None, None]
        state = np.repeat(start[None], len(kets), axis=0)
        diagonal = on_ket[diagonal]  # a diagonal sector's run pairs one ket with itself
    else:  # each run's density operator evolves, (runs, n, n)
        lows = levels[on_ket, 0] - levels[on_bra, -1]
        highs = levels[on_ket, -1] - levels[on_bra, 0]
        diffusion = 0.25 * params.gamma_x * np.subtract.outer(xi, xi) ** 2
        half, centres, rho = _rectangles(lows, highs, -diffusion.max())
        factor = (
            potentials[on_ket, :, None] - potentials[on_bra, None, :] - 1j * diffusion
            - centres[:, None, None]
        )
        state = np.repeat((start @ start.T)[None], len(runs), axis=0)
    factor = (2.0 / half) * factor
    kinetic = (2.0 / half) * kinetic
    right = np.kron(kinetic, np.eye(2))  # T on the bra axis of a float view: re, im interleaved
    scratch = np.empty(state.shape, dtype=complex)

    def step(phi, out):  # -2iX phi: +T on the ket axis, -T on a bra axis, then P - c
        np.matmul(kinetic, phi.view(float), out=out.view(float))
        if not pure:
            flat = phi.view(float).reshape(-1, 2 * n)
            np.matmul(flat, right, out=scratch.view(float).reshape(-1, 2 * n))
            out -= scratch
        out += np.multiply(factor, phi, out=scratch)
        out *= -1j

    steps = _block_steps(grid, problem.dt)
    rows = dict.fromkeys(h for offsets, _, _ in steps for h in offsets)
    rows = {h: _chebyshev_coefficients(h * half, rho) for h in rows}
    top = u[-2:]  # the top two Fock levels, in the eigenbasis of x
    traces = np.empty((len(grid), len(runs)), dtype=complex)
    sizes = np.empty((len(grid), len(state)), dtype=complex)  # norm of a ket, trace of a run
    populations = np.empty_like(sizes)

    def observe(states, slots):
        if pure:
            traces[slots] = (states[:, on_ket] * states[:, on_bra].conj()).sum(axis=(-2, -1))
            sizes[slots] = np.square(np.abs(states)).sum(axis=(-2, -1))
            populations[slots] = np.square(np.abs(top @ states)).sum(axis=(-2, -1))
        else:
            traces[slots] = sizes[slots] = np.einsum("trii->tr", states)
            populations[slots] = np.einsum("trac,ac->tr", states, top.T @ top)

    observe(state[None], [0])
    advice = f"; decrease dt={problem.dt}"
    for offsets, slots, observed in steps:
        table = _coefficient_table([rows[h] for h in offsets])
        states = _chebyshev_sums(table, state, step, grid[slots], advice)
        states *= np.exp(-1j * np.multiply.outer(offsets, centres))[:, :, None, None]
        if observed:
            observe(states, slots)
        state = states[-1]

    dephasing = np.exp(np.multiply.outer(grid, -params.gamma_z * flips))
    qrdm = 0.25 * dephasing * traces[:, on_run[..., 0]] * traces[:, on_run[..., 1]]
    result = FockResult(
        tau_grid=grid,
        qrdm=qrdm,
        leakage=float(np.max((populations[:, diagonal] / sizes[:, diagonal]).real)),
        trace_error=float(np.max(np.abs(np.trace(qrdm, axis1=1, axis2=2) - 1.0))),
        n_max=n,
    )
    if not result.leakage <= _LEAKAGE_TOL:  # a NaN leakage fails too
        raise OracleError(
            f"Fock truncation leakage {result.leakage:.3e} exceeds {_LEAKAGE_TOL:.1e}; "
            f"increase n_max > {problem.n_max}"
        )
    return result


def _rectangles(lows, highs, imag_lows):
    """Half-width a, centres c_i and Bernstein rho of the stacked generators H_i = K + P_i.

    K is the kinetic part and P_i elementwise.  The Hermitian part of H_i has its
    spectrum in [``lows``_i, ``highs``_i] and its anti-Hermitian part is i Im P_i,
    with Im P_i in [``imag_lows``_i, 0] (diffusion only damps), so the numerical
    range of H_i, which holds its spectrum, lies in a rectangle of centre c_i.
    All rectangles take the widest half-width a and the widest imaginary extent,
    so that a step h has one coefficient row c_k(h a) for every H_i
    (``_chebyshev_coefficients``).
    """
    half = 0.5 * np.max(highs - lows)
    centres = 0.5 * (highs + lows) + 0.5j * imag_lows
    corner = 1.0 - 0.5j * np.min(imag_lows) / half  # of the rectangle, scaled
    rho = abs(corner + np.sqrt(corner**2 - 1.0))  # its Bernstein ellipse
    return half, centres, rho


def _coefficient_table(rows):
    """Coefficient rows of ``_chebyshev_coefficients``, zero-padded into a (terms, rows) table."""
    table = np.zeros((max(map(len, rows)), len(rows)))
    for column, coefficients in zip(table.T, rows):
        column[: len(coefficients)] = coefficients
    return table


def _chebyshev_sums(table, start, step, taus, advice):
    """States sum_k table[k, i] (-i)^k T_k(X) ``start``, one per grid time ``taus``[i].

    The terms psi_k = (-i)^k T_k(X) start obey psi_{k+1} = -2iX psi_k + psi_{k-1}
    (psi_1 = -iX start), where ``step(psi, out)`` writes -2iX psi into ``out``;
    they are made one at a time, and each is added into the states of the grid
    times from the first whose row reaches it (rows grow with tau).  The weights
    are real, so the additions are one real outer product on float views.
    A state of a run that is not finite or below 1e-2 of its largest weighted
    term (cancellation) raises OracleError naming its grid time.
    """
    states = np.zeros((len(taus),) + start.shape, dtype=complex)
    sums, largest = states.view(float), np.zeros(states.shape[:2])
    firsts = np.argmax(table != 0.0, axis=1)
    previous, current, spare = (np.empty_like(start) for _ in range(3))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends non-finite
        for k, (weights, first) in enumerate(zip(table, firsts)):
            if k == 0:
                spare[...] = start
            else:
                step(current, spare)
                if k == 1:
                    spare *= 0.5  # psi_1 = -iX psi_0
                else:
                    spare += previous
            previous, current, spare = current, spare, previous
            term = current.view(float)
            sums[first:] += np.multiply.outer(weights[first:], term)
            weighted = np.outer(np.abs(weights[first:]), _peaks(current))
            largest[first:] = np.maximum(largest[first:], weighted)
    for tau, tops, sizes in zip(taus, largest, _peaks(states)):
        for top, size in zip(tops, sizes):
            if not top <= 1e2 * size < np.inf:  # a NaN fails too
                raise OracleError(
                    f"Fock series step to tau={tau} is not finite or lost to cancellation: "
                    f"terms up to {top:.1e} sum to {size:.1e}{advice}"
                )
    return states


def _block_steps(grid, dt):
    """The series the runs take over ``grid``: (steps h from its start, grid slots, observed).

    A series starts at a grid time and reads every later grid time within ``dt``
    of it; the next restarts at the last of those.  A slot longer than ``dt`` is
    cut into n equal steps h <= dt, each its own series; the first n - 1 are
    not observed, and their guard names the slot's grid time.
    """
    steps, start = [], 0
    while start < len(grid) - 1:
        span = grid[start + 1] - grid[start]
        n_steps = max(1, int(np.ceil(span / dt)))
        stop = start + 1
        while n_steps == 1 and stop + 1 < len(grid) and grid[stop + 1] - grid[start] <= dt:
            stop += 1
        offsets = grid[start + 1 : stop + 1] - grid[start]
        offsets[0] = span / n_steps
        steps += [(offsets[:1], [start + 1], False)] * (n_steps - 1)
        steps.append((offsets, list(range(start + 1, stop + 1)), True))
        start = stop
    return steps


def _peaks(states):
    """Largest |real| or |imaginary| part of each (n, n) or (n, rank) state; NaN if any is."""
    parts = states.view(float)
    return np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1)))


def _chebyshev_coefficients(theta, rho):
    """(2 - delta_k0) J_k(theta) of exp(-i theta x) = sum_k (-i)^k c_k T_k(x), theta > 0.

    They end before the first k > theta with |c_k| rho^k < 1e-16 (|T_k| grows as
    rho^k on the Bernstein ellipse rho), below e theta rho + 55 as |J_k| <= (theta/2)^k/k!.
    J_k comes from Miller's backward recurrence, normalized by J_0 + 2 sum J_2k = 1.
    """
    theta = max(theta, 1e-30)  # below, J_0 rounds to 1 and the series is that one term
    count = int(np.e * theta * rho) + 55
    top = count + int(np.sqrt(160.0 * count)) + 16  # the start's error dies out by count
    bessel, above, current = np.zeros(top + 1), 0.0, 1e-300
    for order in range(top, -1, -1):  # the last pass makes an unused J_-1
        bessel[order] = current
        above, current = current, (2.0 * order / theta) * current - above
        if abs(current) > 1e250:
            bessel[order:] *= 1e-250
            above, current = above * 1e-250, current * 1e-250
    bessel /= bessel[0] + 2.0 * bessel[2::2].sum()
    orders = np.arange(count)
    with np.errstate(divide="ignore"):  # an underflowed J_k weighs nothing: log 0 = -inf
        small = np.log(2.0 * np.abs(bessel[:count])) + orders * np.log(rho) < np.log(1e-16)
    stop = int(np.argmax(small & (orders > theta)))
    coefficients = 2.0 * bessel[:stop]
    coefficients[0] /= 2.0
    return coefficients



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
            "entries": [asdict(e) for e in self.entries],
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
    from .dynamics import branch_trajectories, squeezed_thermal_covariance
    from .phase_space import evolve_covariance

    g = params.g + g_shift
    sigma0 = squeezed_thermal_covariance(params.s, params.n_p)
    sigmas = evolve_covariance(sigma0, g, tau_grid, params.gamma_x)
    moments = branch_trajectories(params.f_q, g, tau_grid)
    means = {(label.j, label.m): bm.vector.real for label, bm in moments.items()}
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
        oracle_traj = integrate_moments(MomentOdeProblem(params, tau_grid))
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


def verify_fock(g_shift: float = 0.0) -> ComparisonReport:
    """Full suite: truncated-Fock propagation versus the closed-form QRDM.

    Runs the arbitration point (f_q = 0.2, g = 0.05) without noise at n_max = 32
    Fock levels per normal mode, as six evolved kets, then with position
    diffusion and qubit dephasing (gamma_x = 0.02, gamma_z = 0.01) at n_max = 20,
    as 18 single-mode density operators, each as one
    Chebyshev series over its grid (n_max + 4 agrees with either to
    rounding), and records the constant/sign arbitration outcomes in the
    report notes.
    """
    from .dynamics import entangling_phase, final_contrast, open_qrdm
    from .phase_space import final_time

    report = ComparisonReport()
    params = UnitlessParams(f_q=0.2, g=0.05)
    g = params.g + g_shift
    tau_f = final_time(params.g)
    tau_grid = np.linspace(0.0, tau_f, 13)
    result = fock_propagate(FockProblem(params=params, tau_grid=tau_grid, n_max=32, dt=tau_f))

    closed_qrdm, closed_contrasts, _ = open_qrdm(replace(params, g=g), tau_grid)
    report.add("arbitration/qrdm", closed_qrdm, result.qrdm, tau_grid, 1e-9)
    report.add(
        "arbitration/phase(tau_f)",
        np.array([entangling_phase(params.f_q, g, tau_f)]),
        np.array([result.phase(-1)]),
        tau_grid[-1:],
        1e-9,
    )

    # Constant arbitration: the (00|11) exponent equals 4*C2(tau); at tau_f
    # the candidates are C_g (adopted) versus 2*C_g (the sign-flipped
    # intermediate-time display evaluated at closure).
    c2_fock = -np.log(np.abs(4.0 * result.qrdm[1:, 0, 3])) / 4.0
    c2_adopted = closed_contrasts.c_s_np_2[1:]
    report.add("arbitration/c2-adopted", c2_adopted, c2_fock, tau_grid[1:], 1e-9)
    c_g = final_contrast(params.f_q, params.g)
    ratio = float(c2_fock[-1] / c_g)
    report.notes["c2-constant"] = (
        f"oracle C2(tau_f)/C_g = {ratio:.6f}: closure-time constant is C_g, "
        "not 2*C_g; adopted intermediate form 2 f_q^2 sin^2(tau/2) confirmed"
    )
    c1_fock = -np.log(np.abs(4.0 * result.qrdm[1:, 1, 2])) / 4.0
    c1_closed = closed_contrasts.c_s_np_1[1:]
    report.add("arbitration/c1", c1_closed, c1_fock, tau_grid[1:], 1e-9)
    report.notes["contrast-signs"] = (
        "oracle off-diagonal magnitudes decay (exponents nonnegative): "
        "sign-normalized contrasts confirmed"
    )

    noisy = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02, gamma_z=0.01)
    noisy_grid = np.linspace(0.0, tau_f, 5)
    noisy_problem = FockProblem(params=noisy, tau_grid=noisy_grid, n_max=20, dt=tau_f)
    noisy_result = fock_propagate(noisy_problem)
    noisy_closed = open_qrdm(replace(noisy, g=g), noisy_grid)[0]
    report.add("diffusive/qrdm", noisy_closed, noisy_result.qrdm, noisy_grid, 1e-9)
    report.notes["dephasing-normalization"] = (
        "single-flip dephasing exponent is Gamma_z*tau as published; the "
        "published both-flip coefficient 4*Gamma_z*tau is refuted by the "
        "independent-qubit master equation (measured 2*Gamma_z*tau) and "
        "renders the matrix non-positive, so the doubled coefficient is "
        "adopted throughout"
    )
    report.notes["fock-diagnostics"] = (
        "leakage is the largest top-two-level population of a normal mode; "
        f"pure: n_max={result.n_max}, leakage={result.leakage:.2e}, "
        f"trace_error={result.trace_error:.2e}; "
        f"diffusive: n_max={noisy_result.n_max}, leakage={noisy_result.leakage:.2e}, "
        f"trace_error={noisy_result.trace_error:.2e}"
    )
    return report
