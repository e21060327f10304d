"""Closed-form evolution of the Gaussian-branched cat state of two SGIs.

The two-qubit / two-mode state is parameterized by one covariance matrix,
sixteen branch first-moment vectors labeled by qubit eigenvalues, and a 4x4
qubit reduced density matrix (QRDM).  Unitary and diffusive-dephasing
dynamics both close over this family; this module provides the branch
trajectories, the QRDM phases and contrasts, and the assembled state, each
as an explicit function of the dimensionless parameters.  One set of
contrast closed forms serves both: the unitary QRDM is the open QRDM at
s = 1, n_p = 0 and zero rates.  The cat-state calls take one scalar point
at a time and share its closed-form ``open_qrdm`` result (``_shared_qrdm``);
``evolve_cat_state`` makes the moments of all 16 branch pairs from one
normal-mode pass of ``phase_space`` and the closed-form shifts of ``_shifts``.

Branch labels are sigma_z eigenvalues, with computational bit 0 mapped to
+1.  The branch with both qubits in bit 0 is deflected toward negative
positions, which fixes the sign convention of the drift vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product
from operator import attrgetter, itemgetter

import numpy as np

from .phase_space import _normal_modes, _series, mode_frequency, propagator, symplectic_form
from .potentials import UnitlessParams, _check, _require

__all__ = [
    "BranchLabel",
    "BranchMoments",
    "ContrastSet",
    "GaussianCatState",
    "entangling_phase",
    "final_contrast",
    "residual_separation",
    "branch_trajectories",
    "open_phase_contrasts",
    "open_qrdm",
    "squeezed_thermal_covariance",
    "initial_cat_state",
    "evolve_cat_state",
]

_OMEGA = symplectic_form()


@dataclass(frozen=True, order=True)
class BranchLabel:
    """Qubit eigenvalue labels (j, k) for qubit 1 and (m, n) for qubit 2.

    (j, m) label the ket side and (k, n) the bra side of the density-matrix
    branch; each entry is a sigma_z eigenvalue +1 or -1.
    """

    j: int
    k: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for value in (self.j, self.k, self.m, self.n):
            if value not in (+1, -1):
                raise ValueError(f"branch labels must be +1 or -1, got {value}")

    @classmethod
    def from_bits(cls, row: int, col: int) -> "BranchLabel":
        """Label for QRDM entry (row, col) in the computational basis 00..11."""
        if not (0 <= row < 4 and 0 <= col < 4):
            raise ValueError("row and col must index a 4x4 matrix")
        to_eig = (+1, -1)
        return cls(
            j=to_eig[row >> 1], k=to_eig[col >> 1], m=to_eig[row & 1], n=to_eig[col & 1]
        )

    @property
    def qrdm_index(self) -> tuple[int, int]:
        """QRDM entry (row, col) of the label, the inverse of ``from_bits``."""
        return (1 - self.j) + (1 - self.m) // 2, (1 - self.k) + (1 - self.n) // 2


# The 16 labels in row-major QRDM order, built once.
_ALL_LABELS = tuple(BranchLabel.from_bits(row, col) for row in range(4) for col in range(4))


@dataclass(frozen=True)
class BranchMoments:
    """First-moment vector (x1, p1, x2, p2) of one branch; complex off the diagonal."""

    vector: np.ndarray


@dataclass(frozen=True)
class ContrastSet:
    """Nonnegative decay exponents suppressing QRDM off-diagonal entries.

    c_s_np_1/c_s_np_2 are the recombination-mismatch terms of the
    antisymmetric and symmetric mode from a squeezed thermal state (at s = 1,
    n_p = 0 the unitary ones); c_gamma_1/c_gamma_2 the diffusion terms; c_z
    the qubit dephasing term.  Each exponent is a scalar or a grid column.
    ``flip_exponents`` turns them into the three exponents of the X-state QRDM.
    """

    c_s_np_1: float = 0.0
    c_s_np_2: float = 0.0
    c_gamma_1: float = 0.0
    c_gamma_2: float = 0.0
    c_z: float = 0.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            _require(f"contrast {name}", value, value >= 0.0, "must be >= 0")

    def flip_exponents(self) -> tuple:
        """Exponents (single, both_sym, both_anti) of the QRDM's off-diagonal entries.

        single suppresses the entries where exactly one qubit flips, both_sym the
        both-flip, equal-sign entry (00|11) and both_anti the opposite-sign one (01|10).
        For a both-flip the Gaussian terms quadruple relative to a single flip (the
        branch separation doubles); dephasing only doubles, since each qubit dephases
        independently.  A quadrupled dephasing term would render the matrix
        non-positive, so the doubled coefficient is used even where published displays
        quadruple it.  A sum that overflows is inf (its entry is 0), unwarned.
        """
        with np.errstate(over="ignore"):
            return (
                self.c_s_np_1 + self.c_s_np_2 + self.c_gamma_1 + self.c_gamma_2 + self.c_z,
                4.0 * (self.c_s_np_2 + self.c_gamma_2) + 2.0 * self.c_z,
                4.0 * (self.c_s_np_1 + self.c_gamma_1) + 2.0 * self.c_z,
            )


@dataclass(frozen=True)
class GaussianCatState:
    """Covariance matrix, 16 branch first-moment vectors, and the QRDM.

    The QRDM's phase and contrasts are those of ``open_qrdm`` at the same point and tau.
    """

    tau: float
    sigma: np.ndarray
    branches: dict[BranchLabel, BranchMoments]
    qrdm: np.ndarray


# --------------------------------------------------------------------------
# Closed-form phases and contrasts
# --------------------------------------------------------------------------


# The closed forms below broadcast over grid columns.  Powers use np.square and
# np.power, not **: on a numpy scalar ** calls the C library pow, which can
# differ in the last bit from the array ufunc, and one point must match its row.
# A float exponent gives the bits of an integer one without its cast on each call.


def entangling_phase(f_q, g, tau):
    """Qubit-qubit phase f_q^2 (sin tau + 2 g tau/w^2 - sin(w tau)/w^3), w = omega_g.

    Depends only on (f_q, g, tau); in particular it is independent of the
    mass, the initial squeezing/temperature, and the diffusion rate.  Its terms
    of size f_q^2 (1 + tau) cancel to O(f_q^2 g tau), so the relative error
    grows as eps/g: below 16 eps/g for tau from half to three closure times.  A phase
    that overflows (a huge f_q or tau) raises one ValueError naming f_q and tau.
    """
    _check("f_q", f_q)
    _check("tau", tau)
    w = mode_frequency(g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named next
        phase = np.square(f_q) * (
            np.sin(tau) + 2.0 * g * tau / np.square(w) - np.sin(w * tau) / np.power(w, 3.0)
        )
    _require_f_q_keeps("entangling phase", np.isfinite(phase), f_q, tau)
    return phase


def _require_f_q_keeps(quantity: str, finite, f_q, tau) -> None:
    """Raise one ValueError naming f_q and tau where ``finite`` fails: ``quantity`` overflowed."""
    if not (finite is np.True_ or finite.all()):  # a scalar point skips the array test
        at_tau = np.broadcast_to(tau, finite.shape)[~finite][0]
        requirement = f"must keep the {quantity} finite at tau={at_tau}"
        _require("f_q", np.broadcast_to(f_q, finite.shape), finite, requirement)


def final_contrast(f_q: float, g: float) -> float:
    """Ideal closure-time contrast 2 f_q^2 sin^2(pi/omega_g)."""
    _check("f_q", f_q)
    return 2.0 * np.square(f_q) * np.square(np.sin(np.pi / mode_frequency(g)))


def residual_separation(f_q: float, g: float) -> float:
    """Position gap 4 f_q sin^2(pi/omega_g) between the 00 and 11 branches at closure."""
    _check("f_q", f_q)
    return 4.0 * f_q * np.square(np.sin(np.pi / mode_frequency(g)))


_DIFFUSION_SERIES = _series(lambda k: 2 ** (2 * k + 1) - 8, 2)


def _diffusion_shape(x):
    """F(x) = 6x - 8 sin x + sin 2x >= 0 (F' = 4 (1 - cos x)^2), by its series where it cancels."""
    exact = 6.0 * x - 8.0 * np.sin(x) + np.sin(2.0 * x)
    small = np.less_equal(x, 1.0)  # numpy even for a float x; a scalar False skips any()
    if small is np.False_ or not small.any():
        return exact
    y = np.square(x)  # y y, not y**2: ** would call pow on a numpy scalar
    return np.where(small, np.polyval(_DIFFUSION_SERIES, y) * (y * y) * x, exact)[()]


def _open_contrasts(params: UnitlessParams, tau) -> ContrastSet:
    """Closed-form contrast components for squeezed-thermal diffusive dynamics.

    The antisymmetric-mode exponent is
    (1+2n_p) f_q^2/(2 w^4 s) [4 sin^4(x/2) + s^2 w^2 sin^2 x] with x = tau w,
    a sum of nonnegative terms.  x/2 is taken as pi d, where d is r = tau/tau_f
    less its nearest integer and tau_f = 2 pi/w as ``phase_space.final_time``
    computes it, so whole periods drop out exactly and the exponent is exactly 0
    wherever r is an integer, as at tau = final_time(g) and at twice that.  The
    symmetric-mode bracket (s - 1/s) cos tau + s + 1/s cancels as s -> 0; it
    is taken as 2s cos^2(tau/2) + (2/s) sin^2(tau/2) = 2s + 2(1/s - s)
    sin^2(tau/2), two nonnegative terms for s <= 1 and exactly 2 at s = 1.
    Every exponent is a sum of nonnegative terms, so none is clamped.
    """
    f_q, g, s = params.f_q, params.g, params.s
    w = mode_frequency(g)
    occ = 1.0 + 2.0 * params.n_p
    f_sq = np.square(f_q)
    periods = tau / (2.0 * np.pi / w)
    half_x = np.pi * (periods - np.rint(periods))
    sin_sq = np.square(np.sin(tau / 2.0))
    bracket = (
        4.0 * np.square(np.square(np.sin(half_x)))
        + np.square(s) * np.square(w) * np.square(np.sin(2.0 * half_x))
    )
    # a tiny s or a huge f_q overflows these, unwarned, to an inf exponent (entry 0); fmax takes
    # c_s_np_1's inf prefactor times a zero bracket (NaN) to 0, every other product being >= 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        prefactor = occ * (f_sq / (2.0 * np.power(w, 4.0) * s))
        c_s_1 = np.fmax(prefactor * bracket, 0.0)
        c_s_2 = occ * f_sq * sin_sq * (2.0 * s + 2.0 * (1.0 / s - s) * sin_sq)
        c_gamma_1 = params.gamma_x * (f_sq / (8.0 * np.power(w, 5.0))) * _diffusion_shape(tau * w)
        c_gamma_2 = params.gamma_x * (f_sq / 8.0) * _diffusion_shape(tau)
        c_z = params.gamma_z * tau
    try:
        return ContrastSet(c_s_1, c_s_2, c_gamma_1, c_gamma_2, c_z)
    except ValueError:  # every term is >= 0, so a diffusion term is NaN: inf f_q^2 times 0
        _require_f_q_keeps("diffusion contrasts", ~np.isnan(c_gamma_1 + c_gamma_2), f_q, tau)
        raise


# --------------------------------------------------------------------------
# Branch first moments
# --------------------------------------------------------------------------


# Qubit eigenvalues (j, m) of the ket (or bra) side of QRDM row (or column) 0..3; drifts d at
# f_q = 1 and their couplings C d of H = I + g C.
_ROW_EIGENVALUES = tuple(product((+1, -1), repeat=2))
_ROW_DRIFTS = np.array([[j, 0.0, m, 0.0] for j, m in _ROW_EIGENVALUES])
_ROW_COUPLINGS = np.array([[m - j, 0.0, j - m, 0.0] for j, m in _ROW_EIGENVALUES])
_IDENTITY = np.eye(4)
_CENTRED = BranchMoments(np.broadcast_to(0j, 4))  # read-only: every initial branch shares it


def _shifts(g, f_q, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Displaced equilibria r = H^-1 f_q d (..., 4, 4) and shifts (S - I) r, over g, f_q and S.

    Row i belongs to the ket (j, m) = ``_ROW_EIGENVALUES[i]``.  C^2 = -2C gives H^-1 =
    I - g/(1 - 2g) C: equal-bit rows are f_q d exactly (x1 = x2), the others f_q d/(1 - 2g) to
    a few ulp for every checked g < 1/2.  Each shift is one matrix-vector product per row.
    """
    ratio = np.asarray(g / (1.0 - 2.0 * g))[..., None, None]
    r = np.asarray(f_q)[..., None, None] * (_ROW_DRIFTS - ratio * _ROW_COUPLINGS)
    return r, ((s - _IDENTITY)[..., None, :, :] @ r[..., None])[..., 0]


def branch_trajectories(f_q: float, g: float, tau) -> dict[BranchLabel, BranchMoments]:
    """First moments of the four diagonal branches (the interferometric paths).

    The branch with both qubits in bit 0 follows
    f_q (cos tau - 1, -sin tau, cos tau - 1, -sin tau); the equal-bit branches
    evolve at frequency 1 and the opposite-bit branches at omega_g, so only
    the latter recombine exactly at tau = 2 pi/omega_g.  f_q must be finite
    and >= 0, as in ``UnitlessParams``.  A grid of tau gives vectors of
    shape (..., 4).
    """
    _check("f_q", f_q)
    _, shifts = _shifts(g, f_q, propagator(g, tau))
    paths = zip(_ROW_EIGENVALUES, np.moveaxis(shifts, -2, 0))
    return {BranchLabel(j, j, m, m): BranchMoments(vector) for (j, m), vector in paths}


_PARAM_NAMES = tuple(f.name for f in fields(UnitlessParams))
_POINT = attrgetter(*_PARAM_NAMES)


def _scalar(name: str, value) -> float:
    if not isinstance(value, float) and np.ndim(value) != 0:
        raise ValueError(f"{name}={value} must be a scalar; cat states take one point at a time")
    return float(value)


def _point(params: UnitlessParams | tuple, tau) -> tuple[tuple[float, ...], float]:
    """The UnitlessParams fields (or the tuple of them) and tau as floats, a ``_shared_qrdm`` key.

    Grid inputs and a bad tau raise here, before any work.  Fields and a tau that are all
    Python floats are the key as they are; anything else goes through ``_scalar``, so a numpy
    scalar shares its float's cache entry.
    """
    point = params if isinstance(params, tuple) else _POINT(params)
    if type(tau) is not float or not {float}.issuperset(map(type, point)):
        point = tuple(map(_scalar, _PARAM_NAMES, point))
        tau = _scalar("tau", tau)
    _check("tau", tau)
    return point, tau


@lru_cache(maxsize=8)
def _shared_qrdm(point: tuple, tau) -> tuple[np.ndarray, tuple]:
    """``open_qrdm``'s QRDM of the UnitlessParams fields ``point`` at tau and its pair table.

    Both come from one ``open_phase_contrasts`` and one ``flip_exponents``.  The QRDM is
    read-only; the table holds the (phase, exponent) Python floats of entry (row, col) at
    [row][col], so that the entry is exp(-exponent + i phase)/4.  Kept for 8 points: the
    one source of every cat-state phase, contrast and QRDM; a key is checked as it is built.
    """
    point, tau = _point(point, tau)  # a raw key computes as the floats it equals
    phase, contrasts = open_phase_contrasts(UnitlessParams(*point), tau)
    exponents = contrasts.flip_exponents()
    qrdm = _qrdm_from_components(phase, exponents)
    qrdm.setflags(write=False)
    phase = float(phase)
    single, both_sym, both_anti = map(float, exponents)
    entries = ((0.0, 0.0), (-phase, single), (phase, single), (0.0, both_sym), (0.0, both_anti))
    return qrdm, tuple(row(entries) for row in _QRDM_ROWS)


def branch_pair_phase_contrast(
    label: BranchLabel, params: UnitlessParams, tau: float
) -> tuple[float, float]:
    """Phase and decay exponent of one QRDM entry, so that the entry is exp(-contrast + i phase)/4.

    Looks the label's entry up in the point's cached pair table: the entangling phase (with
    the entry's sign, -phase above the diagonal where one qubit flips) and the flip exponent
    of ``ContrastSet.flip_exponents`` that suppresses the entry.  Params and tau must be
    scalars; the closed forms are evaluated once per point and shared with the other
    cat-state calls, whose raw fields and tau key the cache.  Both values are Python floats.
    """
    row, col = label.qrdm_index
    key = _POINT(params), tau
    try:
        hash(key)
    except TypeError:  # an array: _point takes a 0-d one and names a grid
        key = _point(params, tau)
    return _shared_qrdm(*key)[1][row][col]


# --------------------------------------------------------------------------
# QRDM assembly
# --------------------------------------------------------------------------

# Entry (row, col) of the QRDM as an index into (1, upper, lower, both_sym, both_anti).
_QRDM_LAYOUT = np.array([[0, 1, 1, 3], [2, 0, 4, 2], [2, 4, 0, 2], [3, 1, 1, 0]])
_QRDM_ROWS = tuple(itemgetter(*row) for row in _QRDM_LAYOUT.tolist())  # row -> its 4 entries


def _qrdm_from_components(phase, exponents: tuple) -> np.ndarray:
    """QRDMs, shape (..., 4, 4), for initial |+>|+> qubits from phases and the flip exponents.

    ``exponents`` is the (single, both_sym, both_anti) of ``ContrastSet.flip_exponents``.
    """
    single, both_sym, both_anti = (np.exp(-total) for total in exponents)
    table = np.empty(np.broadcast(phase, single, both_sym, both_anti).shape + (5,), complex)
    table[..., 0], table[..., 3], table[..., 4] = 1.0, both_sym, both_anti
    table[..., 1], table[..., 2] = single * np.exp(-1j * phase), single * np.exp(1j * phase)
    return table[..., _QRDM_LAYOUT] / 4.0


def open_phase_contrasts(params: UnitlessParams, tau: float) -> tuple[float, ContrastSet]:
    """The entangling phase and contrast exponents of ``open_qrdm``, without its QRDM."""
    return entangling_phase(params.f_q, params.g, tau), _open_contrasts(params, tau)


def open_qrdm(params: UnitlessParams, tau: float) -> tuple[np.ndarray, ContrastSet, float]:
    """QRDM under diffusion and dephasing from a squeezed thermal state.

    The entangling phase is the unitary one; only the contrast exponents
    pick up the initial-state and noise dependence.  Parameters and tau may
    be grid columns, giving QRDMs of shape (..., 4, 4).
    """
    phase, contrasts = open_phase_contrasts(params, tau)
    return _qrdm_from_components(phase, contrasts.flip_exponents()), contrasts, phase


# --------------------------------------------------------------------------
# Full state assembly
# --------------------------------------------------------------------------


def squeezed_thermal_covariance(s: float, n_p: float) -> np.ndarray:
    """Initial covariance (1+2 n_p) diag(s, 1/s, s, 1/s) of scalar s and n_p, all entries finite."""
    _scalar("s", s)
    _scalar("n_p", n_p)
    _check("s", s)
    _check("n_p", n_p)
    anti = (1.0 + 2.0 * float(n_p)) * (1.0 / float(s))  # a float overflow is inf, unwarned
    _require("squeezing s", s, np.isfinite(anti), f"must keep (1+2 n_p)/s finite at n_p={n_p}")
    return (1.0 + 2.0 * n_p) * np.diag([s, 1.0 / s, s, 1.0 / s])


def initial_cat_state(params: UnitlessParams) -> GaussianCatState:
    """State at tau = 0: squeezed thermal covariance, one shared centred branch, |+>|+> QRDM."""
    sigma = squeezed_thermal_covariance(params.s, params.n_p)
    qrdm = np.full((4, 4), 0.25, dtype=complex)
    return GaussianCatState(0.0, sigma, dict.fromkeys(_ALL_LABELS, _CENTRED), qrdm)


def evolve_cat_state(
    initial: GaussianCatState, params: UnitlessParams, tau: float
) -> GaussianCatState:
    """Evolve the reference initial state to time tau.

    The covariance splits as (1+2 n_p) * (propagated squeezed vacuum) plus
    gamma_x times the accumulated diffusion; branch moments and the QRDM come
    from the corresponding closed forms.  Only a centred initial state (any branch not
    ``initial_cat_state``'s shared one must be zero) evolves.  Params and tau must be
    scalars.  One ``_normal_modes`` pass gives S(tau), L and the memory integral m1,
    and ``_shifts`` the closed-form r and delta of the four QRDM rows;
    branch (row, col) is (delta_row + delta_col)/2 + (i/2) [sigma Omega
    (delta_row - delta_col) + m1 (r_row - r_col)] for sigma evolved from
    ``initial.sigma``, so diagonal branches are real and unaffected by
    momentum diffusion.  The QRDM is a copy of the point's cached ``open_qrdm``.
    A state that overflows (a tiny s) raises one ValueError naming s.
    """
    if initial.tau != 0.0:
        raise ValueError("evolution starts from the tau = 0 reference state")
    if any(np.any(b.vector) for b in initial.branches.values() if b is not _CENTRED):
        raise ValueError("initial branch moments must be centred at the origin")
    point, tau = _point(params, tau)
    f_q, g, s, _, gamma_x, _ = point
    s_tau, lyapunov, m1 = _normal_modes(g, gamma_x, tau)
    r, delta = _shifts(g, f_q, s_tau)
    mismatch, delta_eq = delta[:, None] - delta, r[:, None] - r
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny s can overflow; checked next
        sigma = s_tau @ initial.sigma @ s_tau.T + lyapunov
        moments = 0.5 * (delta[:, None] + delta) + 0.5j * (
            mismatch @ (sigma @ _OMEGA).T + delta_eq @ m1.T
        )
        sigma = 0.5 * (sigma + sigma.T)
    finite = np.isfinite(sigma).all() & np.isfinite(moments).all()
    _require("squeezing s", s, finite, f"must keep the evolved state finite at tau={tau}")
    branches = dict(zip(_ALL_LABELS, map(BranchMoments, moments.reshape(16, 4))))
    return GaussianCatState(tau, sigma, branches, _shared_qrdm(point, tau)[0].copy())
