import math
import re
import warnings
from dataclasses import replace
from functools import lru_cache
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_branch_pair,
    reference_m2,
    reference_propagator_integrals,
    sgi_hamiltonian,
    squeezed_covariance_display,
)
from sgipair import dynamics as dyn
from sgipair import entanglement as ent
from sgipair.phase_space import (
    _normal_modes,
    final_time,
    mode_frequency,
    propagator,
)
from sgipair.potentials import UnitlessParams


def _antisymmetric_contrast_reference(params: UnitlessParams, tau: float):
    """(1+2n_p) f^2/(2 w^4 s) (4 sin^4(x/2) + s^2 w^2 sin^2 x), x = tau w, at 60 digits.

    The bracket is half of (1-s^2w^2) cos 2x + s^2w^2 - 4 cos x + 3, without its cancellation.
    """
    with mpmath.workdps(60):
        f_q, g, s, n_p, tau = map(mpmath.mpf, (params.f_q, params.g, params.s, params.n_p, tau))
        w = mpmath.sqrt(1 - 2 * g)
        x = tau * w
        bracket = 4 * mpmath.sin(x / 2) ** 4 + s**2 * w**2 * mpmath.sin(x) ** 2
        return (1 + 2 * n_p) * f_q**2 / (2 * w**4 * s) * bracket


def _trajectory_reference(f_q: float, g: float, tau: float, label) -> np.ndarray:
    """A diagonal branch's first moments at 50 digits from the float inputs, by normal mode.

    The symmetric mode (x1 + x2)/2 oscillates at frequency 1 about f_q (j + m)/2, the
    antisymmetric one (x1 - x2)/2 at w = sqrt(1 - 2g) about f_q (j - m)/(2 w^2), both from rest
    at the origin.
    """
    with mpmath.workdps(50):
        f_q, g, tau = map(mpmath.mpf, (f_q, g, tau))
        w = mpmath.sqrt(1 - 2 * g)
        modes = []
        for frequency, centre in (
            (1, f_q * (label.j + label.m) / 2),
            (w, f_q * (label.j - label.m) / (2 * w**2)),
        ):
            x = frequency * tau
            modes.append(((mpmath.cos(x) - 1) * centre, -frequency * mpmath.sin(x) * centre))
        (x_sym, p_sym), (x_anti, p_anti) = modes
        vector = (x_sym + x_anti, p_sym + p_anti, x_sym - x_anti, p_sym - p_anti)
        return np.array([float(value) for value in vector])


ALL_LABELS = [dyn.BranchLabel.from_bits(r, c) for r in range(4) for c in range(4)]
# A diffusive, dephased, squeezed thermal point: every term of the branch-pair moments is nonzero.
CAT_PARAMS = UnitlessParams(f_q=0.7, g=0.13, s=0.4, n_p=0.5, gamma_x=0.03, gamma_z=0.02)
# The two cat-state entry points, each as a function of (params, tau).
CAT_ENTRY_POINTS = {
    "branch_pair_phase_contrast": lambda params, tau: dyn.branch_pair_phase_contrast(
        ALL_LABELS[3], params, tau
    ),
    "evolve_cat_state": lambda params, tau: dyn.evolve_cat_state(
        dyn.initial_cat_state(params), params, tau
    ),
}
# Each cat-state entry point with each UnitlessParams field or tau as a grid, and
# initial_cat_state with a grid s or n_p, as (entry, field, grid value); ids read "field-entry".
GRID_ENTRY_POINTS = {
    **CAT_ENTRY_POINTS,
    "initial_cat_state": lambda params, tau: dyn.initial_cat_state(params),
}
GRID_VALUES = {
    "f_q": np.array([0.5, 0.6]),
    "g": np.array([0.1, 0.2]),
    "s": np.array([0.3, 0.5]),
    "n_p": np.array([0.0, 1.0]),
    "gamma_x": np.array([0.0, 0.01]),
    "gamma_z": np.array([0.0, 0.02]),
    "tau": np.array([1.0, 2.0]),
}
GRID_CASES = [
    pytest.param(entry, field, value, id=f"{field}-{entry}")
    for field, value in GRID_VALUES.items()
    for entry in sorted(CAT_ENTRY_POINTS)
] + [
    pytest.param("initial_cat_state", field, GRID_VALUES[field], id=f"{field}-initial_cat_state")
    for field in ("s", "n_p")
]


def branch(j, m):
    return dyn.BranchLabel(j=j, k=j, m=m, n=m)


class TestBranchLabel:
    def test_bit_mapping_round_trip(self):
        label = dyn.BranchLabel.from_bits(1, 2)
        assert (label.j, label.k, label.m, label.n) == (1, -1, -1, 1)
        assert label.j != label.k and label.m != label.n  # both qubits flip

    def test_qrdm_index_inverts_from_bits(self):
        for row in range(4):
            for col in range(4):
                assert dyn.BranchLabel.from_bits(row, col).qrdm_index == (row, col)

    def test_rejects_bad_eigenvalues(self):
        with pytest.raises(ValueError):
            dyn.BranchLabel(j=0, k=1, m=1, n=1)


class TestBranchTrajectories:
    def test_initially_centred(self):
        for moments in dyn.branch_trajectories(1.0, 0.1, 0.0).values():
            assert np.array_equal(moments.vector, np.zeros(4))

    def test_published_closed_forms(self):
        f_q, g = 1.0, 0.1
        w = np.sqrt(1.0 - 2.0 * g)
        for tau in (0.7, 2.0, 5.5):
            moments = dyn.branch_trajectories(f_q, g, tau)
            equal_bits = f_q * np.array(
                [np.cos(tau) - 1.0, -np.sin(tau), np.cos(tau) - 1.0, -np.sin(tau)]
            )
            opposite_bits = (f_q / w) * np.array(
                [
                    (np.cos(tau * w) - 1.0) / w,
                    -np.sin(tau * w),
                    (1.0 - np.cos(tau * w)) / w,
                    np.sin(tau * w),
                ]
            )
            assert np.allclose(moments[branch(1, 1)].vector, equal_bits, atol=1e-14)
            assert np.allclose(
                moments[branch(1, -1)].vector, opposite_bits, atol=1e-14
            )

    @pytest.mark.parametrize("g", [0.1, 0.49, 0.5 - 1e-6, 0.5 - 1e-9])
    def test_match_high_precision(self, g):
        # The displaced equilibria near g = 1/2, where a LAPACK solve of H r = f_q d loses
        # digits as 1/(1 - 2g); away from closure, where the opposite-bit shifts cancel.
        f_q = 1.3
        for periods in (0.3, 0.55, 1.7):
            tau = periods * float(final_time(g))
            moments = dyn.branch_trajectories(f_q, g, tau)
            expected = {label: _trajectory_reference(f_q, g, tau, label) for label in moments}
            scale = max(np.max(np.abs(vector)) for vector in expected.values())
            for label, vector in expected.items():
                assert np.max(np.abs(moments[label].vector - vector)) <= 1e-14 * scale, label

    def test_equal_bit_branches_keep_the_traps_symmetric(self):
        for tau in (0.7, 2.0, float(final_time(0.1)), 17.0):
            moments = dyn.branch_trajectories(1.3, 0.1, tau)
            for j in (1, -1):
                x1, p1, x2, p2 = moments[branch(j, j)].vector
                assert x1 == x2 and p1 == p2, (tau, j)

    def test_grid_equals_scalar_calls(self):
        # the trajectories command and the verify suite evaluate whole tau grids
        cases = ((1.0, 0.1, final_time(0.1)), (2.0, 1e-6, 40.0), (0.3, 0.4, 2.0 * np.pi))
        for f_q, g, tau_max in cases:
            grid = np.linspace(0.0, tau_max, 401)
            moments = dyn.branch_trajectories(f_q, g, grid)
            points = [dyn.branch_trajectories(f_q, g, float(tau)) for tau in grid]
            for label, series in moments.items():
                assert np.array_equal(series.vector, [point[label].vector for point in points])
                positions = [point[label].vector[..., [0, 2]] for point in points]
                assert np.array_equal(series.vector[..., [0, 2]], positions)

    def test_branch_antisymmetry_exact(self):
        moments = dyn.branch_trajectories(0.8, 0.23, 3.1)
        assert np.array_equal(
            moments[branch(1, 1)].vector, -moments[branch(-1, -1)].vector
        )
        assert np.array_equal(
            moments[branch(1, -1)].vector, -moments[branch(-1, 1)].vector
        )

    def test_opposite_bit_branches_recombine_at_closure(self):
        f_q, g = 1.0, 0.1
        moments = dyn.branch_trajectories(f_q, g, final_time(g))
        assert np.max(np.abs(moments[branch(1, -1)].vector)) < 1e-12
        assert np.max(np.abs(moments[branch(-1, 1)].vector)) < 1e-12

    def test_equal_bit_gap_is_residual_separation(self):
        f_q, g = 1.0, 0.1
        moments = dyn.branch_trajectories(f_q, g, final_time(g))
        gap = abs(
            moments[branch(1, 1)].vector[0] - moments[branch(-1, -1)].vector[0]
        )
        assert gap == pytest.approx(dyn.residual_separation(f_q, g), abs=1e-12)


class TestResidualSeparation:
    def test_vanishes_without_coupling(self):
        assert dyn.residual_separation(1.0, 0.0) == pytest.approx(0.0, abs=1e-30)

    def test_reference_value(self):
        assert dyn.residual_separation(1.0, 0.1) == pytest.approx(
            0.5252622438433607, abs=1e-12
        )

    def test_vanishes_without_force(self):
        assert dyn.residual_separation(0.0, 0.3) == 0.0


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("branch_trajectories", (1.0, 0.1, -1.0), "tau=-1.0 must be finite and >= 0"),
        ("branch_trajectories", (1.0, 0.1, math.nan), "tau=nan must be finite and >= 0"),
        *(
            ("branch_trajectories", (1.0, g, 1.0), f"coupling g={g} outside [0, 1/2);"
             " the trap is unstable at g >= 1/2")
            for g in (0.5, 0.7, -0.01)
        ),
        ("entangling_phase", (1.0, 0.1, -1.0), "tau=-1.0 must be finite and >= 0"),
        ("residual_separation", (-1.0, 0.1), "f_q=-1.0 must be finite and >= 0"),
        ("final_contrast", (-1.0, 0.1), "f_q=-1.0 must be finite and >= 0"),
        ("final_contrast", (math.nan, 0.1), "f_q=nan must be finite and >= 0"),
        ("entangling_phase", (-1.0, 0.1, 1.0), "f_q=-1.0 must be finite and >= 0"),
    ],
)
def test_closed_forms_reject_bad_tau_or_force(name, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(dyn, name)(*args)


def _branches(params: UnitlessParams, tau: float) -> dict:
    """First moments of all 16 branches of the cat state evolved to tau."""
    return dyn.evolve_cat_state(dyn.initial_cat_state(params), params, tau).branches


class TestCatStateBranches:
    def test_diagonal_matches_trajectories(self):
        params = UnitlessParams(f_q=0.6, g=0.11)
        moments = dyn.branch_trajectories(params.f_q, params.g, 2.3)
        branches = _branches(params, 2.3)
        for label, expected in moments.items():
            general = branches[label]
            assert np.allclose(general.vector.real, expected.vector, atol=1e-13)
            assert np.max(np.abs(general.vector.imag)) < 1e-12

    def test_zero_force_gives_zero_vectors(self):
        branches = _branches(UnitlessParams(f_q=0.0, g=0.2), 1.7)
        for label in ALL_LABELS:
            assert np.max(np.abs(branches[label].vector)) == 0.0

    def test_only_a_centred_initial_state_evolves(self):
        initial = dyn.initial_cat_state(CAT_PARAMS)
        assert len({id(moments) for moments in initial.branches.values()}) == 1  # one shared
        own_zeros = {label: dyn.BranchMoments(np.zeros(4, complex)) for label in ALL_LABELS}
        expected = _moment_table(dyn.evolve_cat_state(initial, CAT_PARAMS, 3.1))
        state = dyn.evolve_cat_state(replace(initial, branches=own_zeros), CAT_PARAMS, 3.1)
        assert np.array_equal(_moment_table(state), expected)
        moved = {**initial.branches, ALL_LABELS[6]: dyn.BranchMoments(np.array([0, 1e-300, 0, 0]))}
        with pytest.raises(ValueError, match="^initial branch moments must be centred"):
            dyn.evolve_cat_state(replace(initial, branches=moved), CAT_PARAMS, 3.1)

    def test_conjugation_under_label_swap(self):
        branches = _branches(UnitlessParams(f_q=0.4, g=0.07, s=0.5, n_p=1.0, gamma_x=0.02), 2.0)
        label = dyn.BranchLabel(j=1, k=-1, m=-1, n=-1)
        forward = branches[label].vector
        swapped = dyn.BranchLabel(j=label.k, k=label.j, m=label.n, n=label.m)
        backward = branches[swapped].vector
        assert np.allclose(forward, backward.conj(), atol=1e-13)


def _relative(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


def _fresh_qrdm(params: UnitlessParams, tau: float):
    """The point's ``open_qrdm`` result at its float fields, evaluated outside the cache."""
    point, tau = dyn._point(params, tau)
    return dyn.open_qrdm(UnitlessParams(*point), tau)


def _builds() -> int:
    """Closed-form QRDMs evaluated since the cache was last cleared."""
    return dyn._shared_qrdm.cache_info().misses


def _modes(params: UnitlessParams, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S(tau), L and m1 of a point or a grid of params, from one normal-mode pass."""
    modes = _normal_modes(params.g, params.gamma_x, tau)
    return modes[..., 0, :, :], modes[..., 1, :, :], modes[..., 2, :, :]


def _evolved_covariance(params: UnitlessParams, tau) -> np.ndarray:
    """The squeezed thermal covariance of a point or grid of params evolved to tau."""
    s_tau, lyapunov, _ = _modes(params, tau)
    s, occupation = np.asarray(params.s), 1.0 + 2.0 * np.asarray(params.n_p)
    sigma0 = occupation[..., None] * np.stack(np.broadcast_arrays(s, 1.0 / s, s, 1.0 / s), -1)
    return s_tau * sigma0[..., None, :] @ s_tau.swapaxes(-1, -2) + lyapunov


def _reference_pairs(
    params: UnitlessParams, tau, sigma: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Moments (..., 4, 4, 4) and (phase, contrast) (..., 4, 4, 2) of a point or a grid.

    The general branch-pair formula of ``reference_branch_pair``, with m2 by quadrature and H
    from ``oracles``: a route to the QRDM phases and contrasts that shares none of their
    closed forms.  sigma is the evolved covariance, by default that of ``_evolved_covariance``.
    """
    s_tau, _, m1 = _modes(params, tau)
    m2 = reference_m2(params.g, tau, params.gamma_x)
    g = np.asarray(params.g)
    h_matrix = np.reshape([sgi_hamiltonian(value) for value in g.ravel()], g.shape + (4, 4))
    if sigma is None:
        sigma = _evolved_covariance(params, tau)
    references = [
        reference_branch_pair(s_tau, m1, params, tau, label, sigma, m2, h_matrix)
        for label in ALL_LABELS
    ]
    moments = np.stack([vector for vector, _ in references], axis=-2)
    pairs = np.stack([np.stack(pair, axis=-1) for _, pair in references], axis=-2)
    grid = moments.shape[:-2]  # every label has the grid's axes
    return moments.reshape(grid + (4, 4, 4)), pairs.reshape(grid + (4, 4, 2))


def _closed_pairs(phase, contrasts: dyn.ContrastSet) -> np.ndarray:
    """(phase, contrast) (..., 4, 4, 2) of every QRDM entry, laid out by ``_QRDM_LAYOUT``."""
    single, both_sym, both_anti = contrasts.flip_exponents()
    entries = np.broadcast_arrays(
        *(0.0, -phase, phase, 0.0, 0.0), *(0.0, single, single, both_sym, both_anti)
    )
    layout = np.stack([dyn._QRDM_LAYOUT, 5 + dyn._QRDM_LAYOUT], axis=-1)
    return np.stack(entries, axis=-1)[..., layout]


def _qrdm_pairs(qrdm) -> np.ndarray:
    """``_closed_pairs`` of an ``open_qrdm`` result's phase and contrasts."""
    _, contrasts, phase = qrdm
    return _closed_pairs(phase, contrasts)


def _moment_table(state: dyn.GaussianCatState) -> np.ndarray:
    """The state's 16 branch moments as a (4, 4, 4) table, entry [row, col] of that QRDM entry."""
    return np.stack([state.branches[label].vector for label in ALL_LABELS]).reshape(4, 4, 4)


class TestBranchPairKernel:
    """The closed-form memory integrals, the moments built from them and the cached QRDM."""

    @pytest.mark.parametrize("g", [0.0, 0.2, 0.4999])
    def test_matches_adaptive_reference(self, g):
        params = UnitlessParams(f_q=1.0, g=g, s=0.3, n_p=1.0, gamma_x=0.05)
        for tau in (0.1, 2.0, final_time(g), 17.0, 300.0):
            _, lyapunov, m1 = _modes(params, float(tau))
            reference = reference_propagator_integrals(g, tau, np.diag([0.0, 0.05, 0.0, 0.05]))
            assert _relative(m1, reference["m1"]) <= 1e-12
            assert _relative(lyapunov, reference["lyapunov"]) <= 1e-12
            # the quadrature m2 of the general branch-pair formula in the tests
            assert _relative(reference_m2(g, tau, 0.05), reference["m2"]) <= 1e-12

    def test_one_normal_mode_pass_serves_every_label(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _normal_modes(*args)

        monkeypatch.setattr(dyn, "_normal_modes", counting)
        state = dyn.evolve_cat_state(dyn.initial_cat_state(CAT_PARAMS), CAT_PARAMS, 3.1)
        assert len(calls) == 1
        moments, _ = _reference_pairs(CAT_PARAMS, 3.1)
        assert _relative(_moment_table(state), moments) <= 1e-14

    def test_one_build_per_point(self):
        dyn._shared_qrdm.cache_clear()
        dyn.evolve_cat_state(dyn.initial_cat_state(CAT_PARAMS), CAT_PARAMS, 3.1)
        for label in ALL_LABELS:
            dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1)
        assert _builds() == 1
        dyn.branch_pair_phase_contrast(ALL_LABELS[1], CAT_PARAMS, 1.7)
        assert _builds() == 2

    def test_numpy_scalars_share_the_python_float_entry(self):
        dyn._shared_qrdm.cache_clear()
        dyn.branch_pair_phase_contrast(ALL_LABELS[1], CAT_PARAMS, 3.1)
        numpy_params = UnitlessParams(
            **{name: np.float64(getattr(CAT_PARAMS, name)) for name in dyn._PARAM_NAMES}
        )
        for params, tau in [
            (CAT_PARAMS, np.float64(3.1)),
            (CAT_PARAMS, np.array(3.1)),
            (numpy_params, 3.1),
        ]:
            for entry in CAT_ENTRY_POINTS.values():
                entry(params, tau)
        assert _builds() == 1

    @pytest.mark.parametrize("f_q", [np.float32(0.7), 2**40, True], ids=["float32", "int", "bool"])
    def test_a_lookup_computes_with_its_fields_as_floats(self, f_q):
        # the raw fields key the cache; the entry they build is that of their float values
        pairs = []
        for value in (f_q, float(f_q)):
            dyn._shared_qrdm.cache_clear()
            params = replace(CAT_PARAMS, f_q=value)
            lookups = (dyn.branch_pair_phase_contrast(label, params, 3.1) for label in ALL_LABELS)
            pairs.append(list(lookups))
        assert pairs[0] == pairs[1]

    def test_shared_qrdm_matches_a_fresh_evaluation(self):
        fresh = _fresh_qrdm(CAT_PARAMS, 3.1)
        pairs = _qrdm_pairs(fresh)
        dyn._shared_qrdm.cache_clear()
        states = []
        for _ in range(2):  # the first pass evaluates the shared QRDM, the second reads it
            initial = dyn.initial_cat_state(CAT_PARAMS)
            states.append(dyn.evolve_cat_state(initial, CAT_PARAMS, 3.1))
            assert np.array_equal(states[-1].qrdm, fresh[0])
            for label in ALL_LABELS:
                assert dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1) == tuple(
                    pairs[label.qrdm_index].tolist()
                )
        assert np.array_equal(_moment_table(states[0]), _moment_table(states[1]))

    def test_initial_covariance_does_not_leak(self):
        params, tau = CAT_PARAMS, 3.1
        sigma0 = dyn.squeezed_thermal_covariance(0.9, 2.0)
        dyn._shared_qrdm.cache_clear()
        initial = replace(dyn.initial_cat_state(params), sigma=sigma0)
        state = dyn.evolve_cat_state(initial, params, tau)
        s = propagator(params.g, tau)
        sigma = s @ sigma0 @ s.T + _normal_modes(params.g, params.gamma_x, tau)[..., 1, :, :]
        assert np.array_equal(state.sigma, 0.5 * (sigma + sigma.T))
        evolved, _ = _reference_pairs(params, tau, sigma)  # the moments of this sigma
        assert _relative(_moment_table(state), evolved) <= 1e-14
        pairs = _qrdm_pairs(_fresh_qrdm(params, tau))
        for label in ALL_LABELS:
            assert dyn.branch_pair_phase_contrast(label, params, tau) == tuple(
                pairs[label.qrdm_index].tolist()
            )

    def test_pairs_read_the_cached_open_qrdm(self, monkeypatch):
        # The point's phase and contrasts, as the cache builds them, are the only source of
        # the 16 phases and contrasts and of the QRDM: shifting them moves every off-diagonal
        # pair, and the pairs still rebuild the shifted QRDM.
        _, contrasts, phase = _fresh_qrdm(CAT_PARAMS, 3.1)
        shifts = {name: getattr(contrasts, name) + 0.125 for name in contrasts.__dataclass_fields__}
        shifted = replace(contrasts, **shifts)
        qrdm = dyn._qrdm_from_components(phase + 0.5, shifted.flip_exponents())
        moved = (qrdm, shifted, phase + 0.5)
        before = [dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1) for label in ALL_LABELS]
        monkeypatch.setattr(dyn, "open_phase_contrasts", lambda params, tau: (phase + 0.5, shifted))
        monkeypatch.setattr(dyn, "_shared_qrdm", dyn._shared_qrdm.__wrapped__)  # uncached
        assert np.array_equal(dyn._shared_qrdm(*dyn._point(CAT_PARAMS, 3.1))[0], qrdm)
        expected = _qrdm_pairs(moved)
        for label, old in zip(ALL_LABELS, before):
            pair = dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1)
            assert pair == tuple(expected[label.qrdm_index].tolist())
            assert (pair == old) == (label.j == label.k and label.m == label.n), label
            rebuilt = 0.25 * np.exp(-pair[1] + 1j * pair[0])
            assert abs(rebuilt - qrdm[label.qrdm_index]) <= 1e-16, label

    @pytest.mark.parametrize(
        "params, tau",
        [
            pytest.param(CAT_PARAMS, 3.1, id="cat"),
            pytest.param(CAT_PARAMS, 0.0, id="tau-0"),
            pytest.param(replace(CAT_PARAMS, gamma_x=0.0), 3.1, id="gamma_x-0"),
            pytest.param(replace(CAT_PARAMS, g=0.0), 3.1, id="g-0"),
            pytest.param(
                UnitlessParams(f_q=1.3, g=0.31, s=0.05, n_p=3.0, gamma_z=0.4),
                final_time(0.31),
                id="squeezed-thermal-dephased",
            ),
            pytest.param(CAT_PARAMS, 300.0, id="tau-300"),
        ],
    )
    def test_tables_match_the_per_label_reference(self, params, tau):
        state = dyn.evolve_cat_state(dyn.initial_cat_state(params), params, tau)
        moment_table = _moment_table(state)
        moments, phase_contrast = _reference_pairs(params, tau)
        closed = _closed_pairs(*dyn.open_phase_contrasts(params, tau))
        for actual, expected in [
            (moment_table, moments),
            (closed[..., 0], phase_contrast[..., 0]),
            (closed[..., 1], phase_contrast[..., 1]),
        ]:
            assert np.max(np.abs(actual - expected)) <= 1e-14 * np.max(np.abs(expected))
        for label in ALL_LABELS:
            if label.j == label.k and label.m == label.n:  # a diagonal branch
                assert not moment_table[label.qrdm_index].imag.any()
            phase, contrast = dyn.branch_pair_phase_contrast(label, params, tau)
            assert type(phase) is float and type(contrast) is float

    def test_evolved_state_does_not_share_the_cache(self):
        initial = dyn.initial_cat_state(CAT_PARAMS)
        state = dyn.evolve_cat_state(initial, CAT_PARAMS, 3.1)
        expected = state.qrdm.copy()
        pairs = [dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1) for label in ALL_LABELS]
        state.qrdm[...] = 0.0  # the state's QRDM is the caller's own
        assert np.array_equal(dyn.evolve_cat_state(initial, CAT_PARAMS, 3.1).qrdm, expected)
        for label, pair in zip(ALL_LABELS, pairs):
            assert dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1) == pair

    def test_evolving_a_cached_point_runs_no_closed_forms(self, monkeypatch):
        dyn.branch_pair_phase_contrast(ALL_LABELS[0], CAT_PARAMS, 3.1)  # cache the point

        def never(*_):
            raise AssertionError("a closed form was evaluated")

        monkeypatch.setattr(dyn, "open_qrdm", never)
        monkeypatch.setattr(dyn, "open_phase_contrasts", never)
        sigma0 = dyn.squeezed_thermal_covariance(0.9, 2.0)
        for initial in (
            dyn.initial_cat_state(CAT_PARAMS),
            replace(dyn.initial_cat_state(CAT_PARAMS), sigma=sigma0),
        ):
            dyn.evolve_cat_state(initial, CAT_PARAMS, 3.1)

    def test_phase_contrast_lookups_evaluate_no_moments(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _normal_modes(*args)

        monkeypatch.setattr(dyn, "_normal_modes", counting)
        dyn._shared_qrdm.cache_clear()
        for label in ALL_LABELS:
            dyn.branch_pair_phase_contrast(label, CAT_PARAMS, 3.1)
        assert calls == []
        dyn.evolve_cat_state(dyn.initial_cat_state(CAT_PARAMS), CAT_PARAMS, 3.1)
        assert len(calls) == 1  # the state's own moments, for its evolved covariance

    def test_shared_qrdm_is_read_only(self):
        qrdm, table = dyn._shared_qrdm(*dyn._point(CAT_PARAMS, 3.1))
        with pytest.raises(ValueError, match="read-only"):
            qrdm[0] += 1.0
        # the pair table is tuples all the way down, of 4 rows of 4 (phase, exponent) pairs
        types = {type(table), *map(type, table), *(type(pair) for row in table for pair in row)}
        assert types == {tuple} and [len(row) for row in table] == [4] * 4

    @pytest.mark.parametrize("entry, field, value", GRID_CASES)
    def test_grid_input_fails_before_any_work(self, monkeypatch, entry, field, value):
        def no_build(*args):
            raise AssertionError("work was done")

        monkeypatch.setattr(dyn, "_shared_qrdm", no_build)
        monkeypatch.setattr(dyn, "_normal_modes", no_build)
        tau = value if field == "tau" else 3.1
        params = CAT_PARAMS if field == "tau" else replace(CAT_PARAMS, **{field: value})
        message = rf"^{field}={re.escape(str(value))} must be a scalar"
        with pytest.raises(ValueError, match=message):
            GRID_ENTRY_POINTS[entry](params, tau)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_rejects_bad_tau(self, tau):
        params = UnitlessParams(f_q=0.5, g=0.1, gamma_x=0.01)
        label = dyn.BranchLabel.from_bits(0, 3)
        message = r"^tau=.* must be finite and >= 0"
        with pytest.raises(ValueError, match=message):
            dyn.branch_pair_phase_contrast(label, params, tau)
        with pytest.raises(ValueError, match=message):
            dyn.evolve_cat_state(dyn.initial_cat_state(params), params, tau)
        with pytest.raises(ValueError, match=message):
            dyn.open_qrdm(params, tau)


def _grid_arrays(qrdm, modes: np.ndarray) -> dict[str, np.ndarray]:
    """Every array of an ``open_qrdm`` result and of a ``_normal_modes`` pass, by name."""
    rho, contrasts, phase = qrdm
    arrays = {"qrdm": rho, "phase": phase}
    arrays.update({name: getattr(contrasts, name) for name in contrasts.__dataclass_fields__})
    arrays.update(s_tau=modes[..., 0, :, :], lyapunov=modes[..., 1, :, :], m1=modes[..., 2, :, :])
    return arrays


@lru_cache(maxsize=1)
def _cross_check_grid() -> tuple[UnitlessParams, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """2000 points across the domain, tau up to three closures, and their reference pairs.

    The moments (2000, 4, 4, 4) and (phase, contrast) (2000, 4, 4, 2) of every QRDM entry by
    ``_reference_pairs``.
    """
    rng = np.random.default_rng(9)
    n = 2000
    g = np.concatenate([[0.0, 0.4999], 10 ** rng.uniform(-3.0, np.log10(0.45), n - 2)])
    periods = np.concatenate([[1.0, 2.0, 0.0], rng.uniform(0.0, 3.0, n - 3)])
    tau = periods * final_time(g)
    params = UnitlessParams(
        f_q=rng.uniform(0.1, 2.0, n),
        g=g,
        s=10 ** rng.uniform(-3.0, 0.0, n),
        n_p=rng.uniform(0.0, 5.0, n),
        gamma_x=rng.uniform(0.0, 0.05, n),
        gamma_z=rng.uniform(0.0, 0.01, n),
    )
    return params, tau, _reference_pairs(params, tau)


def _entangling_phase_reference(f_q: float, g: float, tau: float):
    """f_q^2 (sin tau + 2 g tau/w^2 - sin(w tau)/w^3) at 60 digits from the float inputs."""
    with mpmath.workdps(60):
        f_q, g, tau = map(mpmath.mpf, (f_q, g, tau))
        w = mpmath.sqrt(1 - 2 * g)
        return f_q**2 * (mpmath.sin(tau) + 2 * g * tau / w**2 - mpmath.sin(w * tau) / w**3)


class TestClosedFormsOnAGrid:
    """Grid closed forms against their points, and against the branch-pair reference."""

    def test_grid_build_equals_the_per_point_builds(self):
        # The sweep evaluates open_qrdm and the normal modes over whole grids, the cat-state
        # calls one point at a time: both must give the same bits.  At g = 0, tau = 0.7 runs
        # the series of every shape, 1.5 only that of A(x/2) and 3.0 none; the rates are 0
        # and above 0.
        rng = np.random.default_rng(21)
        rows = [
            (rng.uniform(0, 2), g, 10 ** rng.uniform(-3, 0), rng.uniform(0, 5), *rates, tau)
            for g in (0.0, 1e-10, 0.2, 0.4999)
            for tau in (0.0, 1e-8, 0.7, 1.5, 3.0, float(final_time(g)), 300.0)
            for rates in product((0.0, 0.03), (0.0, 0.02))
            for _ in range(9)
        ]
        columns = np.array(rows).T
        params, tau = UnitlessParams(*columns[:6]), columns[6]
        modes = _normal_modes(params.g, params.gamma_x, tau)
        grid = _grid_arrays(dyn.open_qrdm(params, tau), modes)
        assert len(rows) >= 1000 and grid["qrdm"].shape == (len(rows), 4, 4)
        for i, row in enumerate(rows):
            qrdm = _fresh_qrdm(UnitlessParams(*row[:6]), row[6])
            point = _grid_arrays(qrdm, _normal_modes(row[1], row[4], row[6]))
            for name, array in grid.items():
                assert np.array_equal(array[i], point[name]), (name, row)

    def test_grid_axes_broadcast_like_the_fields(self):
        g, tau = np.array([[0.0], [0.2], [0.4999]]), np.array([0.5, 3.0])
        params = UnitlessParams(f_q=0.7, g=g, s=0.4, gamma_x=np.array([[[0.0]], [[0.03]]]))
        grid = _grid_arrays(dyn.open_qrdm(params, tau), _normal_modes(g, params.gamma_x, tau))
        assert grid["qrdm"].shape == (2, 3, 2, 4, 4)
        for rate, g_row, tau_col in product(range(2), range(3), range(2)):
            point = replace(params, g=float(g[g_row, 0]), gamma_x=(0.0, 0.03)[rate])
            point_tau = float(tau[tau_col])
            one = _grid_arrays(
                _fresh_qrdm(point, point_tau), _normal_modes(point.g, point.gamma_x, point_tau)
            )
            for name, array in grid.items():
                full = np.broadcast_to(array, (2, 3, 2) + np.shape(one[name]))
                assert np.array_equal(full[rate, g_row, tau_col], one[name]), name

    def test_moments_match_the_reference_on_a_grid(self):
        params, tau, (reference, _) = _cross_check_grid()
        for i in range(len(tau)):
            point = UnitlessParams(*(getattr(params, name)[i] for name in dyn._PARAM_NAMES))
            state = dyn.evolve_cat_state(dyn.initial_cat_state(point), point, tau[i])
            expected = reference[i]
            error = np.max(np.abs(_moment_table(state) - expected))
            assert error <= 1e-14 * np.max(np.abs(expected)), point

    def test_contrasts_match_the_closed_forms_on_a_grid(self):
        params, tau, (_, reference) = _cross_check_grid()
        contrast = reference[..., 1]
        totals = _closed_pairs(*dyn.open_phase_contrasts(params, tau))[..., 1]
        assert np.array_equal(contrast == 0.0, totals == 0.0)
        nonzero = totals > 0.0
        assert np.max(np.abs(contrast - totals)[nonzero] / totals[nonzero]) <= 1e-12

    def test_phases_match_the_closed_form_on_a_grid(self):
        params, tau, (_, reference) = _cross_check_grid()
        expected = _closed_pairs(*dyn.open_phase_contrasts(params, tau))[..., 0]
        # The phase sums terms up to f_q^2 (1 + tau)/w^3, which cancel to O(f_q^2 g tau).
        scale = np.square(params.f_q) * (1.0 + tau) / np.power(mode_frequency(params.g), 3)
        error = np.abs(reference[..., 0] - expected) / scale[:, None, None]
        assert np.array_equal(reference[..., 0] == 0.0, expected == 0.0)
        assert np.max(error) <= 64 * 2.0**-52

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        f_q=st.floats(0.1, 3.0),
        log_g=st.floats(math.log(1e-12), math.log(0.4999)),
        s=st.floats(1e-3, 1.0),
        n_p=st.floats(0.0, 10.0),
        gamma_x=st.floats(0.0, 0.1),
        gamma_z=st.floats(0.0, 0.1),
        periods=st.floats(0.5, 3.0),
    )
    def test_phase_error_is_about_eps_over_g(self, f_q, log_g, s, n_p, gamma_x, gamma_z, periods):
        # the eps/g conditioning stated in entangling_phase's docstring
        g = math.exp(log_g)
        tau = periods * float(final_time(g))
        params = UnitlessParams(f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x, gamma_z=gamma_z)
        phase, _ = dyn.branch_pair_phase_contrast(ALL_LABELS[1], params, tau)  # (00|01)
        reference = -_entangling_phase_reference(f_q, g, tau)
        assert abs(phase - reference) <= 16 * 2.0**-52 / g * abs(reference)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        f_q=st.floats(0.1, 3.0),
        log_g=st.floats(math.log(1e-8), math.log(0.4999)),
        s=st.floats(1e-3, 1.0),
        n_p=st.floats(0.0, 10.0),
        gamma_x=st.floats(0.0, 0.1),
        gamma_z=st.floats(0.0, 0.1),
        periods=st.floats(0.0, 3.0),
    )
    def test_phase_contrast_pairs_rebuild_the_qrdm(
        self, f_q, log_g, s, n_p, gamma_x, gamma_z, periods
    ):
        g = math.exp(log_g)
        tau = periods * float(final_time(g))
        params = UnitlessParams(f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x, gamma_z=gamma_z)
        qrdm = dyn.evolve_cat_state(dyn.initial_cat_state(params), params, tau).qrdm
        for label in ALL_LABELS:
            phase, contrast = dyn.branch_pair_phase_contrast(label, params, tau)
            assert type(phase) is float and type(contrast) is float
            rebuilt = 0.25 * np.exp(-contrast + 1j * phase)
            assert abs(rebuilt - qrdm[label.qrdm_index]) <= 1e-16, label


class TestUnitaryQrdm:
    def test_no_phase_without_coupling(self):
        for tau in np.linspace(0.0, 12.0, 13):
            assert dyn.entangling_phase(1.0, 0.0, tau) == pytest.approx(0.0, abs=1e-12)

    def test_reference_values_at_closure(self):
        f_q, g = 1.0, 0.1
        tau_f = final_time(g)
        w = np.sqrt(1.0 - 2.0 * g)
        phase = dyn.entangling_phase(f_q, g, tau_f)
        assert phase == pytest.approx(
            4.0 * np.pi * g / w**3 + np.sin(2.0 * np.pi / w), rel=1e-12
        )
        assert phase == pytest.approx(2.4316939770217063, abs=1e-12)
        _, contrasts, _ = dyn.open_qrdm(UnitlessParams(f_q=f_q, g=g), tau_f)
        assert contrasts.c_s_np_1 == pytest.approx(0.0, abs=1e-14)
        assert contrasts.c_s_np_2 == pytest.approx(dyn.final_contrast(f_q, g), abs=1e-14)
        assert dyn.final_contrast(f_q, g) == pytest.approx(0.2626311219216804, abs=1e-12)

    @pytest.mark.parametrize("g", [1e-4, 1e-3])
    def test_leading_order_phase(self, g):
        f_q = 0.7
        phase = dyn.entangling_phase(f_q, g, final_time(g))
        assert phase == pytest.approx(6.0 * np.pi * f_q**2 * g, rel=0.01)

    def test_matrix_structure(self):
        rho, contrasts, phase = dyn.open_qrdm(UnitlessParams(f_q=0.8, g=0.13), 2.0)
        assert np.allclose(rho, rho.conj().T, atol=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.diagonal(rho).real == pytest.approx([0.25] * 4)
        single = 0.25 * np.exp(-contrasts.c_s_np_1 - contrasts.c_s_np_2 - 1j * phase)
        assert rho[0, 1] == pytest.approx(single, abs=1e-15)
        assert rho[0, 2] == pytest.approx(single, abs=1e-15)
        assert rho[1, 3] == pytest.approx(np.conj(single), abs=1e-15)
        assert rho[0, 3] == pytest.approx(0.25 * np.exp(-4.0 * contrasts.c_s_np_2), abs=1e-15)
        assert rho[1, 2] == pytest.approx(0.25 * np.exp(-4.0 * contrasts.c_s_np_1), abs=1e-15)

    def test_grid_equals_per_point_calls(self):
        taus = np.linspace(0.0, 40.0, 1000)
        params = UnitlessParams(f_q=1.0, g=0.1)
        rho, contrasts, phase = dyn.open_qrdm(params, taus)
        negativity = ent.evaluate_negativity(phase, contrasts)
        ideal = ent.evaluate_negativity(phase, dyn.ContrastSet(c_s_np_2=contrasts.c_s_np_2))
        for k, tau in enumerate(taus):
            rho_k, contrasts_k, phase_k = dyn.open_qrdm(params, tau)
            assert np.array_equal(rho_k, rho[k])
            assert (contrasts_k.c_s_np_1, contrasts_k.c_s_np_2, phase_k) == (
                contrasts.c_s_np_1[k],
                contrasts.c_s_np_2[k],
                phase[k],
            )
            negativity_k = ent.evaluate_negativity(phase_k, contrasts_k)
            ideal_k = ent.evaluate_negativity(
                phase_k, dyn.ContrastSet(c_s_np_2=contrasts_k.c_s_np_2)
            )
            assert (
                negativity_k.exact,
                negativity_k.closed_form,
                negativity_k.witness_trace,
                negativity_k.lambda_min,
                ideal_k.closed_form,
                ideal_k.witness_trace,
            ) == (
                negativity.exact[k],
                negativity.closed_form[k],
                negativity.witness_trace[k],
                negativity.lambda_min[k],
                ideal.closed_form[k],
                ideal.witness_trace[k],
            )
        gs = np.linspace(0.0, 0.49, 500)
        for name in ("final_contrast", "residual_separation"):
            closed_form = getattr(dyn, name)
            grid = closed_form(1.3, gs)
            assert np.array_equal([closed_form(1.3, g) for g in gs], grid)

    def test_positive_semidefinite(self):
        for tau in np.linspace(0.0, 8.0, 9):
            rho, _, _ = dyn.open_qrdm(UnitlessParams(f_q=1.2, g=0.2), tau)
            assert np.linalg.eigvalsh(rho)[0] > -1e-10

    def test_agrees_with_moment_machinery(self):
        params = UnitlessParams(f_q=0.8, g=0.13)
        for tau in (0.7, 2.0, final_time(params.g)):
            rho, _, _ = dyn.open_qrdm(params, tau)
            _, pairs = _reference_pairs(params, float(tau))
            rebuilt = 0.25 * np.exp(-pairs[..., 1] + 1j * pairs[..., 0])
            assert np.max(np.abs(rho - rebuilt)) <= 1e-12


class TestOpenQrdm:
    def test_noiseless_limit_is_unitary(self):
        # At s = 1, n_p = 0 and zero rates the mode contrasts are the unitary
        # recombination mismatches 2 f^2/w^4 sin^2(x/2) (1 - g (1 + cos x)),
        # x = tau w, and 2 f^2 sin^2(tau/2).
        params = UnitlessParams(f_q=0.5, g=0.08)
        w = np.sqrt(1.0 - 2.0 * params.g)
        for tau in (0.9, final_time(params.g)):
            _, contrasts, phase = dyn.open_qrdm(params, tau)
            assert phase == dyn.entangling_phase(params.f_q, params.g, tau)
            x = tau * w
            display_1 = (
                2.0 * params.f_q**2 / w**4 * np.sin(x / 2.0) ** 2
                * (1.0 - params.g * (1.0 + np.cos(x)))
            )
            display_2 = 2.0 * params.f_q**2 * np.sin(tau / 2.0) ** 2
            assert contrasts.c_s_np_1 == pytest.approx(display_1, abs=1e-15)
            assert contrasts.c_s_np_2 == pytest.approx(display_2, abs=1e-15)
            assert contrasts.c_gamma_1 == contrasts.c_gamma_2 == contrasts.c_z == 0.0

    def test_underflowing_prefactor_denominator_is_an_inf_exponent(self):
        # 2 w^4 s underflows to 0 near g = 1/2 at the smallest s: f_q^2/0 is inf, unwarned
        params = UnitlessParams(f_q=1.0, g=0.4999999999, s=2.3e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho, contrasts, _ = dyn.open_qrdm(params, 1.0)
        assert contrasts.c_s_np_1 == math.inf and rho[1, 2] == 0.0

    @pytest.mark.parametrize(
        "s, g, tau", [(1e-4, 0.1, 1e-4), (1.0, 0.1, 1e-4), (1.0, 0.4999, 0.01)]
    )
    def test_antisymmetric_contrast_at_small_tau(self, s, g, tau):
        # The expanded cos form cancelled here: 100%, 1.4e-8 and 4.7e-5 relative error.
        params = UnitlessParams(f_q=1.0, g=g, s=s)
        contrast = dyn.open_qrdm(params, tau)[1].c_s_np_1
        assert abs(contrast / _antisymmetric_contrast_reference(params, tau) - 1) <= 1e-12

    @pytest.mark.parametrize("s, tau", [(1e-4, 1e-3), (1e-4, 2.0 * np.pi - 1e-3), (1e-2, 1e-3)])
    def test_symmetric_contrast_at_small_squeezing(self, s, tau):
        # (s - 1/s) cos tau + s + 1/s cancelled here: 2.3e-10, 2.3e-10 and 5.2e-13 relative.
        params = UnitlessParams(f_q=1.0, g=0.1, s=s)
        contrast = dyn.open_qrdm(params, tau)[1].c_s_np_2
        with mpmath.workdps(60):
            s, tau = mpmath.mpf(s), mpmath.mpf(tau)
            expected = mpmath.sin(tau / 2) ** 2 * ((s - 1 / s) * mpmath.cos(tau) + s + 1 / s)
        assert abs(contrast / expected - 1) <= 1e-12

    def test_contrast_set_rejects_any_negative_exponent(self):
        with pytest.raises(ValueError, match=r"^contrast c_s_np_2=-1e-13 must be >= 0$"):
            dyn.ContrastSet(c_s_np_2=-1e-13)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        f_q=st.floats(1e-3, 3.0),
        log_g=st.floats(math.log(1e-12), math.log(0.5 - 1e-8)),
        s=st.floats(1e-4, 1.0),
        n_p=st.floats(0.0, 100.0),
        periods=st.one_of(
            st.floats(1e-6, 2.0),
            st.builds(
                lambda k, sign, log_offset: k + sign * math.exp(log_offset),
                st.sampled_from((1, 2)),
                st.sampled_from((-1, 1)),
                st.floats(math.log(1e-14), math.log(1e-1)),
            ),
        ),
    )
    def test_antisymmetric_contrast_matches_high_precision(self, f_q, log_g, s, n_p, periods):
        # tau = periods * tau_f; near a whole number of periods the exponent
        # inherits the rounding of r = tau/tau_f, a few eps/|d| relative, with
        # d the distance of r from that whole number.
        g = math.exp(log_g)
        tau_f = final_time(g)
        tau = periods * tau_f
        params = UnitlessParams(f_q=f_q, g=g, s=s, n_p=n_p)
        contrast = float(dyn.open_qrdm(params, tau)[1].c_s_np_1)
        ratio = tau / tau_f
        whole = round(ratio)
        offset = abs(ratio - whole)
        if whole == 0:
            bound = 1e-13
        elif offset == 0.0:
            bound = math.inf
        else:
            bound = max(1e-13, 8.0 * 2.0**-52 / offset)
        assert abs(contrast / _antisymmetric_contrast_reference(params, tau) - 1) <= bound
        for k in (1, 2):
            assert dyn.open_qrdm(params, k * tau_f)[1].c_s_np_1 == 0.0
        unitary = dyn.open_qrdm(UnitlessParams(f_q=f_q, g=g), tau)[1]
        assert unitary.c_s_np_2 == 2.0 * np.square(f_q) * np.square(np.sin(tau / 2.0))

    def test_phase_unchanged_by_noise_and_state_preparation(self):
        f_q, g = 0.5, 0.08
        tau = 1.9
        reference = dyn.entangling_phase(f_q, g, tau)
        for s in (1.0, 1e-2, 1e-4):
            for n_p in (0.0, 1.0, 100.0):
                for gamma_x in (0.0, 0.01, 0.1):
                    params = UnitlessParams(
                        f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x
                    )
                    _, _, phase = dyn.open_qrdm(params, tau)
                    assert abs(phase - reference) < 1e-12

    @pytest.mark.parametrize("a", [1e-3, 0.15, 1.0 / 3.0, 7.0])
    def test_phase_and_contrasts_scale_as_f_q_squared(self, a):
        # The phase and every contrast but c_z are f_q^2 times their value at f_q = 1, at a
        # squeezed, thermal, diffusive and dephasing point over two closures; c_z has no f_q.
        point = dict(g=0.1, s=0.5, n_p=1.5, gamma_x=0.02, gamma_z=0.03)
        tau = np.linspace(0.0, 2.0 * final_time(point["g"]), 17)
        phase, contrasts = dyn.open_phase_contrasts(UnitlessParams(f_q=a, **point), tau)
        unit_phase, unit = dyn.open_phase_contrasts(UnitlessParams(f_q=1.0, **point), tau)
        scaled = {"phase": (phase, unit_phase)}
        for name in ("c_s_np_1", "c_s_np_2", "c_gamma_1", "c_gamma_2"):
            scaled[name] = getattr(contrasts, name), getattr(unit, name)
        for name, (value, at_one) in scaled.items():
            assert np.allclose(value, a * a * at_one, rtol=1e-15, atol=0.0), name
        assert np.array_equal(contrasts.c_z, unit.c_z) and unit.c_z[-1] > 0.0

    def test_dephasing_contrast_at_closure(self):
        params = UnitlessParams(f_q=0.3, g=1e-4, gamma_z=0.07)
        _, contrasts, _ = dyn.open_qrdm(params, final_time(params.g))
        assert contrasts.c_z == pytest.approx(2.0 * np.pi * 0.07, rel=1e-3)

    def test_diffusion_contrast_leading_order(self):
        f_q, gamma_x = 0.4, 0.03
        params = UnitlessParams(f_q=f_q, g=1e-4, gamma_x=gamma_x)
        _, contrasts, _ = dyn.open_qrdm(params, final_time(params.g))
        total = contrasts.c_gamma_1 + contrasts.c_gamma_2
        assert total == pytest.approx(3.0 * np.pi * gamma_x * f_q**2, rel=1e-3)

    def test_closure_time_displays(self):
        params = UnitlessParams(f_q=0.5, g=0.1, s=0.2, n_p=2.0, gamma_x=0.04)
        tau_f = final_time(params.g)
        w = np.sqrt(1.0 - 2.0 * params.g)
        _, contrasts, _ = dyn.open_qrdm(params, tau_f)
        assert contrasts.c_s_np_1 == pytest.approx(0.0, abs=1e-13)
        expected_hd = (
            (1.0 + 2.0 * params.n_p)
            * params.f_q**2
            * np.sin(np.pi / w) ** 2
            * (
                (params.s - 1.0 / params.s) * np.cos(2.0 * np.pi / w)
                + params.s
                + 1.0 / params.s
            )
        )
        assert contrasts.c_s_np_2 == pytest.approx(expected_hd, rel=1e-12)
        assert contrasts.c_gamma_1 == pytest.approx(
            params.gamma_x * 1.5 * np.pi * params.f_q**2 / w**5, rel=1e-12
        )
        expected_g2 = (
            params.gamma_x
            * (params.f_q**2 / 4.0)
            * (
                6.0 * np.pi / w
                + np.sin(2.0 * np.pi / w) * (np.cos(2.0 * np.pi / w) - 4.0)
            )
        )
        assert contrasts.c_gamma_2 == pytest.approx(expected_g2, rel=1e-12)

    def test_agrees_with_moment_machinery(self):
        params = UnitlessParams(f_q=0.5, g=0.08, s=0.2, n_p=2.0, gamma_x=0.03, gamma_z=0.01)
        for tau in (0.9, final_time(params.g)):
            rho, _, _ = dyn.open_qrdm(params, tau)
            _, pairs = _reference_pairs(params, float(tau))
            rebuilt = 0.25 * np.exp(-pairs[..., 1] + 1j * pairs[..., 0])
            assert np.max(np.abs(rho - rebuilt)) <= 1e-11

    def test_diffusion_contrasts_match_high_precision(self):
        # c_gamma_2 = gamma f^2 F(tau)/8 and c_gamma_1 = gamma f^2 F(tau w)/(8 w^5),
        # F(x) = 6x - 8 sin x + sin 2x, at 50 digits; the direct form cancels
        # to nothing at tau = 1e-4.
        def shape(x):
            return 6 * x - 8 * mpmath.sin(x) + mpmath.sin(2 * x)

        f_q, gamma_x = 0.7, 0.03
        with mpmath.workdps(50):
            scale = mpmath.mpf(gamma_x) * mpmath.mpf(f_q) ** 2 / 8
            for g in (0.0, 1e-3, 0.1, 0.3, 0.45, 0.4999):
                params = UnitlessParams(f_q=f_q, g=g, gamma_x=gamma_x)
                w = mpmath.sqrt(1 - 2 * mpmath.mpf(g))
                for tau in np.geomspace(1e-6, 4.0 * np.pi, 31):
                    _, contrasts, _ = dyn.open_qrdm(params, tau)
                    tau = mpmath.mpf(float(tau))
                    expected_1 = scale * shape(tau * w) / w**5
                    expected_2 = scale * shape(tau)
                    assert abs(contrasts.c_gamma_1 / expected_1 - 1) <= 1e-12
                    assert abs(contrasts.c_gamma_2 / expected_2 - 1) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        f_q=st.floats(0.0, 3.0),
        g=st.floats(0.0, 0.45),
        tau=st.floats(0.0, 15.0),
        s=st.floats(0.01, 1.0),
        n_p=st.floats(0.0, 50.0),
        gamma_x=st.floats(0.0, 0.2),
        gamma_z=st.floats(0.0, 0.2),
    )
    def test_contrasts_nonnegative_and_state_physical(
        self, f_q, g, tau, s, n_p, gamma_x, gamma_z
    ):
        params = UnitlessParams(
            f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x, gamma_z=gamma_z
        )
        rho, contrasts, _ = dyn.open_qrdm(params, tau)
        for name in contrasts.__dataclass_fields__:
            assert getattr(contrasts, name) >= 0.0
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
        assert np.linalg.eigvalsh(rho)[0] > -1e-10


class TestCatState:
    def test_initial_state(self):
        params = UnitlessParams(f_q=0.5, g=0.08, s=0.1, n_p=2.0)
        state = dyn.initial_cat_state(params)
        assert state.tau == 0.0
        assert np.allclose(
            state.sigma, 5.0 * np.diag([0.1, 10.0, 0.1, 10.0]), atol=1e-12
        )
        assert len(state.branches) == 16
        assert np.allclose(state.qrdm, np.full((4, 4), 0.25), atol=0.0)

    @pytest.mark.parametrize(
        "s, n_p, message",
        [
            (0, 0.0, r"squeezing s=0 must lie in \(0, 1\]"),
            (1.5, 0.0, r"squeezing s=1\.5 must lie in \(0, 1\]"),
            (1e-310, 0.0, r"squeezing s=1e-310 must be >= 2\.2250738585072014e-308 "),
            (0.5, -1, r"n_p=-1 must be finite and >= 0"),
            (0.5, math.nan, r"n_p=nan must be finite and >= 0"),
            (0.5, math.inf, r"n_p=inf must be finite and >= 0"),
            (0.5, np.array([0.0, 1.0]), r"n_p=\[0\. 1\.\] must be a scalar"),
        ],
    )
    def test_initial_covariance_rejects_bad_input(self, s, n_p, message):
        with pytest.raises(ValueError, match=rf"^{message}"):
            dyn.squeezed_thermal_covariance(s, n_p)

    @pytest.mark.parametrize("s", [2.3e-308, np.float64(2.3e-308), np.array(2.3e-308)])
    def test_overflowing_initial_state_fails_with_one_line(self, s):
        # (1+2 n_p)/s = 7/2.3e-308 overflows, though s itself is a normal float
        params = UnitlessParams(f_q=1.0, g=0.45, s=s, n_p=3.0, gamma_x=0.01)
        message = r"^squeezing s=2\.3e-308 must keep \(1\+2 n_p\)/s finite at n_p=3\.0$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message):
                dyn.evolve_cat_state(dyn.initial_cat_state(params), params, 1.0)

    @pytest.mark.parametrize(
        "point, tau",
        [
            ({"f_q": 1.0, "g": 0.45, "s": 1e-307, "n_p": 3.0, "gamma_x": 0.01}, 2.0),
            ({"f_q": 1e-3, "g": 0.49, "s": 1e-307, "n_p": 0.0}, 11.0),
            ({"f_q": 100.0, "g": 0.1, "s": 1e-307, "n_p": 0.0}, 0.5),
        ],
        ids=["n_p-3-tau-2", "g-0.49-tau-11", "f_q-100-tau-0.5"],
    )
    def test_overflowing_evolved_state_fails_with_one_line(self, point, tau):
        # the initial state is finite, but by tau the covariance overflows (the first two)
        # or, with the covariance still finite, the off-diagonal branch moments do (the last)
        params = UnitlessParams(**point)
        initial = dyn.initial_cat_state(params)
        message = rf"^squeezing s=1e-307 must keep the evolved state finite at tau={tau}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=message.replace(".", r"\.")):
                dyn.evolve_cat_state(initial, params, tau)

    def test_smallest_finite_initial_state_evolves(self):
        # s = 1e-307 keeps 7/s finite; c_s_np_1 overflows to inf, so its entries are 0
        params = UnitlessParams(f_q=1.0, g=0.45, s=1e-307, n_p=3.0, gamma_x=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state = dyn.evolve_cat_state(dyn.initial_cat_state(params), params, 1.0)
        assert np.isfinite(state.sigma).all() and np.isfinite(state.qrdm).all()
        assert all(np.isfinite(moments.vector).all() for moments in state.branches.values())
        assert dyn.branch_pair_phase_contrast(ALL_LABELS[1], params, 1.0)[1] == math.inf

    def test_overflowing_both_flip_exponent_is_inf(self):
        # c_s_np_1 is inf at tau 2 and 4 (c_s_np_2 + c_gamma_2) overflows: (00|11) is 0
        params = UnitlessParams(f_q=1.0, g=0.45, s=1e-307, n_p=3.0, gamma_x=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pair = dyn.branch_pair_phase_contrast(dyn.BranchLabel.from_bits(0, 3), params, 2.0)
        assert pair == (0.0, math.inf)

    def test_zero_time_evolution_is_identity(self):
        params = UnitlessParams(f_q=0.5, g=0.08, s=0.1, n_p=2.0, gamma_x=0.02)
        state = dyn.initial_cat_state(params)
        evolved = dyn.evolve_cat_state(state, params, 0.0)
        assert np.allclose(evolved.sigma, state.sigma, atol=1e-14)
        for label in state.branches:
            assert np.allclose(
                evolved.branches[label].vector, state.branches[label].vector, atol=1e-14
            )
        assert np.allclose(evolved.qrdm, state.qrdm, atol=1e-14)

    def test_ground_state_covariance_matches_closure_display(self):
        params = UnitlessParams(f_q=0.5, g=0.1)
        state = dyn.evolve_cat_state(
            dyn.initial_cat_state(params), params, final_time(params.g)
        )
        display = squeezed_covariance_display(params.g, 1.0)
        assert np.max(np.abs(state.sigma - display)) < 1e-12

    def test_squeezed_display_pp_anomaly_documented(self):
        # The published squeezed-state display at closure time differs from the
        # propagated covariance by exactly (1 - s^2)/(2 s) on the two
        # momentum diagonals and nowhere else.
        params = UnitlessParams(f_q=0.0, g=0.1, s=0.25)
        state = dyn.evolve_cat_state(
            dyn.initial_cat_state(params), params, final_time(params.g)
        )
        display = squeezed_covariance_display(params.g, params.s)
        offset = (1.0 - params.s**2) / (2.0 * params.s)
        deviation = state.sigma - display
        expected = np.diag([0.0, offset, 0.0, offset])
        assert np.max(np.abs(deviation - expected)) < 1e-12

    def test_covariance_decomposition(self):
        params = UnitlessParams(f_q=0.5, g=0.08, s=1e-2, n_p=5.0, gamma_x=0.01)
        tau_f = final_time(params.g)
        state = dyn.evolve_cat_state(dyn.initial_cat_state(params), params, tau_f)
        s_matrix = propagator(params.g, tau_f)
        squeezed = s_matrix @ np.diag([params.s, 1 / params.s] * 2) @ s_matrix.T
        diffusive = _normal_modes(params.g, 1.0, tau_f)[..., 1, :, :]
        expected = (1.0 + 2.0 * params.n_p) * squeezed + params.gamma_x * diffusive
        assert np.max(np.abs(state.sigma - expected)) < 1e-12

    def test_qrdm_consistent_with_open_qrdm(self):
        params = UnitlessParams(f_q=0.5, g=0.08, s=0.5, n_p=1.0, gamma_x=0.01)
        tau = 2.2
        state = dyn.evolve_cat_state(dyn.initial_cat_state(params), params, tau)
        rho, _, _ = dyn.open_qrdm(params, tau)
        assert np.array_equal(state.qrdm, rho)
