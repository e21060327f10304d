import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    propagator_expm,
    reference_covariance,
    reference_diffusion_covariance,
    sgi_hamiltonian,
)
from sgipair import phase_space as ps
from sgipair.oracle import MomentOdeProblem, integrate_moments
from sgipair.potentials import UnitlessParams, _check

OMEGA = ps.symplectic_form()


def _lyapunov(g, tau, gamma_x):
    """The accumulated diffusion L that ``evolve_covariance`` adds, from ``_normal_modes``."""
    return ps._normal_modes(g, gamma_x, tau)[..., 1, :, :]


class TestSymplecticForm:
    def test_blocks(self):
        assert OMEGA[0, 1] == 1.0 and OMEGA[1, 0] == -1.0
        assert OMEGA[2, 3] == 1.0 and OMEGA[3, 2] == -1.0

    def test_square_is_minus_identity(self):
        assert np.array_equal(OMEGA @ OMEGA, -np.eye(4))

    def test_antisymmetry(self):
        assert np.array_equal(OMEGA.T, -OMEGA)


class TestHamiltonianMatrix:
    """The H of the tests' references (``oracles.sgi_hamiltonian``); ``src/`` never builds H."""

    def test_decoupled_limit(self):
        assert np.array_equal(sgi_hamiltonian(0.0), np.eye(4))

    def test_coupling_pattern(self):
        h = sgi_hamiltonian(0.1)
        assert np.allclose(np.diag(h), [0.9, 1.0, 0.9, 1.0])
        assert h[0, 2] == h[2, 0] == 0.1
        assert h[0, 1] == h[1, 3] == 0.0


class TestPropagator:
    def test_identity_at_zero_time(self):
        for g in (0.0, 0.2, 0.49):
            assert np.allclose(ps.propagator(g, 0.0), np.eye(4), atol=1e-15)

    def test_uncoupled_is_blockwise_rotation(self):
        tau = 1.234
        s = ps.propagator(0.0, tau)
        rot = np.array([[np.cos(tau), np.sin(tau)], [-np.sin(tau), np.cos(tau)]])
        expected = np.block(
            [[rot, np.zeros((2, 2))], [np.zeros((2, 2)), rot]]
        )
        assert np.allclose(s, expected, atol=1e-15)

    def test_matches_matrix_exponential(self):
        dev = np.max(np.abs(ps.propagator(0.1, 1.0) - propagator_expm(0.1, 1.0)))
        assert dev < 1e-12

    @pytest.mark.parametrize("g", [0.0, 0.1, 0.3, 0.49])
    def test_symplectic_over_grid(self, g):
        for tau in np.linspace(0.0, 4.0 * np.pi, 25):
            s = ps.propagator(g, tau)
            assert np.max(np.abs(s.T @ OMEGA @ s - OMEGA)) < 1e-12

    @pytest.mark.parametrize(
        "taus",
        # a huge tau beside a small one: the large shapes are masked before squaring, unwarned
        [np.linspace(0.0, 30.0, 37), np.array([0.0, 1e300])],
        ids=["grid", "huge"],
    )
    @pytest.mark.parametrize("g", [0.0, 0.2, 0.4999])
    def test_batch_equals_scalar_calls(self, g, taus):
        taus = taus.reshape(-1, 1)
        batch = ps.propagator(g, taus)
        assert batch.shape == (len(taus), 1, 4, 4)
        for tau, s in zip(taus[:, 0], batch[:, 0]):
            assert np.array_equal(s, ps.propagator(g, tau))

    @settings(max_examples=60, deadline=None)
    @given(
        g=st.floats(0.0, 0.49),
        tau1=st.floats(0.0, 10.0),
        tau2=st.floats(0.0, 10.0),
    )
    def test_group_law(self, g, tau1, tau2):
        combined = ps.propagator(g, tau1 + tau2)
        composed = ps.propagator(g, tau1) @ ps.propagator(g, tau2)
        assert np.max(np.abs(combined - composed)) < 1e-12


class TestCovarianceEvolution:
    def test_matches_published_closed_form(self):
        for tau in np.linspace(0.0, 4.0 * np.pi, 21):
            sigma = ps.evolve_covariance(np.eye(4), 0.1, tau)
            assert np.max(np.abs(sigma - reference_covariance(0.1, tau))) < 1e-12

    def test_vacuum_invariant_without_coupling(self):
        for tau in (0.5, 2.0, 2.0 * np.pi, 11.0):
            assert np.allclose(ps.evolve_covariance(np.eye(4), 0.0, tau), np.eye(4), atol=1e-14)

    def test_diffusive_case_matches_moment_integration(self):
        gamma_x = 0.01
        rate = 2.0 * gamma_x
        tau = 2.0 * np.pi
        grid = np.array([0.0, tau])
        problem = MomentOdeProblem(UnitlessParams(f_q=0.0, g=0.1, gamma_x=rate), grid)
        reference = integrate_moments(problem).sigma[-1]
        sigma = ps.evolve_covariance(np.eye(4), 0.1, tau, rate)
        assert np.max(np.abs(sigma - reference)) < 1e-8

    def test_purity_preserved_without_diffusion(self):
        sigma0 = np.diag([0.5, 2.0, 0.5, 2.0])
        det0 = np.linalg.det(sigma0)
        for tau in np.linspace(0.0, 10.0, 11):
            sigma = ps.evolve_covariance(sigma0, 0.2, tau)
            assert abs(np.linalg.det(sigma) - det0) < 1e-10

    def test_rejects_unphysical_initial_state(self):
        with pytest.raises(ValueError, match="uncertainty"):
            ps.evolve_covariance(np.diag([0.5, 0.5, 1.0, 1.0]), 0.1, 1.0)

    @pytest.mark.parametrize("g", [0.0, 0.2, 0.4999])
    def test_tau_grid_matches_per_point_calls(self, g):
        # Small taus take the series branch of the shapes, the rest the direct forms.
        tau_grid = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 7), np.linspace(1.5, 40.0, 9)])
        sigma0 = np.diag([0.3, 1.0 / 0.3, 0.3, 1.0 / 0.3]) * 3.0
        lyapunov = _lyapunov(g, tau_grid, 0.05)
        sigma = ps.evolve_covariance(sigma0, g, tau_grid, 0.05)
        assert lyapunov.shape == sigma.shape == (len(tau_grid), 4, 4)
        for k, tau in enumerate(tau_grid):
            for grid, point in (
                (lyapunov, _lyapunov(g, tau, 0.05)),
                (sigma, ps.evolve_covariance(sigma0, g, tau, 0.05)),
            ):
                assert np.max(np.abs(grid[k] - point)) <= 1e-15 * np.max(np.abs(point)), tau


class TestLyapunovIntegral:
    def test_zero_diffusion(self):
        assert np.array_equal(
            _lyapunov(0.1, 3.0, 0.0), np.zeros((4, 4))
        )

    def test_published_matrix_at_closure_time(self):
        # The published matrix is labeled with 2*pi but only reproduces at the
        # closure time 2*pi/omega_g; both candidates are evaluated here and
        # the resolution is pinned.
        g = 0.1
        published = reference_diffusion_covariance(g)
        at_closure = _lyapunov(g, ps.final_time(g), 1.0)
        at_two_pi = _lyapunov(g, 2.0 * np.pi, 1.0)
        assert np.max(np.abs(at_closure - published)) < 1e-12
        assert np.max(np.abs(at_two_pi - published)) > 1e-2

    @pytest.mark.parametrize("gamma_x", [-1e-3, np.nan, np.inf])
    def test_rejects_bad_rate(self, gamma_x):
        message = r"^gamma_x=\S+ must be finite and >= 0$"
        with pytest.raises(ValueError, match=message):
            ps.evolve_covariance(np.eye(4), 0.1, 1.0, gamma_x)
        with pytest.raises(ValueError, match=message):
            ps.evolve_covariance(np.eye(4), 0.1, 0.0, gamma_x)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match=r"^tau=.* must be finite and >= 0"):
            ps.evolve_covariance(np.eye(4), 0.1, tau, 0.05)
        with pytest.raises(ValueError, match=r"^tau=.* must be finite and >= 0"):
            ps.propagator(0.1, tau)

    @pytest.mark.parametrize(
        "wrap",
        [float, np.float64, np.array, lambda tau: np.array([0.5, tau])],
        ids=["float", "float64", "0-d", "grid"],
    )
    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
    def test_tau_check_messages_for_every_input_kind(self, wrap, bad):
        with pytest.raises(ValueError, match=rf"^tau={bad} must be finite and >= 0$"):
            _check("tau", wrap(float(bad)))
        _check("tau", 0.0)
        _check("tau", -0.0)

    @pytest.mark.parametrize("g", [0.0, 0.2, 0.4999])
    def test_matches_high_precision_at_small_tau(self, g):
        # Each normal mode w contributes xx = (2x - sin 2x)/(4 w^3), xp = sin^2 x/(2 w^2) and
        # pp = tau/2 + sin 2x/(4 w), x = w tau; the modes combine as half sum and half
        # difference.  Entries are compared on the scale sqrt(L_ii L_jj).
        with mpmath.workdps(50):
            for tau in np.geomspace(1e-8, 4.0 * np.pi, 31):
                modes = []
                for w in (mpmath.mpf(1), mpmath.sqrt(1 - 2 * mpmath.mpf(g))):
                    x = w * mpmath.mpf(float(tau))
                    xp = mpmath.sin(x) ** 2 / (2 * w**2)
                    modes.append(
                        [
                            [(2 * x - mpmath.sin(2 * x)) / (4 * w**3), xp],
                            [xp, x / (2 * w) + mpmath.sin(2 * x) / (4 * w)],
                        ]
                    )
                plus, minus = modes
                expected = np.empty((4, 4))
                for i in range(2):
                    for j in range(2):
                        half_sum = float((plus[i][j] + minus[i][j]) / 2)
                        half_diff = float((plus[i][j] - minus[i][j]) / 2)
                        expected[i, j] = expected[i + 2, j + 2] = half_sum
                        expected[i, j + 2] = expected[i + 2, j] = half_diff
                scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
                value = _lyapunov(g, tau, 1.0)
                assert np.max(np.abs(value - expected) / scale) <= 1e-12, tau

    def test_scaling_in_rate(self):
        one = _lyapunov(0.2, 1.7, 1.0)
        scaled = _lyapunov(0.2, 1.7, 0.3)
        assert np.allclose(0.3 * one, scaled, atol=1e-14)


def _mode_blocks_reference(w: float, tau: float) -> list[np.ndarray]:
    """One mode's L and m1 blocks at rate 1 from the direct, cancelling formulas.

    Evaluated at 60 digits from the same float w and tau: at x = w tau = 1e-10 the shape
    B = 1 - cos x - (x/2) sin x is 1e-41, which 40 digits cannot resolve.
    """
    with mpmath.workdps(60):
        w, tau = mpmath.mpf(w), mpmath.mpf(tau)
        x = w * tau
        sin, cos = mpmath.sin, mpmath.cos
        a = sin(x) - x * cos(x)
        b = 1 - cos(x) - x / 2 * sin(x)
        p = 2 * x - sin(2 * x)
        xp = sin(x) ** 2 / (2 * w**2)
        blocks = (
            [[p / (4 * w**3), xp], [xp, tau / 2 + sin(2 * x) / (4 * w)]],
            [[-b / w**2, a / (2 * w**3)], [-a / (2 * w), tau * sin(x) / (2 * w)]],
        )
        return [np.array(block, dtype=float) for block in blocks]


def _taus_either_side(w: float, x_switch: float) -> tuple[float, float]:
    """Adjacent floats tau_lo < tau_hi with w tau_lo <= x_switch < w tau_hi, as rounded."""
    tau = x_switch / w
    while w * tau > x_switch:
        tau = np.nextafter(tau, 0.0)
    while w * np.nextafter(tau, np.inf) <= x_switch:
        tau = np.nextafter(tau, np.inf)
    return float(tau), float(np.nextafter(tau, np.inf))


class TestModeIntegrals:
    """Per-mode closed forms of the Lyapunov integral L and the memory integral m1."""

    @staticmethod
    def _check(w: float, tau: float, bound: float) -> None:
        (mode,) = ps._mode_entries(np.array([w]), 1.0, tau)  # one w: S, L, m1
        blocks = dict(zip(("L", "m1"), mode.reshape(3, 2, 2)[1:], strict=True))
        for (name, value), expected in zip(
            blocks.items(), _mode_blocks_reference(w, tau), strict=True
        ):
            assert value.shape == (2, 2), name
            error = np.max(np.abs(value - expected))
            assert error <= bound * np.max(np.abs(expected)), (name, w, tau)

    @pytest.mark.parametrize("g", [0.0, 1e-8, 0.2, 0.4999])
    def test_match_high_precision(self, g):
        for w in (1.0, float(ps.mode_frequency(g))):
            long_taus = (17.0, 300.0, 1000.0)
            for tau in (*np.geomspace(1e-8, 4.0 * np.pi / w, 41), *long_taus):
                # past x = 4 pi the rounding of the argument w tau dominates
                self._check(w, float(tau), 1e-13 if tau in long_taus else 1e-14)

    @pytest.mark.parametrize("g", [0.0, 0.2, 0.4999])
    def test_match_high_precision_at_the_series_switches(self, g):
        """Either side of x = 1 (A and P switch) and of x/2 = 1 (A(x/2) switches)."""
        for w in (1.0, float(ps.mode_frequency(g))):
            for x_switch in (1.0, 2.0):
                below, above = _taus_either_side(w, x_switch)
                assert w * below <= x_switch < w * above
                for tau in (below, above):
                    self._check(w, tau, 1e-14)

    def test_zero_interval_and_rate(self):
        modes = np.array([1.0, 0.5])
        for rate, tau in ((1.0, 0.0), (0.0, 3.0)):
            entries = ps._mode_entries(modes, rate, tau)
            assert entries.shape == (2, 12)
            if tau == 0.0:
                assert np.array_equal(entries[:, :4], [[1.0, 0.0, 0.0, 1.0]] * 2)  # S = I
            assert not entries[:, 4:].any()  # L and m1


class TestHeisenberg:
    def test_vacuum_saturates(self):
        ok, margin = ps.heisenberg_ok(np.eye(4))
        assert ok and abs(margin) < 1e-12

    def test_subvacuum_rejected(self):
        ok, margin = ps.heisenberg_ok(np.diag([0.5, 0.5, 1.0, 1.0]))
        assert not ok and margin < -0.4

    def test_preserved_along_noisy_trajectory(self):
        for tau in np.linspace(0.0, 12.0, 25):
            sigma = ps.evolve_covariance(np.eye(4), 0.3, tau, 0.1)
            ok, _ = ps.heisenberg_ok(sigma)
            assert ok

    @pytest.mark.parametrize(
        "sigma, message",
        [
            (np.eye(4) + np.eye(4, k=1) / 2.0, "covariance matrix must be symmetric"),
            (2.0 * np.eye(4) + [[0, 0.5, 0, 0], [0.500004, 0, 0, 0], [0] * 4, [0] * 4],
             "covariance matrix must be symmetric"),
            (np.eye(2), r"covariance matrix must be 4x4, got shape \(2, 2\)"),
            (np.full((4, 4), np.nan), "covariance matrix entry=nan must be finite"),
            (np.diag([1.0, 1.0, 1.0, np.inf]), "covariance matrix entry=inf must be finite"),
        ],
        ids=["asymmetric", "slightly-asymmetric", "2x2", "all-nan", "inf-entry"],
    )
    def test_rejects_malformed_input(self, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ps.heisenberg_ok(sigma)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ps.evolve_covariance(sigma, 0.1, 1.0)
