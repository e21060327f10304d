import os
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import (
    initial_moment_state,
    reference_covariance,
    reference_mode_qrdm,
    reference_moment_states,
    reference_single_mode_density,
    reference_two_mode_qrdm,
)
from sgipair import dynamics as dyn
from sgipair import oracle as orc
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams


def sgi_problem(params, tau_grid):
    return orc.MomentOdeProblem(params, tau_grid)


def fock_problem(params, tau_grid):
    return orc.FockProblem(params=params, tau_grid=np.asarray(tau_grid))


SQUEEZED_THERMAL = UnitlessParams(f_q=0.8, g=0.1, s=1e-2, n_p=5.0)


def relative_deviation(value, reference):
    """Largest deviation relative to the reference's largest magnitude."""
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


def stacked_run_problems(gamma_x=0.02):
    """Two coarse squeezed thermal problems at |+>|+>.

    Kernel equivalence only: n_max=8 and 9 truncate this state coarsely, so the
    leakage bound is not the subject (callers raise ``orc._LEAKAGE_TOL`` to
    1e-1).  The odd cutoff gives x a zero eigenvalue; its grid has unequal spans.
    At ``gamma_x`` = 0 the runs are kets, n_max columns each (thermal).
    """
    params = UnitlessParams(f_q=0.2, g=0.05, s=0.8, n_p=0.05, gamma_x=gamma_x, gamma_z=0.03)
    return [
        orc.FockProblem(params=params, tau_grid=np.array(grid), n_max=n_max)
        for n_max, grid in ((8, [0.0, 0.1, 0.25]), (9, [0.0, 0.05, 0.2, 0.27]))
    ]


def assert_fock_matches_reference(result, problem, tol=1e-13):
    """The oracle's QRDM against the dense single-mode Liouvillians of the same truncation."""
    assert relative_deviation(result.qrdm, reference_mode_qrdm(problem)) <= tol


class TestMomentIntegration:
    def test_vacuum_fixed_point(self):
        params = UnitlessParams(f_q=0.3, g=0.0)
        grid = np.linspace(0.0, 8.0, 9)
        trajectories = orc.integrate_moments(sgi_problem(params, grid))
        for sigma in trajectories.sigma:
            assert np.max(np.abs(sigma - np.eye(4))) < 1e-10

    def test_covariance_matches_published_closed_form(self):
        params = UnitlessParams(f_q=0.0, g=0.1)
        grid = np.linspace(0.0, final_time(0.1), 9)
        trajectories = orc.integrate_moments(sgi_problem(params, grid))
        for slot, tau in enumerate(grid):
            dev = np.max(np.abs(trajectories.sigma[slot] - reference_covariance(0.1, tau)))
            assert dev < 1e-9

    def test_branch_means_match_closed_form(self):
        params = UnitlessParams(f_q=1.0, g=0.1)
        grid = np.linspace(0.0, final_time(0.1), 9)
        trajectories = orc.integrate_moments(sgi_problem(params, grid))
        for slot, tau in enumerate(grid):
            closed = dyn.branch_trajectories(params.f_q, params.g, tau)
            for (j, m), series in trajectories.branch_means.items():
                label = dyn.BranchLabel(j=j, k=j, m=m, n=m)
                assert np.max(np.abs(series[slot] - closed[label].vector)) < 1e-9

    def test_fourth_order_convergence(self):
        params = UnitlessParams(f_q=1.0, g=0.2, gamma_x=0.05)
        grid = np.array([0.0, 2.0])
        problem = sgi_problem(params, grid)
        reference, coarse, fine = (
            orc._integrate_once(problem, dt)[-1] for dt in (1e-4, 4e-2, 2e-2)
        )
        err_coarse = np.max(np.abs(coarse[:16] - reference[:16]))
        err_fine = np.max(np.abs(fine[:16] - reference[:16]))
        assert 10.0 < err_coarse / err_fine < 22.0

    def test_nonconvergence_raises(self):
        # Six halvings from dt = 1 end at 1/64, which still moves the results by ~3e-8.
        params = UnitlessParams(f_q=1.0, g=0.2)
        message = r"^moment integration not converged: halving dt=0\.015625 still moves results"
        with pytest.raises(orc.OracleError, match=message):
            orc.integrate_moments(sgi_problem(params, [0.0, 4.0]), dt=1.0)

    def test_step_map_matches_stagewise_rk4(self):
        grid = np.linspace(0.0, final_time(SQUEEZED_THERMAL.g), 3)
        problem = sgi_problem(SQUEEZED_THERMAL, grid)
        states = orc._integrate_once(problem, 2e-3)
        reference = reference_moment_states(problem, 2e-3)
        assert relative_deviation(states[:, :16], reference[:, :16]) <= 1e-13
        assert relative_deviation(states[:, 16:], reference[:, 16:]) <= 1e-13

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 1000])
    def test_composed_steps_match_explicit_increments(self, n_steps):
        grid = np.linspace(0.0, final_time(SQUEEZED_THERMAL.g), 9)
        problem = sgi_problem(SQUEEZED_THERMAL, grid)
        m, q = orc._rk4_step_map(*orc._moment_generator(problem), 1e-3)
        y0 = initial_moment_state(SQUEEZED_THERMAL)
        explicit = y0
        for _ in range(n_steps):
            explicit = explicit + (m @ explicit + q)
        composed = orc._apply_steps(y0, m, q, n_steps)
        assert relative_deviation(composed[:16], explicit[:16]) <= 1e-13
        assert relative_deviation(composed[16:], explicit[16:]) <= 1e-13

    def test_squeezed_thermal_ladder_ends_at_quarter_millistep(self):
        # The verify-suite case; a step map applied as y = P y + Q instead of
        # y + (M y + q) loses enough roundoff on sigma ~ 1e3 to need a fourth halving.
        grid = np.linspace(0.0, final_time(SQUEEZED_THERMAL.g), 9)
        assert orc.integrate_moments(sgi_problem(SQUEEZED_THERMAL, grid)).step == 2.5e-4

    @pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_step(self, dt):
        problem = sgi_problem(UnitlessParams(f_q=1.0, g=0.1), [0.0, 1.0])
        with pytest.raises(ValueError, match=r"^dt=\S+ must be finite and > 0"):
            orc.integrate_moments(problem, dt=dt)

    @pytest.mark.parametrize("s, n_p", [(1.0, 0.0), (0.8, 0.05)])
    def test_start_is_the_points_squeezed_thermal_state(self, s, n_p):
        params = UnitlessParams(f_q=0.2, g=0.05, s=s, n_p=n_p)
        trajectories = orc.integrate_moments(sgi_problem(params, [0.0, 0.1]))
        sigma0 = (1.0 + 2.0 * n_p) * np.diag([s, 1.0 / s, s, 1.0 / s])
        assert np.array_equal(trajectories.sigma[0], sigma0)
        for means in trajectories.branch_means.values():
            assert not means[0].any()

    @pytest.mark.parametrize(
        "problem, field, value",
        [
            (orc.FockProblem, "qubit_rho0", np.eye(4) / 4.0),
            (orc.FockProblem, "leakage_tol", 1e-6),
            (orc.MomentOdeProblem, "sigma0", np.eye(4)),
        ],
    )
    def test_removed_settings_are_not_accepted(self, problem, field, value):
        params = UnitlessParams(f_q=0.2, g=0.05)
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{field}'"):
            problem(params=params, tau_grid=[0.0, 1.0], **{field: value})

    def test_grid_must_start_at_zero(self):
        params = UnitlessParams(f_q=1.0, g=0.1)
        for make in (sgi_problem, fock_problem):
            for grid in ([1.0, 2.0], [], [0.0, 1.0, 1.0]):
                with pytest.raises(ValueError, match="^tau_grid must be ascending and start at 0$"):
                    make(params, grid)
            with pytest.raises(ValueError, match="^tau_grid=nan must be finite"):
                make(params, [0.0, np.nan])


class TestFockPure:
    def test_uncoupled_undriven_qrdm_constant(self):
        params = UnitlessParams(f_q=0.0, g=0.0)
        grid = np.linspace(0.0, 2.0 * np.pi, 5)
        result = orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=8))
        for qrdm in result.qrdm:
            assert np.max(np.abs(qrdm - 0.25)) < 1e-12

    def test_phase_and_contrasts_match_closed_form(self):
        params = UnitlessParams(f_q=0.2, g=0.05)
        tau_f = final_time(params.g)
        grid = np.linspace(0.0, tau_f, 9)
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=16)
        )
        assert result.trace_error < 1e-8
        assert result.phase(-1) == pytest.approx(
            dyn.entangling_phase(params.f_q, params.g, tau_f), abs=1e-6
        )
        for slot, tau in enumerate(grid):
            closed, _, _ = dyn.open_qrdm(params, tau)
            assert np.max(np.abs(closed - result.qrdm[slot])) < 1e-6

    def test_relative_phase_pattern_between_entries(self):
        # The (00|01) and (01|11) coherences counter-rotate: their product
        # carries twice the entangling phase.
        params = UnitlessParams(f_q=0.2, g=0.05)
        tau_f = final_time(params.g)
        grid = np.array([0.0, tau_f])
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=16)
        )
        phase = dyn.entangling_phase(params.f_q, params.g, tau_f)
        relative = np.angle(result.qrdm[-1, 0, 1] * np.conj(result.qrdm[-1, 1, 3]))
        assert relative == pytest.approx(-2.0 * phase, abs=1e-6)

    def test_cutoff_robustness(self):
        params = UnitlessParams(f_q=0.2, g=0.05)
        grid = np.array([0.0, final_time(params.g)])
        small = orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=12))
        large = orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=17))
        assert np.max(np.abs(small.qrdm[-1] - large.qrdm[-1])) < 1e-5

    def test_qrdm_positive_semidefinite(self):
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_z=0.03)
        grid = np.linspace(0.0, final_time(params.g), 5)
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=12)
        )
        for qrdm in result.qrdm:
            assert np.linalg.eigvalsh(qrdm)[0] > -1e-8

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", 0.0),
            ("dt", -1e-2),
            ("dt", float("nan")),
            ("n_max", 12.0),
            ("tau_grid", [0.0, np.nan]),
            ("tau_grid", [0.0, 1.0, np.inf]),
        ],
    )
    def test_problem_rejects_bad_step_and_tolerance(self, field, value):
        requirement = {
            "n_max": "must be an int",
            "tau_grid": "must be finite",
        }.get(field, "must be finite and > 0")
        params = UnitlessParams(f_q=0.2, g=0.05)
        fields = {"tau_grid": np.array([0.0, 1.0]), field: value}
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}=\S+ {re.escape(requirement)}$"):
            orc.FockProblem(params=params, **fields)

    def test_leakage_guard_trips(self):
        params = UnitlessParams(f_q=2.0, g=0.05)
        grid = np.array([0.0, 2.0])
        with pytest.raises(orc.OracleError, match="leakage"):
            orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=8))


class TestFockOpen:
    def test_diffusive_qrdm_matches_closed_form(self):
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
        tau_f = final_time(params.g)
        grid = np.array([0.0, 0.5 * tau_f, tau_f])
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=10)
        )
        assert result.trace_error < 1e-8
        for slot, tau in enumerate(grid):
            closed, _, _ = dyn.open_qrdm(params, tau)
            assert np.max(np.abs(closed - result.qrdm[slot])) < 1e-3

    @pytest.mark.parametrize("n_max", [24, 28])
    def test_squeezed_thermal_noisy_point_matches_the_closed_forms(self, n_max):
        # s < 1, n_p > 0, gamma_x > 0 and gamma_z > 0 at once, to closure, at the
        # verify tolerance: the Gaussian premise of every contrast term.
        params = UnitlessParams(f_q=0.15, g=0.1, s=0.8, n_p=0.1, gamma_x=0.01, gamma_z=0.03)
        grid = np.linspace(0.0, final_time(params.g), 5)
        result = orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=n_max))
        assert np.max(np.abs(result.qrdm - dyn.open_qrdm(params, grid)[0])) <= 1e-9

    def test_factorization_matches_the_two_mode_reference(self):
        # The normal-mode oracle against the dense two-mode system in the product Fock
        # basis of (x1, x2), a different truncation, where both are converged: the
        # arbitration point over one closure and over three (37 grid times, one
        # series), and a diffusive, dephasing point.
        arbitration = UnitlessParams(f_q=0.2, g=0.05)
        tau_f = final_time(arbitration.g)
        noisy = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02, gamma_z=0.03)
        cases = [
            (arbitration, np.linspace(0.0, tau_f, 13), 20),
            (arbitration, np.linspace(0.0, 3.0 * tau_f, 37), 20),
            (noisy, np.array([0.0, 0.3, 0.6]), 10),
        ]
        for params, grid, n_max in cases:
            problem = orc.FockProblem(params=params, tau_grid=grid, n_max=n_max, dt=grid[-1])
            result = orc.fock_propagate(problem)
            assert relative_deviation(result.qrdm, reference_two_mode_qrdm(problem)) <= 1e-13

    def test_stacked_runs_match_the_dense_single_mode_reference(self, monkeypatch):
        monkeypatch.setattr(orc, "_LEAKAGE_TOL", 1e-1)
        for problem in stacked_run_problems():
            assert_fock_matches_reference(orc.fock_propagate(problem), problem)

    def test_ket_runs_match_the_dense_single_mode_reference(self, monkeypatch):
        # Without diffusion each run is a pair of evolved kets: the thermal twins of
        # the stacked problems (n_max columns per ket) and a pure squeezed point (one).
        monkeypatch.setattr(orc, "_LEAKAGE_TOL", 1e-1)
        squeezed = UnitlessParams(f_q=0.2, g=0.1, s=0.5)
        problems = stacked_run_problems(gamma_x=0.0) + [
            orc.FockProblem(params=squeezed, tau_grid=np.array([0.0, 0.4, 1.1]), n_max=12)
        ]
        for problem in problems:
            assert_fock_matches_reference(orc.fock_propagate(problem), problem)

    def test_series_span_does_not_change_results(self):
        # A diffusive problem at three dt: the whole grid (one series reads all four
        # grid times), one slot (a series per slot) and a quarter slot (four steps per slot).
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
        grid = np.linspace(0.0, final_time(params.g), 5)
        span = float(np.diff(grid).max())
        assert [slots for _, slots, _ in orc._block_steps(grid, grid[-1])] == [[1, 2, 3, 4]]
        assert [slots for _, slots, _ in orc._block_steps(grid, span)] == [[1], [2], [3], [4]]
        results = [
            orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=12, dt=dt))
            for dt in (grid[-1], span, span / 4.0)
        ]
        for one, other in combinations(results, 2):
            assert np.max(np.abs(one.qrdm - other.qrdm)) <= 1e-12

    def test_series_restart_where_dt_says(self, monkeypatch):
        # A series reads every grid time within dt of its start and restarts at
        # the last of them; the slot 0.9 -> 2.0, longer than dt, is cut into three
        # equal steps, of which only the last is observed.
        monkeypatch.setattr(orc, "_LEAKAGE_TOL", 1e-1)
        grid = np.array([0.0, 0.1, 0.3, 0.5, 0.9, 2.0])
        steps = orc._block_steps(grid, 0.5)
        third = (2.0 - 0.9) / 3.0
        expected = [
            ([0.1, 0.3, 0.5], [1, 2, 3], True),
            ([0.9 - 0.5], [4], True),
            ([third], [5], False),
            ([third], [5], False),
            ([third], [5], True),
        ]
        assert len(steps) == len(expected)
        for (offsets, slots, observed), (h, want_slots, want_observed) in zip(steps, expected):
            assert np.allclose(offsets, h, rtol=1e-15, atol=0.0)
            assert (slots, observed) == (want_slots, want_observed)
        for gamma_x in (0.02, 0.0):
            problem = replace(stacked_run_problems(gamma_x)[0], tau_grid=grid, dt=0.5)
            assert_fock_matches_reference(orc.fock_propagate(problem), problem)

    def test_runs_share_one_coefficient_row_per_step(self, monkeypatch):
        # All runs share the half-width and Bernstein rho of their series, so a
        # diffusive run as one series over four grid times computes four
        # coefficient rows, not one per run.
        coefficients, calls = orc._chebyshev_coefficients, []

        def counted(theta, rho):
            calls.append((theta, rho))
            return coefficients(theta, rho)

        monkeypatch.setattr(orc, "_chebyshev_coefficients", counted)
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
        grid = np.linspace(0.0, final_time(params.g), 5)
        orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=12, dt=grid[-1]))
        thetas, rhos = zip(*calls)
        assert len(calls) == 4 and len(set(rhos)) == 1
        assert np.allclose(np.array(thetas) / thetas[-1], grid[1:] / grid[-1], rtol=1e-15)

    def test_diffusive_run_holds_no_more_memory_than_per_slot_steps(self):
        # A diffusive run at n_max = 12 as one series over four grid times, traced
        # from its start.  The per-slot two-mode block steps that an earlier path
        # took peaked at 14.07 MiB, traced the same way on the same problem (numpy 2.4).
        import tracemalloc

        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
        grid = np.linspace(0.0, final_time(params.g), 5)
        problem = orc.FockProblem(params=params, tau_grid=grid, n_max=12, dt=grid[-1])
        tracemalloc.start()
        try:
            orc.fock_propagate(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.07 * 2**20, peak / 2**20

    @pytest.mark.parametrize("n_max", [8, 12, 30])
    @pytest.mark.parametrize("s", [0.8, 1e-2])
    def test_squeezer_matches_expm(self, n_max, s):
        from scipy.linalg import expm

        a = np.diag(np.sqrt(np.arange(1, n_max)), k=1)
        squeezer = expm(-0.25 * np.log(s) * (a @ a - a.T @ a.T))
        for n_p in (0.0, 0.5):
            thermal = orc._single_mode_initial(1.0, n_p, n_max)
            expected = squeezer @ thermal @ thermal.T @ squeezer.T
            expected /= np.trace(expected).real
            factor = orc._single_mode_initial(s, n_p, n_max)
            assert np.max(np.abs(factor @ factor.T - expected)) <= 1e-12

    @pytest.mark.parametrize("n_max", [8, 12, 30])
    @pytest.mark.parametrize("s", [1.0, 0.8, 1e-2])
    def test_initial_factor_rebuilds_the_density(self, n_max, s):
        # rho = K K^T with one column of K for a pure state and n_max for a thermal one
        for n_p in (0.0, 0.5):
            factor = orc._single_mode_initial(s, n_p, n_max)
            assert factor.shape == (n_max, 1 if n_p == 0.0 else n_max)
            assert factor.dtype == float
            density = reference_single_mode_density(s, n_p, n_max)
            assert np.max(np.abs(factor @ factor.T - density)) <= 1e-15

    def test_squeezed_run_needs_no_scipy(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from sgipair import oracle\n"
            "from sgipair.potentials import UnitlessParams\n"
            "oracle._LEAKAGE_TOL = 1e-1\n"
            "params = UnitlessParams(f_q=0.2, g=0.05, s=0.8, gamma_x=0.02)\n"
            "problem = oracle.FockProblem(params=params, tau_grid=[0.0, 0.1], n_max=8)\n"
            "print(oracle.fock_propagate(problem).trace_error < 1e-8)\n"
        )
        src = str(Path(orc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "True"

    @pytest.mark.parametrize("gamma_x", [0.02, 0.0])
    def test_every_branch_starts_at_a_quarter(self, gamma_x):
        # |+>|+> populates all four branches equally, with diffusion and without.
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=gamma_x)
        problem = orc.FockProblem(params=params, tau_grid=[0.0, 0.5], n_max=8)
        result = orc.fock_propagate(problem)
        assert np.max(np.abs(result.qrdm[0] - 0.25)) < 1e-12
        assert np.isfinite(result.leakage) and result.leakage <= orc._LEAKAGE_TOL

    def test_diverged_run_raises(self, monkeypatch):
        # A NaN coefficient row for the second grid time stands in for a series
        # that overflowed, with diffusion and without.  At dt = 1 the one series
        # of all runs reads both grid times, from one coefficient call per grid time.
        coefficients = orc._chebyshev_coefficients
        message = (
            r"^Fock series step to tau=1\.0 is not finite or lost to cancellation: "
            r"terms up to nan sum to nan; decrease dt=1\.0$"
        )
        for gamma_x in (0.02, 0.0):
            calls = []

            def poisoned(theta, rho, calls=calls):
                calls.append(theta)
                return coefficients(theta, rho) * (np.nan if len(calls) > 1 else 1.0)

            monkeypatch.setattr(orc, "_chebyshev_coefficients", poisoned)
            params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=gamma_x)
            problem = orc.FockProblem(params=params, tau_grid=[0.0, 0.5, 1.0], n_max=8)
            with pytest.raises(orc.OracleError, match=message):
                orc.fock_propagate(problem)
            assert len(calls) == 2, gamma_x

    def test_series_guard_names_the_grid_time(self, monkeypatch):
        # Strong diffusion in one step over the whole slot: the Chebyshev terms
        # outgrow the floating-point range; half the step keeps them in range.
        monkeypatch.setattr(orc, "_LEAKAGE_TOL", 1.0)
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=10.0)
        fields = dict(params=params, tau_grid=[0.0, 2.0], n_max=12)
        with pytest.raises(orc.OracleError, match=r"tau=2\.0 is not finite .*; decrease dt=2\.0$"):
            orc.fock_propagate(orc.FockProblem(dt=2.0, **fields))
        assert orc.fock_propagate(orc.FockProblem(**fields)).trace_error < 1e-12

    def test_cancelling_series_raises(self, monkeypatch):
        # The truncated vacuum of the uncoupled, undriven trap is an eigenvector of
        # h.  Under diffusion each run's start is stationary up to the tiny rate:
        # X phi_0 is nearly 0 and T_0 + T_2 = 2 X^2 sums to almost nothing.  Without
        # it the vacuum ket is the bottom of its series' spectrum, X phi_0 = -phi_0,
        # and T_0 - T_2 = 2 (1 - X^2) sums to almost nothing.
        message = r"tau=0\.5 is not finite or lost to cancellation: terms up to \S+ sum to \S+; "
        for gamma_x, sign in ((1e-12, -1.0), (0.0, 1.0)):
            cancelling = np.array([1.0, 0.0, sign])
            monkeypatch.setattr(orc, "_chebyshev_coefficients", lambda theta, rho, c=cancelling: c)
            params = UnitlessParams(f_q=0.0, g=0.0, gamma_x=gamma_x)
            problem = orc.FockProblem(params=params, tau_grid=[0.0, 0.5], n_max=8)
            with pytest.raises(orc.OracleError, match=message + r"decrease dt=1\.0$"):
                orc.fock_propagate(problem)

    def test_series_rectangle_holds_the_spectrum(self):
        # The dense generator H = T (x) 1 - 1 (x) T + P of a single-mode run
        # (n = 8) whose ket and bra forces differ, under diffusion: the extremes of
        # the spectra of h_ket and h_bra give the real extent of its Hermitian part
        # exactly, and its spectrum lies in the series' rectangle.  Strong drive
        # and coupling as well.
        n = 8
        xi, _, kinetic = orc._dvr(n)
        for params in (
            UnitlessParams(f_q=0.2, g=0.05, s=0.5, n_p=0.3, gamma_x=0.3, gamma_z=0.1),
            UnitlessParams(f_q=2.0, g=0.45, s=0.5, gamma_x=0.3, gamma_z=0.1),
        ):
            curvature, force = 1.0 - 2.0 * params.g, np.sqrt(2.0) * params.f_q
            ket, bra = (0.5 * curvature * xi**2 + sign * force * xi for sign in (1.0, -1.0))
            diffusion = 0.25 * params.gamma_x * np.subtract.outer(xi, xi) ** 2
            ket_levels, bra_levels = (np.linalg.eigvalsh(kinetic + np.diag(v)) for v in (ket, bra))
            low, high = ket_levels[0] - bra_levels[-1], ket_levels[-1] - bra_levels[0]
            half, (centre,), _ = orc._rectangles(
                np.array([low]), np.array([high]), -diffusion.max()
            )
            factor = np.subtract.outer(ket, bra) - 1j * diffusion
            dense = np.diag(factor.ravel()) + np.kron(kinetic, np.eye(n))
            dense -= np.kron(np.eye(n), kinetic)
            spectrum = np.linalg.eigvals(dense)
            assert np.all(np.abs(spectrum.real - centre.real) <= half * (1.0 + 1e-12))
            assert np.all(spectrum.imag >= -diffusion.max() - 1e-12)
            assert np.all(spectrum.imag <= 1e-12)
            hermitian = np.linalg.eigvalsh(0.5 * (dense + dense.conj().T))
            assert hermitian[0] == pytest.approx(low, abs=1e-12)
            assert hermitian[-1] == pytest.approx(high, abs=1e-12)
            assert half == pytest.approx(0.5 * (high - low), rel=1e-15)

    @pytest.mark.parametrize("theta", [1e-3, 0.5, 2.0, 53.0, 400.0])
    def test_series_coefficients_match_mpmath_bessel(self, theta):
        # c_k = (2 - delta_k0) J_k(theta), and sum_k (-i)^k c_k T_k(x) = exp(-i theta x)
        coefficients = orc._chebyshev_coefficients(theta, 1.1)
        orders = np.arange(len(coefficients))
        bessel = coefficients / np.where(orders > 0, 2.0, 1.0)
        with mpmath.workdps(40):
            reference = np.array([float(mpmath.besselj(k, theta)) for k in orders])
        error = np.abs(bessel - reference)
        # oscillating orders to an absolute 1e-15; the decaying tail, which sets
        # where the series stops, to a relative 1e-14
        assert np.all(error[orders <= theta] <= 1e-15)
        assert np.all(error[orders > theta] <= 1e-14 * np.abs(reference[orders > theta]))
        assert 2.0 * abs(reference[-1]) * 1.1 ** orders[-1] >= 1e-16  # the last term counts
        x = np.linspace(-1.0, 1.0, 7)
        chebyshev = np.cos(np.outer(orders, np.arccos(x)))
        series = ((-1j) ** orders * coefficients) @ chebyshev
        assert np.max(np.abs(series - np.exp(-1j * theta * x))) <= 1e-13

    def test_dephasing_decay_matches_adopted_convention(self):
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_z=0.05)
        tau_f = final_time(params.g)
        grid = np.array([0.0, tau_f])
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=12)
        )
        closed, _, _ = dyn.open_qrdm(params, tau_f)
        assert np.max(np.abs(closed - result.qrdm[-1])) < 1e-9


class TestVerifyFock:
    def test_arbitration_entries_are_at_rounding(self):
        # The noise-free QRDM, the phase at closure and both contrast exponents
        # of the normal-mode runs are within 1e-14 of the closed forms.
        entries = {entry.name: entry for entry in orc.verify_fock().entries}
        arbitration = [name for name in entries if name.startswith("arbitration/")]
        assert arbitration == [
            "arbitration/qrdm",
            "arbitration/phase(tau_f)",
            "arbitration/c2-adopted",
            "arbitration/c1",
        ]
        for name in arbitration:
            assert entries[name].max_abs <= 1e-14, name


class TestCompare:
    def test_identical_inputs_pass_with_zero_deviation(self):
        grid = np.linspace(0.0, 1.0, 5)
        series = np.random.default_rng(0).normal(size=(5, 4, 4))
        report = orc.ComparisonReport()
        report.add("sigma", series, series.copy(), grid, 1e-12)
        assert report.passed
        assert report.entries[0].max_abs == 0.0

    def test_perturbed_coupling_fails_named_quantity(self):
        report = orc.verify_moments(g_shift=1e-3)
        assert not report.passed
        assert any("sigma" in name or "branch" in name for name in report.failures)

    def test_shape_mismatch_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        report = orc.ComparisonReport()
        with pytest.raises(ValueError, match="shape"):
            report.add("a", np.zeros(5), np.zeros(6), grid, 1.0)

    def test_report_serialization(self):
        report = orc.verify_moments()
        assert report.passed
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["entries"]
        text = report.to_text()
        assert "overall: pass" in text
