import os
import re
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_covariance, reference_fock_observables, reference_moment_states
from sgipair import dynamics as dyn
from sgipair import oracle as orc
from sgipair.phase_space import final_time, propagator
from sgipair.potentials import UnitlessParams


def sgi_problem(params, tau_grid, sigma0=None):
    return orc.MomentOdeProblem.for_sgi(params, np.asarray(tau_grid), sigma0)


SQUEEZED_THERMAL = UnitlessParams(f_q=0.8, g=0.1, s=1e-2, n_p=5.0)


def relative_deviation(value, reference):
    """Largest deviation relative to the reference's largest magnitude."""
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


def stacked_block_problems():
    """Two coarse squeezed thermal problems with a non-uniform qubit state.

    Kernel equivalence only: n_max=8 and 9 truncate this state coarsely, so the
    leakage bound is not the subject.  The odd cutoff gives x a zero
    eigenvalue; its grid has unequal spans.
    """
    params = UnitlessParams(f_q=0.2, g=0.05, s=0.8, n_p=0.05, gamma_x=0.02, gamma_z=0.03)
    qubit_rho0 = np.array(
        [
            [0.4, 0.1 + 0.05j, 0.05, 0.02j],
            [0.1 - 0.05j, 0.3, 0.04, 0.03],
            [0.05, 0.04, 0.2, 0.01 - 0.02j],
            [-0.02j, 0.03, 0.01 + 0.02j, 0.1],
        ]
    )
    return [
        orc.FockProblem(
            params=params,
            tau_grid=np.array(grid),
            n_max=n_max,
            qubit_rho0=qubit_rho0,
            dt=2e-2,
            leakage_tol=1e-1,
        )
        for n_max, grid in ((8, [0.0, 0.1, 0.25]), (9, [0.0, 0.05, 0.2, 0.27]))
    ]


def propagate_within(problem, seconds):
    """fock_propagate on a daemon thread; a deadlocked pool fails the test instead of hanging it."""
    done = Future()

    def target():
        try:
            done.set_result(orc.fock_propagate(problem))
        except Exception as error:
            done.set_exception(error)

    threading.Thread(target=target, daemon=True).start()
    return done.result(timeout=seconds)


def assert_fock_matches_reference(result, problem, tol=1e-13):
    qrdm, first, cov = reference_fock_observables(problem)
    assert relative_deviation(result.qrdm, qrdm) <= tol
    for label, series in first.items():
        assert relative_deviation(result.first_moments[label], series) <= tol, label
    for pair, series in cov.items():
        assert relative_deviation(result.branch_covariance[pair], series) <= tol, pair


class TestMomentIntegration:
    def test_vacuum_fixed_point(self):
        params = UnitlessParams(f_q=0.3, g=0.0)
        grid = np.linspace(0.0, 8.0, 9)
        trajectories = orc.integrate_moments(sgi_problem(params, grid, np.eye(4)))
        for sigma in trajectories.sigma:
            assert np.max(np.abs(sigma - np.eye(4))) < 1e-10

    def test_covariance_matches_published_closed_form(self):
        params = UnitlessParams(f_q=0.0, g=0.1)
        grid = np.linspace(0.0, final_time(0.1), 9)
        trajectories = orc.integrate_moments(sgi_problem(params, grid, np.eye(4)))
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
        reference = orc.integrate_moments(sgi_problem(params, grid), dt=1e-4, check=False)
        coarse = orc.integrate_moments(sgi_problem(params, grid), dt=4e-2, check=False)
        fine = orc.integrate_moments(sgi_problem(params, grid), dt=2e-2, check=False)
        err_coarse = np.max(np.abs(coarse.sigma[-1] - reference.sigma[-1]))
        err_fine = np.max(np.abs(fine.sigma[-1] - reference.sigma[-1]))
        assert 10.0 < err_coarse / err_fine < 22.0

    def test_nonconvergence_raises(self):
        params = UnitlessParams(f_q=1.0, g=0.2)
        grid = np.array([0.0, 4.0])
        with pytest.raises(orc.OracleError, match="not converged"):
            orc.integrate_moments(
                sgi_problem(params, grid), dt=1.0, convergence_tol=1e-16, max_refinements=1
            )

    def test_step_map_matches_stagewise_rk4(self):
        grid = np.linspace(0.0, final_time(SQUEEZED_THERMAL.g), 3)
        problem = sgi_problem(SQUEEZED_THERMAL, grid)
        result = orc.integrate_moments(problem, dt=2e-3, check=False)
        states = np.concatenate(
            [result.sigma.reshape(-1, 16)]
            + [result.branch_means[pair] for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1))],
            axis=1,
        )
        reference = reference_moment_states(problem, 2e-3)
        assert relative_deviation(states[:, :16], reference[:, :16]) <= 1e-13
        assert relative_deviation(states[:, 16:], reference[:, 16:]) <= 1e-13

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

    def test_checked_run_needs_a_refinement(self):
        problem = sgi_problem(UnitlessParams(f_q=1.0, g=0.1), [0.0, 1.0])
        with pytest.raises(ValueError, match=r"^max_refinements=0 must be >= 1"):
            orc.integrate_moments(problem, max_refinements=0)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError, match="tau_grid"):
            sgi_problem(UnitlessParams(f_q=1.0, g=0.1), [1.0, 2.0])
        with pytest.raises(ValueError, match="^tau_grid=nan must be finite"):
            sgi_problem(UnitlessParams(f_q=1.0, g=0.1), [0.0, np.nan])


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
            closed, _, _ = dyn.unitary_qrdm(params.f_q, params.g, tau)
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

    def test_branch_covariance_matches_propagated_vacuum(self):
        params = UnitlessParams(f_q=0.2, g=0.05)
        grid = np.linspace(0.0, 3.0, 4)
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=14)
        )
        for slot, tau in enumerate(grid):
            s = propagator(params.g, tau)
            sigma = s @ s.T
            for pair, series in result.branch_covariance.items():
                assert np.max(np.abs(series[slot] - sigma)) < 1e-8

    def test_off_diagonal_moments_match_moment_machinery(self):
        params = UnitlessParams(f_q=0.2, g=0.05)
        label = dyn.BranchLabel(j=1, k=-1, m=1, n=1)
        grid = np.array([0.0, 2.0])
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=14)
        )
        closed = dyn.general_first_moments(label, params, 2.0)
        assert np.max(np.abs(result.first_moments[label][-1] - closed.vector)) < 1e-4

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

    def test_mode_local_observables_match_dense_operators(self):
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_z=0.03)
        problem = orc.FockProblem(params=params, tau_grid=np.array([0.0, 1.0, 2.5]), n_max=10)
        result = orc.fock_propagate(problem)
        assert result.hermiticity_drift == 0.0
        assert_fock_matches_reference(result, problem)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", 0.0),
            ("dt", -1e-2),
            ("dt", float("nan")),
            ("leakage_tol", 0.0),
            ("leakage_tol", -1.0),
            ("n_max", 12.0),
            ("tau_grid", [0.0, np.nan]),
            ("tau_grid", [0.0, 1.0, np.inf]),
            ("qubit_rho0.shape", np.eye(3) / 3.0),
            ("qubit_rho0", np.where(np.eye(4) > 0, 0.25, np.nan)),
            ("qubit_rho0.hermiticity_error", np.eye(4) / 4.0 + np.eye(4, k=1) / 10.0),
            ("qubit_rho0.trace", np.eye(4) / 2.0),
        ],
    )
    def test_problem_rejects_bad_step_and_tolerance(self, field, value):
        requirement = {
            "n_max": "must be an int",
            "tau_grid": "must be finite",
            "qubit_rho0.shape": "must be 4x4",
            "qubit_rho0": "must be finite",
            "qubit_rho0.hermiticity_error": "must be <= 1e-12",
            "qubit_rho0.trace": "must be 1 to 1e-12",
        }.get(field, "must be finite and > 0")
        params = UnitlessParams(f_q=0.2, g=0.05)
        fields = {"tau_grid": np.array([0.0, 1.0]), field.split(".")[0]: value}
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
            orc.FockProblem(params=params, tau_grid=grid, n_max=10, dt=2e-2)
        )
        assert result.trace_error < 1e-8
        for slot, tau in enumerate(grid):
            closed, _, _ = dyn.open_qrdm(params, tau)
            assert np.max(np.abs(closed - result.qrdm[slot])) < 1e-3

    def test_stacked_blocks_match_per_block_reference(self):
        for problem in stacked_block_problems():
            result = orc.fock_propagate(problem)
            assert result.hermiticity_drift < 1e-12
            assert_fock_matches_reference(result, problem)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # One worker, then 16 CPUs capped at one worker per block: more threads
        # than cores, switching as often as the interpreter allows.
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(orc, "ThreadPoolExecutor", RecordingPool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for problem in stacked_block_problems():
                results = []
                for cpus in (1, 16):
                    monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
                    results.append(propagate_within(problem, seconds=120.0))
                serial, pooled = results
                assert np.array_equal(serial.qrdm, pooled.qrdm)
                for label, series in serial.first_moments.items():
                    assert np.array_equal(series, pooled.first_moments[label]), label
                for pair, series in serial.branch_covariance.items():
                    assert np.array_equal(series, pooled.branch_covariance[pair]), pair
                assert serial.leakage == pooled.leakage
                assert serial.trace_error == pooled.trace_error
                assert serial.hermiticity_drift == pooled.hermiticity_drift
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [1, 10, 1, 10]

    @pytest.mark.parametrize("n_max", [8, 12, 30])
    @pytest.mark.parametrize("s", [0.8, 1e-2])
    def test_squeezer_matches_expm(self, n_max, s):
        from scipy.linalg import expm

        a = np.diag(np.sqrt(np.arange(1, n_max)), k=1)
        squeezer = expm(-0.25 * np.log(s) * (a @ a - a.T @ a.T))
        for n_p in (0.0, 0.5):
            expected = squeezer @ orc._single_mode_initial(1.0, n_p, n_max) @ squeezer.T
            expected /= np.trace(expected).real
            assert np.max(np.abs(orc._single_mode_initial(s, n_p, n_max) - expected)) <= 1e-12

    def test_squeezed_run_needs_no_scipy(self):
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from sgipair import oracle\n"
            "from sgipair.potentials import UnitlessParams\n"
            "params = UnitlessParams(f_q=0.2, g=0.05, s=0.8, gamma_x=0.02)\n"
            "problem = oracle.FockProblem(\n"
            "    params=params, tau_grid=[0.0, 0.1], n_max=8, dt=2e-2, leakage_tol=1e-1\n"
            ")\n"
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

    def test_unpopulated_branches_stay_finite(self):
        # Only |00> is populated: the other diagonal blocks have zero trace, so they
        # have no conditional moments and must not enter the leakage as 0/0.
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
        problem = orc.FockProblem(
            params=params, tau_grid=[0.0, 0.5], n_max=8, qubit_rho0=np.diag([1.0, 0, 0, 0])
        )
        result = orc.fock_propagate(problem)
        assert np.isfinite(result.leakage) and result.leakage > 0.0
        assert all(np.isfinite(cov).all() for cov in result.branch_covariance.values())
        assert not result.branch_covariance[(-1, -1)].any()
        assert abs(result.qrdm[-1, 0, 0] - 1.0) < 1e-12

    def test_diverged_run_raises(self):
        # dt = 2 is far outside the RK4 stability region of this generator.
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_x=0.02)
        problem = orc.FockProblem(params=params, tau_grid=[0.0, 200.0], n_max=8, dt=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(orc.OracleError, match=r"tau=200\.0 is not finite"):
                orc.fock_propagate(problem)

    def test_dephasing_decay_matches_adopted_convention(self):
        params = UnitlessParams(f_q=0.2, g=0.05, gamma_z=0.05)
        tau_f = final_time(params.g)
        grid = np.array([0.0, tau_f])
        result = orc.fock_propagate(
            orc.FockProblem(params=params, tau_grid=grid, n_max=12)
        )
        closed, _, _ = dyn.open_qrdm(params, tau_f)
        assert np.max(np.abs(closed - result.qrdm[-1])) < 1e-9


class TestCompare:
    def test_identical_inputs_pass_with_zero_deviation(self):
        grid = np.linspace(0.0, 1.0, 5)
        series = {"sigma": np.random.default_rng(0).normal(size=(5, 4, 4))}
        report = orc.compare(series, dict(series), grid, {"sigma": 1e-12})
        assert report.passed
        assert report.entries[0].max_abs == 0.0

    def test_perturbed_coupling_fails_named_quantity(self):
        report = orc.verify_moments(g_shift=1e-3)
        assert not report.passed
        assert any("sigma" in name or "branch" in name for name in report.failures)

    def test_grid_mismatch_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="quantity sets"):
            orc.compare({"a": np.zeros(5)}, {"b": np.zeros(5)}, grid, {"a": 1.0})
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
