"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ``[criterion N] pass`` line (visible with
``pytest -s`` or in the captured output on failure) together with the
measured worst deviation and runtime, so the suite doubles as a report.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    eigensolver_negativity,
    ideal_qrdm,
    partial_transpose,
    pauli_witness,
    propagator_expm,
    reference_covariance,
    taylor_coefficients,
    witness_matrix,
    witness_trace,
)
from sgipair import design, dynamics, entanglement
from sgipair import oracle as orc
from sgipair import phase_space as ps
from sgipair import potentials as pot
from sgipair.dynamics import ContrastSet
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams

G_VALUES = (0.0, 0.1, 0.3, 0.49)
TAU_GRID = np.linspace(0.0, 4.0 * np.pi, 50)


def report(number: int, detail: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:2d}] pass  ({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_01_symplectic_closed_form():
    # Load scipy.linalg before the clock starts: the 1 s limit times the 400
    # propagator comparisons, and a cold import of the reference library
    # alone can take longer than that on a loaded machine.
    propagator_expm(0.0, 0.0)
    started = time.perf_counter()
    worst = 0.0
    for g in G_VALUES:
        for tau in TAU_GRID:
            dev = np.max(np.abs(ps.propagator(g, tau) - propagator_expm(g, tau)))
            worst = max(worst, float(dev))
    assert worst < 1e-12
    report(1, f"closed form vs expm, max dev {worst:.2e} < 1e-12", started, 1.0)


def test_criterion_02_covariance_closed_form():
    started = time.perf_counter()
    worst_print = 0.0
    worst_oracle = 0.0
    for g in G_VALUES:
        problem = orc.MomentOdeProblem(UnitlessParams(f_q=0.0, g=g), TAU_GRID)
        integrated = orc.integrate_moments(problem)
        for slot, tau in enumerate(TAU_GRID):
            published = reference_covariance(g, tau)
            propagated = ps.evolve_covariance(np.eye(4), g, tau)
            worst_print = max(worst_print, float(np.max(np.abs(published - propagated))))
            worst_oracle = max(
                worst_oracle, float(np.max(np.abs(published - integrated.sigma[slot])))
            )
    assert worst_print < 1e-12
    assert worst_oracle < 1e-8
    report(
        2,
        f"published matrix vs S sigma S^T {worst_print:.2e} < 1e-12, "
        f"vs moment oracle {worst_oracle:.2e} < 1e-8",
        started,
        5.0,
    )


def test_criterion_03_recombination_and_deflection():
    started = time.perf_counter()
    f_q, g = 1.0, 0.1
    tau_f = final_time(g)
    moments = dynamics.branch_trajectories(f_q, g, tau_f)
    opposite = [
        moments[dynamics.BranchLabel(1, 1, -1, -1)],
        moments[dynamics.BranchLabel(-1, -1, 1, 1)],
    ]
    residual = max(float(np.max(np.abs(m.vector[..., [0, 2]]))) for m in opposite)
    assert residual < 1e-12
    gap = abs(
        moments[dynamics.BranchLabel(1, 1, 1, 1)].vector[0]
        - moments[dynamics.BranchLabel(-1, -1, -1, -1)].vector[0]
    )
    expected = 4.0 * f_q * math.sin(math.pi / math.sqrt(1.0 - 2.0 * g)) ** 2
    assert abs(gap - expected) < 1e-12
    report(
        3,
        f"opposite-bit residual {residual:.2e} < 1e-12, gap error "
        f"{abs(gap - expected):.2e} < 1e-12",
        started,
        1.0,
    )


def _nudged_physical_pair(scale: float = 1000.0):
    """Two physical parameter sets, masses a factor ``scale`` apart, whose
    dimensionless images coincide bitwise."""
    base = pot.PhysicalParams(M=2e-12, omega=0.25, d=4e-5, F_q=3e-19)
    u_base = pot.to_unitless(base)

    mass = scale * base.M
    d_big = (pot.G_NEWTON * mass / (u_base.g * base.omega**2)) ** (1.0 / 3.0)
    for _ in range(64):
        g_trial = pot.G_NEWTON * mass / (d_big**3 * base.omega**2)
        if g_trial == u_base.g:
            break
        mass = np.nextafter(mass, math.inf if g_trial < u_base.g else -math.inf)
    force = u_base.f_q * math.sqrt(pot.HBAR * mass * base.omega**3)
    for _ in range(64):
        f_trial = force / math.sqrt(pot.HBAR * mass * base.omega**3)
        if f_trial == u_base.f_q:
            break
        force = np.nextafter(force, math.inf if f_trial < u_base.f_q else -math.inf)
    other = pot.PhysicalParams(M=mass, omega=base.omega, d=d_big, F_q=force)
    return base, other


def test_criterion_04_mass_independence():
    started = time.perf_counter()
    base, other = _nudged_physical_pair()
    u1, u2 = pot.to_unitless(base), pot.to_unitless(other)
    assert other.M / base.M == pytest.approx(1000.0, rel=1e-12)
    assert (u1.f_q, u1.g) == (u2.f_q, u2.g)  # bitwise
    tau_f = final_time(u1.g)
    phi1 = dynamics.entangling_phase(u1.f_q, u1.g, tau_f)
    phi2 = dynamics.entangling_phase(u2.f_q, u2.g, tau_f)
    assert phi1 == phi2  # bitwise

    # Unitful leading order at small coupling.
    small = pot.PhysicalParams(M=1e-13, omega=0.5, d=2e-4, F_q=1e-19)
    u_small = pot.to_unitless(small)
    assert u_small.g <= 1e-3
    exact = dynamics.entangling_phase(
        u_small.f_q, u_small.g, final_time(u_small.g)
    )
    leading = (
        6.0
        * math.pi
        * pot.G_NEWTON
        * small.F_q**2
        / (pot.HBAR * small.d**3 * small.omega**5)
    )
    assert exact == pytest.approx(leading, rel=0.01)
    report(
        4,
        f"phase bitwise-equal across M x1000; unitful leading order to "
        f"{abs(exact / leading - 1.0):.2e} < 1e-2",
        started,
        1.0,
    )


def test_criterion_05_detection_constraint():
    started = time.perf_counter()
    worst = 0.0
    for g in np.geomspace(1e-6, 0.4, 120):
        f_r = design.required_force(float(g))
        worst = max(worst, abs(6.0 * math.pi * g * f_r**2 - math.pi / 20.0))
    assert worst < 1e-14
    g_small = 1e-6
    phase = dynamics.entangling_phase(
        design.required_force(g_small), g_small, final_time(g_small)
    )
    ideal = entanglement.evaluate_negativity(phase, ContrastSet(c_s_np_2=0.0)).witness_trace
    assert abs(ideal - math.sin(math.pi / 20.0)) < 1e-6
    report(
        5,
        f"constraint identity worst {worst:.2e} < 1e-14; ideal witness "
        f"negativity {ideal:.7f} = sin(pi/20) +/- 1e-6",
        started,
        1.0,
    )


def test_criterion_06_mass_windows():
    started = time.perf_counter()
    m_min, m_max = design.mass_bounds(30e-6, 0.1)
    for value, anchor in ((m_min, 2.2e-15), (m_max, 2.0e-6)):
        assert value / anchor < 3.0 and anchor / value < 3.0
    assert 1e-15 / 3.0 < m_min < 1e-15 * 10.0
    noisy_min, noisy_max = design.mass_bounds_noisy(30e-6, 0.1, 1e-64, 1e-4, 10.0)
    assert noisy_min < 1e-9 < noisy_max
    report(
        6,
        f"unitary window [{m_min:.2e}, {m_max:.2e}] kg within factor 3; "
        f"noisy window [{noisy_min:.2e}, {noisy_max:.2e}] contains 1e-9 kg",
        started,
        1.0,
    )


def test_criterion_07_open_phase_invariance():
    started = time.perf_counter()
    f_q, g = 0.8, 0.12
    tau_f = final_time(g)
    reference = dynamics.entangling_phase(f_q, g, tau_f)
    worst = 0.0
    for s in (1.0, 1e-2, 1e-4):
        for n_p in (0.0, 1.0, 100.0):
            for gamma_x in (0.0, 0.02, 0.1):
                params = UnitlessParams(f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x)
                _, _, phase = dynamics.open_qrdm(params, tau_f)
                worst = max(worst, abs(phase - reference))
    assert worst < 1e-12
    report(7, f"phase shift across 3x3x3 noise grid {worst:.2e} < 1e-12", started, 5.0)


def test_criterion_08_limit_identities():
    started = time.perf_counter()
    f_q, g = 0.9, 0.17
    tau_f = final_time(g)
    params = UnitlessParams(f_q=f_q, g=g, s=1.0, n_p=0.0)
    _, contrasts, _ = dynamics.open_qrdm(params, tau_f)
    c_g = dynamics.final_contrast(f_q, g)
    assert abs(contrasts.c_s_np_2 - c_g) < 1e-14
    rho_open, _, _ = dynamics.open_qrdm(params, tau_f)
    rho_unitary, _, _ = dynamics.open_qrdm(UnitlessParams(f_q=f_q, g=g), tau_f)
    worst = float(np.max(np.abs(rho_open - rho_unitary)))
    assert worst < 1e-13
    report(
        8,
        f"C_s,np(tau_f)|s=1,np=0 vs C_g dev {abs(contrasts.c_s_np_2 - c_g):.2e} "
        f"< 1e-14; zero-noise QRDM dev {worst:.2e} < 1e-13",
        started,
        1.0,
    )


def test_criterion_09_fock_arbitration():
    started = time.perf_counter()
    params = UnitlessParams(f_q=0.2, g=0.05)
    tau_f = final_time(params.g)
    grid = np.linspace(0.0, tau_f, 13)
    result = orc.fock_propagate(orc.FockProblem(params=params, tau_grid=grid, n_max=30))

    phase_dev = abs(result.phase(-1) - dynamics.entangling_phase(params.f_q, params.g, tau_f))
    assert phase_dev < 1e-3

    # Constant arbitration: exponent of the (00|11) entry is 4*C2(tau); at
    # closure the candidates are C_g (adopted, main-text constant) and
    # 2*C_g (the sign-flipped published intermediate form).  The oracle picks.
    c_g = dynamics.final_contrast(params.f_q, params.g)
    c2_fock_final = float(-np.log(np.abs(4.0 * result.qrdm[-1, 0, 3])) / 4.0)
    ratio = c2_fock_final / c_g
    assert abs(ratio - 1.0) < 1e-3
    assert abs(ratio - 2.0) > 0.5

    worst_c = 0.0
    for slot, tau in enumerate(grid[1:], start=1):
        c2_fock = -math.log(abs(4.0 * result.qrdm[slot, 0, 3])) / 4.0
        c1_fock = -math.log(abs(4.0 * result.qrdm[slot, 1, 2])) / 4.0
        _, closed, _ = dynamics.open_qrdm(params, float(tau))
        worst_c = max(
            worst_c, abs(c2_fock - closed.c_s_np_2), abs(c1_fock - closed.c_s_np_1)
        )
        assert c1_fock > -1e-12 and c2_fock > -1e-12  # sign normalization
    assert worst_c < 1e-3

    worst_qrdm = 0.0
    for slot, tau in enumerate(grid):
        closed, _, _ = dynamics.open_qrdm(params, float(tau))
        worst_qrdm = max(worst_qrdm, float(np.max(np.abs(closed - result.qrdm[slot]))))
    assert worst_qrdm < 1e-3

    print(
        "[criterion  9] arbitration record: oracle C2(tau_f)/C_g = "
        f"{ratio:.6f} -> closure constant is C_g (not 2 C_g); intermediate "
        "C2(tau) = 2 f_q^2 sin^2(tau/2) (sign-normalized) confirmed to "
        f"{worst_c:.2e}"
    )
    report(
        9,
        f"phase dev {phase_dev:.2e} < 1e-3 rad; contrasts {worst_c:.2e}; "
        f"QRDM {worst_qrdm:.2e} < 1e-3 (n_max=30, leakage {result.leakage:.1e})",
        started,
        900.0,
    )


def test_criterion_10_entanglement_consistency():
    started = time.perf_counter()
    worst_closed = 0.0
    for phi in np.linspace(-math.pi, math.pi, 25):
        for contrast in (0.0, 0.05, 0.26, 1.0, 2.5):
            rho = ideal_qrdm(float(phi), contrast)
            lam = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
            result = entanglement.evaluate_negativity(float(phi), ContrastSet(c_s_np_2=contrast))
            closed, exact = result.closed_form, result.exact
            # The published eigenvalue display equals -lambda_min; the -2 lambda
            # normalization (the exact negativity) is exactly twice it.
            worst_closed = max(worst_closed, abs(max(0.0, -lam) - closed))
            worst_closed = max(worst_closed, abs(eigensolver_negativity(rho) - 2.0 * closed))
            worst_closed = max(worst_closed, abs(eigensolver_negativity(rho) - exact))
    assert worst_closed < 1e-10

    published = -0.25 * np.array(
        [
            [1, 1j, 1j, -1],
            [-1j, 1, -1, -1j],
            [-1j, -1, 1, -1j],
            [-1, 1j, 1j, 1],
        ]
    )
    # The w = 1 witness is the published display, and the Pauli form twice it.
    pauli_dev = float(np.max(np.abs(witness_matrix(1.0) - published)))
    pauli_dev = max(pauli_dev, float(np.max(np.abs(pauli_witness() / 2.0 - published))))
    assert pauli_dev < 1e-14

    worst_trace = 0.0
    for phi in (0.1, math.pi / 20.0, 2.43):
        for contrast in (0.0, 0.26, 1.2):
            rho = ideal_qrdm(phi, contrast)
            trace = witness_trace(pauli_witness(), rho)
            formula = entanglement.evaluate_negativity(phi, ContrastSet(c_s_np_2=contrast))
            worst_trace = max(worst_trace, abs(trace - formula.witness_trace))
    assert worst_trace < 1e-12
    report(
        10,
        f"closed vs eigensolver {worst_closed:.2e} < 1e-10; Pauli witness "
        f"{pauli_dev:.2e} < 1e-14; trace identity {worst_trace:.2e} < 1e-12",
        started,
        5.0,
    )


def test_criterion_11_physicality_suite():
    started = time.perf_counter()
    worst_margin = 0.0
    worst_trace = 0.0
    worst_eig = 0.0
    for params in (
        UnitlessParams(f_q=1.0, g=0.1),
        UnitlessParams(f_q=0.6, g=0.3, s=0.1, n_p=3.0),
        UnitlessParams(f_q=1.5, g=0.05, s=1e-2, n_p=20.0, gamma_x=0.05, gamma_z=0.05),
        UnitlessParams(f_q=0.3, g=0.45, gamma_x=0.2),
    ):
        sigma0 = dynamics.squeezed_thermal_covariance(params.s, params.n_p)
        for tau in np.linspace(0.0, 2.0 * final_time(params.g), 12):
            sigma = ps.evolve_covariance(sigma0, params.g, float(tau), params.gamma_x)
            ok, margin = ps.heisenberg_ok(sigma)
            assert ok
            worst_margin = min(worst_margin, margin)
            rho, contrasts, phase = dynamics.open_qrdm(params, float(tau))
            worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho)[0]))
            negativity = entanglement.evaluate_negativity(phase, contrasts).exact
            assert 0.0 <= negativity <= 1.0
            assert abs(negativity - eigensolver_negativity(rho)) < 1e-12
    assert worst_eig > -1e-10
    report(
        11,
        f"uncertainty margin >= {worst_margin:.1e}, QRDM trace dev "
        f"{worst_trace:.1e}, min eigenvalue {worst_eig:.1e}, negativity in [0,1]",
        started,
        10.0,
    )


def test_criterion_12_expansion_oracle():
    started = time.perf_counter()
    physical = pot.PhysicalParams(
        M=1e-14, omega=1.0, d=1e-4, Q=1e-18, eps_r=5.7, rho_m=3500.0
    )
    worst = 0.0
    for kind in ("newton", "coulomb", "casimir"):
        aligned = pot.expand_potential(
            pot.potential_spec(kind, physical, 0.0), physical.M, physical.omega
        )
        scales = [abs(aligned.f), abs(aligned.g), abs(aligned.h), abs(aligned.p)]
        for theta in (0.0, math.pi / 4.0, math.pi / 2.0):
            spec = pot.potential_spec(kind, physical, theta)
            coeffs = pot.expand_potential(spec, physical.M, physical.omega)
            reference = [-c for c in taylor_coefficients(spec, physical.M, physical.omega)]
            for value, ref, scale in zip(
                (coeffs.f, coeffs.g, coeffs.h, coeffs.p), reference, scales
            ):
                if abs(ref) > 1e-6 * scale:
                    worst = max(worst, abs(value - ref) / abs(ref))
                else:
                    assert abs(value - ref) < 1e-9 * scale
    assert worst < 1e-6

    _, g_parallel = pot.table_coupling("newton", "parallel", physical)
    _, g_linear = pot.table_coupling("newton", "linear", physical)
    assert g_linear == 2.0 * g_parallel  # exact, criterion wording
    report(
        12,
        f"expansion vs numerical differentiation, worst rel {worst:.2e} < 1e-6; "
        "linear/parallel factor-2 exact",
        started,
        5.0,
    )
