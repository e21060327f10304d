import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgipair import design
from sgipair.potentials import G_NEWTON, HBAR, NVParams, nv_map


class TestDetectionConstraint:
    def test_unit_force_coupling(self):
        assert design.required_force(1.0 / 120.0) == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        assert design.required_force(0.01) == pytest.approx(0.9128709291752769, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(g=st.floats(1e-6, 0.4))
    def test_phase_identity_over_six_decades(self, g):
        f_r = design.required_force(g)
        assert abs(6.0 * math.pi * g * f_r**2 - math.pi / 20.0) < 1e-14

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            design.required_force(0.0)

    def test_ideal_negativity_is_computed_not_rounded(self):
        assert design.ideal_negativity() == math.sin(math.pi / 20.0)
        assert design.ideal_negativity() == pytest.approx(0.15643446504023087, abs=1e-16)


class TestGBounds:
    def test_ideal_ground_state_limited_by_stability(self):
        report = design.g_bounds(x0_over_d=1e-5)
        assert report.g_max == 0.5
        assert report.max_mechanism == "trap stability"
        assert report.g_min == pytest.approx(2e-10, rel=1e-12)
        assert report.min_mechanism == "quartic validity"
        deflection = {b.mechanism: b for b in report.upper_candidates}["deflection (ideal)"]
        assert deflection.value > 0.5 and not deflection.applies

    def test_thermal_bound(self):
        report = design.g_bounds(x0_over_d=1e-5, n_p=10.0)
        assert report.g_max == pytest.approx(0.8 / 21.0, rel=1e-12)
        assert report.max_mechanism == "thermal deflection"

    def test_diffusion_bound(self):
        report = design.g_bounds(x0_over_d=1e-5, gamma_x=0.1)
        n_i = design.ideal_negativity()
        exact = math.pi * 0.1 * (1.0 + n_i) / (40.0 * n_i)
        assert report.g_min == pytest.approx(exact, rel=1e-12)
        assert report.g_min == pytest.approx(0.0581, abs=2e-4)
        assert report.min_mechanism == "diffusion"
        rounded = {b.mechanism: b for b in report.lower_candidates}["diffusion (rounded)"]
        assert rounded.value == pytest.approx(0.05, rel=1e-12)
        assert not rounded.applies  # reported alongside, never silently preferred

    def test_squeezed_bound_active_for_squeezed_states(self):
        report = design.g_bounds(x0_over_d=1e-5, s=1e-4, n_p=100.0)
        expected = 0.45 * (1e-4 / 201.0) ** (1.0 / 3.0)
        assert report.g_max == pytest.approx(expected, rel=1e-12)
        assert report.max_mechanism == "squeezed deflection"

    def test_squeezed_bound_inactive_for_unsqueezed_states(self):
        report = design.g_bounds(x0_over_d=1e-5, s=1.0)
        assert report.g_max == 0.5
        squeezed = {b.mechanism: b for b in report.upper_candidates}["squeezed deflection"]
        assert not squeezed.applies

    def test_infeasible_window_reported_not_raised(self):
        report = design.g_bounds(x0_over_d=0.3, n_p=1000.0)
        assert not report.feasible


class TestMassBounds:
    def test_reference_window(self):
        m_min, m_max = design.mass_bounds(30e-6, 0.1)
        assert m_min == pytest.approx(2.18e-15, rel=0.01)
        assert m_max == pytest.approx(2.02e-6, rel=0.01)

    def test_frequency_scaling(self):
        m_min, m_max = design.mass_bounds(30e-6, 0.1)
        m_min4, m_max4 = design.mass_bounds(30e-6, 0.4)
        assert m_min4 == pytest.approx(2.0 * m_min, rel=1e-12)
        assert m_max4 == pytest.approx(16.0 * m_max, rel=1e-12)

    def test_separation_scaling(self):
        m_min, m_max = design.mass_bounds(30e-6, 0.1)
        m_min2, m_max2 = design.mass_bounds(60e-6, 0.1)
        assert m_min2 == pytest.approx(math.sqrt(2.0) * m_min, rel=1e-12)
        assert m_max2 == pytest.approx(8.0 * m_max, rel=1e-12)

    def test_consistency_with_coupling_window(self):
        # g_max = 1/2 translated through g = G M/(d^3 omega^2) is the same
        # upper mass bound.
        d, omega = 30e-6, 0.1
        _, m_max = design.mass_bounds(d, omega)
        g_at_bound = G_NEWTON * m_max / (d**3 * omega**2)
        assert g_at_bound == pytest.approx(0.5, rel=1e-12)


class TestMassBoundsNoisy:
    def test_reference_window_contains_nanogram_scale(self):
        m_min, m_max = design.mass_bounds_noisy(30e-6, 0.1, 1e-64, 1e-4, 10.0)
        assert m_min < 1e-9 < m_max

    def test_zero_noise_floor(self):
        m_min, _ = design.mass_bounds_noisy(30e-6, 0.1, 0.0, 1e-4, 10.0)
        assert m_min == 0.0

    def test_clean_limit_reverts_to_unitary_upper_bound(self):
        _, m_max_noisy = design.mass_bounds_noisy(30e-6, 0.1, 0.0, 1.0, 0.0)
        _, m_max = design.mass_bounds(30e-6, 0.1)
        assert m_max_noisy == pytest.approx(m_max, rel=1e-12)

    def test_monotonicity(self):
        args = (30e-6, 0.1)
        m_max = [design.mass_bounds_noisy(*args, 0.0, 1e-4, n)[1] for n in (0.0, 1.0, 10.0)]
        assert m_max[0] > m_max[1] > m_max[2]
        m_max_s = [design.mass_bounds_noisy(*args, 0.0, s, 1.0)[1] for s in (1e-5, 1e-3, 1.0)]
        assert m_max_s[0] < m_max_s[1] < m_max_s[2]
        m_min = [design.mass_bounds_noisy(*args, s_ff, 1e-4, 1.0)[0] for s_ff in (0.0, 1e-66, 1e-64)]
        assert m_min[0] < m_min[1] < m_min[2]


class TestQuarticRatio:
    def test_validity_edge(self):
        x0, d = 1e-9, 1e-4
        g_edge = 2.0 * (x0 / d) ** 2
        ratio, valid = design.quartic_ratio(g_edge, x0, d)
        assert ratio == pytest.approx(0.1, rel=1e-12)
        assert not valid

    def test_deep_validity(self):
        ratio, valid = design.quartic_ratio(0.01, 1e-4 * 1e-4, 1e-4)
        assert ratio == pytest.approx(2e-7, rel=1e-12)
        assert valid

    def test_divergence_flagged(self):
        ratio, valid = design.quartic_ratio(0.0, 1e-9, 1e-4)
        assert math.isinf(ratio) and not valid


class TestDephasingBudget:
    def test_noise_free_slack(self):
        verdict = design.dephasing_budget(0.0, 0.0, 1.0)
        assert verdict.feasible
        assert verdict.slack == pytest.approx(0.1352730913591274, abs=1e-12)

    def test_unit_dephasing_infeasible(self):
        verdict = design.dephasing_budget(1.0, 0.0, 1.0)
        assert not verdict.feasible
        assert verdict.total_contrast == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_exactly_saturated_budget(self):
        budget = design.dephasing_budget(0.0, 0.0, 0.0).budget
        verdict = design.contrast_budget(budget)
        assert verdict.slack == 0.0
        assert verdict.boundary and not verdict.feasible

    def test_no_coherence_left_is_infeasible(self):
        verdict = design.contrast_budget(math.inf)
        assert not verdict.feasible and verdict.slack == -math.inf


class TestNVOperatingPoint:
    def test_velocity_product_and_frequency(self):
        nv = NVParams(dB=1.0)
        point = design.nv_operating_point(nv, d=30e-6)
        assert point.omega_d == pytest.approx(1.6e-6, rel=0.25)
        assert point.omega == pytest.approx(0.05, rel=0.25)

    def test_consistency_with_detection_constraint(self):
        nv = NVParams(dB=1.0)
        point = design.nv_operating_point(nv, d=30e-6)
        required = math.sqrt(HBAR * (30e-6) ** 3 * point.omega**5 / (120.0 * G_NEWTON))
        assert point.F_q == pytest.approx(required, rel=1e-9)

    def test_gradient_free_product(self):
        nv = NVParams(dB=1.0)
        products = {design.nv_operating_point(nv, d).omega_d for d in (10e-6, 30e-6, 90e-6)}
        assert len({round(p, 18) for p in products}) == 1

    @pytest.mark.parametrize("chi_m", [-6.3e-9, -1e-11, -2.2e-8])
    @pytest.mark.parametrize("d", [10e-6, 30e-6, 1e-3])
    def test_point_lies_on_the_gradient_map(self, chi_m, d):
        point = design.nv_operating_point(NVParams(dB=1.0, chi_m=chi_m), d=d)
        omega, force = nv_map(NVParams(dB=point.dB, chi_m=chi_m))
        assert abs(omega - point.omega) <= 1e-15 * point.omega
        assert abs(force - point.F_q) <= 1e-15 * point.F_q
        required = math.sqrt(HBAR * d**3 * point.omega**5 / (120.0 * G_NEWTON))
        assert point.F_q == pytest.approx(required, rel=1e-12)


_POSITIVE, _NONNEGATIVE = "must be finite and > 0", "must be finite and >= 0"
_SUBNORMAL = "must be >= 2.2250738585072014e-308 (the smallest normal float)"
_UNSTABLE = "outside [0, 1/2); the trap is unstable at g >= 1/2"
_FORCE = "must keep the required force 1/sqrt(120 g) finite"


@pytest.mark.parametrize(
    "function, kwargs, message",
    [
        ("g_bounds", {"x0_over_d": math.nan}, f"x0_over_d=nan {_POSITIVE}"),
        ("g_bounds", {"x0_over_d": 0.1, "n_p": -1.0}, f"n_p=-1.0 {_NONNEGATIVE}"),
        ("g_bounds", {"x0_over_d": 0.1, "s": 2.0}, "squeezing s=2.0 must lie in (0, 1]"),
        ("g_bounds", {"x0_over_d": 0.1, "gamma_x": math.inf}, f"gamma_x=inf {_NONNEGATIVE}"),
        ("mass_bounds", {"d": math.nan, "omega": 1.0}, f"d=nan {_POSITIVE}"),
        ("mass_bounds", {"d": 30e-6, "omega": 0.0}, f"omega=0.0 {_POSITIVE}"),
        ("mass_bounds_noisy", {"s_ff": -1e-64}, f"S_FF=-1e-64 {_NONNEGATIVE}"),
        ("mass_bounds_noisy", {"s": 0.0}, "squeezing s=0.0 must lie in (0, 1]"),
        ("mass_bounds_noisy", {"n_p": math.nan}, f"n_p=nan {_NONNEGATIVE}"),
        ("quartic_ratio", {"g": -0.1, "x0": 1e-9, "d": 30e-6}, f"coupling g=-0.1 {_UNSTABLE}"),
        ("quartic_ratio", {"g": 0.1, "x0": 1e-9, "d": math.nan}, f"d=nan {_POSITIVE}"),
        ("dephasing_budget", {"gamma_z": math.nan}, f"gamma_z=nan {_NONNEGATIVE}"),
        ("contrast_budget", {"total_contrast": -0.1}, "total_contrast=-0.1 must be >= 0"),
        ("contrast_budget", {"total_contrast": math.nan}, "total_contrast=nan must be >= 0"),
        ("g_bounds", {"x0_over_d": 0.01, "s": 5e-324}, f"squeezing s=5e-324 {_SUBNORMAL}"),
        (
            "g_bounds",
            {"x0_over_d": 1e160},
            "x0_over_d=1e+160 put the quartic validity bound out of float range",
        ),
        ("mass_bounds_noisy", {"s": 5e-324}, f"squeezing s=5e-324 {_SUBNORMAL}"),
        ("required_force", {"g": math.inf}, f"coupling g=inf {_POSITIVE}"),
        ("required_force", {"g": math.nan}, f"coupling g=nan {_POSITIVE}"),
        # 1/(120 g) overflows below about 4.6e-311
        ("required_force", {"g": 1e-320}, f"coupling g=1e-320 {_FORCE}"),
        ("required_force", {"g": np.array([1e-3, 4e-311])}, f"coupling g=4e-311 {_FORCE}"),
    ],
)
def test_bad_input_fails_with_one_line_naming_the_value(function, kwargs, message):
    defaults = {
        "mass_bounds_noisy": {"d": 30e-6, "omega": 0.1, "s_ff": 1e-64, "s": 1.0, "n_p": 0.0},
        "dephasing_budget": {"gamma_z": 0.0, "gamma_x": 0.0, "f_q": 1.0},
    }.get(function, {})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(design, function)(**{**defaults, **kwargs})
