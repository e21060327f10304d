import math
import re
import warnings

import numpy as np
import pytest

from oracles import central_difference_coefficients, taylor_coefficients
from sgipair import potentials as pot
from sgipair.dynamics import ContrastSet

PARAMS = pot.PhysicalParams(
    M=1e-14, omega=1.0, d=1e-4, Q=1e-18, eps_r=5.7, rho_m=3500.0
)

KINDS = ("newton", "coulomb", "casimir")
ANGLES = (0.0, math.pi / 4.0, math.pi / 2.0)


class TestExpansion:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("theta", ANGLES)
    def test_matches_numerical_differentiation(self, kind, theta):
        spec = pot.potential_spec(kind, PARAMS, theta)
        coeffs = pot.expand_potential(spec, PARAMS.M, PARAMS.omega)
        reference = [-r for r in taylor_coefficients(spec, PARAMS.M, PARAMS.omega)]
        closed = [coeffs.f, coeffs.g, coeffs.h, coeffs.p]
        # Row scales from the linear orientation, where nothing vanishes;
        # coefficients that are exactly zero at pi/2 are held to a noise
        # floor relative to that scale instead of a meaningless ratio.
        aligned = pot.potential_spec(kind, PARAMS, 0.0)
        ref_aligned = pot.expand_potential(aligned, PARAMS.M, PARAMS.omega)
        scales = [abs(ref_aligned.f), abs(ref_aligned.g), abs(ref_aligned.h), abs(ref_aligned.p)]
        for value, ref, scale in zip(closed, reference, scales):
            assert abs(value - ref) < max(1e-6 * abs(ref), 1e-9 * scale)

    def test_central_differences_agree_with_fit(self):
        spec = pot.potential_spec("newton", PARAMS, 0.3)
        fit = taylor_coefficients(spec, PARAMS.M, PARAMS.omega)
        stencil = central_difference_coefficients(spec, PARAMS.M, PARAMS.omega)
        for a, b in zip(fit, stencil):
            assert abs(a - b) < 1e-5 * abs(b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_odd_terms_vanish_at_parallel_orientation(self, kind):
        spec = pot.potential_spec(kind, PARAMS, math.pi / 2.0)
        coeffs = pot.expand_potential(spec, PARAMS.M, PARAMS.omega)
        assert coeffs.f == 0.0
        assert coeffs.h == 0.0

    def test_coupling_extremal_in_orientation(self):
        # |g(theta)| peaks at the linear orientations theta = k*pi.  The
        # parallel orientation is also a stationary point of g(theta), and is
        # the weakest of the stationary orientations; it is not a local
        # minimum of |g| pointwise, because the coupling crosses zero nearby.
        def coupling(theta: float) -> float:
            spec = pot.potential_spec("newton", PARAMS, theta)
            return pot.expand_potential(spec, PARAMS.M, PARAMS.omega).g

        thetas = np.linspace(0.0, 2.0 * np.pi, 721)
        values = np.array([abs(coupling(float(t))) for t in thetas])
        for k_pi in (0, 360, 720):
            assert values[k_pi] == values.max()
        critical = {k * np.pi / 2.0: abs(coupling(k * np.pi / 2.0)) for k in range(4)}
        assert critical[np.pi / 2.0] == min(critical.values())
        eps = 1e-6
        slope = (coupling(np.pi / 2.0 + eps) - coupling(np.pi / 2.0 - eps)) / (2 * eps)
        assert abs(slope) < 1e-6 * values.max()

    def test_warns_when_expansion_unreliable(self):
        tight = pot.PhysicalParams(M=1e-30, omega=1.0, d=1e-7)
        spec = pot.potential_spec("newton", tight, 0.0)
        with pytest.warns(UserWarning, match="x0/d"):
            pot.expand_potential(spec, tight.M, tight.omega)

    @pytest.mark.parametrize(
        "spec, masses, message",
        [
            ({"d": -1.0}, {}, "d=-1.0 must be finite and > 0"),
            ({"d": math.nan}, {}, "d=nan must be finite and > 0"),
            ({"theta": math.nan}, {}, "theta=nan must be finite"),
            ({}, {"M": -1.0}, "M=-1.0 must be finite and > 0"),
            ({}, {"M": math.nan}, "M=nan must be finite and > 0"),
            ({}, {"omega": math.inf}, "omega=inf must be finite and > 0"),
        ],
    )
    def test_rejects_bad_geometry(self, spec, masses, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            built = pot.PotentialSpec(**{"A": 1.0, "n": 1, "theta": 0.0, "d": 1e-4, **spec})
            pot.expand_potential(built, **{"M": PARAMS.M, "omega": PARAMS.omega, **masses})


class TestTableCouplings:
    def test_newton_parallel_value(self):
        force, g = pot.table_coupling("newton", "parallel", PARAMS)
        expected = pot.G_NEWTON * PARAMS.M / (PARAMS.d**3 * PARAMS.omega**2)
        assert force == 0.0
        assert g == expected
        assert g == pytest.approx(6.6743e-13, rel=1e-4)

    def test_newton_linear_is_twice_parallel(self):
        _, g_par = pot.table_coupling("newton", "parallel", PARAMS)
        _, g_lin = pot.table_coupling("newton", "linear", PARAMS)
        assert g_lin == 2.0 * g_par

    def test_coulomb_without_charge_is_zero(self):
        uncharged = pot.PhysicalParams(M=1e-14, omega=1.0, d=1e-4, Q=0.0)
        _, g = pot.table_coupling("coulomb", "parallel", uncharged)
        assert g == 0.0

    def test_missing_material_parameters_rejected(self):
        bare = pot.PhysicalParams(M=1e-14, omega=1.0, d=1e-4)
        with pytest.raises(ValueError, match="charge"):
            pot.table_coupling("coulomb", "parallel", bare)
        with pytest.raises(ValueError, match="eps_r"):
            pot.table_coupling("casimir", "linear", bare)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "orientation,theta", [("linear", 0.0), ("parallel", math.pi / 2.0)]
    )
    def test_magnitudes_agree_with_expansion(self, kind, orientation, theta):
        # Catalogue entries are as published; the Coulomb sign differs from the
        # direct expansion (a known sign tension), so only magnitudes match.
        force, g = pot.table_coupling(kind, orientation, PARAMS)
        spec = pot.potential_spec(kind, PARAMS, theta)
        coeffs = pot.expand_potential(spec, PARAMS.M, PARAMS.omega)
        assert abs(g) == pytest.approx(abs(coeffs.g), rel=1e-12)
        assert abs(force) == pytest.approx(abs(coeffs.f), rel=1e-12)


class TestUnitConversion:
    def test_zero_force_maps_to_zero(self):
        p = pot.PhysicalParams(M=1e-14, omega=1.0, d=1e-4, F_q=0.0)
        assert pot.to_unitless(p).f_q == 0.0

    def test_stability_boundary_raises_one_line_naming_the_mass(self):
        # the unitless set holds no unstable coupling: the conversion names M, d and omega
        d, omega = 30e-6, 0.1
        mass = d**3 * omega**2 / (2.0 * pot.G_NEWTON)
        p = pot.PhysicalParams(M=mass, omega=omega, d=d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as error:
                pot.to_unitless(p)
        prefix = f"M={mass}, d=3e-05, omega=0.1 put coupling g="
        suffix = " outside [0, 1/2); the trap is unstable at g >= 1/2"
        message = str(error.value)
        assert message.startswith(prefix) and message.endswith(suffix), message
        assert float(message.removeprefix(prefix).removesuffix(suffix)) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"omega_t": 0.05},
                "omega=0.1, omega_t=0.05 put squeezing s=2.0 must lie in (0, 1]",
            ),
            (
                {"M": 1e-30, "omega": 1e-10, "omega_t": 1e300},
                "omega=1e-10, omega_t=1e+300 put squeezing s=1e-310 must be"
                " >= 2.2250738585072014e-308 (the smallest normal float)",
            ),
            (
                {"M": 1.0, "omega": 1e-90, "d": 1e70, "omega_t": 1e300},
                "omega=1e-90, omega_t=1e+300 put squeezing s=0.0 must lie in (0, 1]",
            ),
            (
                {"M": 1.0, "omega": 1e-90, "d": 1e70, "Gamma_z_phys": 1e300},
                "Gamma_z_phys=1e+300, omega=1e-90 put gamma_z=inf must be finite and >= 0",
            ),
        ],
    )
    def test_derived_field_out_of_domain_names_its_keys(self, fields, message):
        p = pot.PhysicalParams(**{"M": 1e-9, "omega": 0.1, "d": 30e-6, **fields})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pot.to_unitless(p)

    def test_negative_force_is_named_where_it_is_given(self):
        with pytest.raises(ValueError, match=r"^F_q=-1e-20 must be finite and >= 0$"):
            pot.PhysicalParams(M=1e-9, omega=0.1, d=30e-6, F_q=-1e-20)

    def test_squeezing_from_trap_ratio(self):
        p = pot.PhysicalParams(M=1e-14, omega=0.1, d=1e-4, omega_t=1e3)
        assert pot.to_unitless(p).s == pytest.approx(1e-4, rel=1e-12)

    def test_thermal_occupation_follows_bose_statistics(self):
        omega_t, temperature = 1e5, 1e-3
        n_p = pot.thermal_phonons(omega_t, temperature)
        x = pot.HBAR * omega_t / (2.0 * pot.K_BOLTZMANN * temperature)
        assert (1.0 + 2.0 * n_p) == pytest.approx(1.0 / math.tanh(x), rel=1e-12)
        p = pot.PhysicalParams(
            M=1e-14, omega=1.0, d=1e-4, omega_t=omega_t, T_m=temperature
        )
        assert pot.to_unitless(p).n_p == pytest.approx(n_p, rel=1e-12)

    def test_noise_rates(self):
        p = pot.PhysicalParams(
            M=1e-12, omega=0.5, d=1e-4, S_FF=1e-60, Gamma_z_phys=0.01
        )
        u = pot.to_unitless(p)
        assert u.gamma_x == pytest.approx(
            math.pi * 1e-60 / (pot.HBAR * 1e-12 * 0.25), rel=1e-12
        )
        assert u.gamma_z == pytest.approx(0.02, rel=1e-12)


class TestFiniteParameters:
    @pytest.mark.parametrize("name", ["f_q", "g", "n_p", "gamma_x", "gamma_z"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_unitless_field_must_be_finite(self, name, value):
        message = (
            f"coupling g={value} outside [0, 1/2); the trap is unstable at g >= 1/2"
            if name == "g"
            else f"{name}={value} must be finite and >= 0"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pot.UnitlessParams(**{"f_q": 1.0, "g": 0.1, name: value})

    @pytest.mark.parametrize("s", [1e-310, 5e-324, np.array([0.5, 1e-320])])
    def test_subnormal_squeezing_rejected(self, s):
        # 1/s overflows below about 5.6e-309; every subnormal s is refused
        bad = np.min(s)
        message = rf"^squeezing s={bad} must be >= 2\.2250738585072014e-308 \(the smallest normal"
        with pytest.raises(ValueError, match=message):
            pot.UnitlessParams(f_q=1.0, g=0.1, s=s)
        assert pot.UnitlessParams(f_q=1.0, g=0.1, s=np.finfo(float).tiny).s > 0.0

    @pytest.mark.parametrize(
        "name",
        ["M", "omega", "d", "F_q", "S_FF", "Gamma_z_phys", "omega_t", "n_p", "T_m", "Q", "eps_r",
         "rho_m"],
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_physical_field_must_be_finite(self, name, value):
        requirement = {
            "F_q": "finite and >= 0", "S_FF": "finite and >= 0", "Gamma_z_phys": "finite and >= 0",
            "n_p": "finite and >= 0", "T_m": "finite and >= 0", "Q": "finite",
            "eps_r": "finite and >= 1 (a dielectric)",
        }.get(name, "finite and > 0")
        message = f"{name}={value} must be {requirement}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pot.PhysicalParams(**{"M": 1e-14, "omega": 1.0, "d": 1e-4, name: value})

    def test_negative_temperature_rejected(self):
        fields = dict(M=1e-14, omega=1.0, d=1e-4, omega_t=10.0)
        with pytest.raises(ValueError, match=r"^T_m=-5\.0 must be finite and >= 0$"):
            pot.PhysicalParams(**fields, T_m=-5.0)
        assert pot.to_unitless(pot.PhysicalParams(**fields, T_m=0.0)).n_p == 0.0  # ground state

    def test_cold_preparation_trap_empties_smoothly(self):
        # below about T_m = 1.1e-11 K at omega_t = 1e3 rad/s, exp(hbar omega_t/(k_B T_m))
        # overflows; the occupation keeps falling through that edge and ends at 0
        temperatures = [*np.logspace(-3, -15, 241), 1e-300, 5e-324]  # k_B T_m underflows at the last
        occupations = [pot.thermal_phonons(1e3, float(T_m)) for T_m in temperatures]
        assert all(math.isfinite(n_p) and n_p >= 0.0 for n_p in occupations)
        assert all(later <= earlier for earlier, later in zip(occupations, occupations[1:]))
        assert occupations[-1] == 0.0
        fields = dict(M=1e-14, omega=1.0, d=1e-4, omega_t=10.0)
        assert pot.to_unitless(pot.PhysicalParams(**fields, T_m=1e-300)).n_p == 0.0

    def test_occupation_is_unchanged_where_expm1_is_finite(self):
        for x in (1e-3, 1.0, 700.0, 709.78):
            T_m = pot.HBAR * 1e3 / (pot.K_BOLTZMANN * x)
            assert pot.thermal_phonons(1e3, T_m) == 1.0 / math.expm1(
                pot.HBAR * 1e3 / (pot.K_BOLTZMANN * T_m)
            )


# Zeros of both signs, subnormals, the smallest normal float, the edges of (0, 1], a
# value past 1, a tiny negative, NaN and the infinities.
EDGE_VALUES = (
    0.0, -0.0, 5e-324, 1e-310, float(np.finfo(float).tiny), 0.5, 1.0, 1.5, -1e-300,
    math.nan, math.inf, -math.inf,
)
# Scalars can take the early returns of the validation; arrays always take the array test.
FORMS = {
    "float": float,
    "np.float64": np.float64,
    "0-d array": np.array,
    "1-element array": lambda value: np.array([value]),
}


def _nonnegative(value: float) -> bool:
    return math.isfinite(value) and value >= 0.0


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def _finite(value: float) -> bool:
    return math.isfinite(value)


def _dielectric(value: float) -> bool:
    return math.isfinite(value) and value >= 1.0


def _diamagnetic(value: float) -> bool:
    return math.isfinite(value) and value < 0.0


def _stable(value: float) -> bool:
    return 0.0 <= value < 0.5


def _normal_squeezing(value: float) -> bool:
    return np.finfo(float).tiny <= value <= 1.0


def _unitless(name: str):
    return lambda value: pot.UnitlessParams(**{"f_q": 1.0, "g": 0.1, name: value})


def _contrast(name: str):
    return lambda value: ContrastSet(**{name: value})


def _checked(name: str):
    return lambda value: pot._check(name, value)


# The values each domain admits, by UnitlessParams, PhysicalParams or NVParams field, tau,
# theta, x0 or x0_over_d.
ADMITS = {
    "f_q": _nonnegative,
    "g": _stable,
    "s": _normal_squeezing,
    "n_p": _nonnegative,
    "gamma_x": _nonnegative,
    "gamma_z": _nonnegative,
    "tau": _nonnegative,
    **dict.fromkeys(("M", "omega", "d", "omega_t", "rho_m", "dB", "x0", "x0_over_d"), _positive),
    **dict.fromkeys(("F_q", "S_FF", "Gamma_z_phys", "T_m"), _nonnegative),
    **dict.fromkeys(("Q", "theta"), _finite),
    "eps_r": _dielectric,
    "chi_m": _diamagnetic,
}
LABELS = {"g": "coupling g", "s": "squeezing s", "dB": "magnetic gradient dB"}

# (label the message names, check, the values the check admits)
FAST_PATH_CASES = {
    **{
        f"_check({name!r})": (LABELS.get(name, name), _checked(name), admits)
        for name, admits in ADMITS.items()
    },
    **{
        f"UnitlessParams.{name}": (LABELS.get(name, name), _unitless(name), ADMITS[name])
        for name in ("f_q", "g", "s", "n_p", "gamma_x", "gamma_z")
    },
    **{
        f"ContrastSet.{name}": (f"contrast {name}", _contrast(name), lambda value: value >= 0.0)
        for name in ("c_s_np_1", "c_s_np_2", "c_gamma_1", "c_gamma_2", "c_z")
    },
}


def _verdict(check, value) -> str | None:
    """None if ``check(value)`` passes, else the message of its ValueError."""
    try:
        check(value)
    except ValueError as error:
        return str(error)
    return None


class TestScalarFastPaths:
    """The Python-float early returns accept and reject exactly what the array test does."""

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    @pytest.mark.parametrize("case", FAST_PATH_CASES)
    def test_every_form_gets_the_same_verdict(self, case, value):
        label, check, admits = FAST_PATH_CASES[case]
        verdicts = {form: _verdict(check, make(value)) for form, make in FORMS.items()}
        assert len(set(verdicts.values())) == 1, verdicts
        message = verdicts["float"]
        assert (message is None) == admits(value), verdicts
        if message is not None:
            assert message.startswith(f"{label}={np.float64(value)} ")
            assert "\n" not in message

    def test_every_domain_has_a_case(self):
        inputs = {
            *pot.UnitlessParams.__dataclass_fields__, *pot.PhysicalParams.__dataclass_fields__,
            *pot.NVParams.__dataclass_fields__, "tau", "theta", "x0", "x0_over_d",
        }
        assert set(pot._DOMAINS) == set(ADMITS) == inputs

    def test_messages_name_the_requirement(self):
        assert _verdict(_checked("s"), 1.5) == "squeezing s=1.5 must lie in (0, 1]"
        assert _verdict(_checked("s"), 5e-324) == (
            "squeezing s=5e-324 must be >= 2.2250738585072014e-308 (the smallest normal float)"
        )
        assert _verdict(_unitless("g"), -1e-300) == (
            "coupling g=-1e-300 outside [0, 1/2); the trap is unstable at g >= 1/2"
        )
        assert _verdict(_checked("tau"), math.inf) == "tau=inf must be finite and >= 0"
        assert _verdict(_contrast("c_z"), math.nan) == "contrast c_z=nan must be >= 0"


class TestNV:
    def test_linear_in_gradient(self):
        base = pot.NVParams(dB=1e4)
        doubled = pot.NVParams(dB=2e4)
        omega1, force1 = pot.nv_map(base)
        omega2, force2 = pot.nv_map(doubled)
        assert omega2 == pytest.approx(2.0 * omega1, rel=1e-14)
        assert force2 == pytest.approx(2.0 * force1, rel=1e-14)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"chi_m": 1e-9}, "chi_m=1e-09 must be finite and < 0 (diamagnetic trapping)"),
            ({"chi_m": math.nan}, "chi_m=nan must be finite and < 0 (diamagnetic trapping)"),
            ({"dB": 0.0}, "magnetic gradient dB=0.0 must be finite and > 0"),
            ({"dB": math.nan}, "magnetic gradient dB=nan must be finite and > 0"),
            ({"dB": math.inf}, "magnetic gradient dB=inf must be finite and > 0"),
        ],
    )
    def test_bad_material_or_gradient_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pot.NVParams(**{"dB": 1e4, **fields})


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "phys.cfg"
        path.write_text(
            "# a comment\n"
            "M = 1e-12\n"
            "omega = 0.5\n"
            "d = 3e-5\n"
            "F_q = 1e-19  # inline comment\n"
        )
        p, nv = pot.load_config(path)
        assert nv is None
        assert p.M == 1e-12 and p.omega == 0.5 and p.F_q == 1e-19

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "phys.cfg"
        path.write_text("M = 1e-12\nomega = 1.0\nd = 1e-4\nbogus = 3\n")
        with pytest.raises(ValueError, match="bogus"):
            pot.load_config(path)

    @pytest.mark.parametrize(
        "dropped, missing", [("M", "M"), ("omega", "omega"), ("d", "d"), ("omega d", "omega")]
    )
    def test_missing_required_key_rejected(self, tmp_path, dropped, missing):
        # the first key missing in field order, before any PhysicalParams is built
        path = tmp_path / "phys.cfg"
        given = {"M": "1e-12", "omega": "1.0", "d": "1e-4", "F_q": "-1"}
        path.write_text("".join(f"{k} = {v}\n" for k, v in given.items() if k not in dropped.split()))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {missing} is required$"):
            pot.load_config(path)

    def test_nv_key_without_gradient_rejected(self, tmp_path):
        path = tmp_path / "phys.cfg"
        path.write_text("M = 1e-12\nomega = 1.0\nd = 1e-4\nnv_chi_m = -6e-9\n")
        message = rf"^{re.escape(str(path))}: nv_chi_m is given without nv_dB$"
        with pytest.raises(ValueError, match=message):
            pot.load_config(path)

    def test_schema_holds_no_constants_of_nature(self):
        # g-factor, Bohr magneton and mu_0 are module constants, not settings
        assert set(pot.NVParams.__dataclass_fields__) == {"dB", "chi_m"}
        assert pot._CONFIG_KEYS == {*pot.PhysicalParams.__dataclass_fields__, "nv_dB", "nv_chi_m"}
        assert len(pot._CONFIG_KEYS) == 14

    def test_nv_keys_split_out(self, tmp_path):
        path = tmp_path / "phys.cfg"
        path.write_text(
            "M = 1e-12\nomega = 1.0\nd = 1e-4\nnv_dB = 1e5\nnv_chi_m = -6e-9\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            physical, nv = pot.load_config(path)
        assert physical.M == 1e-12
        assert nv is not None and nv.dB == 1e5 and nv.chi_m == -6e-9
