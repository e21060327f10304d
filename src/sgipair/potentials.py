"""Two-body potential expansion, coupling catalogue, and unit conversions.

Couplings between two identical trapped masses interacting through a power-law
potential -A/|d|^n are expanded to quartic order in the unitless centre-of-mass
displacements for an arbitrary trap-axis orientation, and the standard
Coulomb / Casimir / Newton entries are provided for the linear (theta = 0) and
parallel (theta = pi/2) geometries.  SI-unit experimental parameters map to the
dimensionless set (f_q, g, s, n_p, Gamma_x, Gamma_z) that fixes the dynamics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "G_NEWTON",
    "HBAR",
    "C_LIGHT",
    "EPSILON_0",
    "MU_0",
    "K_BOLTZMANN",
    "MU_BOHR",
    "NV_G_FACTOR",
    "PotentialSpec",
    "ExpansionCoefficients",
    "PhysicalParams",
    "UnitlessParams",
    "NVParams",
    "expand_potential",
    "table_coupling",
    "to_unitless",
    "nv_map",
    "read_key_values",
    "load_config",
]

# CODATA-2018 values, SI units.
G_NEWTON = 6.67430e-11      # m^3 kg^-1 s^-2
HBAR = 1.054571817e-34      # J s
C_LIGHT = 2.99792458e8      # m / s
EPSILON_0 = 8.8541878128e-12  # F / m
MU_0 = 1.25663706212e-6     # N / A^2
K_BOLTZMANN = 1.380649e-23  # J / K
MU_BOHR = 9.2740100783e-24  # J / T
NV_G_FACTOR = 2.0028        # electron g-factor of the NV centre


def _require(name: str, value, ok, requirement: str) -> None:
    """Raise one ValueError naming the first element of ``value`` where ``ok`` fails.

    ``value`` is a scalar or a grid column and ``ok`` its elementwise domain test.
    A scalar verdict that holds (``True`` or ``np.True_``) returns at once, so a
    scalar point skips the array test; any other verdict takes it.
    """
    if ok is True or ok is np.True_:
        return
    ok = np.asarray(ok)
    if not ok.all():
        raise ValueError(f"{name}={np.asarray(value)[~ok][0]} {requirement}")


def _require_positive(name: str, value) -> None:
    """Raise one ValueError naming ``value`` unless it is finite and > 0."""
    _require(name, value, np.isfinite(value) & (value > 0.0), "must be finite and > 0")


def _named(given: dict[str, float]) -> str:
    """``given`` as the text ``key=value, ...`` that names the inputs of a failed formula."""
    return ", ".join(f"{key}={number}" for key, number in given.items())


def _in_range(quantity: str, formula, given: dict[str, float], ok=math.isfinite):
    """``formula()``, a float or a tuple of floats, if ``ok`` holds for each of them.

    ``given`` are the values the formula reads, by name.  A float overflow (OverflowError),
    a division by a zero that underflowed (ZeroDivisionError) and a value failing ``ok``
    (by default: inf or NaN) all raise one ValueError naming ``quantity`` and ``given``.
    """
    try:
        value = formula()
        good = all(map(ok, value if isinstance(value, tuple) else (value,)))
    except (OverflowError, ZeroDivisionError):
        good = False
    if not good:
        raise ValueError(f"{_named(given)} put {quantity} out of float range")
    return value


def _ground_spread(M: float, omega: float) -> float:
    """Ground-state spread sqrt(hbar / (2 M omega)), m: finite and > 0, or one ValueError."""
    return _in_range(
        "x0",
        lambda: math.sqrt(HBAR / (2.0 * M * omega)),
        {"M": M, "omega": omega},
        lambda x0: 0.0 < x0 < math.inf,
    )


_TINY = float(np.finfo(float).tiny)
_FINITE_NONNEGATIVE = (lambda v: (v >= 0.0) & (v < math.inf), "must be finite and >= 0")

# The domain of each UnitlessParams field and of tau, stated once: the label a message names
# and the stages, each an elementwise test and the requirement it states.  Every test is a
# plain comparison, so a Python float gets a bool (and ``_require``'s early return) with no
# numpy call, and a grid column one array test.  s is (0, 1] and then normal, so that the
# anti-squeezed 1/s is finite; its message names the edge that it crossed.
_DOMAINS = {
    "f_q": ("f_q", (_FINITE_NONNEGATIVE,)),
    "g": (
        "coupling g",
        ((lambda v: (v >= 0.0) & (v < 0.5), "outside [0, 1/2); the trap is unstable at g >= 1/2"),),
    ),
    "s": (
        "squeezing s",
        (
            (lambda v: (v > 0.0) & (v <= 1.0), "must lie in (0, 1]"),
            (lambda v: v >= _TINY, f"must be >= {_TINY} (the smallest normal float)"),
        ),
    ),
    "n_p": ("n_p", (_FINITE_NONNEGATIVE,)),
    "gamma_x": ("gamma_x", (_FINITE_NONNEGATIVE,)),
    "gamma_z": ("gamma_z", (_FINITE_NONNEGATIVE,)),
    "tau": ("tau", (_FINITE_NONNEGATIVE,)),
}


def _check(name: str, value, prefix: str = "") -> None:
    """Raise one ValueError naming the first element of ``value`` outside the domain of ``name``.

    ``name`` is a ``UnitlessParams`` field or ``"tau"``; ``prefix`` goes before the label.
    """
    label, stages = _DOMAINS[name]
    for test, requirement in stages:
        _require(prefix + label, value, test(value), requirement)


@dataclass(frozen=True)
class PotentialSpec:
    """Power-law two-body potential -A/|d|^n at orientation theta.

    theta is the angle between the trap axis (the x direction of motion) and
    the line joining the trap centres; d is the centre separation in metres.
    """

    A: float      # interaction strength, N * m^n
    n: int        # interaction power, >= 1
    theta: float  # orientation angle, radians
    d: float      # trap separation, m

    def __post_init__(self) -> None:
        _require_positive("separation d", self.d)
        _require("theta", self.theta, np.isfinite(self.theta), "must be finite")
        if self.n < 1:
            raise ValueError(f"interaction power n={self.n} must be >= 1")

    def exact(self, delta_x: float) -> float:
        """Potential at physical relative displacement delta_x = X1 - X2 (m)."""
        r2 = (delta_x - self.d * math.cos(self.theta)) ** 2 + (
            self.d * math.sin(self.theta)
        ) ** 2
        return -self.A / r2 ** (self.n / 2.0)


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Unitless expansion 2V/(hbar*omega) = const - f*u - g*u^2 - h*u^3 - p*u^4.

    u = x1 - x2 is the relative displacement in ground-state-spread units;
    the constant term is omitted.
    """

    f: float
    g: float
    h: float
    p: float


@dataclass(frozen=True)
class PhysicalParams:
    """SI-unit experimental parameters of the two-trap qubit-mass system.

    Every field that is given must be finite; eps_r >= 1 (a dielectric) and rho_m > 0.
    """

    M: float                    # mass, kg
    omega: float                # trap angular frequency, rad/s
    d: float                    # trap separation, m
    F_q: float = 0.0            # qubit-controlled force, N
    S_FF: float = 0.0           # force-noise power spectrum, N^2/Hz
    Gamma_z_phys: float = 0.0   # qubit dephasing rate, 1/s
    omega_t: float | None = None  # preparation-trap frequency, rad/s
    n_p: float | None = None    # initial phonon number (overrides T_m)
    T_m: float | None = None    # preparation temperature, K
    Q: float | None = None      # charge, C (Coulomb coupling)
    eps_r: float | None = None  # relative permittivity (Casimir coupling)
    rho_m: float | None = None  # mass density, kg/m^3 (Casimir coupling)

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")
        for name in ("M", "omega", "d", "omega_t", "rho_m"):
            if (value := getattr(self, name)) is not None:
                _require(name, value, value > 0.0, "must be > 0")
        for name in ("S_FF", "Gamma_z_phys", "T_m"):  # T_m = 0 is the ground state
            if (value := getattr(self, name)) is not None:
                _require(name, value, value >= 0.0, "must be >= 0")
        if self.eps_r is not None:
            _require("eps_r", self.eps_r, self.eps_r >= 1.0, "must be >= 1 (a dielectric)")

    @property
    def x0(self) -> float:
        """Ground-state spread sqrt(hbar / (2 M omega)), m."""
        return _ground_spread(self.M, self.omega)


@dataclass(frozen=True)
class UnitlessParams:
    """Dimensionless parameterization of the entangling dynamics.

    Rates are in units of the trap frequency; s and n_p describe the initial
    squeezed thermal state with covariance (1+2n_p)*diag(s, 1/s) per mode.
    Each field is a scalar or a grid column (arrays that broadcast together).
    f_q, n_p, gamma_x and gamma_z are finite and >= 0; 0 <= g < 1/2, since the trap
    is unstable at g >= 1/2; s lies in (0, 1] and is a normal float, so that 1/s is
    finite.  A field outside its domain raises one ValueError naming it.
    """

    f_q: float
    g: float
    s: float = 1.0
    n_p: float = 0.0
    gamma_x: float = 0.0
    gamma_z: float = 0.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            _check(name, getattr(self, name))


@dataclass(frozen=True)
class NVParams:
    """Magnetic parameters tying trap frequency and qubit force to a gradient.

    chi_m is the mass magnetic susceptibility (m^3/kg, negative for
    diamagnets); the qubit force is set by the constants NV_G_FACTOR and MU_BOHR.
    """

    dB: float                   # magnetic gradient, T/m
    chi_m: float = -6.3e-9      # mass susceptibility of diamond, m^3/kg

    def __post_init__(self) -> None:
        _require_positive("magnetic gradient dB", self.dB)
        ok = np.isfinite(self.chi_m) & (self.chi_m < 0.0)
        _require("chi_m", self.chi_m, ok, "must be finite and < 0 (diamagnetic trapping)")


def expand_potential(spec: PotentialSpec, M: float, omega: float) -> ExpansionCoefficients:
    """Quartic Taylor expansion of -A/|d|^n in unitless relative displacement.

    Valid for x0/d << 1; a warning is emitted when x0/d >= 0.1.  The linear
    and cubic coefficients carry cos(theta) factors and vanish identically in
    the parallel orientation theta = pi/2.  Coefficients out of float range
    raise one ValueError naming M, omega and d.
    """
    _require_positive("M", M)
    _require_positive("omega", omega)
    x0 = _ground_spread(M, omega)
    n = spec.n
    cos_t = math.cos(spec.theta)
    if abs(cos_t) < 1e-15:
        cos_t = 0.0  # odd coefficients vanish identically at theta = pi/2

    def coefficients() -> tuple[float, float, float, float]:
        base = spec.A / (HBAR * omega * spec.d**n)
        f = 2.0 * math.sqrt(2.0) * n * base * (x0 / spec.d) * cos_t
        g = n * base * (x0 / spec.d) ** 2 * (n + (n + 2) * math.cos(2.0 * spec.theta))
        h = (
            (2.0 * math.sqrt(2.0) * n * (n + 2) / 3.0)
            * base
            * (x0 / spec.d) ** 3
            * cos_t
            * ((n + 4) * cos_t**2 - 3.0)
        )
        p = (
            (n * (n + 2) / 3.0)
            * base
            * (x0 / spec.d) ** 4
            * ((n + 4) * cos_t**2 * ((n + 6) * cos_t**2 - 6.0) + 3.0)
        )
        return f, g, h, p

    given = {"M": M, "omega": omega, "d": spec.d}
    f, g, h, p = _in_range("the expansion coefficients", coefficients, given)
    if x0 / spec.d >= 0.1:  # after the range check, so a call that fails warns of nothing
        warnings.warn(
            f"x0/d = {x0 / spec.d:.3g} >= 0.1: quartic truncation is unreliable",
            stacklevel=2,
        )
    return ExpansionCoefficients(f=f, g=g, h=h, p=p)


def _casimir_fraction(p: PhysicalParams) -> float:
    """Clausius-Mossotti factor (eps_r - 1)/(eps_r + 2) of the Casimir entries."""
    if p.eps_r is None or p.rho_m is None:
        raise ValueError("Casimir coupling requires eps_r and rho_m")
    return (p.eps_r - 1.0) / (p.eps_r + 2.0)


def _casimir_strength(p: PhysicalParams) -> float:
    eps_frac = _casimir_fraction(p)
    return (207.0 / (64.0 * math.pi**3)) * eps_frac**2 * C_LIGHT * HBAR * p.M**2 / p.rho_m**2


# The config keys that each kind's strength A reads.
_STRENGTH_KEYS = {"newton": ("M",), "coulomb": ("Q",), "casimir": ("eps_r", "rho_m", "M")}


def _given(p: PhysicalParams, *keys: str) -> dict[str, float]:
    """The config values of ``keys`` in ``p``, by name, for ``_in_range``."""
    return {key: getattr(p, key) for key in keys}


def potential_spec(kind: str, p: PhysicalParams, theta: float) -> PotentialSpec:
    """Table entry (A, n) for one of coulomb / casimir / newton at angle theta.

    A strength out of float range raises one ValueError naming the keys it reads.
    """
    if kind == "newton":
        n, strength = 1, lambda: G_NEWTON * p.M**2
    elif kind == "coulomb":
        if p.Q is None:
            raise ValueError("Coulomb coupling requires the charge Q")
        n, strength = 1, lambda: -p.Q**2 / (4.0 * math.pi * EPSILON_0)
    elif kind == "casimir":
        n, strength = 7, lambda: _casimir_strength(p)
    else:
        raise ValueError(f"unknown interaction kind {kind!r}")
    A = _in_range(f"the {kind} strength A", strength, _given(p, *_STRENGTH_KEYS[kind]))
    return PotentialSpec(A=A, n=n, theta=theta, d=p.d)


def _newton_coupling(p: PhysicalParams) -> float:
    """Parallel-geometry Newtonian coupling G M/(d^3 omega^2), unitless."""
    return _in_range(
        "g", lambda: G_NEWTON * p.M / (p.d**3 * p.omega**2), _given(p, "M", "d", "omega")
    )


def table_coupling(kind: str, orientation: str, p: PhysicalParams) -> tuple[float, float]:
    """Catalogue values (mean force, entangling coupling), both unitless.

    The entries are the standard closed forms for the three interactions in
    the two reference geometries; the linear orientation carries a non-zero
    mean force, the parallel orientation does not, and the Newtonian coupling
    is exactly twice as large in the linear geometry.  An unknown kind and a
    missing material parameter fail as in ``potential_spec``.
    """
    if orientation not in ("linear", "parallel"):
        raise ValueError(f"unknown orientation {orientation!r}")
    potential_spec(kind, p, 0.0)

    def entries() -> tuple[float, float]:
        if kind == "newton":
            g_par = _newton_coupling(p)
            force = 2.0 * G_NEWTON * p.M**1.5 / (math.sqrt(HBAR * p.omega**3) * p.d**2)
            linear_ratio = 2.0
        elif kind == "coulomb":
            g_par = -p.Q**2 / (4.0 * math.pi * EPSILON_0 * p.M * p.omega**2 * p.d**3)
            force = -p.Q**2 / (
                2.0 * math.pi * EPSILON_0 * math.sqrt(HBAR * p.M * p.omega**3) * p.d**2
            )
            linear_ratio = 2.0
        else:
            eps_frac = _casimir_fraction(p)
            common = eps_frac**2 * C_LIGHT * HBAR * p.M / (p.omega**2 * p.rho_m**2 * p.d**9)
            g_par = (1449.0 / (64.0 * math.pi**3)) * common
            force = (
                (1449.0 / (32.0 * math.pi**3))
                * eps_frac**2
                * C_LIGHT
                * math.sqrt(HBAR)
                * (p.M / p.omega) ** 1.5
                / (p.d**8 * p.rho_m**2)
            )
            linear_ratio = 8.0
        return (force, linear_ratio * g_par) if orientation == "linear" else (0.0, g_par)

    given = _given(p, *_STRENGTH_KEYS[kind], "M", "omega", "d")
    return _in_range(f"the {kind} catalogue entries", entries, given)


def thermal_phonons(omega_t: float, T_m: float) -> float:
    """Bose occupation 1/(exp(hbar*omega_t/(k_B T)) - 1) of the cooling trap."""
    if T_m <= 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega_t / (K_BOLTZMANN * T_m))


def to_unitless(p: PhysicalParams) -> UnitlessParams:
    """Map SI parameters to the dimensionless dynamical set.

    f_q = F_q/sqrt(hbar M omega^3), g = G M/(d^3 omega^2), s = omega/omega_t,
    Gamma_x = pi S_FF/(hbar M omega^2), Gamma_z = Gamma_z_phys/omega; n_p is
    passed through or derived from (omega_t, T_m).  f_q, g, n_p and Gamma_x out
    of float range raise one ValueError naming the config keys they read; so
    does an f_q whose square, which every phase and contrast carries, overflows,
    and a coupling at or beyond the g = 1/2 stability edge.
    """
    f_q = _in_range(
        "f_q",
        lambda: p.F_q / math.sqrt(HBAR * p.M * p.omega**3),
        _given(p, "F_q", "M", "omega"),
        lambda f_q: math.isfinite(f_q**2),
    )
    g = _newton_coupling(p)
    s = 1.0 if p.omega_t is None else p.omega / p.omega_t
    if p.n_p is not None:
        n_p = p.n_p
    elif p.omega_t is not None and p.T_m is not None:
        n_p = _in_range(
            "n_p", lambda: thermal_phonons(p.omega_t, p.T_m), _given(p, "omega_t", "T_m")
        )
    else:
        n_p = 0.0
    gamma_x = _in_range(
        "gamma_x",
        lambda: math.pi * p.S_FF / (HBAR * p.M * p.omega**2),
        _given(p, "S_FF", "M", "omega"),
    )
    gamma_z = p.Gamma_z_phys / p.omega
    _check("g", g, f"{_named(_given(p, 'M', 'd', 'omega'))} put ")
    return UnitlessParams(f_q=f_q, g=g, s=s, n_p=n_p, gamma_x=gamma_x, gamma_z=gamma_z)


def nv_map(nv: NVParams) -> tuple[float, float]:
    """Trap frequency and qubit force induced by the magnetic gradient.

    omega = sqrt(|chi_m|/MU_0) * dB and F_q = NV_G_FACTOR * MU_BOHR * dB; both
    are linear in dB, so their ratio is gradient-independent.
    """
    omega = math.sqrt(abs(nv.chi_m) / MU_0) * nv.dB
    f_q_newton = NV_G_FACTOR * MU_BOHR * nv.dB
    return omega, f_q_newton


# Config keys: the PhysicalParams fields, and the NVParams fields prefixed ``nv_``.
_CONFIG_KEYS = {*PhysicalParams.__dataclass_fields__} | {
    f"nv_{name}" for name in NVParams.__dataclass_fields__
}


def read_key_values(path: str | Path) -> dict[str, float]:
    """Parse a flat ``name = value`` config file; '#' comments and blank lines ignored.

    Each key is a ``PhysicalParams`` field or an ``nv_``-prefixed ``NVParams``
    field, given once, with a finite number.  Anything else fails as one
    ValueError ``path:line: ...`` naming the key.
    """
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key} is already given on line {lines[key]}")
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} has non-numeric value {text!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: {key}={text} must be finite")
        values[key], lines[key] = value, lineno
    return values


def load_config(path: str | Path) -> tuple[PhysicalParams, NVParams | None]:
    """Read a config file once: its SI-unit physical parameters and magnetic-trap parameters.

    The ``nv_``-prefixed keys give the ``NVParams``; there are none (None)
    without a gradient ``nv_dB``, and then any other ``nv_`` key is an error.
    """
    values = read_key_values(path)
    physical = PhysicalParams(**{k: v for k, v in values.items() if not k.startswith("nv_")})
    nv = {k.removeprefix("nv_"): v for k, v in values.items() if k.startswith("nv_")}
    if nv and "dB" not in nv:
        raise ValueError(f"{path}: nv_{next(iter(nv))} is given without nv_dB")
    return physical, (NVParams(**nv) if nv else None)
