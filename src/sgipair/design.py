"""Experiment-design algebra: detection constraint, coupling and mass windows.

The detection target is fixed: the leading-order entangling phase
6 pi g f_q^2 is pi/20 (``DEFAULT_TARGET_PHASE``), and its zero-contrast
witness negativity sin(pi/20) enters the diffusion and deflection bounds and
the noise budget.  Fixing the phase removes one parameter from the design
space: the required force is f_q = 1/sqrt(120 g).  The remaining coupling
window is bounded below by the validity of the quadratic interaction
treatment (and, with noise, by diffusion) and above by trap stability,
thermal occupation, and squeezing-amplified deflection.  All bound formulas
here are leading order; reports label them as order-of-magnitude statements
and the numeric negativity at the bound points is the sharper check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import G_NEWTON, HBAR, NVParams, nv_map
from .potentials import _check, _in_range, _require

__all__ = [
    "DEFAULT_TARGET_PHASE",
    "ideal_negativity",
    "required_force",
    "GBound",
    "GBoundsReport",
    "g_bounds",
    "mass_bounds",
    "mass_bounds_noisy",
    "quartic_ratio",
    "BudgetVerdict",
    "contrast_budget",
    "dephasing_budget",
    "NVOperatingPoint",
    "nv_operating_point",
]

DEFAULT_TARGET_PHASE = math.pi / 20.0


def ideal_negativity() -> float:
    """Witness negativity sin(pi/20) of the zero-contrast state at the target phase."""
    return math.sin(DEFAULT_TARGET_PHASE)


def required_force(g):
    """Force 1/sqrt(120 g) that brings 6 pi g f_q^2 to the pi/20 target at coupling g.

    Elementwise over an array of g.  A g so small that 1/(120 g) overflows (below about
    4.6e-311) raises one ValueError naming it.
    """
    _require("coupling g", g, np.isfinite(g) & (g > 0.0), "must be finite and > 0")
    with np.errstate(over="ignore"):  # an overflow is named next
        f_q = np.sqrt(DEFAULT_TARGET_PHASE / (6.0 * math.pi * g))
    _require("coupling g", g, np.isfinite(f_q), "must keep the required force 1/sqrt(120 g) finite")
    return f_q


@dataclass(frozen=True)
class GBound:
    """One candidate bound on the coupling with its limiting mechanism."""

    value: float
    mechanism: str
    applies: bool = True


@dataclass(frozen=True)
class GBoundsReport:
    """Feasible coupling window with every candidate bound reported."""

    g_min: float
    g_max: float
    min_mechanism: str
    max_mechanism: str
    lower_candidates: tuple[GBound, ...] = field(default=())
    upper_candidates: tuple[GBound, ...] = field(default=())

    @property
    def feasible(self) -> bool:
        return self.g_min <= self.g_max


def g_bounds(
    x0_over_d: float,
    gamma_x: float = 0.0,
    s: float = 1.0,
    n_p: float = 0.0,
) -> GBoundsReport:
    """Coupling window from quartic validity, diffusion, stability, and state prep.

    Lower candidates: quartic validity 2 (x0/d)^2 and, with diffusion, both
    pi Gamma_x (1+N)/(40 N) and its rounded form Gamma_x/2 (the exact form
    sets the bound; both are reported).  Upper candidates: trap stability
    1/2, ideal-deflection ~0.8 (never binding), thermal 0.8/(1+2 n_p), and
    for squeezed states 0.45 (s/(1+2 n_p))^(1/3), applied when the squeezing
    amplification is active (s < 1 and s above the cube of the squeezed
    candidate itself).
    """
    _check("x0_over_d", x0_over_d)
    _check("gamma_x", gamma_x)
    _check("s", s)
    _check("n_p", n_p)
    n_i = ideal_negativity()
    occupation = 1.0 + 2.0 * n_p

    quartic = _in_range(
        "the quartic validity bound", lambda: 2.0 * x0_over_d**2, {"x0_over_d": x0_over_d}
    )
    lower = [GBound(quartic, "quartic validity")]
    if gamma_x > 0.0:
        lower.append(
            GBound(math.pi * gamma_x * (1.0 + n_i) / (40.0 * n_i), "diffusion")
        )
        lower.append(GBound(gamma_x / 2.0, "diffusion (rounded)", applies=False))
    g_min_bound = max((b for b in lower if b.applies), key=lambda b: b.value)

    deflection = 60.0 * n_i / (math.pi**2 * (1.0 + n_i))
    upper = [
        GBound(0.5, "trap stability"),
        GBound(deflection, "deflection (ideal)", applies=deflection < 0.5),
        GBound(0.8 / occupation, "thermal deflection", applies=n_p > 0.0),
    ]
    squeezed_value = 0.45 * (s / occupation) ** (1.0 / 3.0)
    squeezed_applies = s < 1.0 and s > squeezed_value**3
    upper.append(GBound(squeezed_value, "squeezed deflection", applies=squeezed_applies))
    g_max_bound = min((b for b in upper if b.applies), key=lambda b: b.value)

    return GBoundsReport(
        g_min=g_min_bound.value,
        g_max=g_max_bound.value,
        min_mechanism=g_min_bound.mechanism,
        max_mechanism=g_max_bound.mechanism,
        lower_candidates=tuple(lower),
        upper_candidates=tuple(upper),
    )


def mass_bounds(d: float, omega: float) -> tuple[float, float]:
    """Ideal-dynamics mass window sqrt(hbar d omega/G) <= M <= d^3 omega^2/(2G).

    The lower end keeps the quartic interaction term an order of magnitude
    below the quadratic one; the upper end is trap stability g < 1/2.
    """
    _check("d", d)
    _check("omega", omega)
    m_min = math.sqrt(HBAR * d * omega / G_NEWTON)
    m_max = d**3 * omega**2 / (2.0 * G_NEWTON)
    return m_min, m_max


def mass_bounds_noisy(
    d: float, omega: float, s_ff: float, s: float, n_p: float
) -> tuple[float, float]:
    """Mass window with force noise s_ff and a squeezed thermal initial state.

    M_min = sqrt(pi d^3 S_FF/(2 G hbar)) from the diffusion bound on g;
    M_max = (s/(1+2 n_p))^(1/3) d^3 omega^2/(2G) from squeezing-amplified
    deflection.  At s = 1, n_p = 0 the upper end reverts toward the ideal
    stability bound (up to the 0.45-versus-1/2 prefactor of the two
    leading-order analyses).
    """
    _check("d", d)
    _check("omega", omega)
    _check("S_FF", s_ff)
    _check("s", s)
    _check("n_p", n_p)
    m_min = math.sqrt(math.pi * d**3 * s_ff / (2.0 * G_NEWTON * HBAR))
    m_max = (s / (1.0 + 2.0 * n_p)) ** (1.0 / 3.0) * d**3 * omega**2 / (2.0 * G_NEWTON)
    return m_min, m_max


def quartic_ratio(g: float, x0: float, d: float) -> tuple[float, bool]:
    """Quartic-to-quadratic energy ratio x0^2/(5 d^2 g) and its validity verdict.

    The Gaussian treatment is declared valid when the ratio is below 0.1
    (one order of magnitude); g -> 0 diverges and is flagged invalid.
    """
    _check("g", g)
    _check("x0", x0)
    _check("d", d)
    if g == 0.0:
        return math.inf, False
    ratio = x0**2 / (5.0 * d**2 * g)
    return ratio, ratio < 0.1


@dataclass(frozen=True)
class BudgetVerdict:
    """Feasibility of entanglement detection against the contrast budget."""

    feasible: bool
    boundary: bool
    slack: float
    budget: float
    total_contrast: float


def contrast_budget(total_contrast: float) -> BudgetVerdict:
    """Check a single-flip contrast exponent C against the budget N/(1+N): feasible if C < N/(1+N).

    N is the ideal negativity sin(pi/20), giving a budget of about 0.135.  An infinite C (no
    coherence left) is infeasible.
    """
    _require("total_contrast", total_contrast, total_contrast >= 0.0, "must be >= 0")
    n_i = ideal_negativity()
    budget = n_i / (1.0 + n_i)
    slack = budget - total_contrast
    return BudgetVerdict(
        feasible=slack > 0.0,
        boundary=slack == 0.0,
        slack=slack,
        budget=budget,
        total_contrast=total_contrast,
    )


def dephasing_budget(gamma_z: float, gamma_x: float, f_q: float) -> BudgetVerdict:
    """``contrast_budget`` of the leading-order noise contrasts C_x + C_z.

    C_x = 3 pi Gamma_x f_q^2 and C_z = 2 pi Gamma_z.
    """
    _check("gamma_z", gamma_z)
    _check("gamma_x", gamma_x)
    _check("f_q", f_q)
    return contrast_budget(3.0 * math.pi * gamma_x * f_q**2 + 2.0 * math.pi * gamma_z)


@dataclass(frozen=True)
class NVOperatingPoint:
    """Gradient-driven operating point meeting the detection constraint."""

    dB: float        # magnetic gradient, T/m
    omega: float     # trap frequency, rad/s
    F_q: float       # qubit force, N
    omega_d: float   # the gradient-independent product omega * d, m/s


def nv_operating_point(nv: NVParams, d: float) -> NVOperatingPoint:
    """Solve the detection constraint for the magnetic gradient at separation d.

    omega and F_q are both linear in the gradient (``nv_map``); with their
    values omega_1 and F_1 at 1 T/m, the constraint
    F_q = sqrt(hbar d^3 omega^5 (pi/20)/(6 pi G)) fixes the product omega*d
    independently of the gradient: (omega d)^3 = (6 pi/(pi/20)) G F_1^2/(hbar omega_1^2).
    """
    _check("d", d)
    omega_1, force_1 = nv_map(NVParams(dB=1.0, chi_m=nv.chi_m))
    omega_d = (
        (6.0 * math.pi / DEFAULT_TARGET_PHASE) * G_NEWTON * force_1**2 / (HBAR * omega_1**2)
    ) ** (1.0 / 3.0)
    omega = omega_d / d
    gradient = omega / omega_1
    return NVOperatingPoint(dB=gradient, omega=omega, F_q=force_1 * gradient, omega_d=omega_d)
