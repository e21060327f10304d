"""Seeded inputs of the three benchmark workloads.

Everything here is pure Python on a ``random.Random(seed)`` stream, so the
same seed gives the same inputs on every machine and Python version.  The
program under test never sees the seed: it receives only the argument lists
and point files built here.
"""

from __future__ import annotations

import math
import random

# Grid shape of the sweep-grid workload: g x s x gamma_x = 10,000 points.
SWEEP_SHAPE = (25, 20, 20)
SWEEP_FIXED = ["--constraint-force", "--np", "5", "--gamma-z", "1e-3", "--negativity", "exact"]
G_MIN, G_MAX = 1e-4, 0.45
S_MIN, S_MAX = 1e-4, 1.0
GAMMA_X_MAX = 0.05

# Points evaluated by one cat-state child process.
CAT_POINTS = 48

VERIFY_ARGS = ["verify", "--level", "full"]

# Order in which oracle.verify_moments runs its cases.
MOMENT_CASES = ("unitary-ground", "unitary-strong", "squeezed-thermal", "diffusive")


def _log_range(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """Sub-range [a, b] of [lo, hi] spanning at least one decade, log-uniform ends."""
    lo_exp, hi_exp = math.log10(lo), math.log10(hi)
    a = rng.uniform(lo_exp, hi_exp - 1.0)
    b = rng.uniform(a + 1.0, hi_exp)
    return max(lo, 10.0**a), min(hi, 10.0**b)


def sweep_axes(seed: int) -> list[tuple[str, float, float, int, bool]]:
    """(name, start, stop, points, log) of the three sweep axes for a seed."""
    rng = random.Random(seed)
    g_lo, g_hi = _log_range(rng, G_MIN, G_MAX)
    s_lo, s_hi = _log_range(rng, S_MIN, S_MAX)
    gx_lo = rng.uniform(0.0, 0.4 * GAMMA_X_MAX)
    gx_hi = rng.uniform(gx_lo + 0.2 * GAMMA_X_MAX, GAMMA_X_MAX)
    n_g, n_s, n_gx = SWEEP_SHAPE
    return [
        ("g", g_lo, g_hi, n_g, True),
        ("s", s_lo, s_hi, n_s, True),
        ("gamma_x", gx_lo, gx_hi, n_gx, False),
    ]


def sweep_argv(seed: int, out_path: str) -> list[str]:
    """Arguments of the single ``sgipair sweep`` call of the sweep-grid workload."""
    argv = ["sweep"]
    for name, start, stop, points, log in sweep_axes(seed):
        argv += ["--axis", f"{name}:{start!r}:{stop!r}:{points}:{'log' if log else 'linear'}"]
    return argv + SWEEP_FIXED + ["--out", out_path]


def sweep_points() -> int:
    n_g, n_s, n_gx = SWEEP_SHAPE
    return n_g * n_s * n_gx


def verify_argv(json_path: str, text_path: str) -> list[str]:
    """Arguments of the ``sgipair verify --level full`` call; the seed has no say."""
    return VERIFY_ARGS + ["--json-out", json_path, "--out", text_path]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def cat_points(seed: int, count: int = CAT_POINTS) -> list[dict[str, float]]:
    """Latin-hypercube points inside the stated domain, with tau up to closure.

    Each of the seven coordinates is split into ``count`` strata and every
    stratum is hit once, so different seeds cover the domain equally and
    the per-point cost distribution barely moves between seeds.  gamma_x is
    kept positive so every point runs the diffusive memory integrals.
    """
    rng = random.Random(seed)
    columns = []
    for _ in range(7):
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([(k + rng.random()) / count for k in strata])
    points = []
    for u_fq, u_g, u_s, u_np, u_gx, u_gz, u_tau in zip(*columns):
        g = _log_uniform(u_g, 1e-3, G_MAX)
        closure = 2.0 * math.pi / math.sqrt(1.0 - 2.0 * g)
        points.append(
            {
                "f_q": 0.1 + 1.9 * u_fq,
                "g": g,
                "s": _log_uniform(u_s, 1e-3, 1.0),
                "n_p": 5.0 * u_np,
                "gamma_x": 1e-3 + (GAMMA_X_MAX - 1e-3) * u_gx,
                "gamma_z": 1e-2 * u_gz,
                "tau": (0.1 + 0.9 * u_tau) * closure,
            }
        )
    return points
