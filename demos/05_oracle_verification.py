#!/usr/bin/env python3
"""Independent verification of the closed forms, and what it arbitrates.

Two oracles that share no code with the closed forms: fixed-step integration
of the Gaussian moment equations, and truncated-Fock propagation of the
two-qubit x two-mode system in its normal modes, where each QRDM entry is a
product of two single-mode traces.  Beyond confirming the solution, the Fock run
settles a real ambiguity: the closure-time value of the symmetric-mode
contrast is C_g, not 2*C_g, and the intermediate-time form is the
sign-normalized 2 f_q^2 sin^2(tau/2).
"""

import numpy as np

from sgipair import dynamics, oracle
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams

print("fast suite: moment-equation oracle vs closed forms")
report = oracle.verify_moments()
print(report.to_text())
print()

print("Fock arbitration run (f_q = 0.2, g = 0.05, n_max = 24 levels per normal mode):")
params = UnitlessParams(f_q=0.2, g=0.05)
tau_f = final_time(params.g)
grid = np.linspace(0.0, tau_f, 9)
result = oracle.fock_propagate(
    oracle.FockProblem(params=params, tau_grid=grid, n_max=24)
)
phase_closed = dynamics.entangling_phase(params.f_q, params.g, tau_f)
print(f"  leakage {result.leakage:.1e}, trace error {result.trace_error:.1e}")
print(f"  phase: closed {phase_closed:.12f}, oracle {result.phase(-1):.12f}")

c_g = dynamics.final_contrast(params.f_q, params.g)
c2_oracle = float(-np.log(np.abs(4.0 * result.qrdm[-1, 0, 3])) / 4.0)
print(f"  closure contrast: oracle {c2_oracle:.10f}, candidate C_g {c_g:.10f}, "
      f"candidate 2*C_g {2 * c_g:.10f}")
print(f"  -> oracle/C_g = {c2_oracle / c_g:.6f}: the closure constant is C_g")

print()
print("worst QRDM entry deviation along the cycle:")
worst = 0.0
for slot, tau in enumerate(grid):
    closed, _, _ = dynamics.open_qrdm(params, float(tau))
    worst = max(worst, float(np.max(np.abs(closed - result.qrdm[slot]))))
print(f"  {worst:.2e}")
print()
print("the full suite (adds a diffusive run):  sgipair verify --level full")
