#!/usr/bin/env python3
"""Entanglement landscape over the dimensionless parameter plane (f_q, g).

At closure time the two qubits share the entangling phase
phi = 4 pi g f_q^2/omega_g^3 + f_q^2 sin(2 pi/omega_g) while residual
which-path information suppresses coherences by C = 2 f_q^2 sin^2(pi/omega_g).
All three negativity estimates are evaluated on a log-log grid; along the
detection constraint f_q = 1/sqrt(120 g) the leading-order phase is pinned
to pi/20 and the witness negativity approaches sin(pi/20) ~ 0.156 at small g.
"""

import numpy as np

from sgipair import design, dynamics, entanglement
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams

print("witness negativity over a log-log (g, f_q) grid at closure time")
g_axis = np.geomspace(1e-4, 0.4, 7)
fq_axis = np.geomspace(0.3, 30.0, 7)
g_grid, fq_grid = np.meshgrid(g_axis, fq_axis, indexing="ij")
# The negativities need only the phase and the contrast exponents, so the
# whole grid is one call and no 4x4 matrix is formed.
_, contrasts, phase = dynamics.open_qrdm(
    UnitlessParams(f_q=fq_grid, g=g_grid), final_time(g_grid)
)
witness = entanglement.evaluate_negativity(phase, contrasts).witness_trace
print("g\\f_q " + "".join(f"{f:9.3g}" for f in fq_axis))
for g, row in zip(g_axis, witness):
    print(f"{g:6.1e}" + "".join(f"{value:+9.3f}" for value in row))

print()
print("along the detection constraint f_q = 1/sqrt(120 g):")
print("g        f_q       phi       C_g       exact     closed    witness")
for g in np.geomspace(1e-4, 0.3, 8):
    f_q = design.required_force(float(g))
    tau_f = final_time(float(g))
    _, contrasts, phase = dynamics.open_qrdm(UnitlessParams(f_q=f_q, g=float(g)), tau_f)
    result = entanglement.evaluate_negativity(phase, contrasts)
    print(
        f"{g:8.1e} {f_q:9.4f} {phase:9.5f} {contrasts.c_s_np_2:9.5f} "
        f"{result.exact:9.5f} {result.closed_form:9.5f} {result.witness_trace:9.5f}"
    )

print()
print(f"small-g plateau: sin(pi/20) = {np.sin(np.pi / 20):.6f}")
print("full grids as CSV:  sgipair sweep --axis g:1e-4:0.4:60:log "
      "--axis f_q:0.3:30:60:log --out landscape.csv")
