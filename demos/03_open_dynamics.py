#!/usr/bin/env python3
"""Open dynamics: squeezed thermal preparation, diffusion, and dephasing.

Cooling in a stiff trap and releasing into the soft measurement trap leaves
each oscillator in a squeezed thermal state, covariance
(1+2 n_p) diag(s, 1/s) per mode.  Momentum diffusion (rate gamma_x) and
qubit dephasing (rate gamma_z) then erode the coherences.  The entangling
phase is exactly unchanged by all of it - only the contrast exponents grow -
which is what makes the phase a robust observable.
"""

import numpy as np

from sgipair import design, dynamics, entanglement
from sgipair.phase_space import final_time
from sgipair.potentials import UnitlessParams

IDEAL = UnitlessParams(f_q=0.9, g=0.12)
NOISY = UnitlessParams(f_q=0.9, g=0.12, s=1e-2, n_p=5.0, gamma_x=0.02, gamma_z=0.01)

tau_f = final_time(IDEAL.g)
print("contrast exponents along the interferometer cycle (noisy case):")
print("tau/tau_f  C_hd_anti  C_hd_sym   C_diff_1   C_diff_2   C_z        phase")
for fraction in np.linspace(0.0, 1.0, 6):
    tau = float(fraction * tau_f)
    _, contrasts, phase = dynamics.open_qrdm(NOISY, tau)
    print(
        f"  {fraction:5.2f}    {contrasts.c_s_np_1:9.4f}  {contrasts.c_s_np_2:9.4f} "
        f"{contrasts.c_gamma_1:9.4f}  {contrasts.c_gamma_2:9.4f}  "
        f"{contrasts.c_z:9.4f}  {phase:8.5f}"
    )

_, _, phase_ideal = dynamics.open_qrdm(IDEAL, tau_f)
_, contrasts_noisy, phase_noisy = dynamics.open_qrdm(NOISY, tau_f)
print()
print(f"phase, ideal vs noisy at closure: {phase_ideal:.12f} vs {phase_noisy:.12f} "
      f"(difference {abs(phase_ideal - phase_noisy):.1e})")
print("the antisymmetric-mode mismatch closes exactly at tau_f: "
      f"C_hd_anti(tau_f) = {contrasts_noisy.c_s_np_1:.2e}")

print()
print("negativity along the detection constraint with state preparation and noise")
print("(squeezed thermal n_p = 100, s = 1e-4, diffusion gamma_x as marked):")
print("g        witness(ideal)  witness(gx=0)   witness(gx=0.005) witness(gx=0.02)")
for g in np.geomspace(2e-3, 0.3, 8):
    f_q = design.required_force(float(g))
    tau = final_time(float(g))
    values = []
    for gamma_x in (None, 0.0, 0.005, 0.02):
        if gamma_x is None:
            params = UnitlessParams(f_q=f_q, g=float(g))
        else:
            params = UnitlessParams(
                f_q=f_q, g=float(g), s=1e-4, n_p=100.0, gamma_x=gamma_x
            )
        rho, contrasts, phase = dynamics.open_qrdm(params, tau)
        values.append(entanglement.evaluate_negativity(phase, contrasts).witness_trace)
    print(
        f"{g:8.1e} {values[0]:+14.5f} {values[1]:+14.5f} "
        f"{values[2]:+16.5f} {values[3]:+15.5f}"
    )

print()
print("diffusion kills small couplings first (strong coupling is required);")
print("squeezing-amplified deflection kills large couplings: a finite window survives.")
