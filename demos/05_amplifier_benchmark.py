#!/usr/bin/env python3
"""Gaussian amplification: closed form against the kinetic integrator.

A heat bath of mean occupation m pumping a mode at rate kappa has an
exact reduced-field trajectory and, equivalently, constant kinetic
generators gamma_up = 2 kappa (1 + m), gamma_down = 2 kappa m.  Running
the generic integrator against the closed form is therefore a
calibration benchmark for the whole kinetics stack: any systematic
integrator error would show up here first.
"""

import numpy as np

from rsfield.amplifier import AmplifierSpec, amplified_rsf, amplifier_bogoliubov, amplifier_generators
from rsfield.kinetics import integrate_kinetics
from rsfield.numerics import max_abs
from rsfield.rsf import transform_open_vacuum_env, vacuum
from rsfield.symplectic import is_classical_closed, is_classical_open

print("=" * 70)
print("1. Vacuum growth at unit rate: r(t) = e^{2t} - 1")
print("=" * 70)
spec = AmplifierSpec(kappa=1.0, m=0.0)
rf0, _ = vacuum(1)
times = np.linspace(0.0, 1.0, 5)
r, _ = integrate_kinetics(rf0, amplifier_generators(spec), 0.0, times,
                          rtol=1e-11, atol=1e-13)
print("   t     kinetic r(t)    closed form     |difference|")
for t, r_k in zip(times, r):
    closed_r, _ = amplified_rsf(spec, rf0, float(t))
    diff = max_abs(r_k - closed_r)
    print(f"  {t:4.2f}   {r_k[0, 0].real:.10f}   "
          f"{closed_r[0, 0].real:.10f}   {diff:.2e}")
print(f"r(1) = {r[-1][0, 0].real:.7f}   (e^2 - 1 = {np.e**2 - 1:.7f})")

print()
print("=" * 70)
print("2. Two modes, thermal baths, still exact")
print("=" * 70)
spec2 = AmplifierSpec(kappa=[1.0, 2.0], m=[0.5, 0.0])
gens = amplifier_generators(spec2)
print("gamma_up  =", np.diag(gens.gamma_up).real, "  (2 kappa (1 + m))")
print("gamma_down=", np.diag(gens.gamma_down).real, "  (2 kappa m)")
rf0, _ = vacuum(2)
r, _ = integrate_kinetics(rf0, gens, 0.0, [1.0], rtol=1e-11, atol=1e-13)
closed_r, _ = amplified_rsf(spec2, rf0, 1.0)
print("occupations at t=1:", r[0].diagonal().real.round(6))
print("closed form       :", closed_r.diagonal().real.round(6))

print()
print("=" * 70)
print("3. The related discrete squeeze family and its classicality")
print("=" * 70)
m = amplifier_bogoliubov(1.0, 0.3)
print("x_up block scale  : cosh(0.3) =", f"{np.cosh(0.3):.6f}")
print(f"classical (closed): {is_classical_closed(m)}   "
      f"classical (open): {is_classical_open(m)}")
out = transform_open_vacuum_env(vacuum(1)[0], m)
print(f"vacuum -> occupation sinh^2(0.3) = {out.r[0, 0].real:.8f}")
print("note: this discrete family grows like cosh(kt); the continuous")
print("amplifier above grows like e^{kt} -- related but distinct objects.")
