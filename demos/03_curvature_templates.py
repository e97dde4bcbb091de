"""Bochner-Kaehler curvature templates and the one-direction flatness lemma.

A Kaehler metric is Bochner-Kaehler iff its curvature tensor equals
R_rho for some rho in u(n).  The template is linear and injective in rho,
so membership is a least-squares question, and vanishing of R(X0, JX0)
for a single direction already forces rho = 0.
"""

import numpy as np

from bkgeom.curvature import (KaehlerModel, curvature_from_h, curvature_from_rho,
                              direction_flat_check, fit_rho, unitary_algebra_basis)

np.set_printoptions(precision=4, suppress=True)
n = 2
km = KaehlerModel(n)
rng = np.random.default_rng(1)
rho = sum(rng.standard_normal() * b for b in unitary_algebra_basis(n))

print("== template tensor and its symmetries ==")
R = curvature_from_rho(rho, km)
for name, value in R.symmetry_residuals(km).items():
    print(f"{name:>15s}: {value:.2e}")

print()
print("== the two template routes coincide ==")
Rh = curvature_from_h(rho, km)
print("max |R_h - R_rho| =", f"{np.abs(Rh.entries - R.entries).max():.2e}",
      "(the measured proportionality constant is exactly 1)")

print()
print("== least-squares inversion ==")
fit, resid = fit_rho(R, km)
print(f"fit error {np.abs(fit - rho).max():.2e}, residual {resid:.2e}")

print()
print("== constant holomorphic sectional curvature for scalar rho ==")
Rj = curvature_from_rho(-0.5 * km.J, km)
vals = []
for _ in range(200):
    X = rng.standard_normal(2 * n)
    vals.append(Rj.holomorphic_sectional(X / np.linalg.norm(X), km))
print(f"rho = -J/2: K_hol = {np.mean(vals):.6f} +- {np.std(vals):.1e} "
      "(the value is 8c for rho = c J)")

print()
print("== one flat complex direction flattens everything ==")
X0 = rng.standard_normal(2 * n)
rep = direction_flat_check(np.zeros((2 * n, 2 * n)), X0, km)
print(f"kernel of rho -> R_rho(X0, JX0): dimension {rep.kernel_dimension}")
rep = direction_flat_check(-0.5 * km.J, X0, km)
print(f"for rho = -J/2 the hypothesis fails: |R(X0,JX0)| = "
      f"{rep.direction_norm:.3f} (so the lemma is not vacuous)")
