"""Sasaki structures, flat metric cones, and the projective quotient.

The circle-action field xi(z) = iz on a round odd sphere is a unit
Killing field satisfying the Sasaki curvature identity; the metric cone
over the sphere is flat, and the quotient by the circle action is
projective space with constant holomorphic sectional curvature.  Each
claim is checked by finite differences, with negative controls showing
the checks have teeth.
"""

import numpy as np

from bkgeom.fdgeom import cone_metric_chart, riemann
from bkgeom.sasaki import cpn_pipeline, ellipsoid_chart, hopf_sphere, sasaki_residual, transversal_J

p = np.array([0.2, -0.1, 0.3])

print("== the unit 3-sphere with its circle action ==")
data = hopf_sphere(3, 1.0)
rep = sasaki_residual(data, p)
print(f"unit length residual    {rep.unit_residual:.2e}")
print(f"Killing residual        {rep.killing_residual:.2e}")
print(f"curvature identity      {rep.identity_residual:.2e}")

J, tj = transversal_J(data, p)
print(f"transversal J: J^2+Id {tj.square_residual:.2e}, "
      f"parallelism on the contact plane {tj.nabla_j_residual:.2e}")

print()
print("== the same checks catch wrong normalizations ==")
bad = sasaki_residual(hopf_sphere(3, 2.0), p)
print(f"radius-2 sphere: unit residual {bad.unit_residual:.1f}, "
      f"identity residual {bad.identity_residual:.1f}")

print()
print("== cones ==")
flat = np.abs(riemann(cone_metric_chart(hopf_sphere(3, 1.0).chart),
                      np.array([0.2, -0.1, 0.3, 1.1]))).max()
curved = np.abs(riemann(cone_metric_chart(ellipsoid_chart(np.array([1.0, 1.3, 1.6, 0.8]))),
                        np.array([0.2, -0.1, 0.3, 1.1]))).max()
print(f"cone over the round sphere:  max |R| = {flat:.2e}  (flat)")
print(f"cone over an ellipsoid:      max |R| = {curved:.2f}  (not flat)")

print()
print("== the full pipeline, sphere -> cone -> projective quotient ==")
for n in (1, 2):
    d = cpn_pipeline(n, 1e-4, seed=0, samples=2).to_dict()
    print(f"n = {n}: cone flatness {d['cone_flatness']:.1e}, relation "
          f"{d['cone_relation_residual']:.1e}, quotient K_hol = "
          f"{d['quotient_hs_mean']:.4f} +- {d['quotient_hs_spread']:.1e}")
