"""The cone section geometry and the quotient curvature identity.

A diagonal generator cuts a section out of the cone C^n - 0; the quotient
of that section by the generator's flow carries a Kaehler metric whose
curvature is a Bochner-Kaehler template.  For the equal-coefficient model
the section is a round sphere of radius sqrt(2), the generator compressed
onto the contact frame, rho_M = g(F, act F), is -J/2, and the quotient is
projective space with holomorphic sectional curvature 2.

The finite-difference oracle checks the curvature identity

    R_fd = R_(rho~/2),    rho~ = -2 rho_M - |act p|^2 J

pointwise.  rho~ is derived in the tests from the Cahen-Schwachhoefer
normal form of the generator at each point (the g^0 action of its
structure function rho); no constant in it is fitted, and the
wrong-coefficient control below (rho_M doubled) misses by orders of
magnitude.
"""

import numpy as np

from bkgeom.cone import (contact_frame, cp_cone_model, quotient_chart, random_type1_cone_model,
                         rho_frame_matrix, sigma_sample, verify_curvature_prop)
from bkgeom.curvature import KaehlerModel
from bkgeom.fdgeom import sectional

np.set_printoptions(precision=4, suppress=True)

n = 3
model = cp_cone_model(n)
print("== the equal-coefficient (projective) model ==")
print("action coefficients:", model.action_coefficients,
      " section sign:", model.sigma_sign)
p = sigma_sample(model, 0, 1)[0]
print(f"sample section point has |p|^2 = {float(np.vdot(p, p).real):.6f} "
      "(the sqrt(2)-sphere)")

frame = contact_frame(p, model)
print(f"contact frame: {frame.count} vectors, Gram deviation "
      f"{np.abs(frame.metric_gram() - np.eye(frame.count)).max():.1e}")

M = rho_frame_matrix(frame)
J0 = KaehlerModel(n - 1).J
print(f"rho_M in the frame: max |rho_M + J/2| = {np.abs(M + 0.5 * J0).max():.2e}")

chart = quotient_chart(frame)
K = sectional(chart, np.zeros(frame.count), np.eye(frame.count)[0],
              J0 @ np.eye(frame.count)[0])
print(f"holomorphic sectional curvature of the quotient: {K:.6f}")

print()
print("== the curvature identity, projective and generic models ==")
for name, m in [("projective", model), ("generic type 1", random_type1_cone_model(3, 4))]:
    rep = verify_curvature_prop(m, 4, 1e-4, seed=2)
    print(f"{name:>15s}: max residual {rep.max_residual:.2e}, "
          f"wrong-coefficient control is {rep.min_control_ratio:.0f}x worse")
