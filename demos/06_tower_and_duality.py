"""Tower embeddings one complex dimension up, and the symplectic duality.

Any generator extends, for each real corner parameter, to a generator one
dimension higher whose quotient geometry contains the original one
totally geodesically; the projective ladder CP^(n-1) c CP^n is the
special case with the matched corner entry.  On the duality side, the
rank-one squaring map realizes the cone of sp(m, R), and the twisted
u(m) cone flow matches the standard symplectic flow of the same twisted
element under the obvious identification of C^m with R^(2m).
"""

import numpy as np

from bkgeom.cone import cp_cone_model, random_type1_cone_model
from bkgeom.tower import (duality_action_check, embed_generator, random_sp, sp_square,
                          verify_tower_geodesic)

np.set_printoptions(precision=4, suppress=True)

print("== the projective ladder ==")
n = 3
A = cp_cone_model(n).generator()
D = embed_generator(A, -1.0 / (2 * (n + 2)))
target = cp_cone_model(n + 1).generator()
print("embed(CP generator, matched corner) agrees with the next CP generator:",
      np.abs(D.matrix - target.matrix).max())

print()
print("== totally geodesic quotient embeddings ==")
for name, model, lam0 in [
        ("projective", cp_cone_model(2), -1.0 / 8.0),
        ("generic", random_type1_cone_model(3, 7), 0.35)]:
    rep = verify_tower_geodesic(model, lam0, samples=2, seed=1)
    print(f"{name:>11s}: max ||II|| = {rep.max_ii:.1e}, perturbed control "
          f"{rep.min_control:.2f}, isometry residual "
          f"{rep.max_isometry_residual:.1e}")

print()
print("== the squaring map of the symplectic side ==")
rng = np.random.default_rng(0)
x = rng.standard_normal(6)
g = random_sp(rng, 6)
lhs = sp_square(g @ x)
rhs = g @ sp_square(x) @ np.linalg.inv(g)
print(f"equivariance of x -> x^2 under Sp: {np.abs(lhs - rhs).max():.2e}")
print(f"sign quotient: ||(x)^2 - (-x)^2|| = "
      f"{np.abs(sp_square(x) - sp_square(-x)).max():.1f}")

print()
print("== paired flows ==")
a = np.diag(1j * np.array([0.4, -0.7, 0.2]))
rep = duality_action_check(a, samples=10, seed=0)
print(f"twisted flow vs realified twisted element: {rep.twisted_residual:.2e}")
print(f"dropping the determinant twist breaks it:  {rep.untwisted_residual:.2f}")
