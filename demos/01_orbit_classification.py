"""Classify su(n,1) generators into the five adjoint-orbit types.

Every generator of the construction is a traceless matrix that is
skew-adjoint for the signature-(n,1) hermitian form.  Its orbit type is
read off the Jordan structure: diagonalizable imaginary spectrum (type 1),
a single 2-block with a sign invariant (2a/2b), a single 3-block (3), or
an eigenvalue pair off the imaginary axis (4).  The type is a complete
local invariant of the geometry the generator produces.
"""

import numpy as np

from bkgeom.hermitian import HermitianSpace, random_su, su_element, wedge_j
from bkgeom.orbits import canonical_basis, char_poly, classify

space = HermitianSpace(3)
np.set_printoptions(precision=4, suppress=True, linewidth=120)

print("== one representative per orbit type (n = 3) ==")
for profile in ("diagonal-imaginary", "rank1", "jordan2", "jordan3", "split-real"):
    A = random_su(0, space, profile)
    ot = classify(A)
    print(f"{profile:>20s} -> type {ot.tag:3s} invariants {ot.invariant_data}")

print()
print("== the rank-one pair: x ^ Jx and its negation ==")
x = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)  # null for the standard form
W = su_element(wedge_j(x, space), space)
print("classify( x ^ Jx) :", classify(W).tag)
print("classify(-x ^ Jx) :", classify(su_element(-W.matrix, space)).tag)
print("the two rank-one orbits differ exactly by the sign invariant")

print()
print("== canonical bases ==")
A = random_su(5, space, "jordan3")
cb = canonical_basis(A)
print("canonical form (one 3-chain + unitary rest):")
print(np.round(cb.canonical, 4))
print("column Gram (antidiagonal pairing on the chain):")
print(np.round(cb.basis.conj().T @ space.form_matrix @ cb.basis, 6).real)
print(f"conjugation residual {cb.conjugation_residual:.2e}, "
      f"gram residual {cb.gram_residual:.2e}")

print()
print("== the characteristic polynomial separates the types ==")
for profile in ("diagonal-imaginary", "split-real"):
    A = random_su(1, space, profile)
    pc = char_poly(A)
    roots = np.round(np.roots(pc.coefficients), 4)
    print(f"{profile:>20s}: roots {roots}")
