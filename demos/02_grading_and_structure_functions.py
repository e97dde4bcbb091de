"""The parabolic 2-grading of su(n,1) and the structure-function template.

su(n,1) splits into five grades under the bracket with a distinguished
coroot; the extreme grades are lines spanned by long-root vectors.
Normalized elements are parameterized by (rho, u, f) and the extraction
is an exact inverse of the assembly template.
"""

import numpy as np

from bkgeom.cone import cp_cone_model
from bkgeom.grading import assemble, grading_basis, structure_functions
from bkgeom.hermitian import HermitianSpace, random_su, su_element

np.set_printoptions(precision=4, suppress=True)

n = 3
space = HermitianSpace(n)
gb = grading_basis(n)

print("== grade split of a generic element ==")
A = random_su(2, space, "generic")
parts = gb.split(A.matrix)
for k in sorted(parts):
    print(f"grade {k:+d}: norm {np.linalg.norm(parts[k]):.4f}")
resid = np.linalg.norm(sum(parts.values()) - A.matrix)
print(f"components sum back to A up to {resid:.2e}")

print()
print("== bracket grading law ==")
for k, P in sorted(parts.items()):
    r = np.linalg.norm((gb.coroot @ P - P @ gb.coroot) - k * P)
    print(f"[coroot, g^{k:+d}] = {k:+d} * g^{k:+d}  (residual {r:.2e})")

print()
print("== structure functions round trip ==")
rng = np.random.default_rng(0)
rho = rng.standard_normal((n - 1, n - 1)) + 1j * rng.standard_normal((n - 1, n - 1))
rho = 0.5 * (rho - rho.conj().T)
u = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
f = 0.8
el = su_element(assemble(rho, u, f, gb), space)
sf = structure_functions(el, gb)
print(f"|rho - rho'| = {np.abs(sf.rho - rho).max():.2e}, "
      f"|u - u'| = {np.abs(sf.u - u).max():.2e}, |f - f'| = {abs(sf.f - f):.2e}")

print()
print("== the projective-space generator ==")
cp = cp_cone_model(n).generator()
sf = structure_functions(cp, gb)
print("generator diagonal:", np.round(np.diag(cp.matrix), 4))
print(f"extracted at scale {sf.scale:+.1f}:  f = {sf.f:.4f},  |u| = "
      f"{np.linalg.norm(sf.u):.1e}")
print("rho =", np.round(sf.rho, 4).tolist())
print("note: the geometric rho of the same model, computed on the cone")
print("section (demo 04), is -J/2; the algebraic normalization above")
print("lands on +(2/(n+1)) J.  Both are pinned by the test suite.")
