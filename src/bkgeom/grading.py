"""The parabolic 2-grading of su(n,1) and its structure functions.

su(n,1) splits as g^-2 + g^-1 + g^0 + g^1 + g^2 under ad of a grading
element whose eigenvalues are the grades.  The extreme pieces are the
real lines spanned by the long-root vectors e_plus2 / e_minus2, realized
here in the standard basis as matrices supported on the last two
coordinates; g^0 = u(n-1) + R*coroot, and g^(+-1) carry a copy of
C^(n-1) each.

Normalized elements of the form

    (1/2) e_minus2 + embed_h(rho) + embed_g1(u) + (f/2) e_plus2

are parameterized by the structure functions (rho, u, f) with
rho in u(n-1), u in C^(n-1), f real.  `structure_functions` inverts this
template after rescaling the input so its g^-2 coefficient is 1/2 (the
applied scale is reported, and a vanishing g^-2 part raises
NormalizationError); `assemble` is the forward map.

Sign conventions are validated numerically, not read off the block
displays: the grading element is normalized so that
[coroot, e_plus2] = +2 e_plus2, and the sl(2) relations
([coroot, e_minus2] = -2 e_minus2, [e_plus2, e_minus2] = -4 coroot)
are asserted by the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import DEFAULT_TOL, HermitianSpace, SuElement

GRADES = (-2, -1, 0, 1, 2)


def _bracket(a, b):
    return a @ b - b @ a


@dataclass(frozen=True, eq=False)
class GradingBasis:
    """Long-root vectors, grading coroot and grade projectors for su(n,1)."""

    space: HermitianSpace
    e_plus2: np.ndarray
    e_minus2: np.ndarray
    coroot: np.ndarray

    @property
    def n(self) -> int:
        return self.space.n

    # -- grade projections -------------------------------------------------

    def project(self, A, grade: int) -> np.ndarray:
        """Component of A in g^grade.

        ad(coroot) is semisimple with spectrum {-2,...,2} on su(n,1), so the
        projector is the Lagrange interpolation polynomial in ad(coroot)
        that is 1 at `grade` and 0 at the other grades; this sums to the
        identity exactly.
        """
        if grade not in GRADES:
            raise ValueError("grade must be in -2..2")
        out = np.asarray(A, dtype=complex)
        for j in GRADES:
            if j != grade:
                out = (_bracket(self.coroot, out) - j * out) / (grade - j)
        return out

    def split(self, A) -> dict[int, np.ndarray]:
        """The five grade components of A; they sum to A."""
        return {k: self.project(A, k) for k in GRADES}

    def h_part(self, A) -> np.ndarray:
        """g^0 component with its coroot multiple removed (the u(n-1) part)."""
        g0 = self.project(A, 0)
        c = self.coroot_coefficient(g0)
        return g0 - c * self.coroot

    def coroot_coefficient(self, A) -> float:
        A = np.asarray(A, dtype=complex)
        denom = np.sum(self.coroot * self.coroot.conj()).real
        return float(np.sum(A * self.coroot.conj()).real / denom)

    def line_coefficient(self, A, grade: int) -> float:
        """Coefficient of e_plus2 / e_minus2 in the grade +-2 component."""
        E = self.e_plus2 if grade == 2 else self.e_minus2
        comp = self.project(A, grade)
        denom = np.sum(E * E.conj()).real
        return float(np.sum(comp * E.conj()).real / denom)

    # -- embeddings --------------------------------------------------------

    def embed_h(self, rho) -> np.ndarray:
        """u(n-1) into g^0: block diag(rho, -tr(rho)/2, -tr(rho)/2)."""
        rho = np.atleast_2d(np.asarray(rho, dtype=complex))
        m = self.n - 1
        if rho.shape != (m, m):
            raise ValueError("rho must be (n-1) x (n-1)")
        out = np.zeros((self.n + 1, self.n + 1), dtype=complex)
        out[:m, :m] = rho
        out[m, m] = out[m + 1, m + 1] = -0.5 * np.trace(rho)
        return out

    def embed_g1(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=complex).reshape(-1)
        m = self.n - 1
        if u.shape != (m,):
            raise ValueError("vector must have length n-1")
        out = np.zeros((self.n + 1, self.n + 1), dtype=complex)
        out[:m, m] = u
        out[:m, m + 1] = u
        out[m, :m] = -u.conj()
        out[m + 1, :m] = u.conj()
        return out

    def extract_g1_vector(self, A) -> np.ndarray:
        """Least-squares read-back of u from a g^1 matrix (averages the four copies)."""
        A = np.asarray(A, dtype=complex)
        m = self.n - 1
        return 0.25 * (A[:m, m] + A[:m, m + 1]
                       - A[m, :m].conj() + A[m + 1, :m].conj())


def grading_basis(n: int, validate: bool = True) -> GradingBasis:
    """Construct the grading data for su(n,1) in the standard basis.

    The long-root matrices are supported on the last two coordinates,

        e_plus2  -> [[ i,  i], [-i, -i]],      e_minus2 -> [[i, -i], [i, -i]],

    and the grading element carries [[0, -1], [-1, 0]] there.  `validate`
    re-checks the sl(2) bracket relations instead of trusting the blocks.
    """
    space = HermitianSpace(n)
    d = n + 1
    ep = np.zeros((d, d), dtype=complex)
    em = np.zeros((d, d), dtype=complex)
    h = np.zeros((d, d), dtype=complex)
    ep[d - 2:, d - 2:] = [[1j, 1j], [-1j, -1j]]
    em[d - 2:, d - 2:] = [[1j, -1j], [1j, -1j]]
    h[d - 2:, d - 2:] = [[0.0, -1.0], [-1.0, 0.0]]
    basis = GradingBasis(space, ep, em, h)
    if validate:
        checks = [
            (_bracket(h, ep) - 2.0 * ep, "[coroot, e_plus2] = 2 e_plus2"),
            (_bracket(h, em) + 2.0 * em, "[coroot, e_minus2] = -2 e_minus2"),
            (_bracket(ep, em) + 4.0 * h, "[e_plus2, e_minus2] = -4 coroot"),
        ]
        for resid, label in checks:
            if np.linalg.norm(resid) > 1e-12:
                raise AssertionError(f"grading bracket relation failed: {label}")
    return basis


@dataclass(frozen=True, eq=False)
class StructureFunctions:
    """(rho, u, f) of the normalized grading template, plus diagnostics."""

    rho: np.ndarray          # (n-1) x (n-1), in u(n-1)
    u: np.ndarray            # length n-1
    f: float
    scale: float             # factor applied to the input before extraction
    residual: float          # relative reconstruction error of the template


class NormalizationError(ValueError):
    """The g^-2 component vanishes, so it cannot be normalized to e_minus2 / 2."""

    def __init__(self, coefficient: float):
        super().__init__("g^-2 component vanishes; cannot normalize")
        self.coefficient = coefficient


def assemble(rho, u, f, basis: GradingBasis) -> np.ndarray:
    """Forward template: e_minus2/2 + embed_h(rho) + embed_g1(u) + f*e_plus2/2."""
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    if rho.size and np.linalg.norm(rho + rho.conj().T) > 1e-8 * max(1.0, np.linalg.norm(rho)):
        raise ValueError("rho is not skew-hermitian")
    return (0.5 * basis.e_minus2 + basis.embed_h(rho)
            + basis.embed_g1(u) + 0.5 * float(f) * basis.e_plus2)


def structure_functions(A: SuElement, basis: GradingBasis | None = None) -> StructureFunctions:
    """Extract (rho, u, f) after normalizing the g^-2 coefficient to 1/2.

    If the g^-2 part of A is c * e_minus2 with c != 0, A is rescaled by
    1/(2c) first and that scale is reported; a vanishing c raises
    NormalizationError.
    The residual field records how far the rescaled input is from the
    exact template span (nonzero g^-1 part or coroot component show up
    there, not as silent errors).
    """
    if basis is None:
        basis = grading_basis(A.space.n, validate=False)
    M = A.matrix
    scale_ref = max(1.0, float(np.linalg.norm(M)))
    c = basis.line_coefficient(M, -2)
    if abs(c) <= DEFAULT_TOL * scale_ref:
        raise NormalizationError(c)
    s = 1.0 / (2.0 * c)
    Mn = s * M
    m = basis.n - 1
    rho = basis.h_part(Mn)[:m, :m].copy()
    u = basis.extract_g1_vector(basis.project(Mn, 1))
    f = 2.0 * basis.line_coefficient(Mn, 2)
    recon = assemble(rho, u, f, basis)
    residual = float(np.linalg.norm(recon - Mn) / max(np.linalg.norm(Mn), 1e-300))
    return StructureFunctions(rho, u, f, s, residual)


def h_action(rho, u) -> np.ndarray:
    """Action of u(n-1) on C^(n-1): rho . u = rho u + tr(rho) u / 2."""
    rho = np.atleast_2d(np.asarray(rho, dtype=complex))
    u = np.asarray(u, dtype=complex).reshape(-1)
    if rho.shape != (u.size, u.size):
        raise ValueError("dimension mismatch between rho and u")
    return rho @ u + 0.5 * np.trace(rho) * u

