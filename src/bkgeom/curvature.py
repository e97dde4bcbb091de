"""Algebraic Bochner-Kaehler curvature templates on R^(2n).

The flat Kaehler model identifies C^n with R^(2n) by stacking real parts
over imaginary parts, so J0 = [[0, -I], [I, 0]], g0 is the identity and
omega0(x, y) = g0(x, J0 y).

Two equivalent templates produce the admissible curvature tensors:

    R_h(X,Y)   = 2 omega(X,Y) h + X o (hY) - Y o (hX)
    R_rho(X,Y) = 2 g(X,JY) rho + 2 g(X,rho Y) J + (rho Y ^ JX)
                 - (rho X ^ JY) + (X ^ J rho Y) - (Y ^ J rho X)

with (X ^ Y)Z = g(X,Z)Y - g(Y,Z)X and the circle product

    (X o Y)Z = omega(X,Z)Y + omega(Y,Z)X + omega(JX,Z)JY
               + omega(JY,Z)JX + omega(JX,Y)JZ.

Whether the two agree exactly or up to a constant is measured by the test
suite rather than assumed (they agree exactly; see tests).  A metric is
Bochner-Kaehler iff its curvature lies in the image of rho |-> R_rho,
which `fit_rho` decides by least squares: it applies the pseudo-inverse
from one thin SVD of that map's design matrix, taken once per n and
cached.  The circle product and both templates broadcast over leading
axes, so one call evaluates every basis pair of a tensor, or every
element of the u(n) basis at once.

Tensors are stored dense as R[i,j,k,l] = g(R(e_i, e_j) e_k, e_l).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KaehlerModel:
    """Flat Kaehler structure on R^(2n): g0 = I, J0 standard, omega0 = g0(., J0 .)."""

    n: int

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def J(self) -> np.ndarray:
        n = self.n
        J = np.zeros((2 * n, 2 * n))
        J[:n, n:] = -np.eye(n)
        J[n:, :n] = np.eye(n)
        return J


def _require_unitary_algebra(h, model: KaehlerModel, tol: float, name: str) -> None:
    """Refuse h outside u(n) (commutes with J0, g0-skew), naming both residuals
    and the threshold tol * max(1, ||h||)."""
    h = np.asarray(h, dtype=float)
    J = model.J
    commutator = float(np.linalg.norm(h @ J - J @ h))
    skew = float(np.linalg.norm(h + h.T))
    scale = max(1.0, float(np.linalg.norm(h)))
    if not (commutator <= tol * scale and skew <= tol * scale):
        raise ValueError(
            f"{name} is not in u(n): ||[{name}, J0]|| {commutator:.6e}, "
            f"||{name} + {name}^T|| {skew:.6e}, threshold {tol * scale:.6e} "
            f"= {tol:.6e} * max(1, ||{name}||)")


def unitary_algebra_basis(n: int) -> list[np.ndarray]:
    """Real basis of u(n) acting on R^(2n); dimension n^2.

    S + iT skew-hermitian (S real skew, T real symmetric) acts as
    [[S, -T], [T, S]] in the stacked identification.
    """
    skew, sym = [], []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            if i < j:
                skew.append(complex_to_real_endo(E - E.T))
            sym.append(complex_to_real_endo(1j * np.maximum(E, E.T)))
    return skew + sym


def complex_to_real_endo(C) -> np.ndarray:
    """Complex n x n matrix to its real 2n x 2n action in the stacked model."""
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    A, B = C.real, C.imag
    return np.block([[A, -B], [B, A]])


def to_real(z) -> np.ndarray:
    """Complex vector in C^n to R^(2n): real parts stacked over imaginary parts.

    A stack of vectors (..., n) maps row by row to (..., 2n).
    """
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def _outer(a, b) -> np.ndarray:
    """a b^T over the leading axes of a and b."""
    return a[..., :, None] * b[..., None, :]


def _dot(a, b) -> np.ndarray:
    """a . b over the leading axes, shaped to scale a stack of matrices."""
    return np.sum(a * b, axis=-1)[..., None, None]


def circle(X, Y, model: KaehlerModel) -> np.ndarray:
    """The u(n)-valued circle product as an endomorphism of R^(2n)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    J = model.J
    JX, JY = X @ J.T, Y @ J.T
    # omega(A, Z) = (J^T A) . Z appears as the row covector A J
    return (_outer(Y, X @ J) + _outer(X, Y @ J)
            + _outer(JY, JX @ J) + _outer(JX, JY @ J)
            + _dot(JX, JY) * J)


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """Dense rank-4 tensor with Kaehler curvature symmetries."""

    n: int
    entries: np.ndarray  # shape (2n, 2n, 2n, 2n)

    def sectional(self, X, Y) -> float:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        num = np.einsum("ijkl,i,j,k,l->", self.entries, X, Y, Y, X)
        den = (X @ X) * (Y @ Y) - (X @ Y) ** 2
        if den <= 1e-14 * max(1.0, X @ X) * max(1.0, Y @ Y):
            raise ValueError("degenerate plane")
        return float(num / den)

    def holomorphic_sectional(self, X, model: KaehlerModel) -> float:
        return self.sectional(X, model.J @ np.asarray(X, dtype=float))

    def symmetry_residuals(self, model: KaehlerModel) -> dict[str, float]:
        R = self.entries
        J = model.J
        rj = np.einsum("ia,jb,abkl->ijkl", J, J, R)
        return {
            "antisym_first": float(np.abs(R + np.swapaxes(R, 0, 1)).max()),
            "antisym_last": float(np.abs(R + np.swapaxes(R, 2, 3)).max()),
            "pair_symmetry": float(np.abs(R - np.transpose(R, (2, 3, 0, 1))).max()),
            "bianchi": float(np.abs(R + np.transpose(R, (1, 2, 0, 3))
                                    + np.transpose(R, (2, 0, 1, 3))).max()),
            "j_invariance": float(np.abs(rj - R).max()),
        }


def _tensor_from_pair_endos(model: KaehlerModel, endo_of_pairs) -> np.ndarray:
    """Entries R[..., i, j, k, l] from one call of endo_of_pairs on all e_i, e_j with i < j.

    R[j, i] = -R[i, j] and R[i, i] = 0 are filled in, not evaluated, so they
    hold exactly even for an input that is skew only within tolerance.
    """
    d = model.dim
    i, j = np.triu_indices(d, 1)
    eye = np.eye(d)
    E = np.swapaxes(endo_of_pairs(eye[i], eye[j]), -1, -2)  # [k,l] = g(E e_k, e_l) = E[l,k]
    R = np.zeros(E.shape[:-3] + (d, d, d, d))
    R[..., i, j, :, :] = E
    R[..., j, i, :, :] = -E
    return R


def curvature_from_h(h, model: KaehlerModel, tol: float = 1e-10) -> CurvatureTensor:
    """Template R_h built from the circle product; rejects h outside u(n)."""
    h = np.asarray(h, dtype=float)
    _require_unitary_algebra(h, model, tol, "h")

    def endo(X, Y):
        return (2.0 * _dot(X, Y @ model.J.T) * h
                + circle(X, Y @ h.T, model) - circle(Y, X @ h.T, model))

    return CurvatureTensor(model.n, _tensor_from_pair_endos(model, endo))


def rho_template_endo(rho, X, Y, model: KaehlerModel) -> np.ndarray:
    """R_rho(X, Y) as an endomorphism, straight from the template."""
    rho = np.asarray(rho, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    J = model.J

    def wedge(a, b):
        return _outer(b, a) - _outer(a, b)

    JX, JY = X @ J.T, Y @ J.T
    rX, rY = (np.einsum("...kl,...l->...k", rho, V) for V in (X, Y))
    return (2.0 * _dot(X, JY) * rho + 2.0 * _dot(X, rY) * J
            + wedge(rY, JX) - wedge(rX, JY)
            + wedge(X, rY @ J.T) - wedge(Y, rX @ J.T))


def curvature_from_rho(rho, model: KaehlerModel, tol: float = 1e-10) -> CurvatureTensor:
    """Template R_rho (the defining Bochner-Kaehler form); rejects rho outside u(n)."""
    rho = np.asarray(rho, dtype=float)
    _require_unitary_algebra(rho, model, tol, "rho")
    return CurvatureTensor(model.n, _tensor_from_pair_endos(
        model, lambda X, Y: rho_template_endo(rho, X, Y, model)))


def _lstsq_rank(s, shape) -> int:
    """Singular values above lstsq's default cutoff eps * max(shape) * s_0."""
    return int(np.sum(s > np.finfo(float).eps * max(shape) * s[0]))


@functools.lru_cache(maxsize=None)   # an entry holds 256 n^6 bytes: 1 MB at n = 4
def _rho_design(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The u(n) basis (n^2, 2n, 2n), the (2n)^4 x n^2 design matrix of
    rho |-> R_rho, its pseudo-inverse and its singular values (descending).

    Column a of the design is R_rho for rho = basis[a], flattened.  The
    pseudo-inverse comes from one thin SVD and inverts only the singular
    values above lstsq's default cutoff eps * max(shape) * s_0.  All four
    arrays are read-only: every caller shares them.
    """
    model = KaehlerModel(n)
    basis = np.array(unitary_algebra_basis(n))
    design = _tensor_from_pair_endos(
        model, lambda X, Y: rho_template_endo(basis[:, None], X, Y, model)
    ).reshape(len(basis), -1).T
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = _lstsq_rank(s, design.shape)
    pinv = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
    for shared in (basis, design, pinv, s):
        shared.setflags(write=False)
    return basis, design, pinv, s


def fit_rho(R: CurvatureTensor, model: KaehlerModel | None = None):
    """Least-squares inverse of rho |-> R_rho by the cached pseudo-inverse.

    Returns (rho, residual): rho minimizing ||R - R_rho||_F and the attained
    Frobenius residual.  The normal equations are strictly convex (the map
    is injective; see `rho_map_rank`), so the minimizer is unique; a design
    with a singular value at or below lstsq's default cutoff is refused.
    """
    model = model or KaehlerModel(R.n)
    basis, A, pinv, s = _rho_design(model.n)
    if _lstsq_rank(s, A.shape) < len(basis):
        raise np.linalg.LinAlgError("curvature template family is rank-deficient")
    target = R.entries.ravel()
    coef = pinv @ target
    rho = np.tensordot(coef, basis, axes=1)
    resid = float(np.linalg.norm(A @ coef - target))
    return rho, resid


def rho_map_rank(model: KaehlerModel) -> tuple[int, int]:
    """(numerical rank, expected rank n^2) of the linear map rho -> R_rho."""
    basis, _, _, s = _rho_design(model.n)
    rank = int(np.sum(s > 1e-8 * s[0]))
    return rank, len(basis)


@dataclass(frozen=True)
class DirectionFlatReport:
    """Mechanization of: R(X0, JX0) = 0 for one direction forces flatness."""

    direction_norm: float      # ||R_rho(X0, JX0)||
    rho_norm: float
    kernel_dimension: int      # of rho |-> R_rho(X0, JX0); 0 forces global flatness


def direction_flat_check(rho, X0, model: KaehlerModel) -> DirectionFlatReport:
    """Evaluate R_rho(X0, JX0) and the kernel of the direction-evaluation map.

    The kernel dimension is computed from the matrix whose columns are the
    direction evaluations of a u(n) basis; full column rank means the only
    rho with R_rho(X0, JX0) = 0 is rho = 0, i.e. the curvature vanishes
    identically whenever it vanishes on one complex direction.
    """
    rho = np.asarray(rho, dtype=float)
    _require_unitary_algebra(rho, model, 1e-8, "rho")
    X0 = np.asarray(X0, dtype=float)
    X0 = X0 / np.linalg.norm(X0)
    JX0 = model.J @ X0
    E = rho_template_endo(rho, X0, JX0, model)
    basis, A, _, _ = _rho_design(model.n)
    # column a is R_(basis[a])(X0, JX0), read off the design matrix
    cols = np.einsum("ijka,i,j->ka", A.reshape(X0.size, X0.size, -1, len(basis)), X0, JX0)
    s = np.linalg.svd(cols, compute_uv=False)
    kernel_dim = len(basis) - int(np.sum(s > 1e-8 * s[0]))
    return DirectionFlatReport(float(np.linalg.norm(E)), float(np.linalg.norm(rho)), kernel_dim)
