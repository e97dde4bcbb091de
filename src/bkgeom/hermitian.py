"""Linear algebra over the indefinite hermitian form of signature (n, 1).

Conventions used throughout the package:

* The ambient space is V = C^(n+1) with the hermitian form

      h(x, y) = sum_{i<=n} x_i conj(y_i) - x_{n+1} conj(y_{n+1}),

  linear in the first argument.  Its real part g = Re h is a real inner
  product of signature (2n, 2), its imaginary part omega = Im h is a
  symplectic form, and J (multiplication by i) ties them together via
  omega(x, y) = g(x, Jy).
* u(n,1) is the set of endomorphisms A with h(Av, w) + h(v, Aw) = 0,
  i.e. A^* H + H A = 0 where H is the Gram matrix of h; su(n,1) adds
  trace(A) = 0.  Membership is certified numerically with a recorded
  tolerance, never assumed.
* Non-standard Gram matrices enter only through
  :meth:`HermitianSpace.from_gram`, which re-diagonalizes to the
  standard form diag(1, ..., 1, -1) and hands back the basis change.

All values are immutable after construction and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


DEFAULT_TOL = 1e-10

_PROFILES = (
    "generic",
    "diagonal-imaginary",
    "rank1",
    "jordan2",
    "jordan3",
    "split-real",
)


class HermitianSpaceError(ValueError):
    """Raised for malformed spaces (wrong signature, non-hermitian Gram)."""


@dataclass(frozen=True)
class HermitianSpace:
    """C^(n+1) with a signature-(n,1) hermitian form in diagonal standard form."""

    n: int
    form_matrix: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1:
            raise HermitianSpaceError("need n >= 1")
        if self.form_matrix is None:
            H = np.eye(self.n + 1, dtype=complex)
            H[self.n, self.n] = -1.0
            object.__setattr__(self, "form_matrix", H)
        H = np.asarray(self.form_matrix, dtype=complex)
        if H.shape != (self.n + 1, self.n + 1):
            raise HermitianSpaceError("form matrix has wrong shape")
        if np.linalg.norm(H - H.conj().T) > 1e-12 * max(1.0, np.linalg.norm(H)):
            raise HermitianSpaceError("form matrix is not hermitian")
        eig = np.linalg.eigvalsh(H)
        if np.sum(eig > 0) != self.n or np.sum(eig < 0) != 1:
            raise HermitianSpaceError("form matrix does not have signature (n, 1)")
        object.__setattr__(self, "form_matrix", H)

    @property
    def dim(self) -> int:
        return self.n + 1

    @classmethod
    def from_gram(cls, gram) -> tuple["HermitianSpace", np.ndarray]:
        """Re-diagonalize an arbitrary signature-(n,1) Gram matrix.

        Returns (space, B) with B^* gram B = diag(1,...,1,-1); columns of B
        are the new basis expressed in the old one.  Every computation in
        this package happens in the standard basis.
        """
        G = np.asarray(gram, dtype=complex)
        if np.linalg.norm(G - G.conj().T) > 1e-10 * max(1.0, np.linalg.norm(G)):
            raise HermitianSpaceError("Gram matrix is not hermitian")
        w, U = np.linalg.eigh(G)
        order = np.argsort(-w)  # positives first, the single negative last
        w, U = w[order], U[:, order]
        n = G.shape[0] - 1
        if np.sum(w > 0) != n or np.sum(w < 0) != 1:
            raise HermitianSpaceError("Gram matrix does not have signature (n, 1)")
        B = U / np.sqrt(np.abs(w))[None, :]
        return cls(n), B

    # -- form evaluations ------------------------------------------------

    def herm(self, x, y) -> complex:
        """h(x, y), linear in x, conjugate-linear in y."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("vector dimension does not match the space")
        return complex(y.conj() @ (self.form_matrix @ x))

    def g(self, x, y) -> float:
        """Real part of h: the pseudo-Riemannian inner product."""
        return self.herm(x, y).real

    def omega(self, x, y) -> float:
        """Imaginary part of h: the symplectic form, omega(x,y) = g(x, Jy)."""
        return self.herm(x, y).imag

    def is_null(self, x, tol: float = DEFAULT_TOL) -> bool:
        x = np.asarray(x, dtype=complex)
        return abs(self.g(x, x)) <= tol * max(1.0, float(np.vdot(x, x).real))


@dataclass(frozen=True)
class SuElement:
    """A matrix certified to lie in su(n,1) within `tolerance_used`."""

    space: HermitianSpace
    matrix: np.ndarray
    tolerance_used: float

    @property
    def n(self) -> int:
        return self.space.n

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    def scaled(self, c: float) -> "SuElement":
        """Rescale by a real constant (stays in su(n,1))."""
        return SuElement(self.space, self.matrix * float(c), self.tolerance_used)


def su_residuals(A, space: HermitianSpace) -> tuple[float, float, float]:
    """(skew-adjointness residual, trace residual, matrix scale) in Frobenius norm."""
    A = np.asarray(A, dtype=complex)
    H = space.form_matrix
    r_skew = float(np.linalg.norm(A.conj().T @ H + H @ A))
    r_tr = float(abs(np.trace(A)))
    scale = max(float(np.linalg.norm(A)), 1e-300)
    return r_skew, r_tr, scale


class SuMembershipError(ValueError):
    """A matrix failed su(n,1) membership: the identity, its residual and the scale."""

    def __init__(self, identity: str, residual: float, scale: float):
        super().__init__(f"not in su(n,1): {identity} residual {residual:.3e}")
        self.identity = identity  # "skew-adjoint" or "traceless"
        self.residual = residual
        self.scale = scale


class NonFiniteError(ValueError):
    """A matrix holds NaN or infinite entries, which no certificate may accept."""


def su_element(A, space: HermitianSpace, tol: float = DEFAULT_TOL) -> SuElement:
    """Certify A in su(n,1) or raise SuMembershipError.

    Residuals are relative to the Frobenius norm of A; the certificate
    records the tolerance that was used.  Non-finite entries raise
    NonFiniteError before any residual is formed.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape != (space.dim, space.dim):
        raise ValueError("matrix dimension does not match the space")
    if not np.isfinite(A).all():
        raise NonFiniteError("matrix has non-finite entries")
    r_skew, r_tr, scale = su_residuals(A, space)
    if r_skew > tol * scale:
        raise SuMembershipError("skew-adjoint", r_skew, scale)
    if r_tr > tol * scale:
        raise SuMembershipError("traceless", r_tr, scale)
    return SuElement(space, A, tol)


def su_project(A, space: HermitianSpace) -> np.ndarray:
    """Project an arbitrary matrix onto su(n,1).

    A |-> (A - H^-1 A^* H)/2 kills the self-adjoint part; subtracting
    trace/(n+1) (purely imaginary for the skew part) restores tracelessness.
    """
    A = np.asarray(A, dtype=complex)
    H = space.form_matrix
    Hinv = np.linalg.inv(H)
    S = 0.5 * (A - Hinv @ A.conj().T @ H)
    return S - (np.trace(S) / space.dim) * np.eye(space.dim)


def wedge_j(x, space: HermitianSpace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The equivariant rank-one map x |-> x ^ Jx.

    (x ^ Jx) z = g(x,z) Jx - g(Jx,z) x, which collapses to
    i * conj(h(x,z)) * x; as a matrix this is i * outer(x, H conj(x)).
    The output lies in u(n,1) and is traceless iff g(x,x) = 0.
    """
    x = np.asarray(x, dtype=complex)
    if np.linalg.norm(x) == 0.0:
        raise ValueError("wedge_j of the zero vector")
    H = space.form_matrix
    return 1j * np.outer(x, H @ x.conj())


def group_conjugator(rng: np.random.Generator, space: HermitianSpace,
                     scale: float = 0.7) -> np.ndarray:
    """A pseudo-random element of SU(n,1) with controlled conditioning.

    exp of a norm-`scale` su(n,1) element; determinant is exactly 1 in
    exact arithmetic since the generator is traceless.
    """
    d = space.dim
    X = su_project(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                   space)
    X *= scale / max(np.linalg.norm(X), 1e-30)
    return scipy.linalg.expm(X)


class _Redraw(Exception):
    """The seeded draw jammed or its derived eigenvalue collided; draw again."""


def _separated_values(rng: np.random.Generator, count: int, taken=(),
                      lo: float = -1.5, hi: float = 1.5,
                      min_sep: float = 0.25) -> list[float]:
    # rejection sampling; deterministic for a fixed generator state
    vals: list[float] = []
    guard = 0
    while len(vals) < count:
        guard += 1
        if guard > 10000:
            raise _Redraw
        c = float(rng.uniform(lo, hi))
        if all(abs(c - v) >= min_sep for v in list(taken) + vals):
            vals.append(c)
    return vals


def _null_pair(space: HermitianSpace):
    # N+ = e1 + e_last and N- = e1 - e_last are null with h(N+, N-) = 2
    d = space.dim
    np_ = np.zeros(d, dtype=complex)
    nm = np.zeros(d, dtype=complex)
    np_[0] = 1.0
    np_[d - 1] = 1.0
    nm[0] = 1.0
    nm[d - 1] = -1.0
    return np_, nm


def _basis_with(space: HermitianSpace, special: list[np.ndarray],
                skip: tuple[int, ...]) -> np.ndarray:
    # columns: the special vectors, then standard e_j for j not in skip
    cols = list(special)
    for j in range(space.dim):
        if j not in skip:
            e = np.zeros(space.dim, dtype=complex)
            e[j] = 1.0
            cols.append(e)
    return np.array(cols, dtype=complex).T


def _from_canonical(space, basis, canon, rng, tol):
    A = basis @ canon @ np.linalg.inv(basis)
    G = group_conjugator(rng, space)
    A = G @ A @ np.linalg.inv(G)
    return su_element(su_project(A, space), space, tol)


def random_su(seed: int, space: HermitianSpace, profile: str = "generic",
              tol: float = DEFAULT_TOL, epsilon: int = 1) -> SuElement:
    """Deterministic pseudo-random su(n,1) elements, by spectral profile.

    profile:
        generic             projection of a dense random matrix
        diagonal-imaginary  diagonalizable, purely imaginary well-separated spectrum
        rank1               x ^ Jx for a random null vector (nilpotent, one 2-block)
        jordan2             one Jordan 2-block with sign invariant `epsilon`
        jordan3             one Jordan 3-block (needs n >= 2)
        split-real          an eigenvalue pair (lam, -conj(lam)) with Re lam != 0

    Constructed profiles draw well-separated eigenvalues so that orbit
    classification at desk tolerances has honest margins, and are
    conjugated by a random SU(n,1) element before certification.  A draw
    whose rejection sampler jams, or whose trace-derived eigenvalue
    collides with the others, is redrawn from seed + 90001.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    try:
        return _draw(np.random.default_rng(seed), space, profile, tol, epsilon)
    except _Redraw:
        return random_su(seed + 90001, space, profile, tol, epsilon)


def _draw(rng: np.random.Generator, space: HermitianSpace, profile: str,
          tol: float, epsilon: int) -> SuElement:
    d = space.dim

    if profile == "generic":
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return su_element(su_project(A, space), space, tol)

    if profile == "diagonal-imaginary":
        lam = _separated_values(rng, space.n)
        last = -sum(lam)
        if any(abs(last - v) < 0.25 for v in lam):
            raise _Redraw
        diag = np.diag(1j * np.array(lam + [last]))
        G = group_conjugator(rng, space)
        A = G @ diag @ np.linalg.inv(G)
        return su_element(su_project(A, space), space, tol)

    if profile == "rank1":
        v = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        v /= np.linalg.norm(v)
        x = np.concatenate([v, [np.linalg.norm(v)]])  # null: (v, ||v||)
        return su_element(wedge_j(x, space), space, tol)

    if profile == "jordan2":
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +-1")
        if space.n == 1:
            lam1, others = 0.0, []   # trace forces the nilpotent block in su(1,1)
        else:
            lam1 = _separated_values(rng, 1)[0]
            singles = _separated_values(rng, space.n - 2, taken=[lam1])
            last = -2.0 * lam1 - sum(singles)
            if any(abs(last - v) < 0.25 for v in singles + [lam1]):
                raise _Redraw
            others = singles + [last]
        npl, nmi = _null_pair(space)
        e1 = npl
        e2 = (-epsilon * 0.5j) * nmi  # h(e1, e2) = epsilon * i
        basis = _basis_with(space, [e1, e2], skip=(0, d - 1))
        canon = np.diag(1j * np.array([lam1, lam1] + others))
        canon[0, 1] = 1.0
        return _from_canonical(space, basis, canon, rng, tol)

    if profile == "jordan3":
        if space.n < 2:
            raise ValueError("jordan3 needs n >= 2")
        if space.n == 2:
            lam1, singles = 0.0, []  # dim V = 3 forces the nilpotent orbit
        else:
            lam1 = _separated_values(rng, 1)[0]
            singles = _separated_values(rng, space.n - 3, taken=[lam1])
        last = -3.0 * lam1 - sum(singles)
        if space.n > 2 and any(abs(last - v) < 0.25 for v in singles + [lam1]):
            raise _Redraw
        if space.n == 2:
            spectrum = [0.0, 0.0, 0.0]
        else:
            spectrum = [lam1, lam1, lam1] + singles + [last]
        npl, nmi = _null_pair(space)
        f1 = npl
        f3 = -0.5 * nmi            # h(f1, f3) = -1
        f2 = np.zeros(d, dtype=complex)
        f2[1] = 1.0                # unit, orthogonal to f1 and f3
        basis = _basis_with(space, [f1, f2, f3], skip=(0, 1, d - 1))
        canon = np.diag(1j * np.array(spectrum))
        canon[0, 1] = 1.0
        canon[1, 2] = 1.0
        return _from_canonical(space, basis, canon, rng, tol)

    # split-real: eigenvalue pair (a+ib, -a+ib) on a null plane, rest imaginary
    a = float(rng.uniform(0.3, 1.2)) * (1 if rng.uniform() < 0.5 else -1)
    if space.n == 1:
        b, imag = 0.0, []          # trace forces b = 0 in su(1,1)
    else:
        b = _separated_values(rng, 1)[0]
        singles = _separated_values(rng, space.n - 2, taken=[b])
        last = -2.0 * b - sum(singles)
        if any(abs(last - v) < 0.25 for v in singles):
            raise _Redraw
        imag = singles + [last]
    npl, nmi = _null_pair(space)
    e1 = npl
    e2 = 0.5 * nmi                 # h(e1, e2) = 1
    basis = _basis_with(space, [e1, e2], skip=(0, d - 1))
    canon = np.diag(np.concatenate([[a + 1j * b, -a + 1j * b],
                                    1j * np.array(imag)]))
    return _from_canonical(space, basis, canon, rng, tol)
