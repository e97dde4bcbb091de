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


DEFAULT_TOL = 1e-10

_PROFILES = (
    "generic",
    "diagonal-imaginary",
    "rank1",
    "jordan2",
    "jordan3",
    "split-real",
)
# least distance between the imaginary parts of a constructed profile's
# distinct eigenvalues, so classification at desk tolerances has margin
_MIN_GAP = 0.25


class HermitianSpaceError(ValueError):
    """Raised for malformed spaces (wrong signature, non-hermitian Gram)."""


@dataclass(frozen=True)
class HermitianSpace:
    """C^(n+1) with a signature-(n,1) hermitian form in diagonal standard form."""

    n: int
    form_matrix: np.ndarray = field(init=False, compare=False)  # diag(1, ..., 1, -1)

    def __post_init__(self):
        if self.n < 1:
            raise HermitianSpaceError("need n >= 1")
        H = np.eye(self.n + 1, dtype=complex)
        H[self.n, self.n] = -1.0
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


@dataclass(frozen=True, eq=False)
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


def wedge_j(x, space: HermitianSpace) -> np.ndarray:
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


def cayley(X) -> np.ndarray:
    """The Cayley map X |-> (I - X/2)^-1 (I + X/2).

    It takes a Lie algebra preserving a form (u(n,1), sp(2m, R)) into the
    group preserving the same form, exactly up to roundoff.
    """
    X = np.asarray(X)
    eye = np.eye(X.shape[0])
    return np.linalg.solve(eye - 0.5 * X, eye + 0.5 * X)


def group_conjugator(rng: np.random.Generator, space: HermitianSpace) -> np.ndarray:
    """A pseudo-random element of U(n,1) with controlled conditioning.

    The Cayley map of a norm-0.7 su(n,1) element.  The spectrum of a
    u(n,1) element is symmetric under lam |-> -conj(lam), so |det| = 1,
    which no conjugation can see.
    """
    d = space.dim
    X = su_project(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                   space)
    X *= 0.7 / max(np.linalg.norm(X), 1e-30)
    return cayley(X)


class _Redraw(Exception):
    """The seeded draw jammed or its derived eigenvalue collided; draw again."""


def _separated_values(rng: np.random.Generator, count: int, taken=()) -> list[float]:
    # rejection sampling on [-1.5, 1.5]; deterministic for a fixed generator state
    vals: list[float] = []
    guard = 0
    while len(vals) < count:
        guard += 1
        if guard > 10000:
            raise _Redraw
        c = float(rng.uniform(-1.5, 1.5))
        if all(abs(c - v) >= _MIN_GAP for v in list(taken) + vals):
            vals.append(c)
    return vals


def random_su(seed: int, space: HermitianSpace, profile: str = "generic",
              epsilon: int = 1) -> SuElement:
    """Deterministic pseudo-random su(n,1) elements, by spectral profile.

    profile:
        generic             projection of a dense random matrix
        diagonal-imaginary  diagonalizable, purely imaginary well-separated spectrum
        rank1               x ^ Jx for a random null vector (nilpotent, one 2-block)
        jordan2             one Jordan 2-block with sign invariant `epsilon`
        jordan3             one Jordan 3-block (needs n >= 2)
        split-real          an eigenvalue pair (lam, -conj(lam)) with Re lam != 0

    The four other profiles share one construction.  A head of k
    coordinates (k = 1 for diagonal-imaginary, 2 for jordan2 and split-real,
    3 for jordan3) carries the type's canonical block with imaginary part b:
    the eigenvalue ib, a Jordan chain on ib, or the pair +-a + ib with
    0.3 <= |a| <= 1.2 on the null plane of e1 +- e_last.  The other d - k unit coordinates carry purely imaginary
    values at least 0.25 apart from each other and from b, the last of them
    fixed by the trace to -k*b minus the rest.  When the head fills the
    space, the trace forces b = 0 and nothing is drawn.  The block is
    conjugated by a random U(n,1) element before certification.  A draw
    whose rejection sampler jams, or whose trace-fixed eigenvalue lies within
    0.25 of another eigenvalue in the complex plane, is redrawn from
    seed + 90001; the split pair lies at least 0.3 off the imaginary axis,
    so only the imaginary eigenvalues can collide.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    try:
        return _draw(np.random.default_rng(seed), space, profile, epsilon)
    except _Redraw:
        return random_su(seed + 90001, space, profile, epsilon)


def _draw(rng: np.random.Generator, space: HermitianSpace, profile: str,
          epsilon: int) -> SuElement:
    d = space.dim

    if profile == "generic":
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return su_element(su_project(A, space), space)

    if profile == "rank1":
        v = rng.standard_normal(space.n) + 1j * rng.standard_normal(space.n)
        v /= np.linalg.norm(v)
        x = np.concatenate([v, [np.linalg.norm(v)]])  # null: (v, ||v||)
        return su_element(wedge_j(x, space), space)

    # the head's basis vectors and the real parts of its eigenvalues
    e = np.eye(d, dtype=complex)
    null_p, null_m = e[0] + e[-1], e[0] - e[-1]   # null, h(null_p, null_m) = 2
    offsets = 0.0
    if profile == "diagonal-imaginary":
        head = [e[0]]
    elif profile == "jordan2":
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +-1")
        head = [null_p, (-epsilon * 0.5j) * null_m]   # h(e1, e2) = epsilon * i
    elif profile == "jordan3":
        if space.n < 2:
            raise ValueError("jordan3 needs n >= 2")
        head = [null_p, e[1], -0.5 * null_m]          # h(f1, f3) = -1, f2 a unit
    else:  # split-real
        a = float(rng.uniform(0.3, 1.2)) * (1 if rng.uniform() < 0.5 else -1)
        head, offsets = [null_p, 0.5 * null_m], np.array([a, -a])   # h(e1, e2) = 1
    k = len(head)

    if k == d:
        imag = [0.0] * d
    else:
        b = _separated_values(rng, 1)[0]
        tail = _separated_values(rng, d - k - 1, taken=[b])
        imag = [b] * k + tail + [-k * b - sum(tail)]
    spectrum = 1j * np.array(imag)
    spectrum[:k] += offsets
    if k < d and np.abs(spectrum[-1] - spectrum[:-1]).min() < _MIN_GAP:
        raise _Redraw

    canon = np.diag(spectrum)
    if profile.startswith("jordan"):
        canon[range(k - 1), range(1, k)] = 1.0
    untouched = e[~np.array(head).any(axis=0)]   # the unit coordinates of the tail
    basis = np.array(head + list(untouched)).T
    A = basis @ canon @ np.linalg.inv(basis)
    G = group_conjugator(rng, space)
    A = G @ A @ np.linalg.inv(G)
    return su_element(su_project(A, space), space)
