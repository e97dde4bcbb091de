"""Adjoint-orbit classification of su(n,1) elements.

Orbits fall into five types, read off the Jordan structure under the
constraint that the hermitian form admits no null plane:

    1   diagonalizable, purely imaginary spectrum
    2a  one Jordan 2-block (imaginary eigenvalue), sign invariant +1
    2b  same with sign invariant -1
    3   one Jordan 3-block (imaginary eigenvalue); blocks of size >= 4
        cannot occur
    4   exactly one eigenvalue pair (lam, -conj(lam)) off the imaginary
        axis, everything diagonalizable

The 2a/2b sign is epsilon = sign Im h(e, f) for a Jordan chain
A e = lam e, A f = lam f + e; it is invariant under every allowed chain
change.  The binding of epsilon = +1 to the label "2a" is calibrated so
that the rank-one element wedge_j(x) for the standard null vector
x = (1, 0, ..., 0, 1) classifies as 2a.

Numerics: eigenvalues are grouped by single-linkage clustering whose
threshold has a floor of order eps^(1/3) (the perturbation scale of a
defective triple eigenvalue at double precision), and all rank decisions
are made on singular values of (A - lam)^k.  A group whose mean lam has
nullity(A - lam) = 0 holds no Jordan block at lam: it is split by clustering
it again at a floor of order eps^(1/2) (the scale of a defective pair), so
distinct eigenvalues closer than the first floor are resolved.  A rank
decision falling within a factor of 10 of its threshold raises
IllConditionedError rather than guessing.

Canonical bases share one construction: an h-indefinite A-invariant head per
type, then the h-orthonormal complement of its span, on which A lies in u(k)
and is diagonalized.

There is one analysis per element and tolerance.  The eigenvalues, and per
tolerance the eigenstructure and the orbit type, are kept in a private memo
that eigenstructure, classify, canonical_basis and char_poly share.  An
entry lives exactly as long as its element, whose matrix is a read-only
copy.  A refusal (IllConditionedError) is not cached: it is raised again on
every call.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .hermitian import HermitianSpace, IllConditionedError, SuElement

DEFAULT_CLASSIFY_TOL = 1e-8
DEAD_BAND = 10.0
# eigenvalues of a perturbed Jordan 3-block scatter like (machine eps)^(1/3);
# clustering must not resolve that scatter into separate eigenvalues
_CLUSTER_FLOOR = 25.0 * np.finfo(float).eps ** (1.0 / 3.0)
# those of a perturbed Jordan 2-block scatter like eps^(1/2); a group split by `_blocks`
# is clustered again at this finer floor, which keeps such a pair together
_PAIR_FLOOR = 10.0 * np.finfo(float).eps ** 0.5


@dataclass(frozen=True)
class EigenCluster:
    eigenvalue: complex
    multiplicity: int
    block_sizes: tuple[int, ...]


@dataclass(frozen=True)
class EigenStructure:
    clusters: tuple[EigenCluster, ...]
    cluster_tol: float
    scale: float                  # max(1, ||A||_2), the unit of every threshold on A


@dataclass(frozen=True)
class OrbitType:
    tag: str                      # "1" | "2a" | "2b" | "3" | "4"
    epsilon: int | None           # +-1 for type 2, else None
    invariant_data: tuple


def _matrix_scale(A: np.ndarray) -> float:
    return max(1.0, float(np.linalg.svd(A, compute_uv=False)[0]))


def _cluster(values: np.ndarray, thr: float) -> list[list[int]]:
    """Single-linkage groups, ordered by smallest member: the transitive closure
    of |w_i - w_j| < thr, by squarings that each double the path length reached."""
    reach = np.abs(values[:, None] - values[None, :]) < thr
    for _ in range(len(values).bit_length()):
        reach = reach @ reach
    return [np.flatnonzero(row).tolist() for i, row in enumerate(reach) if row.argmax() == i]


def _nullity(s: np.ndarray, thr: float) -> int:
    """Count of singular values s below thr, refusing any within DEAD_BAND of it."""
    in_band = (s > thr / DEAD_BAND) & (s < thr * DEAD_BAND)
    if np.any(in_band):
        raise IllConditionedError(
            f"singular value {s[in_band][0]:.3e} inside dead band of threshold {thr:.3e}")
    return int(np.sum(s < thr))


def _null_basis(M: np.ndarray, thr: float) -> np.ndarray:
    u, s, vh = np.linalg.svd(M)
    mask = s < thr
    mask = np.concatenate([mask, np.ones(vh.shape[0] - len(s), dtype=bool)])
    return vh.conj().T[:, mask]


# -- one analysis per element -------------------------------------------------


@dataclass
class _Analysis:
    """What is known of one element: its eigenvalues, and per tolerance its
    eigenstructure and its (orbit type, type-2 chain).  Arrays are read-only."""

    eigenvalues: np.ndarray
    structures: dict = field(default_factory=dict)
    orbits: dict = field(default_factory=dict)


# an entry dies with its element: SuElement hashes and compares by identity
_ANALYSES: weakref.WeakKeyDictionary[SuElement, _Analysis] = weakref.WeakKeyDictionary()


def _analysis(A: SuElement) -> _Analysis:
    an = _ANALYSES.get(A)
    if an is None:
        w = np.linalg.eigvals(A.matrix)
        w.flags.writeable = False
        an = _ANALYSES[A] = _Analysis(w)
    return an


def _structure(A: SuElement, tol: float) -> EigenStructure:
    an = _analysis(A)
    if tol not in an.structures:   # a refusal raises here and leaves no entry
        an.structures[tol] = _eigenstructure(A.matrix, an.eigenvalues, tol)
    return an.structures[tol]


def _orbit(A: SuElement, tol: float):
    """The orbit type, with the Jordan 2-chain (e, f) that fixed a type-2 sign, else None."""
    an = _analysis(A)
    if tol not in an.orbits:
        orbit, chain = _classify_with_chain(A, tol, _structure(A, tol))
        if chain is not None:
            for v in chain:
                v.flags.writeable = False
        an.orbits[tol] = orbit, chain
    return an.orbits[tol]


def eigenstructure(A: SuElement, tol: float = DEFAULT_CLASSIFY_TOL) -> EigenStructure:
    """Clustered eigenvalues with Jordan block sizes from rank sequences.

    Block sizes come from nullity((A - lam)^k), k = 1, 2, 3; a residual
    block of size >= 4 is impossible for a certified su(n,1) element and
    is reported as ill-conditioning of the input.
    """
    return _structure(A, tol)


def _eigenstructure(M: np.ndarray, w: np.ndarray, tol: float) -> EigenStructure:
    """eigenstructure of the matrix M with eigenvalues w, computed afresh."""
    scale = _matrix_scale(M)
    thr_c = max(tol, _CLUSTER_FLOOR) * scale
    clusters = []
    for idx in _cluster(w, thr_c):
        clusters.extend(_blocks(M, w[idx], tol, scale, split=True))
    clusters.sort(key=lambda c: (round(c.eigenvalue.imag, 9), round(c.eigenvalue.real, 9)))
    return EigenStructure(tuple(clusters), thr_c, scale)


def _blocks(M: np.ndarray, members: np.ndarray, tol: float, scale: float,
            split: bool) -> list[EigenCluster]:
    """The clusters of one group of eigenvalues of M, each with its Jordan block sizes.

    With split, a group with nullity(M - mean) = 0 is clustered again at the
    pair floor and each part is analysed unsplit.
    """
    lam = complex(np.mean(members))
    m = len(members)
    if m == 1:
        return [EigenCluster(lam, 1, (1,))]
    B = M - lam * np.eye(M.shape[0])
    s = np.linalg.svd(B, compute_uv=False)   # one SVD gives B's scale and nullity(B)
    bscale = max(1.0, float(s[0]))
    nullities = [0, min(_nullity(s, tol * bscale), m)]
    if nullities[1] == 0 and split:
        # a Jordan block at offset delta from the mean leaves sigma_min(B) at O(delta^k), below
        # the nullity threshold at the offsets the floor admits: nullity 0 means no block at
        # the mean, so the members are distinct eigenvalues (or a 2-block and its neighbours)
        parts = _cluster(members, max(tol, _PAIR_FLOOR) * scale)
        return [c for part in parts for c in _blocks(M, members[part], tol, scale, False)]
    P = B
    for k in (2, 3):
        if nullities[-1] == m:
            break
        P = P @ B
        s = np.linalg.svd(P, compute_uv=False)
        nullities.append(min(_nullity(s, tol * bscale ** k), m))
    if nullities[-1] != m:
        raise IllConditionedError(
            "rank sequence implies a Jordan block of size >= 4; "
            "input is outside su(n,1) at the working tolerance")
    at_least = [nullities[k] - nullities[k - 1] for k in range(1, len(nullities))]
    if any(at_least[k] > at_least[k - 1] for k in range(1, len(at_least))):
        raise IllConditionedError("non-monotone Jordan block counts")
    at_least.append(0)
    sizes = []
    for sz in range(len(at_least) - 1, 0, -1):
        sizes.extend([sz] * (at_least[sz - 1] - at_least[sz]))
    return [EigenCluster(lam, m, tuple(sorted(sizes, reverse=True)))]


def _jordan_chain(M: np.ndarray, lam: complex, length: int, tol: float):
    """Chain top vector f with (M-lam)^(length-1) f maximal, then iterate down."""
    d = M.shape[0]
    B = M - lam * np.eye(d)
    bscale = _matrix_scale(B)
    P = np.eye(d, dtype=complex)
    for _ in range(length):
        P = P @ B
    K = _null_basis(P, tol * bscale ** length)  # ker B^length
    R = B if length == 2 else B @ B
    _, s, vh = np.linalg.svd(R @ K)
    f = K @ vh.conj().T[:, 0]
    chain = [f]
    for _ in range(length - 1):
        chain.append(B @ chain[-1])
    chain.reverse()  # chain[0] is the eigenvector
    return chain


def _epsilon_from_chain(space: HermitianSpace, e: np.ndarray, f: np.ndarray,
                        tol: float) -> int:
    val = space.herm(e, f)
    mag = float(np.linalg.norm(e) * np.linalg.norm(f))
    if abs(val.imag) < DEAD_BAND * tol * mag:
        raise IllConditionedError("chain pairing h(e, f) too close to zero")
    if abs(val.real) > 1e-6 * abs(val.imag):
        raise IllConditionedError("chain pairing h(e, f) is not purely imaginary")
    return 1 if val.imag > 0 else -1


def classify(A: SuElement, tol: float = DEFAULT_CLASSIFY_TOL) -> OrbitType:
    """Orbit type of a certified element, including the type-2 sign."""
    return _orbit(A, tol)[0]


def _classify_with_chain(A: SuElement, tol: float, es: EigenStructure):
    """_orbit's result, computed afresh from es = eigenstructure(A, tol)."""
    M = A.matrix
    thr_re = tol * es.scale

    nonimag = []
    for c in es.clusters:
        r = abs(c.eigenvalue.real)
        if thr_re / DEAD_BAND < r < thr_re * DEAD_BAND:
            raise IllConditionedError(
                f"eigenvalue real part {r:.3e} inside dead band of {thr_re:.3e}")
        if r >= thr_re * DEAD_BAND:
            nonimag.append(c)

    if nonimag:
        if len(nonimag) != 2 or any(c.multiplicity != 1 for c in nonimag):
            raise IllConditionedError("non-imaginary spectrum is not a simple pair")
        lam, mu = (c.eigenvalue for c in nonimag)
        if abs(lam + np.conj(mu)) > 10 * es.cluster_tol:
            raise IllConditionedError("non-imaginary eigenvalues do not pair as (lam, -conj lam)")
        if lam.real < 0:
            lam, mu = mu, lam
        return OrbitType("4", None, (lam, mu)), None

    big = [c for c in es.clusters if max(c.block_sizes) > 1]
    if not big:
        spectrum = tuple(sorted(
            round(c.eigenvalue.imag, 12) for c in es.clusters for _ in range(c.multiplicity)))
        return OrbitType("1", None, (spectrum,)), None

    if len(big) != 1 or sum(1 for s in big[0].block_sizes if s > 1) != 1:
        raise IllConditionedError("more than one non-trivial Jordan block")
    c = big[0]
    top = max(c.block_sizes)
    lam = 1j * c.eigenvalue.imag  # classification already certified Re = 0
    if top == 3:
        return OrbitType("3", None, (lam,)), None
    e, f = _jordan_chain(M, lam, 2, tol)
    eps = _epsilon_from_chain(A.space, e, f, tol)
    return OrbitType("2a" if eps > 0 else "2b", eps, (lam, eps)), (e, f)


# -- characteristic polynomial ------------------------------------------------


@dataclass(frozen=True, eq=False)
class CharPoly:
    """Monic characteristic polynomial with structure-function cross-checks.

    coefficients are those of prod(t - lam_i), highest degree first, built
    from the eigenvalues `roots` of `element`.  factored_residual evaluates
    the block factorization derived from the grading template (det/cofactor
    form); displayed_residual evaluates the same expression with the
    literal trace-shifted block and plain cofactor pairing, kept as a
    recorded discrepancy rather than reconciled by fiat.  Both residuals
    are computed together on first read, and are None when the structure
    functions are not extractable.
    """

    coefficients: np.ndarray
    element: SuElement = field(compare=False, repr=False)
    roots: np.ndarray = field(compare=False, repr=False)

    @property
    def factored_residual(self) -> float | None:
        return self._residuals[0]

    @property
    def displayed_residual(self) -> float | None:
        return self._residuals[1]

    @functools.cached_property
    def _residuals(self) -> tuple[float | None, float | None]:
        """Rescale the element so its g^-2 coefficient is 1/2, evaluate the
        factorized polynomial of the rescaled element on a sample circle,
        and map back through the scale."""
        from .grading import NormalizationError, grading_basis, structure_functions

        A, coeffs = self.element, self.coefficients
        d = A.matrix.shape[0]
        basis = grading_basis(A.space.n, validate=False)
        try:
            sf = structure_functions(A, basis)
        except NormalizationError:
            return None, None
        if not sf.residual < 1e-6:
            return None, None
        s = sf.scale
        radius = 2.0 * max(1.0, float(np.abs(self.roots).max()))
        ts = radius * np.exp(2j * np.pi * (np.arange(24) + 0.37) / 24)
        ref = np.array([np.polyval(coeffs, t) for t in ts])
        norm = float(np.abs(ref).max())
        sign = (-1.0) ** d

        def monic_from_factored(shifted):
            vals = np.array([
                _eval_factored(sf.rho, sf.u, sf.f, s * t, shifted, ambient=d)
                for t in ts])
            return sign * vals / s ** d

        return (float(np.abs(monic_from_factored(False) - ref).max() / norm),
                float(np.abs(monic_from_factored(True) - ref).max() / norm))


def _eval_factored(rho, u, f, t, shifted: bool, ambient: int):
    m = rho.shape[0]
    trr = np.trace(rho) if m else 0.0
    R = rho - (trr / ambient) * np.eye(m) if shifted else rho
    P = R - t * np.eye(m)
    detP = np.linalg.det(P) if m else 1.0
    quad = t * t + trr * t + f + 0.25 * trr * trr
    if m == 0:
        corr = 0.0
    elif shifted:
        cof = (detP * np.linalg.inv(P)).T  # cofactor matrix
        corr = u.conj() @ cof @ u
    else:
        adj = detP * np.linalg.inv(P)
        corr = -2j * (u.conj() @ adj @ u)
    return detP * quad + corr


def char_poly(A: SuElement) -> CharPoly:
    """det(A - tI) as ground truth (returned monic); the factorization
    cross-checks are left to the first read of a residual."""
    w = _analysis(A).eigenvalues
    return CharPoly(np.poly(w), A, w)


# -- canonical bases ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CanonicalBasis:
    """Basis B with B^-1 A B in canonical form and prescribed column Gram.

    gram_target is compared against B^H H B, whose (i, j) entry is
    h(b_j, b_i).
    """

    orbit: OrbitType
    basis: np.ndarray
    canonical: np.ndarray
    gram_target: np.ndarray
    conjugation_residual: float
    gram_residual: float


def _orthonormal_complement(space: HermitianSpace, spanned: list[np.ndarray],
                            matrix: np.ndarray):
    """h-orthocomplement of the span, h-orthonormalized, with A diagonalized on it.

    The complement of an A-invariant span is A-invariant and h-positive
    definite here, so A restricts to a skew-hermitian endomorphism with a
    unitary eigenbasis, returned in ascending order of Im(eigenvalue).
    """
    H = space.form_matrix
    rows = np.array([v.conj() @ H for v in spanned])
    W = _null_basis(rows, 1e-12 * max(1.0, np.linalg.norm(rows)))
    G = W.conj().T @ H @ W
    vals, U = np.linalg.eigh(G)
    if np.any(vals <= 0):
        raise IllConditionedError("complement metric is not positive definite")
    Wo = W @ U / np.sqrt(vals)[None, :]
    Aw = Wo.conj().T @ H @ matrix @ Wo
    ev, V = np.linalg.eigh(-1j * Aw)
    order = np.argsort(ev)
    return Wo @ V[:, order], 1j * ev[order]


def _eigenvectors(M: np.ndarray, lam: complex, tol: float) -> np.ndarray:
    """Basis of ker(M - lam) at the threshold tol * max(1, ||M - lam||_2), by one SVD."""
    _, s, vh = np.linalg.svd(M - lam * np.eye(M.shape[0]))
    return vh.conj().T[:, s < tol * max(1.0, float(s[0]))]


def canonical_basis(A: SuElement, tol: float = DEFAULT_CLASSIFY_TOL) -> CanonicalBasis:
    """Explicit basis realizing the canonical form of A's orbit type.

    The basis is the type's h-indefinite head (the negative-norm eigenvector,
    the Jordan chain, or the null eigenvector pair) followed by the
    diagonalizing h-orthonormal complement.  Column Gram targets
    (Gram[i,j] = h(b_i, b_j)):
      type 1: diag(1,...,1,-1), the head rotated to the last column
      type 2: [[0, eps i], [-eps i, 0]] in the chain block, identity after
      type 3: antidiag(-1) with middle 1 in the chain block, identity after
      type 4: [[0, 1], [1, 0]] on the null eigenvector pair, identity after
    """
    es = eigenstructure(A, tol)
    orbit, chain = _orbit(A, tol)
    space, M = A.space, A.matrix
    d = space.dim
    H = space.form_matrix

    if orbit.tag == "1":
        head = None
        for c in es.clusters:
            K = _eigenvectors(M, c.eigenvalue, tol)
            if K.shape[1] != c.multiplicity:
                raise IllConditionedError("eigenspace dimension mismatch")
            vals, U = np.linalg.eigh(K.conj().T @ H @ K)
            if vals[0] < 0:
                head, head_canon = [K @ U[:, 0] / np.sqrt(-vals[0])], [[c.eigenvalue]]
        if head is None:
            raise IllConditionedError("no negative-norm eigenvector found")
        head_gram = [[-1.0]]

    elif orbit.tag in ("2a", "2b"):
        lam, eps = orbit.invariant_data
        e, f = chain
        a = 1.0 / np.sqrt(abs(space.herm(e, f).imag))
        e, f = a * e, a * f
        head = [e, f + (1j * space.herm(f, f).real / (2.0 * eps)) * e]
        head_canon = [[lam, 1.0], [0.0, lam]]
        # stored as B^H H B, whose (i, j) entry is h(b_j, b_i): h(e, f) = eps*i
        # sits at (1, 0)
        head_gram = [[0.0, -eps * 1j], [eps * 1j, 0.0]]

    elif orbit.tag == "3":
        (lam,) = orbit.invariant_data
        f1, f2, f3 = _jordan_chain(M, lam, 3, tol)
        p = space.herm(f2, f2).real
        if p <= 0:
            raise IllConditionedError("middle chain vector has non-positive norm")
        q = space.herm(f3, f3).real
        s = space.herm(f2, f3).imag
        a = 1.0 / np.sqrt(p)
        b = 1j * a * s / (2.0 * p)
        c = a * (q - 0.75 * s * s / p) / (2.0 * p)
        head = [a * f1, a * f2 + b * f1, a * f3 + b * f2 + c * f1]
        head_canon = [[lam, 1.0, 0.0], [0.0, lam, 1.0], [0.0, 0.0, lam]]
        head_gram = [[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]

    else:  # type 4
        lam, mu = orbit.invariant_data
        x = _eigenvectors(M, lam, tol)[:, 0]
        y = _eigenvectors(M, mu, tol)[:, 0]
        hxy = space.herm(x, y)
        if abs(hxy) < tol:
            raise IllConditionedError("null eigenvectors pair degenerately")
        head = [x, y * np.conj(1.0 / hxy)]
        head_canon = [[lam, 0.0], [0.0, mu]]
        head_gram = [[0.0, 1.0], [1.0, 0.0]]

    Wo, ev = _orthonormal_complement(space, head, M)
    k = len(head)
    basis = np.column_stack(head + [Wo])
    canon = np.diag(np.concatenate([np.zeros(k), ev]))
    canon[:k, :k] = head_canon
    gram = np.eye(d, dtype=complex)
    gram[:k, :k] = head_gram
    if orbit.tag == "1":
        # the timelike column goes last, so the Gram target is diag(1, ..., 1, -1)
        order = np.roll(np.arange(d), -k)
        basis, canon, gram = basis[:, order], canon[order][:, order], gram[order][:, order]

    resid_c = float(np.linalg.norm(np.linalg.solve(basis, M @ basis) - canon) / es.scale)
    resid_g = float(np.linalg.norm(basis.conj().T @ H @ basis - gram))
    return CanonicalBasis(orbit, basis, canon, gram, resid_c, resid_g)
