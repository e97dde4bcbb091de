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
are made on singular values of (A - lam)^k.  A rank decision falling
within a factor of 10 of its threshold raises IllConditionedError rather
than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianSpace, SuElement

DEFAULT_CLASSIFY_TOL = 1e-8
DEAD_BAND = 10.0
# eigenvalues of a perturbed Jordan 3-block scatter like (machine eps)^(1/3);
# clustering must not resolve that scatter into separate eigenvalues
_CLUSTER_FLOOR = 25.0 * np.finfo(float).eps ** (1.0 / 3.0)


class IllConditionedError(RuntimeError):
    """A tolerance decision fell inside the dead band; refuse to classify."""


@dataclass(frozen=True)
class EigenCluster:
    eigenvalue: complex
    multiplicity: int
    block_sizes: tuple[int, ...]


@dataclass(frozen=True)
class EigenStructure:
    clusters: tuple[EigenCluster, ...]
    cluster_tol: float

    @property
    def max_block(self) -> int:
        return max(max(c.block_sizes) for c in self.clusters)


@dataclass(frozen=True)
class OrbitType:
    tag: str                      # "1" | "2a" | "2b" | "3" | "4"
    epsilon: int | None           # +-1 for type 2, else None
    invariant_data: tuple

    @property
    def family(self) -> str:
        return self.tag[0]


def _matrix_scale(A: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(A, 2)))


def _cluster(values: np.ndarray, thr: float) -> list[list[int]]:
    # single linkage by union-find; desk sizes make O(k^2) irrelevant
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) < thr:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _nullity(M: np.ndarray, thr: float) -> int:
    s = np.linalg.svd(M, compute_uv=False)
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


def eigenstructure(A: SuElement, tol: float = DEFAULT_CLASSIFY_TOL) -> EigenStructure:
    """Clustered eigenvalues with Jordan block sizes from rank sequences.

    Block sizes come from nullity((A - lam)^k), k = 1, 2, 3; a residual
    block of size >= 4 is impossible for a certified su(n,1) element and
    is reported as ill-conditioning of the input.
    """
    M = A.matrix
    scale = _matrix_scale(M)
    w = np.linalg.eigvals(M)
    thr_c = max(tol, _CLUSTER_FLOOR) * scale
    clusters = []
    for idx in _cluster(w, thr_c):
        lam = complex(np.mean(w[idx]))
        m = len(idx)
        if m == 1:
            clusters.append(EigenCluster(lam, 1, (1,)))
            continue
        B = M - lam * np.eye(M.shape[0])
        bscale = _matrix_scale(B)
        nullities = [0]
        P = np.eye(M.shape[0], dtype=complex)
        for k in (1, 2, 3):
            P = P @ B
            nullities.append(min(_nullity(P, tol * bscale ** k), m))
            if nullities[-1] == m:
                break
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
        clusters.append(EigenCluster(lam, m, tuple(sorted(sizes, reverse=True))))
    clusters.sort(key=lambda c: (round(c.eigenvalue.imag, 9), round(c.eigenvalue.real, 9)))
    return EigenStructure(tuple(clusters), thr_c)


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
    es = eigenstructure(A, tol)
    M = A.matrix
    scale = _matrix_scale(M)
    thr_re = tol * scale

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
        return OrbitType("4", None, (lam, mu))

    big = [c for c in es.clusters if max(c.block_sizes) > 1]
    if not big:
        spectrum = tuple(sorted(
            round(c.eigenvalue.imag, 12) for c in es.clusters for _ in range(c.multiplicity)))
        return OrbitType("1", None, (spectrum,))

    if len(big) != 1 or sum(1 for s in big[0].block_sizes if s > 1) != 1:
        raise IllConditionedError("more than one non-trivial Jordan block")
    c = big[0]
    top = max(c.block_sizes)
    lam = 1j * c.eigenvalue.imag  # classification already certified Re = 0
    if top == 3:
        return OrbitType("3", None, (lam,))
    e, f = _jordan_chain(M, lam, 2, tol)
    eps = _epsilon_from_chain(A.space, e, f, tol)
    return OrbitType("2a" if eps > 0 else "2b", eps, (lam, eps))


# -- characteristic polynomial ------------------------------------------------


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial with structure-function cross-checks.

    coefficients are those of prod(t - lam_i), highest degree first.
    factored_residual evaluates the block factorization derived from the
    grading template (det/cofactor form); displayed_residual evaluates the
    same expression with the literal trace-shifted block and plain cofactor
    pairing, kept as a recorded discrepancy rather than reconciled by fiat.
    Residuals are None when the structure functions are not extractable.
    """

    coefficients: np.ndarray
    factored_residual: float | None
    displayed_residual: float | None


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


def char_poly(A: SuElement, tol: float = 1e-10) -> CharPoly:
    """det(A - tI) as ground truth (returned monic), plus factorization checks.

    The cross-check rescales A so its g^-2 coefficient is 1/2, evaluates the
    factorized polynomial of the rescaled element on a sample circle, and
    maps back through the scale.
    """
    from .grading import NormalizationError, grading_basis, structure_functions

    M = A.matrix
    d = M.shape[0]
    w = np.linalg.eigvals(M)
    coeffs = np.poly(w)

    factored_residual = None
    displayed_residual = None
    basis = grading_basis(A.space.n, validate=False)
    try:
        sf = structure_functions(A, basis)
    except NormalizationError:
        sf = None
    if sf is not None and sf.residual < 1e-6:
        s = sf.scale
        radius = 2.0 * max(1.0, float(np.abs(w).max()))
        ts = radius * np.exp(2j * np.pi * (np.arange(24) + 0.37) / 24)
        ref = np.array([np.polyval(coeffs, t) for t in ts])
        norm = float(np.abs(ref).max())
        sign = (-1.0) ** d

        def monic_from_factored(shifted):
            vals = np.array([
                _eval_factored(sf.rho, sf.u, sf.f, s * t, shifted, ambient=d)
                for t in ts])
            return sign * vals / s ** d

        factored_residual = float(np.abs(monic_from_factored(False) - ref).max() / norm)
        displayed_residual = float(np.abs(monic_from_factored(True) - ref).max() / norm)
    return CharPoly(coeffs, factored_residual, displayed_residual)


# -- canonical bases ----------------------------------------------------------


@dataclass(frozen=True)
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
                            matrix: np.ndarray, tol: float):
    """h-orthocomplement of the span, h-orthonormalized, with A diagonalized on it.

    The complement of an A-invariant span is A-invariant and h-positive
    definite here, so A restricts to a skew-hermitian endomorphism with a
    unitary eigenbasis.
    """
    H = space.form_matrix
    if not spanned:
        W = np.eye(space.dim, dtype=complex)
    else:
        rows = np.array([v.conj() @ H for v in spanned])
        W = _null_basis(rows, 1e-12 * max(1.0, np.linalg.norm(rows)))
    if W.shape[1] == 0:
        return W, np.array([])
    G = W.conj().T @ H @ W
    vals, U = np.linalg.eigh(G)
    if np.any(vals <= 0):
        raise IllConditionedError("complement metric is not positive definite")
    Wo = W @ U / np.sqrt(vals)[None, :]
    Aw = Wo.conj().T @ H @ matrix @ Wo
    ev, V = np.linalg.eigh(-1j * Aw)
    order = np.argsort(ev)
    return Wo @ V[:, order], 1j * ev[order]


def canonical_basis(A: SuElement, tol: float = DEFAULT_CLASSIFY_TOL) -> CanonicalBasis:
    """Explicit basis realizing the canonical form of A's orbit type.

    Column Gram targets (Gram[i,j] = h(b_i, b_j)):
      type 1: diag(1,...,1,-1) with the negative-norm vector last
      type 2: [[0, eps i], [-eps i, 0]] in the chain block, identity after
      type 3: antidiag(-1) with middle 1 in the chain block, identity after
      type 4: [[0, 1], [1, 0]] on the null eigenvector pair, identity after
    """
    orbit = classify(A, tol)
    space, M = A.space, A.matrix
    d = space.dim
    H = space.form_matrix
    es = eigenstructure(A, tol)

    if orbit.tag == "1":
        pos_vecs, pos_vals, neg_vec, neg_val = [], [], None, None
        for c in es.clusters:
            B = M - c.eigenvalue * np.eye(d)
            K = _null_basis(B, tol * _matrix_scale(B))
            if K.shape[1] != c.multiplicity:
                raise IllConditionedError("eigenspace dimension mismatch")
            G = K.conj().T @ H @ K
            vals, U = np.linalg.eigh(G)
            V = K @ U / np.sqrt(np.abs(vals))[None, :]
            for j, v in enumerate(vals):
                if v > 0:
                    pos_vecs.append(V[:, j])
                    pos_vals.append(c.eigenvalue)
                else:
                    neg_vec, neg_val = V[:, j], c.eigenvalue
        if neg_vec is None:
            raise IllConditionedError("no negative-norm eigenvector found")
        basis = np.array(pos_vecs + [neg_vec]).T
        canon = np.diag(np.array(pos_vals + [neg_val]))
        gram = np.eye(d, dtype=complex)
        gram[d - 1, d - 1] = -1.0

    elif orbit.tag in ("2a", "2b"):
        lam, eps = orbit.invariant_data
        e, f = _jordan_chain(M, lam, 2, tol)
        t = space.herm(e, f).imag
        a = 1.0 / np.sqrt(abs(t))
        e, f = a * e, a * f
        f = f + (1j * space.herm(f, f).real / (2.0 * eps)) * e
        Wo, ev = _orthonormal_complement(space, [e, f], M, tol)
        basis = np.column_stack([e, f, Wo])
        canon = np.zeros((d, d), dtype=complex)
        canon[0, 0] = canon[1, 1] = lam
        canon[0, 1] = 1.0
        for j, v in enumerate(ev):
            canon[2 + j, 2 + j] = v
        gram = np.eye(d, dtype=complex)
        # stored as B^H H B, whose (i, j) entry is h(b_j, b_i): h(e, f) = eps*i
        # sits at (1, 0)
        gram[:2, :2] = [[0.0, -eps * 1j], [eps * 1j, 0.0]]

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
        g1 = a * f1
        g2 = a * f2 + b * f1
        g3 = a * f3 + b * f2 + c * f1
        Wo, ev = _orthonormal_complement(space, [g1, g2, g3], M, tol)
        basis = np.column_stack([g1, g2, g3, Wo])
        canon = np.zeros((d, d), dtype=complex)
        canon[0, 0] = canon[1, 1] = canon[2, 2] = lam
        canon[0, 1] = canon[1, 2] = 1.0
        for j, v in enumerate(ev):
            canon[3 + j, 3 + j] = v
        gram = np.eye(d, dtype=complex)
        gram[:3, :3] = [[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]

    else:  # type 4
        lam, mu = orbit.invariant_data
        Bx = M - lam * np.eye(d)
        By = M - mu * np.eye(d)
        x = _null_basis(Bx, tol * _matrix_scale(Bx))[:, 0]
        y = _null_basis(By, tol * _matrix_scale(By))[:, 0]
        hxy = space.herm(x, y)
        if abs(hxy) < tol:
            raise IllConditionedError("null eigenvectors pair degenerately")
        y = y * np.conj(1.0 / hxy)
        Wo, ev = _orthonormal_complement(space, [x, y], M, tol)
        basis = np.column_stack([x, y, Wo])
        canon = np.zeros((d, d), dtype=complex)
        canon[0, 0] = lam
        canon[1, 1] = mu
        for j, v in enumerate(ev):
            canon[2 + j, 2 + j] = v
        gram = np.eye(d, dtype=complex)
        gram[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]

    resid_c = float(np.linalg.norm(np.linalg.solve(basis, M @ basis) - canon)
                    / _matrix_scale(M))
    resid_g = float(np.linalg.norm(basis.conj().T @ H @ basis - gram))
    return CanonicalBasis(orbit, basis, canon, gram, resid_c, resid_g)
