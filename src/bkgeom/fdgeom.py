"""Chart-based finite-difference differential geometry.

This is the independent oracle that every analytic curvature claim in the
package is checked against, so it is deliberately built from nothing but
the textbook coordinate formulas and central differences:

    Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2
    R^l_ijk    = d_i Gamma^l_jk - d_j Gamma^l_ik
                 + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    R_ijkl     = g_lm R^m_ijk            (= g(R(e_i,e_j) e_k, e_l))

with the curvature sign fixed so that the round unit sphere has sectional
curvature +1.  No automatic differentiation anywhere.  The scheme is
second order: halving the step shrinks curvature errors by about 4x.

One stencil table per dimension d, built once as integer offsets, serves
all of it: the star rows 0, +e_0, -e_0, +e_1, ... and their pairwise sums,
2d^2 + 2d + 1 distinct points.  `riemann` evaluates the metric once at each
and takes Gamma at p and at p +- h e_m in one stacked computation;
`christoffel` uses the star (2d + 1 points) and `second_fundamental_form`
the table of its embeddings.  `_difference` is the one central difference,
(f(+h) - f(-h)) / 2h; `central_partials`, with which every caller of the
oracle differentiates, sits on it.  A chart refuses a point outside its
domain by raising `ChartFailureError` from its `eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np


# the one finite-difference step: every default of the oracle and its consumers
STEP = 1e-4


class ChartFailureError(ValueError):
    """A chart refused an evaluation point: it left the domain, or the chart degenerated."""


@dataclass(frozen=True)
class ChartMetric:
    """A metric field on an open chart of R^dim.

    eval returns the symmetric matrix g_ij(p) and raises for a point
    outside the chart domain; every finite-difference sample point goes
    through it.  eval must be safe to call concurrently (pure function of p).
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]

    def at(self, p) -> np.ndarray:
        g = np.asarray(self.eval(np.asarray(p, dtype=float)), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError("metric eval returned wrong shape")
        return g


@cache
def _stencil(dim: int):
    """The central-difference stencil of R^dim as integer offsets.

    Returns (star, points, pairs): star is (2 dim + 1, dim), the rows 0,
    +e_0, -e_0, +e_1, -e_1, ...; points are the 2 dim^2 + 2 dim + 1 distinct
    pairwise sums star[a] + star[b]; pairs[a, b] indexes that sum in points.
    """
    star = np.zeros((2 * dim + 1, dim), dtype=int)
    star[1::2] = np.eye(dim, dtype=int)
    star[2::2] = -np.eye(dim, dtype=int)
    sums = (star[:, None, :] + star[None, :, :]).reshape(-1, dim)
    points, pairs = np.unique(sums, axis=0, return_inverse=True)
    return star, points, pairs.reshape(2 * dim + 1, 2 * dim + 1)


def _sample(f, p, step: float, offsets) -> np.ndarray:
    """f(p + step * o) for each integer offset row o, stacked on axis 0."""
    return np.array([f(x) for x in p + step * offsets])


def _table(f, p, step: float) -> np.ndarray:
    """T[a, b] = f(p + step (star[a] + star[b])), f evaluated once per distinct point."""
    _, points, pairs = _stencil(p.size)
    return _sample(f, p, step, points)[pairs]


def _difference(values, step: float) -> np.ndarray:
    """d_k along axis 0 of values stacked over the star rows +e_0, -e_0, +e_1, ...

    This is the one central difference of the package: (f(+h) - f(-h)) / (2 step).
    """
    return (values[0::2] - values[1::2]) / (2.0 * step)


def central_partials(f, p, step: float) -> np.ndarray:
    """d_i f(p) by central differences, stacked on axis 0."""
    p = np.asarray(p, dtype=float)
    return _difference(_sample(f, p, step, _stencil(p.size)[0][1:]), step)


def _christoffels(g, step: float) -> np.ndarray:
    """Gamma[a, k, i, j] = Gamma^k_ij at each centre a, all in one stacked computation.

    g[b, a] is the metric at centre a + step star[b]; g[0] holds the centres.
    """
    ginv = np.linalg.inv(g[0])
    dg = np.moveaxis(_difference(g[1:], step), 1, 0)   # dg[a, k, i, j] = d_k g_ij
    # T[a, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    T = dg + np.transpose(dg, (0, 2, 1, 3)) - np.transpose(dg, (0, 2, 3, 1))
    return 0.5 * np.einsum("akl,aijl->akij", ginv, T)


def christoffel(chart: ChartMetric, p, step: float = STEP) -> np.ndarray:
    """Gamma[k, i, j] = Gamma^k_ij of the Levi-Civita connection (2 dim + 1 metric evaluations)."""
    p = np.asarray(p, dtype=float)
    g = _sample(chart.at, p, step, _stencil(p.size)[0])
    return _christoffels(g[:, None], step)[0]


def riemann(chart: ChartMetric, p, step: float = STEP) -> np.ndarray:
    """Curvature tensor at p; R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l).

    One metric evaluation per distinct stencil point (2 dim^2 + 2 dim + 1).
    """
    g = _table(chart.at, np.asarray(p, dtype=float), step)
    Gammas = _christoffels(g, step)           # Gamma at p, p + h e_0, p - h e_0, ...
    Gamma = Gammas[0]
    dGamma = _difference(Gammas[1:], step)    # dGamma[m, l, j, k] = d_m Gamma^l_jk
    Rup = (np.einsum("iljk->lijk", dGamma) - np.einsum("jlik->lijk", dGamma)
           + np.einsum("lim,mjk->lijk", Gamma, Gamma)
           - np.einsum("ljm,mik->lijk", Gamma, Gamma))
    return np.einsum("lm,mijk->ijkl", g[0, 0], Rup)


def sectional(chart: ChartMetric, p, X, Y, step: float = STEP) -> float:
    """g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2)."""
    p = np.asarray(p, dtype=float)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    g = chart.at(p)
    den = (X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2
    scale = max(1.0, float(X @ g @ X)) * max(1.0, float(Y @ g @ Y))
    if den <= 1e-12 * scale:
        raise ValueError("degenerate plane for sectional curvature")
    R = riemann(chart, p, step)
    num = np.einsum("ijkl,i,j,k,l->", R, X, Y, Y, X)
    return float(num / den)


def second_fundamental_form(ambient_chart: ChartMetric, embeddings: Sequence, p,
                            step: float = STEP) -> tuple[float, ...]:
    """The norm of II, max over (i, j) of the ambient length of II(e_i, e_j), per embedding.

    II(X, Y) is the normal component of the ambient covariant derivative.
    Each embedding maps base chart coordinates into ambient chart coordinates
    and must be an immersion at p (rank deficiency raises).  All of them must
    send p to the same ambient point q (else ValueError), so that one ambient
    Christoffel symbol at q serves every embedding.  Totally geodesic
    submanifolds are exactly those with vanishing norm.
    """
    p = np.asarray(p, dtype=float)
    tables = [_table(f, p, step) for f in embeddings]
    q = tables[0][0, 0]
    if any(np.abs(F[0, 0] - q).max() > 1e-12 * max(1.0, np.abs(q).max()) for F in tables):
        raise ValueError("embeddings send p to different ambient points")
    G_star = _sample(ambient_chart.at, q, step, _stencil(q.size)[0])
    G = G_star[0]
    Gamma = _christoffels(G_star[:, None], step)[0]
    out = []
    for F in tables:
        dF = _difference(F[1:], step)            # dF[i, b] = d_i f at p + step star[b]
        E = dF[:, 0].T
        # Hess[k, i, j] = d_i d_j of embedding coordinate k
        Hess = np.transpose(_difference(np.swapaxes(dF[:, 1:], 0, 1), step), (2, 1, 0))
        II = Hess + np.einsum("klm,li,mj->kij", Gamma, E, E)

        M = E.T @ G @ E
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] < 1e-12 * max(1.0, sv[0]):
            raise ValueError("embedding is rank deficient at p")
        # tangential projector in the ambient metric
        P = E @ np.linalg.solve(M, E.T @ G)
        II_normal = II - np.einsum("kl,lij->kij", P, II)
        norms = np.sqrt(np.einsum("kij,kl,lij->ij", II_normal, G, II_normal))
        out.append(float(norms.max()))
    return tuple(out)


def cone_metric_chart(base_chart: ChartMetric) -> ChartMetric:
    """The cone metric t^2 * g + dt^2 on base x R_+ (t is the last coordinate)."""
    d = base_chart.dim

    def ev(p):
        x, t = p[:d], p[d]
        if t <= 0.0:
            raise ChartFailureError("cone coordinate t must be positive")
        g = np.zeros((d + 1, d + 1))
        g[:d, :d] = t * t * base_chart.at(x)
        g[d, d] = 1.0
        return g

    return ChartMetric(d + 1, ev)
