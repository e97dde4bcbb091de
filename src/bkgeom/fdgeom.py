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

`central_partials` is the one first-difference formula, here and in every
caller of the oracle; only the Hessian stencil of `second_fundamental_form`
is written out apart.  A chart refuses a point outside its domain by
raising from its `eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class ChartBoundaryError(ValueError):
    """An evaluation point left the chart domain."""


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


def central_partials(f, p, step: float) -> np.ndarray:
    """d_i f(p) by central differences, stacked on axis 0: (f(p+h) - f(p-h)) / (2 step)."""
    p = np.asarray(p, dtype=float)
    return np.array([(np.asarray(f(p + h)) - np.asarray(f(p - h))) / (2.0 * step)
                     for h in step * np.eye(p.size)])


def christoffel(chart: ChartMetric, p, step: float = 1e-4) -> np.ndarray:
    """Gamma[k, i, j] = Gamma^k_ij of the Levi-Civita connection."""
    p = np.asarray(p, dtype=float)
    g = chart.at(p)
    ginv = np.linalg.inv(g)
    dg = central_partials(chart.at, p, step)   # dg[k, i, j] = d_k g_ij
    # T[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    T = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", ginv, T)


def riemann(chart: ChartMetric, p, step: float = 1e-4) -> np.ndarray:
    """Curvature tensor at p; R[i,j,k,l] = g(R(e_i,e_j)e_k, e_l)."""
    p = np.asarray(p, dtype=float)
    Gamma = christoffel(chart, p, step)
    dGamma = central_partials(lambda q: christoffel(chart, q, step), p, step)
    Rup = (np.einsum("iljk->lijk", dGamma) - np.einsum("jlik->lijk", dGamma)
           + np.einsum("lim,mjk->lijk", Gamma, Gamma)
           - np.einsum("ljm,mik->lijk", Gamma, Gamma))
    g = chart.at(p)
    return np.einsum("lm,mijk->ijkl", g, Rup)


def sectional(chart: ChartMetric, p, X, Y, step: float = 1e-4) -> float:
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


@dataclass(frozen=True, eq=False)
class SecondFundamentalForm:
    """Normal-valued second fundamental form of an embedded chart."""

    components: np.ndarray   # shape (ambient_dim, d, d), normal part only
    tangent_frame: np.ndarray
    norm: float              # max over (i,j) of the ambient length of II(e_i, e_j)


def second_fundamental_form(ambient_chart: ChartMetric, embedding, p,
                            step: float = 1e-4) -> SecondFundamentalForm:
    """II(X, Y) = normal component of the ambient covariant derivative.

    `embedding` maps base chart coordinates into ambient chart coordinates;
    it must be an immersion at p (rank deficiency raises).  Totally
    geodesic submanifolds are exactly those with vanishing norm.
    """
    p = np.asarray(p, dtype=float)
    d = p.size
    q = np.asarray(embedding(p), dtype=float)
    D = q.size

    E = central_partials(embedding, p, step).T

    Hess = np.empty((D, d, d))
    for i in range(d):
        hi = np.zeros(d)
        hi[i] = step
        Hess[:, i, i] = (np.asarray(embedding(p + hi)) - 2.0 * q
                         + np.asarray(embedding(p - hi))) / step ** 2
        for j in range(i + 1, d):
            hj = np.zeros(d)
            hj[j] = step
            mixed = (np.asarray(embedding(p + hi + hj))
                     - np.asarray(embedding(p + hi - hj))
                     - np.asarray(embedding(p - hi + hj))
                     + np.asarray(embedding(p - hi - hj))) / (4.0 * step ** 2)
            Hess[:, i, j] = Hess[:, j, i] = mixed

    G = ambient_chart.at(q)
    Gamma = christoffel(ambient_chart, q, step)
    II = Hess + np.einsum("klm,li,mj->kij", Gamma, E, E)

    M = E.T @ G @ E
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < 1e-12 * max(1.0, sv[0]):
        raise ValueError("embedding is rank deficient at p")
    # tangential projector in the ambient metric
    P = E @ np.linalg.solve(M, E.T @ G)
    II_normal = II - np.einsum("kl,lij->kij", P, II)
    norms = np.sqrt(np.einsum("kij,kl,lij->ij", II_normal, G, II_normal))
    return SecondFundamentalForm(II_normal, E, float(norms.max()))


def cone_metric_chart(base_chart: ChartMetric) -> ChartMetric:
    """The cone metric t^2 * g + dt^2 on base x R_+ (t is the last coordinate)."""
    d = base_chart.dim

    def ev(p):
        x, t = p[:d], p[d]
        if t <= 0.0:
            raise ChartBoundaryError("cone coordinate t must be positive")
        g = np.zeros((d + 1, d + 1))
        g[:d, :d] = t * t * base_chart.at(x)
        g[d, d] = 1.0
        return g

    return ChartMetric(d + 1, ev)


def euclidean_chart(dim: int) -> ChartMetric:
    return ChartMetric(dim, lambda p: np.eye(dim))
