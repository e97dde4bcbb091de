"""Sasaki structure checks and the Kaehler-cone correspondence at desk scale.

A Sasaki manifold is a Riemannian manifold with a unit Killing field xi
whose curvature satisfies R(X, xi)Y = g(xi, Y)X - g(X, Y)xi; equivalently
its metric cone t^2 g + dt^2 is Kaehler.  This module instantiates the
checkable case: odd round spheres with the circle-action field xi(z) = iz,
whose cone is flat and whose quotient is complex projective space with
constant holomorphic sectional curvature.

Sphere charts are inverse-stereographic, a single smooth chart that misses
one pole (the pole preimage sits at infinity, so bounded samples stay clear
of it).  The quotient CP^n is the cone layer's `quotient_chart` of the unit
sphere, the section of the `ConeModel` with action -i x.  All
differential-geometric quantities come from the fdgeom finite-difference
oracle.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .cone import ConeModel, contact_frame, quotient_chart, sigma_sample
from .curvature import KaehlerModel
from .fdgeom import (STEP, ChartMetric, central_partials, christoffel, cone_metric_chart,
                     riemann, sectional)


# -- round spheres in the inverse stereographic chart -------------------------


def sphere_embedding(x, radius: float = 1.0) -> np.ndarray:
    """Chart point x in R^m to the sphere S^m(radius) in R^(m+1)."""
    x = np.asarray(x, dtype=float)
    s = 1.0 + x @ x
    return radius * np.concatenate([2.0 * x, [1.0 - x @ x]]) / s


def sphere_jacobian(x, radius: float = 1.0) -> np.ndarray:
    """Closed-form differential of sphere_embedding (part of the chart data)."""
    x = np.asarray(x, dtype=float)
    m = x.size
    s = 1.0 + x @ x
    J = np.zeros((m + 1, m))
    J[:m, :] = 2.0 * (s * np.eye(m) - 2.0 * np.outer(x, x))
    J[m, :] = -4.0 * x
    return radius * J / s ** 2


def sphere_chart(m: int, radius: float = 1.0) -> ChartMetric:
    """Round S^m(radius): conformal metric 4 r^2 delta / (1 + |x|^2)^2."""

    def ev(x):
        s = 1.0 + x @ x
        return (4.0 * radius * radius / s ** 2) * np.eye(m)

    return ChartMetric(m, ev)


def ellipsoid_chart(axes) -> ChartMetric:
    """Pullback metric of diag(axes) . S^m; the negative control for flatness."""
    axes = np.asarray(axes, dtype=float)
    m = axes.size - 1
    A2 = np.diag(axes ** 2)

    def ev(x):
        J = sphere_jacobian(x, 1.0)
        return J.T @ A2 @ J

    return ChartMetric(m, ev)


def hopf_field(m: int, radius: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """The circle-action field xi(z) = iz of S^m(radius), m odd, in chart coordinates.

    Ambient R^(m+1) is identified with C^((m+1)/2) by stacking real over
    imaginary parts.  The chart is conformal, Dq^T Dq = (2r/s)^2 I with
    s = 1 + |x|^2, and Jq is tangent, so the chart representation of Jq is
    (s/2r)^2 Dq^T Jq.
    """
    if m % 2 == 0:
        raise ValueError("the circle-action field needs an odd-dimensional sphere")
    Jamb = KaehlerModel((m + 1) // 2).J

    def xi(x):
        x = np.asarray(x, dtype=float)
        s = 1.0 + x @ x
        Dq = sphere_jacobian(x, radius)
        return (s / (2.0 * radius)) ** 2 * (Dq.T @ (Jamb @ sphere_embedding(x, radius)))

    return xi


@dataclass(frozen=True)
class SasakiData:
    """A candidate Sasaki structure: odd-dimensional chart plus field."""

    chart: ChartMetric
    xi: Callable[[np.ndarray], np.ndarray]


def hopf_sphere(m: int = 3, radius: float = 1.0) -> SasakiData:
    return SasakiData(sphere_chart(m, radius), hopf_field(m, radius))


# -- residual reports ----------------------------------------------------------


@dataclass(frozen=True)
class SasakiReport:
    unit_residual: float
    killing_residual: float
    identity_residual: float

    def max_residual(self) -> float:
        return max(self.unit_residual, self.killing_residual, self.identity_residual)


def killing_residual(data: SasakiData, p, step: float = STEP) -> float:
    """Max entry of the Lie derivative (L_xi g)_ij, finite-differenced."""
    p = np.asarray(p, dtype=float)
    g = data.chart.at(p)
    dg = central_partials(data.chart.at, p, step)
    xv = np.asarray(data.xi(p))
    dxi = central_partials(data.xi, p, step)   # dxi[i, k] = d_i xi^k
    lie = (np.einsum("k,kij->ij", xv, dg)
           + np.einsum("ik,kj->ij", dxi, g)
           + np.einsum("jk,ik->ij", dxi, g))
    return float(np.abs(lie).max())


def sasaki_residual(data: SasakiData, p, step: float = STEP) -> SasakiReport:
    """Residuals of unit length, Killing property and the Sasaki curvature identity."""
    p = np.asarray(p, dtype=float)
    g = data.chart.at(p)
    xv = np.asarray(data.xi(p))
    unit = float(abs(xv @ g @ xv - 1.0))
    kill = killing_residual(data, p, step)

    # R(e_i, xi, e_k, .) - g(xi, e_k) g(e_i, .) + g(e_i, e_k) g(xi, .), as covectors
    gxi = g @ xv
    diff = (np.einsum("ijkl,j->ikl", riemann(data.chart, p, step), xv)
            - gxi[None, :, None] * g[:, None, :] + g[:, :, None] * gxi[None, None, :])
    resid = float(np.sqrt(np.einsum("ikl,lm,ikm->ik", diff, np.linalg.inv(g), diff)).max())
    return SasakiReport(unit, kill, resid)


@dataclass(frozen=True)
class TransversalReport:
    square_residual: float       # ||J^2 + Id|| on the contact hyperplane
    contact_residual: float      # |lambda(J X)| on the hyperplane
    nabla_j_residual: float      # ||(nabla_X J) Y|| over hyperplane pairs


def transversal_J(data: SasakiData, p, step: float = STEP):
    """J(X) = -nabla_X xi restricted to D = ker g(., xi).

    Returns (J matrix, TransversalReport); J^2 = -Id and the vanishing of
    nabla J hold on D only, which is what the report measures.
    """
    p = np.asarray(p, dtype=float)
    g = data.chart.at(p)
    xv = np.asarray(data.xi(p))
    if np.sqrt(abs(xv @ g @ xv)) < 1e-12:
        raise ValueError("degenerate xi; no transversal structure")
    d = data.chart.dim

    def J_at(q):
        Gam = christoffel(data.chart, q, step)
        dxi = central_partials(data.xi, q, step)
        xiq = np.asarray(data.xi(q))
        # (nabla_i xi)^k = d_i xi^k + Gamma^k_im xi^m
        nab = dxi.T + np.einsum("kim,m->ki", Gam, xiq)
        return -nab, Gam

    J, Gam = J_at(p)   # Gam at p serves the covariant derivative below too

    # contact hyperplane: g-orthogonal complement of xi
    gxi = g @ xv
    _, _, vh = np.linalg.svd(gxi[None, :])
    D = vh[1:].T  # d-1 columns spanning ker
    sq = J @ J + np.eye(d)
    square_res = float(np.abs(sq @ D).max())
    contact_res = float(np.abs(gxi @ (J @ D)).max())

    # (nabla_X J) Y for hyperplane pairs X = D_a, Y = D_b, with Y extended
    # coordinate-constant: d_X(J Y) + Gamma(X, J Y) - J Gamma(X, Y); dJ[a]
    # differences J at p +- step D_a
    dJ = central_partials(lambda s: J_at(p + D @ s)[0], np.zeros(d - 1), step)
    diff = (dJ @ D + np.einsum("kim,ia,mb->akb", Gam, D, J @ D)
            - J @ np.einsum("kim,ia,mb->akb", Gam, D, D))
    # the parallelism statement lives on D: (nabla_X J)Y has only a
    # xi-component (equal to g(X,Y) xi on a Sasaki manifold)
    diff = diff - xv[None, :, None] * (gxi @ diff / float(xv @ gxi))[:, None, :]
    nabJ = float(np.sqrt(np.einsum("akb,kl,alb->ab", diff, g, diff)).max())
    return J, TransversalReport(square_res, contact_res, nabJ)


# -- the projective quotient ---------------------------------------------------


def quotient_hs_curvatures(model: ConeModel, rng: np.random.Generator, count: int,
                           fd_step: float = STEP) -> np.ndarray:
    """Holomorphic sectional curvatures K(X, J0 X) of Sigma / flow at `count` section points.

    Each is read at the centre of a point's quotient chart, where the complex
    structure is exactly J0; rng draws the sample seed and each direction X.
    """
    J0 = KaehlerModel(model.n - 1).J
    ks = []
    for p in sigma_sample(model, int(rng.integers(2 ** 31)), count):
        chart = quotient_chart(contact_frame(p, model))
        X = rng.standard_normal(chart.dim)
        ks.append(sectional(chart, np.zeros(chart.dim), X, J0 @ X, fd_step))
    return np.array(ks)


# -- the full pipeline ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PipelineReport:
    sasaki: SasakiReport
    cone_flatness: float
    cone_relation_residual: float
    quotient_hs_curvatures: np.ndarray
    quotient_hs_spread: float

    def to_dict(self) -> dict:
        return {
            "unit_residual": self.sasaki.unit_residual,
            "killing_residual": self.sasaki.killing_residual,
            "identity_residual": self.sasaki.identity_residual,
            "cone_flatness": self.cone_flatness,
            "cone_relation_residual": self.cone_relation_residual,
            "quotient_hs_mean": float(self.quotient_hs_curvatures.mean()),
            "quotient_hs_spread": self.quotient_hs_spread,
        }


def cone_relation_residual(base: ChartMetric, x, step: float = STEP) -> float:
    """Residual of R_cone(X,Y)Z = R_base(X,Y)Z + g(X,Z)Y - g(Y,Z)X at t = 1.

    Lifted coordinate fields of the product chart restrict to base
    coordinate fields, and at t = 1 the cone metric agrees with the base
    metric, so the lowered tensors compare entrywise.
    """
    x = np.asarray(x, dtype=float)
    d = base.dim
    cone = cone_metric_chart(base)
    Rc = riemann(cone, np.concatenate([x, [1.0]]), step)
    Rb = riemann(base, x, step)
    g = base.at(x)
    correction = np.einsum("ik,jl->ijkl", g, g) - np.einsum("jk,il->ijkl", g, g)
    return float(np.abs(Rc[:d, :d, :d, :d] - (Rb + correction)).max())


def cpn_pipeline(n: int, fd_step: float = STEP, seed: int = 0,
                 samples: int = 3) -> PipelineReport:
    """Round S^(2n+1) -> Sasaki residuals -> flat cone -> CP^n curvature constancy.

    CP^n is the quotient of the same unit sphere, the section of action -i x.
    """
    rng = np.random.default_rng(seed)
    m = 2 * n + 1
    data = hopf_sphere(m, 1.0)
    cone = cone_metric_chart(data.chart)

    worst, flat, relation = np.zeros(3), 0.0, 0.0
    for _ in range(samples):
        x = rng.uniform(-0.6, 0.6, m)
        worst = np.maximum(worst, astuple(sasaki_residual(data, x, fd_step)))
        Rc = riemann(cone, np.concatenate([x, [1.0 + 0.2 * rng.uniform()]]), fd_step)
        flat = max(flat, float(np.abs(Rc).max()))
        relation = max(relation, cone_relation_residual(data.chart, x, fd_step))

    unit_sphere = ConeModel(np.full(n + 1, -1.0 / (n + 2)), sigma_sign=-1)
    ks = quotient_hs_curvatures(unit_sphere, rng, max(samples, 3), fd_step)
    return PipelineReport(SasakiReport(*worst.tolist()), flat, relation, ks, float(ks.std()))
