"""Sasaki structure checks and the Kaehler-cone correspondence at desk scale.

A Sasaki manifold is a Riemannian manifold with a unit Killing field xi
whose curvature satisfies R(X, xi)Y = g(xi, Y)X - g(X, Y)xi; equivalently
its metric cone t^2 g + dt^2 is Kaehler.  This module instantiates the
checkable case: odd round spheres with the circle-action field xi(z) = iz,
whose cone is flat and whose quotient is complex projective space with
constant holomorphic sectional curvature.

Charts are inverse-stereographic, a single smooth chart that misses one
pole (the pole preimage sits at infinity, so bounded samples stay clear
of it).  All differential-geometric quantities come from the fdgeom
finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curvature import KaehlerModel
from .fdgeom import ChartMetric, christoffel, cone_metric_chart, metric_partials, riemann, sectional


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
    imaginary parts; the chart representation solves the (injective)
    jacobian system at each point.
    """
    if m % 2 == 0:
        raise ValueError("the circle-action field needs an odd-dimensional sphere")
    Jamb = KaehlerModel((m + 1) // 2).J

    def xi(x):
        q = sphere_embedding(x, radius)
        Dq = sphere_jacobian(x, radius)
        v, *_ = np.linalg.lstsq(Dq, Jamb @ q, rcond=None)
        return v

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


def _field_partials(xi, p, step):
    d = p.size
    out = np.empty((d, d))
    for i in range(d):
        h = np.zeros(d)
        h[i] = step
        out[i] = (np.asarray(xi(p + h)) - np.asarray(xi(p - h))) / (2.0 * step)
    return out  # out[i, k] = d_i xi^k


def killing_residual(data: SasakiData, p, step: float = 1e-4) -> float:
    """Max entry of the Lie derivative (L_xi g)_ij, finite-differenced."""
    p = np.asarray(p, dtype=float)
    g = data.chart.at(p)
    dg = metric_partials(data.chart, p, step)
    xv = np.asarray(data.xi(p))
    dxi = _field_partials(data.xi, p, step)
    lie = (np.einsum("k,kij->ij", xv, dg)
           + np.einsum("ik,kj->ij", dxi, g)
           + np.einsum("jk,ik->ij", dxi, g))
    return float(np.abs(lie).max())


def sasaki_residual(data: SasakiData, p, step: float = 1e-4) -> SasakiReport:
    """Residuals of unit length, Killing property and the Sasaki curvature identity."""
    p = np.asarray(p, dtype=float)
    g = data.chart.at(p)
    xv = np.asarray(data.xi(p))
    unit = float(abs(xv @ g @ xv - 1.0))
    kill = killing_residual(data, p, step)

    d = data.chart.dim
    Rup = riemann(data.chart, p, step, lowered=False)
    resid = 0.0
    eye = np.eye(d)
    # R(e_i, xi) e_k = Rup[l, i, j, k] xi^j
    Rxi = np.einsum("lijk,j->lik", Rup, xv)
    for i in range(d):
        for k in range(d):
            lhs = Rxi[:, i, k]
            rhs = float(xv @ g @ eye[k]) * eye[i] - float(eye[i] @ g @ eye[k]) * xv
            diff = lhs - rhs
            resid = max(resid, float(np.sqrt(diff @ g @ diff)))
    return SasakiReport(unit, kill, resid)


@dataclass(frozen=True)
class TransversalReport:
    square_residual: float       # ||J^2 + Id|| on the contact hyperplane
    contact_residual: float      # |lambda(J X)| on the hyperplane
    nabla_j_residual: float      # ||(nabla_X J) Y|| over hyperplane pairs


def transversal_J(data: SasakiData, p, step: float = 1e-4):
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
        dxi = _field_partials(data.xi, q, step)
        xiq = np.asarray(data.xi(q))
        # (nabla_i xi)^k = d_i xi^k + Gamma^k_im xi^m
        nab = dxi.T + np.einsum("kim,m->ki", Gam, xiq)
        return -nab

    J = J_at(p)

    # contact hyperplane: g-orthogonal complement of xi
    row = (g @ xv)[None, :]
    _, _, vh = np.linalg.svd(row)
    D = vh[1:].T  # d-1 columns spanning ker
    sq = J @ J + np.eye(d)
    square_res = float(np.abs(sq @ D).max())
    contact_res = float(np.abs((g @ xv) @ (J @ D)).max())

    Gam = christoffel(data.chart, p, step)
    xi_gnorm2 = float(xv @ g @ xv)
    nabJ = 0.0
    for a in range(D.shape[1]):
        X = D[:, a]
        for b in range(D.shape[1]):
            Y = D[:, b]
            # nabla_X (J Y) for the coordinate-constant extension of Y
            h = step * X
            W_plus = J_at(p + h) @ Y
            W_minus = J_at(p - h) @ Y
            dW = (W_plus - W_minus) / (2.0 * step)
            nab_X_JY = dW + np.einsum("kim,i,m->k", Gam, X, J @ Y)
            nab_X_Y = np.einsum("kim,i,m->k", Gam, X, Y)
            diff = nab_X_JY - J @ nab_X_Y
            # the parallelism statement lives on D: (nabla_X J)Y has only a
            # xi-component (equal to g(X,Y) xi on a Sasaki manifold)
            diff = diff - xv * float(diff @ g @ xv) / xi_gnorm2
            nabJ = max(nabJ, float(np.sqrt(diff @ g @ diff)))
    return J, TransversalReport(square_res, contact_res, nabJ)


# -- projective quotient chart -------------------------------------------------


def cpn_quotient_chart(n: int, radius: float = 1.0) -> ChartMetric:
    """Riemannian submersion metric of S^(2n+1)(radius) / circle action.

    Affine chart w in C^n |-> z = radius * (w, 1)/|(w, 1)|; tangent vectors
    are lifted, projected onto the horizontal space {z, iz}^perp and paired
    with the ambient metric.  Real coordinates stack Re(w) over Im(w).
    """

    def ev(p):
        w = p[:n] + 1j * p[n:]
        zl = np.concatenate([w, [1.0]])
        nz = np.linalg.norm(zl)
        z = radius * zl / nz
        # differential of the normalized lift applied to basis vectors
        cols = []
        for a in range(2 * n):
            dv = np.zeros(n, dtype=complex)
            dv[a % n] = 1.0 if a < n else 1.0j
            dzl = np.concatenate([dv, [0.0]])
            dz = radius * (dzl / nz - zl * np.vdot(zl, dzl).real / nz ** 3)
            # horizontal projection: remove components along z and iz
            dz = dz - z * np.vdot(z, dz).real / radius ** 2
            dz = dz - (1j * z) * np.vdot(1j * z, dz).real / radius ** 2
            cols.append(dz)
        g = np.empty((2 * n, 2 * n))
        for a in range(2 * n):
            for b in range(a, 2 * n):
                g[a, b] = g[b, a] = np.vdot(cols[a], cols[b]).real
        return g

    return ChartMetric(2 * n, ev)


# -- the full pipeline ---------------------------------------------------------


@dataclass(frozen=True)
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


def cone_relation_residual(base: ChartMetric, x, step: float = 1e-4) -> float:
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


def cpn_pipeline(n: int, fd_step: float = 1e-4, seed: int = 0,
                 samples: int = 3) -> PipelineReport:
    """Round S^(2n+1) -> Sasaki residuals -> flat cone -> CP^n curvature constancy."""
    rng = np.random.default_rng(seed)
    m = 2 * n + 1
    data = hopf_sphere(m, 1.0)

    worst = SasakiReport(0.0, 0.0, 0.0)
    flat = 0.0
    relation = 0.0
    for _ in range(samples):
        x = rng.uniform(-0.6, 0.6, m)
        rep = sasaki_residual(data, x, fd_step)
        worst = SasakiReport(max(worst.unit_residual, rep.unit_residual),
                             max(worst.killing_residual, rep.killing_residual),
                             max(worst.identity_residual, rep.identity_residual))
        cone = cone_metric_chart(data.chart)
        Rc = riemann(cone, np.concatenate([x, [1.0 + 0.2 * rng.uniform()]]), fd_step)
        flat = max(flat, float(np.abs(Rc).max()))
        relation = max(relation, cone_relation_residual(data.chart, x, fd_step))

    chart = cpn_quotient_chart(n, 1.0)
    J0 = KaehlerModel(n).J   # in the affine chart the complex structure is the coordinate one
    ks = []
    for _ in range(max(samples, 3)):
        p = rng.uniform(-0.5, 0.5, 2 * n)
        X = rng.standard_normal(2 * n)
        ks.append(sectional(chart, p, X, J0 @ X, fd_step))
    ks = np.array(ks)
    return PipelineReport(worst, flat, relation, ks, float(ks.std()))
