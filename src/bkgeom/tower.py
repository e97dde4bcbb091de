"""Tower embeddings su(n,1) -> su(n+1,1) and the symplectic duality checks.

A generator A in su(n,1) embeds, for each real lambda0, as

    D_lambda0 = [[i lambda0, 0], [0, A - (i lambda0/(n+1)) I]]

in su(n+1,1) (lambda0 parameterizes the purely imaginary corner entry).
The embedded cone C^n -> 0 x C^n c C^(n+1) is equivariant: D acts on
embedded points exactly as A does, independently of lambda0, and the
section of D restricts to the section of A.  The induced quotient
embedding is totally geodesic, which `verify_tower_geodesic` checks with
the finite-difference second fundamental form; lambda0 |-> D_lambda0 is
affine, realizing the one-parameter family of ambient geometries.

The duality side pairs the u(m) action on the su cone (which carries the
determinant twist a |-> a + tr(a) I) with the standard action of the same
twisted element realified inside sp(m, R) on R^(2m)/{+-1}.  Trajectories
of the paired flows agree under the fixed identification z = u + iv |->
(u, v); dropping the twist breaks the match whenever tr(a) != 0, which the
report records as the untwisted channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .cone import (ConeModel, DistributionFrame, algebra_action, contact_frame, induced_metric,
                   quotient_chart, sigma_sample)
from .curvature import KaehlerModel, complex_to_real_endo, to_real
from .fdgeom import STEP, second_fundamental_form
from .hermitian import HermitianSpace, SuElement, cayley, su_element


def embed_generator(A: SuElement, lambda0: float) -> SuElement:
    """D_lambda0 in su(n+1,1); corner entry i*lambda0, block A - (i lambda0/(n+1)) I."""
    n = A.space.n
    d = A.matrix.shape[0]
    out = np.zeros((d + 1, d + 1), dtype=complex)
    out[0, 0] = 1j * lambda0
    out[1:, 1:] = A.matrix - (1j * lambda0 / d) * np.eye(d)
    return su_element(out, HermitianSpace(n + 1), A.tolerance_used)


def embedded_cone_model(model: ConeModel, lambda0: float) -> ConeModel:
    """Cone-model data of embed_generator for a diagonal model."""
    D = embed_generator(model.generator(), lambda0)
    return ConeModel(D.matrix.diagonal()[:-1].imag, model.sigma_sign)


def embed_cone_point(x) -> np.ndarray:
    """C^n point into the embedded cone 0 x C^n."""
    x = np.asarray(x, dtype=complex)
    return np.concatenate([[0.0], x])


@dataclass(frozen=True)
class TowerReport:
    lambda0: float
    ii_norms: tuple[float, ...]
    control_norms: tuple[float, ...]
    isometry_residuals: tuple[float, ...]

    @property
    def max_ii(self) -> float:
        return max(self.ii_norms)

    @property
    def min_control(self) -> float:
        return min(self.control_norms)

    @property
    def max_isometry_residual(self) -> float:
        return max(self.isometry_residuals)

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "max_ii_norm": self.max_ii,
            "min_control_norm": self.min_control,
            "max_isometry_residual": self.max_isometry_residual,
            "ii_norms": list(self.ii_norms),
        }


@cache
def _frame_turn(n: int) -> np.ndarray:
    """The fixed real unitary of R^(2n) that turns the ambient frame coordinates."""
    M = np.random.default_rng(0).standard_normal((n, 2 * n)).view(complex)
    turn = complex_to_real_endo(cayley(M - M.conj().T))
    turn.setflags(write=False)   # one array is shared by every call at this n
    return turn


def verify_tower_geodesic(model: ConeModel, lambda0: float, samples: int = 3,
                          fd_step: float = STEP, seed: int = 0) -> TowerReport:
    """Second fundamental form of the embedded quotient inside the ambient one.

    Both contact frames come from `contact_frame`, and the embedded base
    frame [0; F] lies in the ambient distribution, so the base chart embeds
    by the constant frame-coordinate map E = g_D(F_big, [0; F]).  The ambient
    frame is turned by one fixed unitary of its frame coordinates first: eigh
    may return a basis of its degenerate eigenspaces that extends [0; F], and
    then E would be a coordinate injection whose reflection symmetry zeroes
    the finite-difference II exactly; turned, II is measured at second order
    on every LAPACK.  The control bumps the embedding quadratically along a
    unit normal to E's range and must be far from geodesic.
    """
    big = embedded_cone_model(model, lambda0)
    pts = sigma_sample(model, seed, samples)
    rng = np.random.default_rng(seed + 1)
    mix = _frame_turn(model.n)
    ii_norms, controls, iso = [], [], []
    for p in pts:
        frame = contact_frame(p, model)
        P = embed_cone_point(p)
        big_frame = DistributionFrame(P, contact_frame(P, big).vectors @ mix, big)
        chart = quotient_chart(big_frame)
        base_chart = quotient_chart(frame)
        E = induced_metric(P, big_frame.vectors, np.vstack([np.zeros((1, frame.count)),
                                                            frame.vectors]))
        normal = np.linalg.svd(E)[0][:, -1]

        # one ambient Christoffel symbol at the shared image point serves both
        ii, ii_bad = second_fundamental_form(
            chart, [lambda s: E @ s, lambda s: E @ s + 0.5 * float(s @ s) * normal],
            np.zeros(frame.count), fd_step)
        ii_norms.append(ii)
        controls.append(ii_bad)

        # isometry of the embedding: base metric vs pulled-back ambient metric
        worst = 0.0
        for _ in range(3):
            s = 0.05 * rng.standard_normal(frame.count)
            gb = base_chart.at(s)
            ga = E.T @ chart.at(E @ s) @ E
            worst = max(worst, float(np.abs(gb - ga).max()))
        iso.append(worst)
    return TowerReport(lambda0, tuple(ii_norms), tuple(controls), tuple(iso))


# -- symplectic side -----------------------------------------------------------


def sp_square(x) -> np.ndarray:
    """The rank-one squaring map of R^(2k): (x o x) z = 2 omega(x, z) x.

    In stacked coordinates omega(x, y) = x^T J0^T y = sum du_j ^ dv_j.
    """
    x = np.asarray(x, dtype=float)
    J0 = KaehlerModel(x.size // 2).J
    return 2.0 * np.outer(x, J0 @ x)


def random_sp(rng: np.random.Generator, m: int) -> np.ndarray:
    """The Cayley map of a norm-0.6 random sp(k, R) element (sp = Omega * symmetric).

    It lies in Sp(2k, R): g^T Omega g = Omega up to roundoff.
    """
    O = KaehlerModel(m // 2).J.T
    H = rng.standard_normal((m, m))
    H = 0.5 * (H + H.T)
    X = O @ H
    X *= 0.6 / max(np.linalg.norm(X), 1e-30)
    return cayley(X)


@dataclass(frozen=True)
class DualityReport:
    twisted_residual: float      # paired flows under the standard identification
    untwisted_residual: float    # same comparison without the trace twist
    sq_equivariance: float


def _unitary_flow(X, ts) -> np.ndarray:
    """exp(t X) for each t in ts, stacked, for a skew-hermitian X.

    One eigh of the hermitian iX = V diag(w) V^* gives every time at once
    as V diag(exp(-i t w)) V^*.  A real X (real antisymmetric) gets the
    real part.
    """
    w, V = np.linalg.eigh(1j * X)
    phases = np.exp(-1j * np.multiply.outer(ts, w))
    flows = (V * phases[..., None, :]) @ V.conj().T
    return flows.real if np.isrealobj(X) else flows


def _pm_distance(x, y) -> float:
    """max over rows of min(|x - y|, |x + y|): the distance on R^(2m)/{+-1}.

    Each row norm is sqrt(v . v) as a stacked mat-vec, which equals
    np.linalg.norm of that row bit for bit.
    """
    def row_norms(v):
        return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]

    return float(np.minimum(row_norms(x - y), row_norms(x + y)).max(initial=0.0))


def duality_action_check(a, samples: int = 10, seed: int = 0,
                         timesteps: int = 64) -> DualityReport:
    """Compare the twisted u(m) cone flow against its symplectic partner.

    a must be skew-hermitian.  The su-side cone flow of a is
    exp(t (a + tr(a) I)); its partner in sp(m, R) is the realification of
    the same twisted matrix acting on R^(2m)/{+-1}.  Residuals are maxima
    over seeded start points and a uniform time grid on [0, 1], taking the
    +- quotient into account.  Each of the three flows is computed once on
    the time grid, from one eigendecomposition, and then applied to every
    start point.
    """
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a + a.conj().T) > 1e-10 * max(1.0, np.linalg.norm(a)):
        raise ValueError("duality check needs a skew-hermitian input")
    m = a.shape[0]
    twist = algebra_action(a, np.eye(m))   # a + tr(a) I
    M_twist = complex_to_real_endo(twist)
    M_plain = complex_to_real_endo(a)

    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, timesteps)
    flow_c, flow_t, flow_u = (_unitary_flow(X, ts) for X in (twist, M_twist, M_plain))
    resid_t, resid_u = 0.0, 0.0
    for _ in range(samples):
        x0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y0 = to_real(x0)
        xc = to_real(np.matmul(flow_c, x0))
        resid_t = max(resid_t, _pm_distance(xc, np.matmul(flow_t, y0)))
        resid_u = max(resid_u, _pm_distance(xc, np.matmul(flow_u, y0)))

    g = random_sp(rng, 2 * m)
    equi = 0.0
    for _ in range(samples):
        x = rng.standard_normal(2 * m)
        lhs = sp_square(g @ x)
        rhs = g @ sp_square(x) @ np.linalg.inv(g)
        equi = max(equi, float(np.abs(lhs - rhs).max() / max(1.0, np.abs(rhs).max())))
    return DualityReport(resid_t, resid_u, equi)


def action_agreement_residual(model: ConeModel, lambda0: float, seed: int = 0,
                              samples: int = 20) -> float:
    """max residual of D . (0, x) = (0, A . x) over random cone points."""
    A = model.generator()
    D = embed_generator(A, lambda0)
    a_small = A.matrix[:-1, :-1]
    a_big = D.matrix[:-1, :-1]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
        lhs = algebra_action(a_big, embed_cone_point(x))
        rhs = embed_cone_point(algebra_action(a_small, x))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
