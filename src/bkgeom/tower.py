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

import numpy as np
import scipy.linalg

from .cone import ConeModel, algebra_action, contact_frame, quotient_chart, sigma_sample, to_real
from .curvature import KaehlerModel, complex_to_real_endo
from .fdgeom import second_fundamental_form
from .hermitian import HermitianSpace, SuElement, su_element


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
    n1 = model.n + 1
    lam = np.concatenate([[lambda0], model.lambdas - lambda0 / n1])
    return ConeModel(lam, model.sigma_sign)


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


def verify_tower_geodesic(model: ConeModel, lambda0: float, samples: int = 3,
                          fd_step: float = 1e-4, seed: int = 0) -> TowerReport:
    """Second fundamental form of the embedded quotient inside the ambient one.

    The ambient contact frame is built to extend the embedded base frame,
    so the embedding is coordinate-linear between the two quotient charts;
    the control entry perturbs it by a quadratic bump and must be far from
    geodesic.
    """
    big = embedded_cone_model(model, lambda0)
    pts = sigma_sample(model, seed, samples)
    rng = np.random.default_rng(seed + 1)
    ii_norms, controls, iso = [], [], []
    for p in pts:
        frame = contact_frame(p, model)
        P = embed_cone_point(p)
        preset = np.vstack([np.zeros((1, frame.count), dtype=complex), frame.vectors])
        big_frame = contact_frame(P, big, preset=preset)
        chart = quotient_chart(big_frame)
        base_chart = quotient_chart(frame)

        kb = frame.count // 2           # base pairs; ambient has kb+1 pairs
        ka = big_frame.count

        def embed_coords(s, bump=0.0):
            out = np.zeros(ka)
            out[:kb] = s[:kb]
            out[kb + 1:2 * kb + 1] = s[kb:]
            out[kb] = bump * float(s @ s)
            return out

        base0 = np.zeros(frame.count)
        ii = second_fundamental_form(chart, lambda s: embed_coords(s), base0, fd_step)
        ii_bad = second_fundamental_form(chart, lambda s: embed_coords(s, bump=0.5),
                                         base0, fd_step)
        ii_norms.append(ii.norm)
        controls.append(ii_bad.norm)

        # isometry of the embedding: base metric vs pulled-back ambient metric
        E = np.zeros((ka, frame.count))
        for a in range(kb):
            E[a, a] = 1.0
            E[kb + 1 + a, kb + a] = 1.0
        worst = 0.0
        for _ in range(3):
            s = 0.05 * rng.standard_normal(frame.count)
            gb = base_chart.at(s)
            ga = E.T @ chart.at(embed_coords(s)) @ E
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


def is_sp(M, tol: float = 1e-10) -> bool:
    M = np.asarray(M, dtype=float)
    O = KaehlerModel(M.shape[0] // 2).J.T
    return np.linalg.norm(M.T @ O + O @ M) <= tol * max(1.0, np.linalg.norm(M))


def random_sp(rng: np.random.Generator, m: int, scale: float = 0.6) -> np.ndarray:
    """exp of a random sp(k, R) element (sp = Omega * symmetric)."""
    O = KaehlerModel(m // 2).J.T
    H = rng.standard_normal((m, m))
    H = 0.5 * (H + H.T)
    X = O @ H
    X *= scale / max(np.linalg.norm(X), 1e-30)
    return scipy.linalg.expm(X)


@dataclass(frozen=True)
class DualityReport:
    twisted_residual: float      # paired flows under the standard identification
    untwisted_residual: float    # same comparison without the trace twist
    sq_equivariance: float

    def to_dict(self) -> dict:
        return {
            "twisted_residual": self.twisted_residual,
            "untwisted_residual": self.untwisted_residual,
            "sp_square_equivariance": self.sq_equivariance,
        }


def duality_action_check(a, samples: int = 10, seed: int = 0,
                         timesteps: int = 64) -> DualityReport:
    """Compare the twisted u(m) cone flow against its symplectic partner.

    a must be skew-hermitian.  The su-side cone flow of a is
    exp(t (a + tr(a) I)); its partner in sp(m, R) is the realification of
    the same twisted matrix acting on R^(2m)/{+-1}.  Residuals are maxima
    over seeded start points and a uniform time grid on [0, 1], taking the
    +- quotient into account.
    """
    a = np.asarray(a, dtype=complex)
    if np.linalg.norm(a + a.conj().T) > 1e-10 * max(1.0, np.linalg.norm(a)):
        raise ValueError("duality check needs a skew-hermitian input")
    m = a.shape[0]
    twist = a + np.trace(a) * np.eye(m)
    M_twist = complex_to_real_endo(twist)
    M_plain = complex_to_real_endo(a)
    if not is_sp(M_twist) or not is_sp(M_plain):
        raise AssertionError("realified u(m) element left sp(m, R)")

    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, timesteps)
    resid_t, resid_u = 0.0, 0.0
    for _ in range(samples):
        x0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y0 = to_real(x0)
        for t in ts:
            xc = to_real(scipy.linalg.expm(t * twist) @ x0)
            yt = scipy.linalg.expm(t * M_twist) @ y0
            yu = scipy.linalg.expm(t * M_plain) @ y0
            resid_t = max(resid_t, min(np.linalg.norm(xc - yt), np.linalg.norm(xc + yt)))
            resid_u = max(resid_u, min(np.linalg.norm(xc - yu), np.linalg.norm(xc + yu)))

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
