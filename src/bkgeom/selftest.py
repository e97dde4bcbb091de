"""The acceptance criteria as one table, and the `selftest` battery that runs it.

Each row of CRITERIA is a function (seed, sizes) -> channels, where a
channel {"observed", "threshold", "comparison"} passes when
`observed <comparison> threshold` holds, plus two size presets: the
`acceptance` sizes tests/test_acceptance.py runs (at ACCEPTANCE_SEED) and
the trimmed `selftest` sizes.  Every finite difference runs at the one
step `fdgeom.STEP`, against the one gate FD_GATE of criteria 05-08.  A row
derives every seed it uses from `seed`, so one seed gives byte-identical
serialized reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cone, curvature, hermitian, orbits, sasaki, tower
from .fdgeom import STEP, cone_metric_chart, riemann

ACCEPTANCE_SEED = 0
# the gate of every finite-difference residual, calibrated at fdgeom.STEP
FD_GATE = 1e-3

_COMPARE = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}

# the Sasaki and cone-relation sample point, and the ellipsoid negative control
_P3 = np.array([0.2, -0.1, 0.3])
_ELLIPSOID_AXES = np.array([1.0, 1.3, 1.6, 0.8])


def _channel(observed, comparison: str, threshold) -> dict:
    return {"observed": observed, "threshold": threshold, "comparison": comparison}


def _passes(ch: dict) -> bool:
    return bool(_COMPARE[ch["comparison"]](ch["observed"], ch["threshold"]))


def _conjugated(A: hermitian.SuElement, seed: int) -> hermitian.SuElement:
    sp = A.space
    G = hermitian.group_conjugator(np.random.default_rng(seed), sp)
    return hermitian.su_element(hermitian.su_project(G @ A.matrix @ np.linalg.inv(G), sp), sp)


def _orbit(A: hermitian.SuElement) -> tuple:
    ot = orbits.classify(A)
    return ot.tag, ot.epsilon


# -- criteria --------------------------------------------------------------------


def orbit_classifier_soundness(seed: int, sizes: dict) -> dict:
    """Type and sign of seeded elements of every profile and of their conjugates.

    sizes["per_profile"] maps n to the draws per profile (jordan2 alternates
    epsilon); classification runs at its default tolerance, 1e-8.
    """
    wrong = wrong_conj = 0
    for n, count in sizes["per_profile"].items():
        sp = hermitian.HermitianSpace(n)
        for k in range(count):
            el_seed = seed + 100000 * n + 100 * k
            eps = 1 if k % 2 == 0 else -1
            for profile, want in (("diagonal-imaginary", ("1", None)),
                                  ("rank1", ("2a", 1)),
                                  ("rank1-negated", ("2b", -1)),
                                  ("jordan2", ("2a" if eps == 1 else "2b", eps)),
                                  ("jordan3", ("3", None)),
                                  ("split-real", ("4", None))):
                if profile == "rank1-negated":
                    A = hermitian.random_su(el_seed, sp, "rank1")
                    A = hermitian.su_element(-A.matrix, sp)
                else:
                    kw = {"epsilon": eps} if profile == "jordan2" else {}
                    A = hermitian.random_su(el_seed, sp, profile, **kw)
                wrong += _orbit(A) != want
                wrong_conj += sum(_orbit(_conjugated(A, el_seed + 7 + c)) != want
                                  for c in range(sizes["conjugations"]))
    return {"misclassified": _channel(wrong, "==", 0),
            "misclassified_conjugates": _channel(wrong_conj, "==", 0)}


def charpoly_invariant(seed: int, sizes: dict) -> dict:
    """Conjugation invariance on generic elements; closed form on projective generators.

    sizes["generic"] maps n to the draws; sizes["projective"] lists n for su(n+1, 1).
    The closed form is checked on a seeded U(n+1,1) conjugate of the diagonal
    projective generator, whose own spectrum would match it exactly.
    """
    worst_inv = 0.0
    for n, count in sizes["generic"].items():
        sp = hermitian.HermitianSpace(n)
        for k in range(count):
            A = hermitian.random_su(seed + k, sp, "generic")
            ca = orbits.char_poly(A).coefficients
            cc = orbits.char_poly(_conjugated(A, seed + k + 500)).coefficients
            worst_inv = max(worst_inv,
                            float(np.abs(ca - cc).max() / max(1.0, np.abs(ca).max())))
    worst_cp = 0.0
    for n in sizes["projective"]:
        cp = cone.cp_cone_model(n + 1).generator()
        pc = orbits.char_poly(_conjugated(cp, seed + 900 + n))
        target = np.poly(np.concatenate([
            np.full(n + 1, -1j / (2 * (n + 2))), [1j * (n + 1) / (2 * (n + 2))]]))
        worst_cp = max(worst_cp, float(np.abs(pc.coefficients - target).max()))
    return {"conjugation_residual": _channel(worst_inv, "<=", 1e-9),
            "projective_closed_form": _channel(worst_cp, "<=", 1e-12)}


def curvature_template(seed: int, sizes: dict) -> dict:
    """Symmetries and least-squares inverse of R_rho (sizes["rho"]: n -> draws); full rank."""
    rng = np.random.default_rng(seed + 42)
    worst_sym = worst_fit = 0.0
    deficiency = 0
    for n, count in sizes["rho"].items():
        km = curvature.KaehlerModel(n)
        basis = curvature.unitary_algebra_basis(n)
        for _ in range(count):
            rho = sum(rng.standard_normal() * b for b in basis)
            R = curvature.curvature_from_rho(rho, km)
            worst_sym = max(worst_sym, max(R.symmetry_residuals(km).values()))
            fit, _ = curvature.fit_rho(R, km)
            worst_fit = max(worst_fit, float(np.abs(fit - rho).max()))
        rank, expect = curvature.rho_map_rank(km)
        deficiency = max(deficiency, int(expect - rank))
    return {"symmetry_residual": _channel(worst_sym, "<=", 1e-10),
            "fit_error": _channel(worst_fit, "<=", 1e-9),
            "rank_deficiency": _channel(deficiency, "==", 0)}


def direction_flat_lemma(seed: int, sizes: dict) -> dict:
    """Kernel of the one-direction flatness system (sizes["directions"]: n -> draws)."""
    rng = np.random.default_rng(seed + 7)
    worst = 0
    for n, count in sizes["directions"].items():
        km = curvature.KaehlerModel(n)
        for _ in range(count):
            X0 = rng.standard_normal(2 * n)
            rep = curvature.direction_flat_check(np.zeros((2 * n, 2 * n)), X0, km)
            worst = max(worst, rep.kernel_dimension)
    return {"kernel_dimension": _channel(worst, "==", 0)}


def cone_flatness(seed: int, sizes: dict) -> dict:
    """Flat cone over S^(2n+1) for n in sizes["spheres"], ellipsoid control, cone relation."""
    flat = 0.0
    for n in sizes["spheres"]:
        chart = cone_metric_chart(sasaki.sphere_chart(2 * n + 1, 1.0))
        x = np.concatenate([[0.2, -0.1, 0.3, 0.1, -0.2][:2 * n + 1], [1.1]])
        flat = max(flat, float(np.abs(riemann(chart, x)).max()))
    ellipsoid = cone_metric_chart(sasaki.ellipsoid_chart(_ELLIPSOID_AXES))
    control = float(np.abs(riemann(ellipsoid, np.append(_P3, 1.1))).max())
    relation = sasaki.cone_relation_residual(sasaki.sphere_chart(3, 2.0), _P3)
    return {"flatness": _channel(flat, "<=", FD_GATE),
            "ellipsoid_control": _channel(control, ">=", 0.1),
            "relation": _channel(relation, "<=", FD_GATE)}


def sasaki_identity(seed: int, sizes: dict) -> dict:
    """Sasaki identity on the circle-action 3-sphere, radius-2 control, CP^1 pipeline."""
    good = sasaki.sasaki_residual(sasaki.hopf_sphere(3, 1.0), _P3)
    bad = sasaki.sasaki_residual(sasaki.hopf_sphere(3, 2.0), _P3)
    pipe = sasaki.cpn_pipeline(1, seed=seed, samples=sizes["pipeline_samples"])
    hs_mean = abs(float(pipe.quotient_hs_curvatures.mean()) - 4.0) / 4.0
    return {"identity": _channel(good.identity_residual, "<=", FD_GATE),
            "killing": _channel(good.killing_residual, "<=", FD_GATE),
            "radius2_control": _channel(bad.identity_residual, ">=", 0.1),
            "pipeline_sasaki": _channel(pipe.sasaki.max_residual(), "<=", FD_GATE),
            "pipeline_cone_flatness": _channel(pipe.cone_flatness, "<=", FD_GATE),
            "pipeline_cone_relation": _channel(pipe.cone_relation_residual, "<=", FD_GATE),
            "pipeline_hs_spread": _channel(pipe.quotient_hs_spread, "<=", FD_GATE),
            "pipeline_hs_mean": _channel(hs_mean, "<=", FD_GATE)}


def quotient_curvature_proposition(seed: int, sizes: dict) -> dict:
    """Quotient curvature identity against its wrong-coefficient control.

    sizes["points"] are the points on the projective n=2 model and random n=2, 3, 4
    models (chart dimensions 2, 2, 4, 6).
    """
    models = [cone.cp_cone_model(2), cone.random_type1_cone_model(2, seed + 11),
              cone.random_type1_cone_model(3, seed + 12),
              cone.random_type1_cone_model(4, seed + 13)]
    worst, ratio = 0.0, np.inf
    for i, (model, points) in enumerate(zip(models, sizes["points"])):
        rep = cone.verify_curvature_prop(model, points, seed=seed + 20 + i)
        worst = max(worst, rep.max_residual)
        ratio = min(ratio, rep.min_control_ratio)
    return {"residual": _channel(worst, "<=", FD_GATE),
            "control_ratio": _channel(ratio, ">=", 10.0)}


def tower_embeddings(seed: int, sizes: dict) -> dict:
    """Totally geodesic tower embeddings, their bump control, and action agreement.

    The projective n=2 model plus sizes["random_models"] random ones, sizes["samples"] points each.
    Action agreement is the equivariance D . (0, x) = (0, A . x) of each case,
    which holds only with the cone action's trace twist.
    """
    n = 2
    cases = [(cone.cp_cone_model(n), -1.0 / (2 * (n + 2)))]
    rng = np.random.default_rng(seed + 3)
    for k in range(sizes["random_models"]):
        cases.append((cone.random_type1_cone_model(2 + k % 2, seed + 30 + k),
                      float(rng.uniform(-0.5, 0.5))))
    worst_ii, worst_ctrl, worst_agree = 0.0, np.inf, 0.0
    for i, (model, lam0) in enumerate(cases):
        rep = tower.verify_tower_geodesic(model, lam0, samples=sizes["samples"],
                                          seed=seed + 40 + i)
        worst_ii = max(worst_ii, rep.max_ii)
        worst_ctrl = min(worst_ctrl, rep.min_control)
        worst_agree = max(worst_agree,
                          tower.action_agreement_residual(model, lam0, seed=seed + 40 + i))
    return {"second_fundamental_form": _channel(worst_ii, "<=", FD_GATE),
            "bump_control": _channel(worst_ctrl, ">=", 0.05),
            "action_agreement": _channel(worst_agree, "<=", 1e-12)}


def duality_flows(seed: int, sizes: dict) -> dict:
    """Twisted u(m) cone flow against its sp(m, R) partner (m = 2, 3, 4 in turn); squaring."""
    rng = np.random.default_rng(seed + 5)
    worst_flow = worst_sq = 0.0
    for k in range(sizes["elements"]):
        m = 2 + k % 3
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = 0.5 * (a - a.conj().T)
        rep = tower.duality_action_check(a, samples=3, seed=seed + k,
                                         timesteps=sizes["timesteps"])
        worst_flow = max(worst_flow, rep.twisted_residual)
        worst_sq = max(worst_sq, rep.sq_equivariance)
    return {"twisted_trajectory": _channel(worst_flow, "<=", 1e-6),
            "square_equivariance": _channel(worst_sq, "<=", 1e-10)}


# -- the table and its runners ---------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    number: int
    name: str
    run: Callable[[int, dict], dict]
    acceptance: dict
    selftest: dict

    @property
    def key(self) -> str:
        return f"{self.number:02d}_{self.name}"


CRITERIA = (
    Criterion(1, "orbit_classifier_soundness", orbit_classifier_soundness,
              {"per_profile": {2: 200, 3: 200, 4: 200}, "conjugations": 5},
              {"per_profile": {2: 4, 3: 4, 4: 1}, "conjugations": 1}),
    Criterion(2, "charpoly_invariant", charpoly_invariant,
              {"generic": {2: 8, 3: 8, 4: 8}, "projective": (1, 2, 3)},
              {"generic": {3: 1}, "projective": (2,)}),
    Criterion(3, "curvature_template", curvature_template,
              {"rho": {1: 34, 2: 33, 3: 33}},
              {"rho": {1: 3, 2: 3, 3: 3}}),
    Criterion(4, "direction_flat_lemma", direction_flat_lemma,
              {"directions": {1: 20, 2: 20, 3: 20}},
              {"directions": {1: 3, 2: 3, 3: 3}}),
    Criterion(5, "cone_flatness", cone_flatness,
              {"spheres": (1, 2)},
              {"spheres": (1,)}),
    Criterion(6, "sasaki_identity", sasaki_identity,
              {"pipeline_samples": 2},
              {"pipeline_samples": 2}),
    Criterion(7, "quotient_curvature_proposition", quotient_curvature_proposition,
              {"points": (10, 10, 10, 10)},
              {"points": (2, 2, 1, 1)}),
    Criterion(8, "tower", tower_embeddings,
              {"random_models": 3, "samples": 3},
              {"random_models": 1, "samples": 2}),
    Criterion(9, "duality_flows", duality_flows,
              {"elements": 20, "timesteps": 64},
              {"elements": 2, "timesteps": 16}),
)


def run_criterion(criterion: Criterion, seed: int, sizes: dict) -> dict:
    """{"channels": ..., "pass": ...} of one row at the given seed and sizes."""
    channels = criterion.run(seed, sizes)
    return {"channels": channels, "pass": all(_passes(ch) for ch in channels.values())}


def run_selftest(seed: int = 42) -> dict:
    """Every criterion at its selftest sizes."""
    criteria = {c.key: run_criterion(c, seed, c.selftest) for c in CRITERIA}
    return {
        "seed": int(seed),
        "fd_step": STEP,
        "criteria": criteria,
        "pass": all(c["pass"] for c in criteria.values()),
    }
