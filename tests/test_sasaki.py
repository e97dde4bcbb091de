import numpy as np
import pytest

from bkgeom import sasaki
from bkgeom.cone import ConeModel, cp_cone_model, random_type1_cone_model
from bkgeom.fdgeom import ChartMetric, central_partials, christoffel, cone_metric_chart, riemann
from bkgeom.sasaki import (
    SasakiData,
    cone_relation_residual,
    cpn_pipeline,
    ellipsoid_chart,
    hopf_field,
    hopf_sphere,
    killing_residual,
    quotient_hs_curvatures,
    sasaki_residual,
    sphere_chart,
    transversal_J,
)

P3 = np.array([0.2, -0.1, 0.3])


def loop_identity_residual(data, p, step):
    """The Sasaki identity residual as a loop over (i, k), on the raised tensor."""
    chart, g, xv = data.chart, data.chart.at(p), np.asarray(data.xi(p))
    Gamma = christoffel(chart, p, step)
    dGamma = central_partials(lambda q: christoffel(chart, q, step), p, step)
    Rup = (np.einsum("iljk->lijk", dGamma) - np.einsum("jlik->lijk", dGamma)
           + np.einsum("lim,mjk->lijk", Gamma, Gamma)
           - np.einsum("ljm,mik->lijk", Gamma, Gamma))
    Rxi = np.einsum("lijk,j->lik", Rup, xv)   # R(e_i, xi) e_k
    eye = np.eye(chart.dim)
    resid = 0.0
    for i in range(chart.dim):
        for k in range(chart.dim):
            diff = Rxi[:, i, k] - (float(xv @ g @ eye[k]) * eye[i]
                                   - float(eye[i] @ g @ eye[k]) * xv)
            resid = max(resid, float(np.sqrt(diff @ g @ diff)))
    return resid


def loop_nabla_j_residual(data, p, step):
    """The transversal (nabla_X J) Y residual as a loop over hyperplane pairs (a, b)."""
    g, xv = data.chart.at(p), np.asarray(data.xi(p))

    def J_at(q):
        nab = (central_partials(data.xi, q, step).T
               + np.einsum("kim,m->ki", christoffel(data.chart, q, step), data.xi(q)))
        return -nab

    J = J_at(p)
    D = np.linalg.svd((g @ xv)[None, :])[2][1:].T
    Gam = christoffel(data.chart, p, step)
    resid = 0.0
    for a in range(D.shape[1]):
        X = D[:, a]
        J_plus, J_minus = J_at(p + step * X), J_at(p - step * X)
        for b in range(D.shape[1]):
            Y = D[:, b]
            diff = ((J_plus @ Y - J_minus @ Y) / (2.0 * step)
                    + np.einsum("kim,i,m->k", Gam, X, J @ Y)
                    - J @ np.einsum("kim,i,m->k", Gam, X, Y))
            diff = diff - xv * float(diff @ g @ xv) / float(xv @ g @ xv)
            resid = max(resid, float(np.sqrt(diff @ g @ diff)))
    return resid


LOOP_REFERENCE_CASES = {
    "hopf": lambda: hopf_sphere(3, 1.0),
    "radius2": lambda: hopf_sphere(3, 2.0),
    "ellipsoid": lambda: SasakiData(ellipsoid_chart(np.array([1.0, 1.3, 1.6, 0.8])),
                                    hopf_field(3, 1.0)),
    "flat_constant": lambda: SasakiData(ChartMetric(3, lambda p: np.eye(3)),
                                        lambda p: np.array([1.0, 0.0, 0.0])),
}


@pytest.mark.parametrize("case", sorted(LOOP_REFERENCE_CASES))
def test_tensor_residuals_match_loop_references(case):
    data = LOOP_REFERENCE_CASES[case]()
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(-0.6, 0.6, 3)
        assert abs(sasaki_residual(data, p, 1e-4).identity_residual
                   - loop_identity_residual(data, p, 1e-4)) <= 1e-11
        assert abs(transversal_J(data, p, 1e-4)[1].nabla_j_residual
                   - loop_nabla_j_residual(data, p, 1e-4)) <= 1e-11


class TestHopfSphere:
    def test_unit_killing_and_identity(self):
        rep = sasaki_residual(hopf_sphere(3, 1.0), P3, 1e-4)
        assert rep.unit_residual <= 1e-3
        assert rep.killing_residual <= 1e-3
        assert rep.identity_residual <= 1e-3

    def test_flat_space_with_constant_field_fails(self):
        # R = 0 but the right side g(xi,Y)X - g(X,Y)xi does not vanish
        data = SasakiData(ChartMetric(3, lambda p: np.eye(3)), lambda p: np.array([1.0, 0.0, 0.0]))
        rep = sasaki_residual(data, P3, 1e-4)
        assert rep.identity_residual > 0.5

    def test_radius_two_sphere_detected(self):
        rep = sasaki_residual(hopf_sphere(3, 2.0), P3, 1e-4)
        assert rep.unit_residual > 0.1
        assert rep.identity_residual > 0.1

    def test_identity_residual_is_second_order(self):
        data = hopf_sphere(3, 1.0)
        r1 = sasaki_residual(data, P3, 4e-4).identity_residual
        r2 = sasaki_residual(data, P3, 2e-4).identity_residual
        assert 2.0 < r1 / r2 < 8.0

    def test_five_sphere(self):
        p = np.array([0.2, -0.1, 0.3, 0.1, -0.2])
        rep = sasaki_residual(hopf_sphere(5, 1.0), p, 1e-4)
        assert rep.max_residual() <= 1e-3

    def test_even_sphere_rejected(self):
        with pytest.raises(ValueError):
            hopf_field(2)


class TestTransversalJ:
    def test_hopf_transversal_structure(self):
        J, rep = transversal_J(hopf_sphere(3, 1.0), P3, 1e-4)
        assert rep.square_residual <= 1e-3
        assert rep.contact_residual <= 1e-3
        assert rep.nabla_j_residual <= 1e-3

    def test_degenerate_field_rejected(self):
        data = SasakiData(sphere_chart(3), lambda p: np.zeros(3))
        with pytest.raises(ValueError):
            transversal_J(data, P3)

    @pytest.mark.parametrize("case", ["hopf", "ellipsoid"])
    def test_one_christoffel_per_stencil_point(self, case, monkeypatch):
        # Gamma at p serves J(p) and the covariant derivative; J at p +- h D_a
        # takes one more each: 2d - 1 in all
        data = LOOP_REFERENCE_CASES[case]()
        calls, real = [], sasaki.christoffel
        monkeypatch.setattr(sasaki, "christoffel",
                            lambda *args: calls.append(args) or real(*args))
        transversal_J(data, P3, 1e-4)
        assert len(calls) == 2 * data.chart.dim - 1


def unit_sphere_model(n):
    """The section |x|^2 = 1 in C^(n+1) under the action -i x: the pipeline's CP^n."""
    return ConeModel(np.full(n + 1, -1.0 / (n + 2)), sigma_sign=-1)


class TestQuotientChart:
    def test_fubini_study_constant_four(self):
        for n in (1, 2, 3):
            ks = quotient_hs_curvatures(unit_sphere_model(n), np.random.default_rng(n), 3)
            assert np.abs(ks - 4.0).max() <= 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_radius_sqrt2_sphere_reads_two(self, n):
        # the cp model's section is the sphere of radius sqrt2: curvature scales by 1/2
        ks = quotient_hs_curvatures(cp_cone_model(n + 1), np.random.default_rng(n), 3)
        assert np.abs(ks - 2.0).max() <= 1e-4

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_type1_quotient_is_not_constant(self, n, seed):
        ks = quotient_hs_curvatures(random_type1_cone_model(n + 1, seed),
                                    np.random.default_rng(seed), 3)
        assert ks.std() >= 1e-2


class TestPipeline:
    def test_full_pipeline_n1(self):
        rep = cpn_pipeline(1, 1e-4, seed=0)
        d = rep.to_dict()
        assert d["unit_residual"] <= 1e-3
        assert d["killing_residual"] <= 1e-3
        assert d["identity_residual"] <= 1e-3
        assert d["cone_flatness"] <= 1e-3
        assert d["cone_relation_residual"] <= 1e-3
        assert d["quotient_hs_spread"] <= 1e-3
        assert d["quotient_hs_mean"] == pytest.approx(4.0, rel=1e-6)

    def test_full_pipeline_n2(self):
        rep = cpn_pipeline(2, 1e-4, seed=1, samples=2)
        assert rep.cone_flatness <= 1e-3
        assert rep.sasaki.max_residual() <= 1e-3
        assert rep.quotient_hs_spread <= 1e-3

    def test_ellipsoid_negative_control(self):
        cone = cone_metric_chart(ellipsoid_chart(np.array([1.0, 1.3, 1.6, 0.8])))
        R = riemann(cone, np.array([0.2, -0.1, 0.3, 1.1]), 1e-4)
        assert np.abs(R).max() >= 0.1

    def test_cone_relation_nontrivial_base(self):
        assert cone_relation_residual(sphere_chart(3, 2.0), P3, 1e-4) <= 1e-3

    def test_killing_residual_standalone(self):
        assert killing_residual(hopf_sphere(3, 1.0), P3, 1e-4) <= 1e-3
