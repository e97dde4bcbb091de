import numpy as np
import pytest

from bkgeom.curvature import KaehlerModel
from bkgeom.fdgeom import cone_metric_chart, riemann, sectional
from bkgeom.sasaki import (
    SasakiData,
    cone_relation_residual,
    cpn_pipeline,
    cpn_quotient_chart,
    ellipsoid_chart,
    hopf_field,
    hopf_sphere,
    killing_residual,
    sasaki_residual,
    sphere_chart,
    transversal_J,
)
from bkgeom.fdgeom import euclidean_chart

P3 = np.array([0.2, -0.1, 0.3])


class TestHopfSphere:
    def test_unit_killing_and_identity(self):
        rep = sasaki_residual(hopf_sphere(3, 1.0), P3, 1e-4)
        assert rep.unit_residual <= 1e-3
        assert rep.killing_residual <= 1e-3
        assert rep.identity_residual <= 1e-3

    def test_flat_space_with_constant_field_fails(self):
        # R = 0 but the right side g(xi,Y)X - g(X,Y)xi does not vanish
        data = SasakiData(euclidean_chart(3), lambda p: np.array([1.0, 0.0, 0.0]))
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


class TestQuotientChart:
    def test_fubini_study_constant_four(self):
        for n in (1, 2):
            chart = cpn_quotient_chart(n, 1.0)
            J0 = KaehlerModel(n).J   # the affine chart's complex structure
            rng = np.random.default_rng(n)
            for _ in range(3):
                p = rng.uniform(-0.5, 0.5, 2 * n)
                X = rng.standard_normal(2 * n)
                assert sectional(chart, p, X, J0 @ X, 1e-4) == pytest.approx(4.0, abs=1e-4)


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
