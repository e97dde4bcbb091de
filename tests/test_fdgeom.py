import numpy as np
import pytest

from bkgeom.cone import (ConeModel, contact_frame, quotient_chart, random_type1_cone_model,
                         sigma_sample)
from bkgeom.fdgeom import (
    ChartFailureError,
    ChartMetric,
    central_partials,
    christoffel,
    cone_metric_chart,
    riemann,
    second_fundamental_form,
    sectional,
)
from bkgeom.sasaki import ellipsoid_chart, sphere_chart, sphere_embedding


def closed_form_sphere_christoffel(x):
    # conformal metric g = e^(2 phi) delta with phi = log(2/(1+|x|^2))
    m = x.size
    dphi = -2.0 * x / (1.0 + x @ x)
    G = np.zeros((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                G[k, i, j] = ((k == i) * dphi[j] + (k == j) * dphi[i]
                              - (i == j) * dphi[k])
    return G


class TestChristoffel:
    def test_flat_chart_vanishes(self):
        ch = ChartMetric(3, lambda p: np.eye(3))
        assert np.abs(christoffel(ch, np.array([0.1, -0.2, 0.3]))).max() < 1e-12

    def test_sphere_matches_closed_form(self):
        x = np.array([0.3, -0.4])
        G = christoffel(sphere_chart(2), x, 1e-4)
        assert np.abs(G - closed_form_sphere_christoffel(x)).max() < 1e-7

    def test_symmetric_in_lower_indices(self):
        G = christoffel(sphere_chart(3), np.array([0.2, 0.1, -0.5]))
        assert np.abs(G - np.swapaxes(G, 1, 2)).max() == 0.0

    def test_domain_violation(self):
        def quadrant(p):
            if not np.all(p > 0):
                raise ChartFailureError(f"point {p} outside the positive quadrant")
            return np.eye(2)

        ch = ChartMetric(2, quadrant)
        with pytest.raises(ChartFailureError):
            christoffel(ch, np.array([1e-6, 0.5]), 1e-4)


class TestRiemann:
    def test_flat(self):
        assert np.abs(riemann(ChartMetric(2, lambda p: np.eye(2)), np.zeros(2))).max() < 1e-12

    def test_unit_sphere_sectional(self):
        ch = sphere_chart(2)
        K = sectional(ch, np.array([0.3, -0.4]), np.array([1.0, 0.0]),
                      np.array([0.0, 1.0]))
        assert abs(K - 1.0) < 1e-4

    def test_radius_two_sphere(self):
        ch = sphere_chart(3, 2.0)
        K = sectional(ch, np.array([0.2, 0.1, -0.3]), np.eye(3)[0], np.eye(3)[1])
        assert abs(K - 0.25) < 1e-4

    def test_antisymmetries(self):
        ch = sphere_chart(3)
        R = riemann(ch, np.array([0.2, 0.1, -0.3]))
        scale = np.abs(R).max()
        assert np.abs(R + np.swapaxes(R, 0, 1)).max() < 1e-6 * scale
        assert np.abs(R + np.swapaxes(R, 2, 3)).max() < 1e-6 * scale
        assert np.abs(R - np.transpose(R, (2, 3, 0, 1))).max() < 1e-6 * scale

    def test_sectional_scale_invariance(self):
        ch = sphere_chart(2)
        p = np.array([0.1, 0.2])
        X, Y = np.array([1.0, 0.3]), np.array([-0.2, 1.0])
        assert sectional(ch, p, X, Y) == pytest.approx(sectional(ch, p, 2 * X, Y),
                                                       rel=1e-10)

    def test_degenerate_plane_rejected(self):
        with pytest.raises(ValueError):
            sectional(sphere_chart(2), np.zeros(2), np.array([1.0, 0.0]),
                      np.array([2.0, 0.0]))

    def test_convergence_is_second_order(self):
        ch = sphere_chart(2)
        p = np.array([0.3, -0.4])
        e = [abs(sectional(ch, p, np.eye(2)[0], np.eye(2)[1], h) - 1.0)
             for h in (2e-3, 1e-3)]
        assert 3.0 < e[0] / e[1] < 5.0

    @pytest.mark.parametrize("m,p", [(2, (0.3, -0.4)), (3, (0.2, 0.1, -0.3))])
    def test_observed_order_against_the_closed_form(self, m, p):
        # unit sphere: R_ijkl = g_jk g_il - g_ik g_jl
        ch, p = sphere_chart(m), np.array(p)
        g = ch.at(p)
        exact = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
        err = [np.abs(riemann(ch, p, h) - exact).max() for h in (1e-2, 5e-3)]
        assert 1.9 <= np.log2(err[0] / err[1]) <= 2.1


def nested_christoffel(chart, p, step):
    """Gamma from central_partials(chart.at, ...): the textbook formula, point by point."""
    ginv = np.linalg.inv(chart.at(p))
    dg = central_partials(chart.at, p, step)
    T = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", ginv, T)


def nested_riemann(chart, p, step):
    """R from nested central_partials of nested_christoffel (one chart call per stencil use)."""
    Gamma = nested_christoffel(chart, p, step)
    dGamma = central_partials(lambda q: nested_christoffel(chart, q, step), p, step)
    Rup = (np.einsum("iljk->lijk", dGamma) - np.einsum("jlik->lijk", dGamma)
           + np.einsum("lim,mjk->lijk", Gamma, Gamma)
           - np.einsum("ljm,mik->lijk", Gamma, Gamma))
    return np.einsum("lm,mijk->ijkl", chart.at(p), Rup)


def stencil_case(family, d):
    """A chart of dimension d from one of the oracle's chart families, and a point in it."""
    rng = np.random.default_rng(10 * d + len(family))
    x = 0.3 * rng.uniform(-1.0, 1.0, d)
    if family == "sphere":
        return sphere_chart(d), x
    if family == "ellipsoid":
        return ellipsoid_chart(np.linspace(0.8, 1.5, d + 1)), x
    if family == "cone":
        return cone_metric_chart(sphere_chart(d - 1)), np.append(x[:-1], 1.1)
    if family == "cpn":
        # verify-cpn's CP^n: the unit sphere's quotient chart, off its frame centre
        model = ConeModel(np.full(d // 2 + 1, -1.0 / (d // 2 + 2)), sigma_sign=-1)
        return quotient_chart(contact_frame(sigma_sample(model, d, 1)[0], model)), x
    model = random_type1_cone_model(d // 2 + 1, d)
    frame = contact_frame(sigma_sample(model, d, 1)[0], model)
    return quotient_chart(frame), np.zeros(d)


def counting(chart):
    """The same metric, recording every point it is evaluated at."""
    points = []

    def ev(p):
        points.append(tuple(p))
        return chart.at(p)

    return ChartMetric(chart.dim, ev), points


STENCIL_CASES = ([(f, d) for f in ("sphere", "ellipsoid", "cone") for d in range(2, 9)]
                 + [(f, d) for f in ("cpn", "quotient") for d in (2, 4, 6, 8)])


class TestStencil:
    @pytest.mark.parametrize("family,d", STENCIL_CASES)
    def test_matches_nested_differences(self, family, d):
        chart, p = stencil_case(family, d)
        ref_G, ref_R = nested_christoffel(chart, p, 1e-4), nested_riemann(chart, p, 1e-4)
        G, R = christoffel(chart, p, 1e-4), riemann(chart, p, 1e-4)
        assert np.abs(G - ref_G).max() <= 1e-12 * max(1.0, np.abs(ref_G).max())
        assert np.abs(R - ref_R).max() <= 1e-7 * max(1.0, np.abs(ref_R).max())

    @pytest.mark.parametrize("family,d", [("sphere", 2), ("ellipsoid", 5), ("cpn", 6),
                                          ("quotient", 8)])
    def test_each_distinct_point_once(self, family, d):
        chart, p = stencil_case(family, d)
        ch, points = counting(chart)
        riemann(ch, p)
        assert len(points) == len(set(points)) == 2 * d * d + 2 * d + 1
        points.clear()
        christoffel(ch, p)
        assert len(points) == len(set(points)) == 2 * d + 1


class TestSecondFundamentalForm:
    def test_linear_subspace_in_flat_space(self):
        amb = ChartMetric(3, lambda p: np.eye(3))
        (ii,) = second_fundamental_form(amb, [lambda s: np.array([s[0], 2 * s[0], 0.0])],
                                        np.zeros(1))
        assert ii < 1e-10

    def test_equator_is_geodesic(self):
        amb = sphere_chart(2)

        def equator(t):
            q = np.array([np.cos(t[0]), np.sin(t[0]), 0.0])
            return q[:2] / (1.0 + q[2])

        (ii,) = second_fundamental_form(amb, [equator], np.array([0.4]))
        assert ii < 1e-6

    def test_latitude_circle_matches_closed_form(self):
        # geodesic curvature of the latitude-a circle on the unit sphere is
        # tan(a); II is quadratic in the (non-unit) parameter speed
        amb = sphere_chart(2)
        a = 0.3

        def latitude(t):
            q = np.array([np.cos(a) * np.cos(t[0]), np.cos(a) * np.sin(t[0]),
                          np.sin(a)])
            return q[:2] / (1.0 + q[2])

        p = np.array([0.7])
        (ii,) = second_fundamental_form(amb, [latitude], p)
        E = central_partials(latitude, p, 1e-4)[0]
        g = amb.at(latitude(p))
        speed2 = float(E @ g @ E)
        assert ii / speed2 == pytest.approx(np.tan(a), abs=1e-5)

    def test_rank_deficiency_detected(self):
        amb = ChartMetric(2, lambda p: np.eye(2))
        with pytest.raises(ValueError):
            second_fundamental_form(amb, [lambda s: np.array([s[0] ** 3, 0.0])],
                                    np.zeros(1))

    def test_one_call_equals_one_call_per_embedding(self):
        amb = sphere_chart(3)

        def flat(s):
            return np.array([s[0], s[1], 0.0])   # a great S^2, totally geodesic

        def bumped(s):
            return flat(s) + np.array([0.0, 0.0, 0.5 * float(s @ s)])

        p = np.zeros(2)
        both = second_fundamental_form(amb, [flat, bumped], p)
        alone = [second_fundamental_form(amb, [f], p)[0] for f in (flat, bumped)]
        assert both == tuple(alone)
        assert both[1] > 0.1 > both[0]

    def test_embeddings_must_share_the_image_point(self):
        amb = ChartMetric(2, lambda p: np.eye(2))
        with pytest.raises(ValueError, match="different ambient points"):
            second_fundamental_form(amb, [lambda s: np.array([s[0], 0.0]),
                                          lambda s: np.array([s[0], 1e-3])], np.zeros(1))


class TestConeMetric:
    def test_cone_over_flat_line_is_flat(self):
        cone = cone_metric_chart(ChartMetric(1, lambda p: np.eye(1)))
        assert np.abs(riemann(cone, np.array([0.3, 1.1]))).max() < 1e-6

    def test_cone_over_flat_plane_is_not_flat(self):
        cone = cone_metric_chart(ChartMetric(2, lambda p: np.eye(2)))
        assert np.abs(riemann(cone, np.array([0.3, -0.2, 1.1]))).max() > 0.5

    def test_cone_over_unit_sphere_is_flat(self):
        cone = cone_metric_chart(sphere_chart(3, 1.0))
        R = riemann(cone, np.array([0.2, -0.1, 0.3, 1.1]), 1e-4)
        assert np.abs(R).max() <= 1e-3

    def test_cone_over_ellipsoid_is_curved(self):
        cone = cone_metric_chart(ellipsoid_chart(np.array([1.0, 1.25, 1.5, 0.8])))
        R = riemann(cone, np.array([0.2, -0.1, 0.3, 1.1]), 1e-4)
        assert np.abs(R).max() >= 0.1

    def test_cone_curvature_relation(self):
        # R_cone(X,Y)Z = R_base(X,Y)Z + g(X,Z)Y - g(Y,Z)X at t = 1, checked
        # on a base that is NOT unit-curvature so the terms do not cancel
        from bkgeom.sasaki import cone_relation_residual

        resid = cone_relation_residual(sphere_chart(3, 2.0), np.array([0.2, -0.1, 0.3]))
        assert resid <= 1e-3

    def test_nonpositive_t_rejected(self):
        cone = cone_metric_chart(ChartMetric(2, lambda p: np.eye(2)))
        with pytest.raises(ChartFailureError):
            cone.at(np.array([0.0, 0.0, -1.0]))


def test_sphere_embedding_consistency():
    # the chart metric is the pullback of the round embedding
    x = np.array([0.2, -0.5, 0.1])
    from bkgeom.sasaki import sphere_jacobian

    J = sphere_jacobian(x, 1.5)
    g_pb = J.T @ J
    g = sphere_chart(3, 1.5).at(x)
    assert np.abs(g - g_pb).max() < 1e-12
    assert abs(np.linalg.norm(sphere_embedding(x, 1.5)) - 1.5) < 1e-12
