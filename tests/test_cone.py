import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkgeom import fdgeom
from bkgeom.cone import (
    ConeModel,
    EmptySectionError,
    TangencyError,
    algebra_action,
    cone_lift,
    cone_rep,
    contact_form,
    contact_frame,
    cp_cone_model,
    curvature_template_at,
    flat_inner,
    induced_metric,
    j_m,
    quotient_chart,
    random_type1_cone_model,
    rho_frame_matrix,
    sigma_sample,
    verify_curvature_prop,
)
from bkgeom.curvature import KaehlerModel, complex_to_real_endo, curvature_from_rho
from bkgeom.fdgeom import central_partials, riemann, sectional
from bkgeom.grading import grading_basis, structure_functions
from bkgeom.hermitian import HermitianSpace, su_element, wedge_j


class TestConeRepresentatives:
    def test_already_normalized(self):
        sp = HermitianSpace(2)
        y = np.array([1.0, 0.0, 1.0], dtype=complex)
        assert np.abs(cone_rep(y, sp) - np.array([1.0, 0.0])).max() < 1e-14

    def test_phase_divided_out(self):
        sp = HermitianSpace(2)
        y = np.array([1j, 0.0, 1j], dtype=complex)
        assert np.abs(cone_rep(y, sp) - np.array([1.0, 0.0])).max() < 1e-14

    def test_lift_round_trip(self):
        sp = HermitianSpace(3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.abs(cone_rep(cone_lift(x), sp) - x).max() < 1e-12

    def test_wedge_class_recovered(self):
        # the cone point class of a null vector survives the representative
        sp = HermitianSpace(2)
        y = np.exp(1.3j) * np.array([0.6 + 0.1j, 0.3j, np.linalg.norm([0.6 + 0.1j, 0.3j])])
        W1 = wedge_j(y, sp)
        W2 = wedge_j(cone_lift(cone_rep(y, sp)), sp)
        assert np.abs(W1 - W2).max() < 1e-12

    def test_non_null_rejected(self):
        sp = HermitianSpace(2)
        with pytest.raises(ValueError):
            cone_rep(np.array([1.0, 0.0, 2.0]), sp)


class TestActions:
    def test_algebra_action_zero(self):
        assert np.abs(algebra_action(np.zeros((3, 3)), np.ones(3))).max() == 0.0

    def test_algebra_action_scalar(self):
        n = 3
        x = np.array([1.0, 2.0, 3.0], dtype=complex)
        out = algebra_action(1j * np.eye(n), x)
        assert np.abs(out - 1j * (n + 1) * x).max() < 1e-14

    def test_diagonal_model_coefficients(self):
        model = random_type1_cone_model(3, 0)
        A0 = np.diag(1j * model.lambdas)
        x = np.array([1.0, 1.0, 1.0], dtype=complex)
        out = algebra_action(A0, x)
        # the paper-sign model's action is the negated twisted generator
        expected = -1j * model.action_coefficients * x
        assert np.abs(out - expected).max() < 1e-14

    def test_group_vs_algebra_derivative(self, expm_reference):
        # d/dt|0 of the cone action x -> det(G) G x at G = exp(tA) is algebra_action(A, x)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a - a.conj().T)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        t = 1e-6
        Gp, Gm = expm_reference(t * a), expm_reference(-t * a)
        num = (np.linalg.det(Gp) * (Gp @ x) - np.linalg.det(Gm) * (Gm @ x)) / (2 * t)
        assert np.abs(num - algebra_action(a, x)).max() < 1e-8


class TestSection:
    def test_sampler_residuals(self):
        for model in (cp_cone_model(2), random_type1_cone_model(3, 1)):
            for p in sigma_sample(model, 0, 5):
                assert abs(contact_form(model.act(p), p) + 1) <= 1e-12

    def test_empty_sections(self):
        with pytest.raises(EmptySectionError):
            sigma_sample(ConeModel(np.array([-0.5, -0.25]), sigma_sign=1), 0)
        with pytest.raises(EmptySectionError):
            sigma_sample(ConeModel(np.array([0.5, 0.25]), sigma_sign=-1), 0)

    def test_projective_model_needs_flipped_sign(self):
        # the displayed (+1) quadric is empty for the equal-coefficient
        # model; the flipped sign yields the sphere of radius sqrt(2);
        # recorded as the convention that reproduces the projective claims
        n = 3
        lam = np.full(n, -1.0 / (2.0 * (n + 1)))
        with pytest.raises(EmptySectionError):
            sigma_sample(ConeModel(lam, sigma_sign=1), 0)
        model = cp_cone_model(n)
        assert model.sigma_sign == -1
        for p in sigma_sample(model, 1, 3):
            assert float(np.vdot(p, p).real) == pytest.approx(2.0, abs=1e-12)

    def test_transversality_is_the_section_value(self):
        model = random_type1_cone_model(2, 2)
        p = sigma_sample(model, 3, 1)[0]
        assert contact_form(model.act(p), p) == pytest.approx(-1.0, abs=1e-12)

    def test_indefinite_quadric_points_stay_bounded(self):
        # mixed-sign action coefficients: accepted draws keep off the null
        # cone, so |p|^2 <= 10 / max(-alpha) and the frame builds; only a
        # quadric with no negative coefficient may be refused as empty
        checked = 0
        for n in (2, 3, 4):
            for seed in range(10):
                lam = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
                for sign in (1, -1):
                    model = ConeModel(lam, sign)
                    try:
                        points = sigma_sample(model, seed, 4)
                    except EmptySectionError:
                        assert np.all(model.action_coefficients >= 0)
                        continue
                    bound = 10.0 / np.max(-model.action_coefficients)
                    checked += len(points)
                    for p in points:
                        assert flat_inner(p, p) <= bound
                        assert abs(contact_form(model.act(p), p) + 1) <= 1e-12
                        contact_frame(p, model)
        assert checked >= 100

    @pytest.mark.parametrize("n", [16, 20, 32])
    def test_one_negative_against_many_positive(self, n):
        # alpha = (-1, 1, ..., 1): the positive coordinates share one
        # coordinate's weight, so the guard is not exhausted at large n
        a = np.ones(n)
        a[0] = -1.0
        model = ConeModel(a - a.sum() / (n + 1), -1)
        assert np.allclose(model.action_coefficients, a)
        for p in sigma_sample(model, 0, 3):
            assert flat_inner(p, p) <= 10.0
            assert abs(contact_form(model.act(p), p) + 1) <= 1e-12

    def test_direct_quadric_solve(self):
        # lam = (1, 0): alpha = (2, 1); p = (1/sqrt(2), 0) sits on the surface
        model = ConeModel(np.array([1.0, 0.0]), sigma_sign=1)
        p = np.array([1.0 / np.sqrt(2.0), 0.0], dtype=complex)
        assert abs(contact_form(model.act(p), p) + 1) < 1e-14


class TestContactGeometry:
    def setup_method(self):
        self.model = random_type1_cone_model(3, 5)
        self.p = sigma_sample(self.model, 7, 1)[0]
        self.frame = contact_frame(self.p, self.model)

    def test_frame_dimension(self):
        assert self.frame.count == 2 * self.model.n - 2

    def test_frame_annihilates_constraints(self):
        for a in range(self.frame.count):
            X = self.frame.vectors[:, a]
            assert abs(flat_inner(X, 1j * self.p)) < 1e-10
            assert abs(flat_inner(X, 1j * self.model.act(self.p))) < 1e-10

    def test_frame_orthonormal_and_j_adapted(self):
        G = self.frame.metric_gram()
        assert np.abs(G - np.eye(self.frame.count)).max() < 1e-9
        JF = self.frame.matrix_of(lambda X: j_m(self.p, X, self.model))
        assert np.abs(JF - KaehlerModel(self.model.n - 1).J).max() < 1e-9

    def test_jm_squares_to_minus_identity(self):
        for a in range(self.frame.count):
            X = self.frame.vectors[:, a]
            JJX = j_m(self.p, j_m(self.p, X, self.model), self.model)
            assert np.abs(JJX + X).max() < 1e-10

    def test_jm_reduces_to_j_when_corrections_vanish(self):
        # X orthogonal to both p and act(p): both corrections drop
        X = self.frame.vectors[:, 0]
        X = X - flat_inner(X, self.p) / flat_inner(self.p, self.p) * self.p
        ap = self.model.act(self.p)
        X = X - flat_inner(X, ap) / flat_inner(ap, ap) * ap
        if abs(flat_inner(X, self.p)) < 1e-12 and abs(flat_inner(X, ap)) < 1e-12:
            assert np.abs(j_m(self.p, X, self.model) - 1j * X).max() < 1e-9

    def test_metric_jm_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c1 = rng.standard_normal(self.frame.count)
            c2 = rng.standard_normal(self.frame.count)
            X = self.frame.vectors @ c1
            Y = self.frame.vectors @ c2
            gx = induced_metric(self.p, X, Y)
            gj = induced_metric(self.p, j_m(self.p, X, self.model), j_m(self.p, Y, self.model))
            assert abs(gx - gj) < 1e-9 * max(1.0, abs(gx))

    def test_projective_frame_at_axis_point_spans_other_directions(self):
        # at p = (sqrt(2), 0, ..., 0) the distribution is the complex span of
        # the remaining coordinates
        model = cp_cone_model(3)
        p = np.zeros(3, dtype=complex)
        p[0] = np.sqrt(2.0)
        frame = contact_frame(p, model)
        assert np.abs(frame.vectors[0, :]).max() < 1e-12

    def test_metric_unit_and_degenerate_directions(self):
        X = self.frame.vectors[:, 0]
        assert induced_metric(self.p, X, X) == pytest.approx(1.0, abs=1e-9)
        # the radial direction is degenerate
        assert abs(induced_metric(self.p, self.p, self.p)) < 1e-12

    def test_tangency_error(self):
        # alpha = (0.75, 0): the flow fixes the second axis, so xi0 vanishes
        # there and transversality fails
        model = ConeModel(np.array([0.5, -0.25]), sigma_sign=1)
        assert model.action_coefficients[1] == pytest.approx(0.0)
        p = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(TangencyError):
            contact_frame(p, model)


@pytest.mark.parametrize("n", range(2, 7))
def test_frame_properties_across_models_and_signs(n):
    # the frame is g_D-orthonormal, J_M-adapted and annihilates both contact
    # constraints on projective, random and mixed-sign models, on both
    # section branches, over 10 seeds
    J0 = KaehlerModel(n - 1).J
    signs = set()
    for seed in range(10):
        # alternating-sign action coefficients alpha = lam + sum(lam), so both
        # section branches are nonempty
        alpha = np.random.default_rng(seed).uniform(0.25, 1.0, n) * (-1.0) ** np.arange(n)
        lam = alpha - alpha.sum() / (n + 1)
        for model in (cp_cone_model(n), random_type1_cone_model(n, seed),
                      ConeModel(lam, sigma_sign=1), ConeModel(lam, sigma_sign=-1)):
            try:
                points = sigma_sample(model, seed, 2)
            except EmptySectionError:
                continue
            signs.add(model.sigma_sign)
            for p in points:
                frame = contact_frame(p, model)
                F = frame.vectors
                assert F.shape == (n, 2 * n - 2)
                assert np.abs(frame.metric_gram() - np.eye(2 * n - 2)).max() <= 1e-9
                assert np.abs(frame.matrix_of(lambda X: j_m(p, X, model)) - J0).max() <= 1e-9
                assert np.abs(flat_inner(F, 1j * p)).max() <= 1e-10
                assert np.abs(flat_inner(F, 1j * model.act(p))).max() <= 1e-10
    assert signs == {1, -1}


class TestRhoMap:
    def setup_method(self):
        self.model = random_type1_cone_model(3, 9)
        self.p = sigma_sample(self.model, 2, 1)[0]
        self.frame = contact_frame(self.p, self.model)

    def test_skewness_matches_generator(self):
        # rho_M[a, b] = g(F_a, act F_b); act is skew-hermitian, so rho_M is
        # skew on the distribution
        M = rho_frame_matrix(self.frame)
        for a in range(self.frame.count):
            for b in range(self.frame.count):
                X, Y = self.frame.vectors[:, a], self.frame.vectors[:, b]
                assert abs(M[a, b] - flat_inner(X, self.model.act(Y))) < 1e-12
        assert np.abs(M + M.T).max() < 1e-9

    def test_commutes_with_jm(self):
        M = rho_frame_matrix(self.frame)
        J0 = KaehlerModel(self.model.n - 1).J
        assert np.abs(M @ J0 - J0 @ M).max() < 1e-9

    def test_projective_model_rho_is_minus_half_j(self):
        # the generator of the equal-coefficient model acts as -J/2 on the
        # distribution
        for n in (2, 3):
            model = cp_cone_model(n)
            p = sigma_sample(model, 4, 1)[0]
            frame = contact_frame(p, model)
            M = rho_frame_matrix(frame)
            assert np.abs(M + 0.5 * KaehlerModel(n - 1).J).max() < 1e-10


def test_pointwise_invariants_on_seeded_pairs():
    # J_M^2 = -Id on D, metric J_M-invariance, and rho_M in u(D_p), checked on
    # 100 seeded (model, point) pairs at 1e-9
    J_bound = metric_bound = rho_bound = 0.0
    for k in range(100):
        n = 2 + k % 3
        model = random_type1_cone_model(n, 1000 + k)
        p = sigma_sample(model, k, 1)[0]
        frame = contact_frame(p, model)
        rng = np.random.default_rng(k)
        X = frame.vectors @ rng.standard_normal(frame.count)
        Y = frame.vectors @ rng.standard_normal(frame.count)
        JJX = j_m(p, j_m(p, X, model), model)
        J_bound = max(J_bound, float(np.abs(JJX + X).max()))
        gx = induced_metric(p, X, Y)
        gj = induced_metric(p, j_m(p, X, model), j_m(p, Y, model))
        metric_bound = max(metric_bound, abs(gx - gj))
        M = rho_frame_matrix(frame)
        J0 = KaehlerModel(n - 1).J
        rho_bound = max(rho_bound, float(np.abs(M + M.T).max()),
                        float(np.abs(M @ J0 - J0 @ M).max()))
    assert J_bound <= 1e-9
    assert metric_bound <= 1e-9
    assert rho_bound <= 1e-9


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 5), model_seed=st.integers(0, 10**6), point_seed=st.integers(0, 10**6))
def test_block_evaluation_matches_columns(n, model_seed, point_seed):
    # every pointwise formula takes an (n, k) column block; on the frame it
    # must agree with evaluating one column at a time
    model = random_type1_cone_model(n, model_seed)
    p = sigma_sample(model, point_seed, 1)[0]
    frame = contact_frame(p, model)
    F, k = frame.vectors, frame.count
    by_column = np.column_stack([j_m(p, F[:, a], model) for a in range(k)])
    assert np.abs(j_m(p, F, model) - by_column).max() <= 1e-14
    gram = [[induced_metric(p, F[:, a], F[:, b]) for b in range(k)] for a in range(k)]
    assert np.abs(induced_metric(p, F, F) - np.array(gram)).max() <= 1e-14
    assert np.abs(frame.metric_gram() - np.eye(k)).max() <= 1e-9
    JF = frame.matrix_of(lambda X: j_m(p, X, model))
    assert np.abs(JF - KaehlerModel(n - 1).J).max() <= 1e-9


class TestContactFormIdentities:
    def test_coordinate_expression(self):
        # lambda(X) at p equals sum(x dy - y dx) in stacked coordinates
        rng = np.random.default_rng(0)
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        X = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coord = float(np.sum(p.real * X.imag - p.imag * X.real))
        assert contact_form(X, p) == pytest.approx(coord, abs=1e-12)

    def test_euler_homogeneity(self):
        # L_E0 lambda = lambda: lambda_(tp)(X) = t lambda_p(X)
        rng = np.random.default_rng(1)
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        X = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert contact_form(X, 1.7 * p) == pytest.approx(1.7 * contact_form(X, p),
                                                         abs=1e-12)

    def test_quotient_needs_n_at_least_two(self):
        # the cone layer refuses with fdgeom's one chart-refusal class
        model = ConeModel(np.array([-0.25]), -1)
        with pytest.raises(fdgeom.ChartFailureError, match="n >= 2"):
            contact_frame(sigma_sample(model, 0)[0], model)

    def test_vanishes_on_euler_field(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(contact_form(p, p)) < 1e-12

    def test_representative_equivariance(self):
        # block-diagonal group elements map representative classes to classes
        sp = HermitianSpace(2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        G, _ = np.linalg.qr(q)
        Ghat = np.zeros((3, 3), dtype=complex)
        Ghat[:2, :2] = G
        Ghat[2, 2] = 1.0 / np.linalg.det(G)
        lhs = cone_rep(Ghat @ cone_lift(x), sp)
        assert np.abs(lhs - np.linalg.det(G) * (G @ x)).max() < 1e-10


def _chart_formula(frame, s):
    """quotient_chart's docstring formula, transcribed in complex arithmetic."""
    model, F = frame.model, frame.vectors
    psi = frame.point + F @ s
    xi0 = model.act(psi)
    lam_xi = contact_form(xi0, psi)
    H = F - np.multiply.outer(xi0, contact_form(F, psi) / lam_xi)
    return (-1.0 / lam_xi) * induced_metric(psi, H, H)


class TestQuotientChart:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_complex_formula_and_is_symmetric(self, n):
        # the real-coordinate chart agrees with the complex formula at roundoff
        # on projective, random and mixed-sign models, and every metric is
        # exactly symmetric
        alpha = np.random.default_rng(n).uniform(0.25, 1.0, n) * (-1.0) ** np.arange(n)
        mixed = ConeModel(alpha - alpha.sum() / (n + 1), sigma_sign=1)
        rng = np.random.default_rng(n)
        for model in (cp_cone_model(n), random_type1_cone_model(n, n), mixed):
            frame = contact_frame(sigma_sample(model, n, 1)[0], model)
            chart = quotient_chart(frame)
            for _ in range(10):
                s = rng.standard_normal(frame.count)
                s *= 1e-2 / np.linalg.norm(s)
                g, ref = chart.at(s), _chart_formula(frame, s)
                assert np.abs(g - ref).max() <= 1e-14 * np.abs(ref).max()
                assert np.array_equal(g, g.T)

    def test_nan_slice_point_is_refused(self):
        model = random_type1_cone_model(3, 0)
        chart = quotient_chart(contact_frame(sigma_sample(model, 0, 1)[0], model))
        with pytest.raises(fdgeom.ChartFailureError):
            chart.at(np.full(chart.dim, np.nan))


class TestCurvatureProposition:
    def test_projective_model(self):
        rep = verify_curvature_prop(cp_cone_model(2), 4, 1e-4, seed=0)
        assert rep.max_residual <= 1e-3
        assert rep.min_control_ratio >= 10.0

    def test_projective_quotient_curvature_constant(self):
        # holomorphic sectional curvature of the quotient is the constant 2
        # (Fubini-Study normalized by the sqrt(2)-sphere section)
        model = cp_cone_model(3)
        for p in sigma_sample(model, 5, 2):
            frame = contact_frame(p, model)
            chart = quotient_chart(frame)
            J0 = KaehlerModel(model.n - 1).J
            for a in range(model.n - 1):
                e = np.eye(frame.count)[a]
                K = sectional(chart, np.zeros(frame.count), e, J0 @ e, 1e-4)
                assert K == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_models(self, seed):
        model = random_type1_cone_model(2, seed)
        rep = verify_curvature_prop(model, 3, 1e-4, seed=seed)
        assert rep.max_residual <= 1e-3
        assert rep.min_control_ratio >= 10.0

    def test_flat_limit_scaling(self):
        # rescaling the generator by c scales the quotient curvature by c
        base = random_type1_cone_model(2, 3)
        vals = {}
        for c in (1.0, 0.5):
            m = ConeModel(c * base.lambdas, base.sigma_sign)
            p = sigma_sample(m, 7, 1)[0]
            fr = contact_frame(p, m)
            R = riemann(quotient_chart(fr), np.zeros(fr.count), 1e-4)
            vals[c] = float(np.abs(R).max())
        assert vals[1.0] / vals[0.5] == pytest.approx(2.0, rel=1e-4)

    def test_chart_metric_from_differentiated_slice(self):
        # the chart metric, built from the closed-form slice tangents t F, equals
        # the induced metric on finite-difference tangents of the slice map
        # s -> t(s) psi(s), radial part included, once they are projected along
        # xi0; left unprojected they miss, which is the control
        worst = 0.0
        misses = []
        for n in (2, 3, 4, 5):
            for model in (cp_cone_model(n), random_type1_cone_model(n, 40 + n)):
                frame = contact_frame(sigma_sample(model, n, 1)[0], model)
                chart = quotient_chart(frame)

                def slice_point(s):
                    psi = frame.point + frame.vectors @ s
                    return np.sqrt(-1.0 / contact_form(model.act(psi), psi)) * psi

                rng = np.random.default_rng(n)
                for _ in range(3):
                    s = rng.standard_normal(frame.count)
                    s *= 0.4 / np.linalg.norm(s)
                    q = slice_point(s)
                    xi0 = model.act(q)
                    T = central_partials(slice_point, s, 1e-5).T
                    H = T - np.multiply.outer(xi0, contact_form(T, q) / contact_form(xi0, q))
                    g = chart.at(s)
                    worst = max(worst, float(np.abs(induced_metric(q, H, H) - g).max()))
                    misses.append(float(np.abs(induced_metric(q, T, T) - g).max()))
        assert worst <= 1e-8
        assert min(misses) >= 1e-3
        assert max(misses) >= 0.1

    def test_template_from_cs_normal_form(self):
        # the generator, moved to an adapted U(n,1) frame at p and put in
        # Cahen-Schwachhoefer normal form, has structure functions (rho, u, f)
        # at scale -2 whose g^0 action rho + tr(rho)/2 is the template's rho~
        worst = dict.fromkeys(("unitary", "structure", "scale", "rho", "template"), 0.0)
        skipped_g1, untwisted = [], []
        points = 0
        for n in range(2, 7):
            m = n - 1
            km = KaehlerModel(m)
            J0 = km.J
            for model in [cp_cone_model(n)] + [random_type1_cone_model(n, s) for s in range(3)]:
                for p in sigma_sample(model, n, 3):
                    points += 1
                    frame = contact_frame(p, model)
                    unitary, sf = cs_normal_form(frame)
                    xi0 = frame.model.act(p)
                    rho_t = -2.0 * rho_frame_matrix(frame) - flat_inner(xi0, xi0) * J0
                    size = np.abs(rho_t).max()
                    twisted = complex_to_real_endo(sf.rho + 0.5 * np.trace(sf.rho) * np.eye(m))
                    worst["unitary"] = max(worst["unitary"], unitary)
                    worst["structure"] = max(worst["structure"], sf.residual)
                    worst["scale"] = max(worst["scale"], abs(sf.scale + 2.0))
                    worst["rho"] = max(worst["rho"], np.abs(twisted - rho_t).max() / size)
                    R = curvature_template_at(frame)
                    R_nf = curvature_from_rho(0.5 * twisted, km, tol=1e-6).entries
                    worst["template"] = max(worst["template"],
                                            np.abs(R_nf - R).max() / np.abs(R).max())
                    untwisted.append(np.abs(complex_to_real_endo(sf.rho) - rho_t).max() / size)
                    if model.sigma_sign == -1:
                        # the projective model: rho = i/(n+1) I, u = 0, f = 1/4
                        assert np.abs(sf.rho - 1j / (n + 1) * np.eye(m)).max() <= 1e-12
                        assert np.abs(sf.u).max() <= 1e-12
                        assert abs(sf.f - 0.25) <= 1e-12
                        assert np.abs(rho_t - 0.5 * J0).max() <= 1e-12
                    else:
                        # the g^-1 part vanishes on the projective model by
                        # symmetry, so skipping the g^1 step is a control here only
                        skipped_g1.append(cs_normal_form(frame, g1_step=False)[1].residual)
        assert points == 60
        assert worst["unitary"] <= 1e-13
        assert worst["structure"] <= 1e-12
        assert worst["scale"] <= 1e-12
        assert worst["rho"] <= 1e-12
        assert worst["template"] <= 1e-12
        assert min(skipped_g1) >= 1e-3
        assert min(untwisted) >= 0.1


def cs_normal_form(frame, g1_step: bool = True):
    """Structure functions of the generator in CS normal form at the frame's point.

    The adapted frame g = [Z_1 .. Z_m, (y + w/r^2)/2, (w/r^2 - y)/2] has
    Z_j the frame's first m columns projected off p and lifted by 0,
    y = (p, r) the null lift and w = (p, -r), r = |p|; it sends the
    grading's top null line to y.  In g^-1 A g one conjugation by exp(X),
    X in g^1, kills the g^-1 part, and one by exp(k e_plus2) the coroot
    part.  Returns (||g^* H g - H||_max, structure functions).
    """
    model = frame.model
    n, m = model.n, model.n - 1
    p, F = frame.point, frame.vectors
    r = np.linalg.norm(p)
    Z = np.vstack([F[:, :m] - np.outer(p, flat_inner(F[:, :m], p)) / r**2, np.zeros((1, m))])
    y, w = cone_lift(p), np.append(p, -r)
    g = np.column_stack([Z, 0.5 * (y + w / r**2), 0.5 * (w / r**2 - y)])
    space = HermitianSpace(n)
    H = space.form_matrix
    unitary = float(np.abs(g.conj().T @ H @ g - H).max())
    # the generator oriented along the section's flow, as the model's action is
    N = np.linalg.solve(g, -model.sigma_sign * model.generator().matrix @ g)
    basis = grading_basis(n, validate=False)
    I = np.eye(n + 1)
    c = basis.line_coefficient(N, -2)
    if g1_step:
        X = basis.embed_g1(0.5j * basis.project(N, -1)[:m, m] / c)
        N = (I + X + X @ X / 2) @ N @ (I - X + X @ X / 2)
    k = basis.coroot_coefficient(basis.project(N, 0)) / (4.0 * c)
    N = (I + k * basis.e_plus2) @ N @ (I - k * basis.e_plus2)
    return unitary, structure_functions(su_element(N, space), basis)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.integers(2, 4), seed=st.integers(0, 10**6))
def test_sign_flip_describes_one_section(n, seed):
    # (lam, +1) and (-lam, -1) cut out one section: the models' actions, the
    # sampled points, residuals and control residuals agree bit for bit
    lam = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    assert np.array_equal(ConeModel(lam, 1).action, ConeModel(-lam, -1).action)
    try:
        a = verify_curvature_prop(ConeModel(lam, 1), 2, 1e-4, seed=seed)
    except EmptySectionError:
        with pytest.raises(EmptySectionError):
            verify_curvature_prop(ConeModel(-lam, -1), 2, 1e-4, seed=seed)
        return
    b = verify_curvature_prop(ConeModel(-lam, -1), 2, 1e-4, seed=seed)
    for x, y in zip(a.points, b.points, strict=True):
        assert np.array_equal(x.point, y.point)
        assert x.residual == y.residual
        assert x.control_residual == y.control_residual
