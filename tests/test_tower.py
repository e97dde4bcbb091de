from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkgeom import tower
from bkgeom.cone import (DistributionFrame, algebra_action, contact_frame, cp_cone_model,
                         induced_metric, j_m, random_type1_cone_model)
from bkgeom.curvature import KaehlerModel, complex_to_real_endo, to_real
from bkgeom.fdgeom import ChartMetric
from bkgeom.hermitian import HermitianSpace, SuElement, su_element
from bkgeom.tower import (
    _unitary_flow,
    action_agreement_residual,
    duality_action_check,
    embed_cone_point,
    embed_generator,
    embedded_cone_model,
    random_sp,
    sp_square,
    verify_tower_geodesic,
)


def _sp_defect(M):
    """|M^T Omega + Omega M| relative to max(1, |M|): zero on sp(2k, R)."""
    O = KaehlerModel(M.shape[0] // 2).J.T
    return np.linalg.norm(M.T @ O + O @ M) / max(1.0, np.linalg.norm(M))


class TestEmbedGenerator:
    def test_projective_ladder(self):
        # the (n-1)-level projective generator with the matched corner entry
        # embeds onto the n-level projective generator
        for n in (2, 3):
            A = cp_cone_model(n).generator()
            D = embed_generator(A, -1.0 / (2 * (n + 2)))
            target = cp_cone_model(n + 1).generator()
            assert np.abs(D.matrix - target.matrix).max() < 1e-15

    def test_zero_maps_to_zero(self):
        sp = HermitianSpace(2)
        A = su_element(np.zeros((3, 3)), sp)
        assert np.abs(embed_generator(A, 0.0).matrix).max() == 0.0

    def test_certified_output(self):
        from bkgeom.hermitian import random_su

        sp = HermitianSpace(3)
        for seed in range(5):
            A = random_su(seed, sp, "generic")
            D = embed_generator(A, 0.7)
            assert isinstance(su_element(D.matrix, D.space), SuElement)

    def test_affine_in_lambda0(self):
        from bkgeom.hermitian import random_su

        A = random_su(1, HermitianSpace(2), "generic")
        D0 = embed_generator(A, 0.0).matrix
        D1 = embed_generator(A, 1.0).matrix
        for t in (0.25, 0.5, 0.8):
            Dt = embed_generator(A, t).matrix
            assert np.abs((1 - t) * D0 + t * D1 - Dt).max() <= 1e-14

    def test_linear_in_generator(self):
        # for fixed lambda0 the A-dependence is linear (the corner block is
        # the affine offset)
        from bkgeom.hermitian import random_su

        sp = HermitianSpace(3)
        A = random_su(2, sp, "generic")
        B = random_su(3, sp, "generic")
        AB = su_element(A.matrix + B.matrix, sp)
        zero = su_element(np.zeros((4, 4)), sp)
        lhs = embed_generator(AB, 0.4).matrix + embed_generator(zero, 0.4).matrix
        rhs = embed_generator(A, 0.4).matrix + embed_generator(B, 0.4).matrix
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_action_agreement(self):
        model = random_type1_cone_model(3, 2)
        assert action_agreement_residual(model, 0.3, seed=0, samples=50) < 1e-12

    def test_embedded_model_coefficients_are_stable(self):
        # alpha_j of the embedded model equals alpha_j of the base model
        model = random_type1_cone_model(3, 4)
        big = embedded_cone_model(model, 0.37)
        assert np.abs(big.action_coefficients[1:] - model.action_coefficients).max() < 1e-14

    def test_embedded_point(self):
        x = np.array([1.0 + 2j, 3.0])
        assert np.array_equal(embed_cone_point(x), np.array([0.0, 1.0 + 2j, 3.0]))


class TestTowerGeodesic:
    def test_projective_case(self):
        n = 2
        rep = verify_tower_geodesic(cp_cone_model(n), -1.0 / (2 * (n + 2)),
                                    samples=2, seed=0)
        assert rep.max_ii <= 1e-3
        assert rep.min_control >= 0.05
        assert rep.max_isometry_residual <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_cases(self, seed):
        model = random_type1_cone_model(2 + seed % 2, seed)
        rep = verify_tower_geodesic(model, 0.3 + 0.1 * seed, samples=2, seed=seed)
        assert rep.max_ii <= 1e-3
        assert rep.min_control >= 0.05
        assert rep.max_isometry_residual <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ii_is_second_order(self, n):
        # the embedding mixes the ambient chart coordinates, so II is a
        # finite-difference measurement of zero, not an exact zero by
        # symmetry: it falls 4x when h halves
        model = random_type1_cone_model(n, 0)
        ii = [verify_tower_geodesic(model, 0.3, samples=2, fd_step=h, seed=0).max_ii
              for h in (1e-2, 5e-3)]
        assert 1.9 <= np.log2(ii[0] / ii[1]) <= 2.1

    @pytest.mark.parametrize("n", [2, 3])
    def test_ii_is_second_order_for_an_aligned_frame(self, n, monkeypatch):
        # eigh may return any orthonormal basis of a degenerate eigenspace,
        # among them the ambient frame that extends [0; F] by e0, which makes
        # E a coordinate injection; the fixed mixing keeps II second order
        model = random_type1_cone_model(n, 0)

        def aligned(P, cone):
            if cone.n == n:
                return contact_frame(P, cone)
            F = contact_frame(P[1:], model).vectors
            e0 = np.eye(n + 1, dtype=complex)[:, 0]
            v0 = e0 / np.sqrt(induced_metric(P, e0, e0))
            k = n - 1
            cols = np.vstack([np.zeros((1, 2 * k)), F])
            vectors = np.column_stack([cols[:, :k], v0, cols[:, k:], j_m(P, v0, cone)])
            frame = DistributionFrame(P, vectors, cone)
            assert np.abs(frame.metric_gram() - np.eye(2 * n)).max() <= 1e-12
            assert np.abs(frame.matrix_of(lambda X: j_m(P, X, cone))
                          - KaehlerModel(n).J).max() <= 1e-12
            return frame

        monkeypatch.setattr(tower, "contact_frame", aligned)
        ii = [verify_tower_geodesic(model, 0.3, samples=2, fd_step=h, seed=0).ii_norms
              for h in (1e-2, 5e-3)]
        assert all(1.9 <= np.log2(a / b) <= 2.1 for a, b in zip(*ii))

    def test_one_christoffel_per_sample(self, monkeypatch):
        # II and its bump control share one ambient Christoffel symbol: 2D + 1
        # ambient evaluations per sample, plus the three isometry probes
        calls = Counter()
        quotient_chart = tower.quotient_chart

        def counted(frame):
            chart = quotient_chart(frame)

            def ev(p):
                calls[chart.dim] += 1
                return chart.at(p)

            return ChartMetric(chart.dim, ev)

        monkeypatch.setattr(tower, "quotient_chart", counted)
        model, samples = random_type1_cone_model(3, 0), 2
        verify_tower_geodesic(model, 0.3, samples=samples, seed=0)
        D = 2 * model.n
        assert calls == {D: samples * (2 * D + 1 + 3), D - 2: samples * 3}


class TestSpSquare:
    def test_zero(self):
        assert np.abs(sp_square(np.zeros(4))).max() == 0.0

    def test_lands_in_sp(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert _sp_defect(sp_square(rng.standard_normal(6))) <= 1e-10

    def test_sign_quotient(self):
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(sp_square(x), sp_square(-x))

    def test_equivariance(self):
        rng = np.random.default_rng(1)
        for k in range(10):
            x = rng.standard_normal(6)
            g = random_sp(rng, 6)
            lhs = sp_square(g @ x)
            rhs = g @ sp_square(x) @ np.linalg.inv(g)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_rank_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.linalg.matrix_rank(sp_square(x), tol=1e-12) == 1

    def test_form_matrix_blocks(self):
        O = KaehlerModel(2).J.T   # omega(x, y) = x^T J0^T y
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 1.0, 0.0])
        assert x @ O @ y == 1.0  # omega(du, dv) pairing


class TestDuality:
    def test_scalar_rotation_matches(self):
        # a = i I: both sides are phase rotations; closed-form flows agree
        rep = duality_action_check(1j * np.eye(3), samples=4, seed=0)
        assert rep.twisted_residual <= 1e-8

    def test_zero_element(self):
        rep = duality_action_check(np.zeros((2, 2)), samples=2, seed=0)
        assert rep.twisted_residual == 0.0
        assert rep.untwisted_residual == 0.0

    def test_generic_diagonal(self):
        a = np.diag(1j * np.array([0.4, -0.7, 0.2]))
        rep = duality_action_check(a, samples=20, seed=1)
        assert rep.twisted_residual <= 1e-6
        assert rep.sq_equivariance <= 1e-10

    def test_twist_is_essential(self):
        # without the determinant twist the flows disagree whenever the
        # trace does not vanish
        a = np.diag(1j * np.array([0.4, -0.1]))
        rep = duality_action_check(a, samples=4, seed=0)
        assert rep.untwisted_residual > 0.05

    def test_traceless_input_needs_no_twist(self):
        a = np.diag(1j * np.array([0.4, -0.4]))
        rep = duality_action_check(a, samples=4, seed=0)
        assert rep.untwisted_residual <= 1e-8

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            duality_action_check(np.eye(2))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("samples, timesteps", [(3, 64), (4, 32)])
    def test_stacked_flows_match_pointwise_reference(self, m, samples, timesteps):
        # one flow per (start point, time), as the check is defined; the
        # stacked trajectories must reproduce it bit for bit
        def at(X, t):
            return _unitary_flow(X, np.array([t]))[0]

        a, ref = _pointwise_duality(m, samples, timesteps, at)
        rep = duality_action_check(a, samples=samples, seed=m, timesteps=timesteps)
        assert (rep.twisted_residual, rep.untwisted_residual, rep.sq_equivariance) == ref

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("samples, timesteps", [(3, 64), (4, 32)])
    def test_flows_match_taylor_reference(self, m, samples, timesteps, expm_reference):
        # every flow, and the residuals built from them, against an
        # independent exponential of t X
        a, ref = _pointwise_duality(m, samples, timesteps,
                                    lambda X, t: expm_reference(t * X))
        ts = np.linspace(0.0, 1.0, timesteps)
        for X in _duality_generators(a):
            want = np.array([expm_reference(t * X) for t in ts])
            assert np.abs(_unitary_flow(X, ts) - want).max() <= 1e-13
        rep = duality_action_check(a, samples=samples, seed=m, timesteps=timesteps)
        assert rep.twisted_residual <= 1e-13 and ref[0] <= 1e-13
        assert rep.untwisted_residual == pytest.approx(ref[1], rel=1e-12, abs=1e-13)
        assert rep.sq_equivariance == ref[2]

    def test_realified_u_lies_in_sp(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a - a.conj().T)
        assert _sp_defect(complex_to_real_endo(a)) <= 1e-10

    def test_near_skew_input(self):
        # a norm-0.5 skew-hermitian matrix plus a small hermitian part: a skew
        # residual of 9e-11 passes the 1e-10 input check and is checked, 1.8e-10 is refused
        z = np.random.default_rng(5).standard_normal((3, 6)).view(complex)
        skew, herm = z - z.conj().T, z + z.conj().T
        skew, herm = 0.5 * skew / np.linalg.norm(skew), herm / np.linalg.norm(herm)
        rep = duality_action_check(skew + 4.5e-11 * herm, samples=4, seed=0)
        assert rep.twisted_residual <= 1e-9
        with pytest.raises(ValueError):
            duality_action_check(skew + 9e-11 * herm, samples=4, seed=0)


def _duality_generators(a):
    """The three generators duality_action_check flows along."""
    twist = algebra_action(a, np.eye(a.shape[0]))
    return twist, complex_to_real_endo(twist), complex_to_real_endo(a)


def _pointwise_duality(m, samples, timesteps, expm):
    """A random a in u(m) and the duality residuals, one expm(X, t) per start point and time."""
    rng = np.random.default_rng(40 + m)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = 0.5 * (a - a.conj().T)
    twist, M_twist, M_plain = _duality_generators(a)
    draw = np.random.default_rng(m)
    resid_t = resid_u = 0.0
    for _ in range(samples):
        x0 = draw.standard_normal(m) + 1j * draw.standard_normal(m)
        y0 = to_real(x0)
        for t in np.linspace(0.0, 1.0, timesteps):
            xc = to_real(expm(twist, t) @ x0)
            yt = expm(M_twist, t) @ y0
            yu = expm(M_plain, t) @ y0
            resid_t = max(resid_t, min(np.linalg.norm(xc - yt), np.linalg.norm(xc + yt)))
            resid_u = max(resid_u, min(np.linalg.norm(xc - yu), np.linalg.norm(xc + yu)))
    g = random_sp(draw, 2 * m)
    equi = 0.0
    for _ in range(samples):
        x = draw.standard_normal(2 * m)
        rhs = g @ sp_square(x) @ np.linalg.inv(g)
        equi = max(equi, float(np.abs(sp_square(g @ x) - rhs).max()
                               / max(1.0, np.abs(rhs).max())))
    return a, (resid_t, resid_u, equi)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_random_sp_is_symplectic(k, seed):
    O = KaehlerModel(k).J.T
    g = random_sp(np.random.default_rng(seed), 2 * k)
    assert np.abs(g.T @ O @ g - O).max() <= 1e-12
