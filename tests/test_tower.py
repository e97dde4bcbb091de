import numpy as np
import pytest
import scipy.linalg

from bkgeom.cone import cp_cone_model, random_type1_cone_model
from bkgeom.grading import cp_generator
from bkgeom.curvature import KaehlerModel
from bkgeom.hermitian import HermitianSpace, SuElement, su_element
from bkgeom.tower import (
    action_agreement_residual,
    duality_action_check,
    embed_cone_point,
    embed_generator,
    embedded_cone_model,
    is_sp,
    random_sp,
    sp_square,
    verify_tower_geodesic,
)


class TestEmbedGenerator:
    def test_projective_ladder(self):
        # the (n-1)-level projective generator with the matched corner entry
        # embeds onto the n-level projective generator
        for n in (2, 3):
            A = cp_generator(HermitianSpace(n))
            D = embed_generator(A, -1.0 / (2 * (n + 2)))
            target = cp_generator(HermitianSpace(n + 1))
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


class TestSpSquare:
    def test_zero(self):
        assert np.abs(sp_square(np.zeros(4))).max() == 0.0

    def test_lands_in_sp(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert is_sp(sp_square(rng.standard_normal(6)))

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

    def test_realified_u_is_sp(self):
        from bkgeom.curvature import complex_to_real_endo

        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = 0.5 * (a - a.conj().T)
        assert is_sp(complex_to_real_endo(a))
