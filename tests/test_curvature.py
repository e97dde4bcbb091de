import numpy as np
import pytest

from bkgeom import curvature
from bkgeom.curvature import (
    CurvatureTensor,
    KaehlerModel,
    circle,
    curvature_from_h,
    curvature_from_rho,
    direction_flat_check,
    fit_rho,
    rho_map_rank,
    unitary_algebra_basis,
)


def random_un(rng, n):
    basis = unitary_algebra_basis(n)
    return sum(rng.standard_normal() * b for b in basis)


def omega(x, y, km):
    """The flat Kaehler form omega0(x, y) = g0(x, J0 y)."""
    return float(x @ km.J @ y)


def random_pair_symmetric(rng, n):
    """A random tensor with the pair symmetries of a curvature tensor; not BK."""
    d = 2 * n
    T = rng.standard_normal((d, d, d, d))
    T = T - np.swapaxes(T, 0, 1)
    T = T - np.swapaxes(T, 2, 3)
    return CurvatureTensor(n, T + np.transpose(T, (2, 3, 0, 1)))


class TestCircle:
    def test_zero_input(self):
        km = KaehlerModel(2)
        assert np.abs(circle(np.zeros(4), np.ones(4), km)).max() == 0.0

    def test_output_lies_in_un(self):
        km = KaehlerModel(3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            C = circle(rng.standard_normal(6), rng.standard_normal(6), km)
            curvature_from_rho(C, km, tol=1e-9)   # raises unless C is in u(n)

    def test_direct_evaluation_n1(self):
        # n = 1, X = Y = e1, evaluated on e2 = J e1: terms collapse to
        # 2 omega(X, JX) JX + omega(JX, X) J(JX) = -2 e2 + e2 ... computed
        # directly from the five-term formula
        km = KaehlerModel(1)
        e1, e2 = np.eye(2)
        X = Y = e1
        J = km.J
        Z = e2
        expected = (omega(X, Z, km) * Y + omega(Y, Z, km) * X
                    + omega(J @ X, Z, km) * (J @ Y) + omega(J @ Y, Z, km) * (J @ X)
                    + omega(J @ X, Y, km) * (J @ Z))
        got = circle(X, Y, km) @ Z
        assert np.abs(got - expected).max() < 1e-14
        # and the commutation with J holds
        C = circle(X, Y, km)
        assert np.abs(C @ J - J @ C).max() < 1e-14

    def test_circle_identity(self):
        # (x o y) z - (x o z) y = 2 w(y,z) x - w(x,y) z + w(x,z) y
        km = KaehlerModel(3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            X, Y, Z = (rng.standard_normal(6) for _ in range(3))
            lhs = circle(X, Y, km) @ Z - circle(X, Z, km) @ Y
            rhs = (2 * omega(Y, Z, km) * X - omega(X, Y, km) * Z
                   + omega(X, Z, km) * Y)
            assert np.abs(lhs - rhs).max() < 1e-12


class TestTemplates:
    def test_zero_gives_zero(self):
        km = KaehlerModel(2)
        assert np.abs(curvature_from_rho(np.zeros((4, 4)), km).entries).max() == 0.0
        assert np.abs(curvature_from_h(np.zeros((4, 4)), km).entries).max() == 0.0

    def test_rejects_non_un(self):
        # I commutes with J0 but is not skew: ||I + I^T|| = 4 against
        # tol * max(1, ||I||) = 2 tol; every refusal names both residuals
        km = KaehlerModel(2)
        with pytest.raises(ValueError, match=(
                r"^rho is not in u\(n\): \|\|\[rho, J0\]\|\| 0\.0+e\+00, "
                r"\|\|rho \+ rho\^T\|\| 4\.0+e\+00, threshold 2\.0+e-10 ")):
            curvature_from_rho(np.eye(4), km)
        with pytest.raises(ValueError, match=r"^h is not in u\(n\): .* threshold 2\.0+e-10 "):
            curvature_from_h(np.eye(4), km)
        with pytest.raises(ValueError, match=r"^rho is not in u\(n\): .* threshold 2\.0+e-08 "):
            direction_flat_check(np.eye(4), np.ones(4), km)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetries(self, n):
        km = KaehlerModel(n)
        rng = np.random.default_rng(n)
        R = curvature_from_rho(random_un(rng, n), km)
        assert max(R.symmetry_residuals(km).values()) < 1e-10

    def test_two_templates_agree_exactly(self):
        # whether R_h and R_rho differ by a constant is measured, not
        # assumed: the measured constant is 1 (they coincide)
        for n in (1, 2, 3, 4):
            km = KaehlerModel(n)
            rng = np.random.default_rng(10 + n)
            h = random_un(rng, n)
            d = np.abs(curvature_from_h(h, km).entries
                       - curvature_from_rho(h, km).entries).max()
            assert d < 1e-12 * max(1.0, np.abs(h).max())

    def test_near_skew_rho_keeps_exact_antisymmetry(self):
        # rho in u(n) only within tolerance: R[j, i] is filled from R[i, j],
        # so the first-pair antisymmetry stays exact
        km = KaehlerModel(3)
        rng = np.random.default_rng(5)
        rho = random_un(rng, 3) + 1e-12 * rng.standard_normal((6, 6))
        R = curvature_from_rho(rho, km).entries
        assert np.array_equal(R, -np.swapaxes(R, 0, 1))
        diag = np.arange(6)
        assert np.all(R[diag, diag] == 0.0)

    def test_linearity(self):
        km = KaehlerModel(2)
        rng = np.random.default_rng(3)
        r1, r2 = random_un(rng, 2), random_un(rng, 2)
        lhs = curvature_from_rho(r1 + r2, km).entries
        rhs = curvature_from_rho(r1, km).entries + curvature_from_rho(r2, km).entries
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_scalar_rho_constant_holomorphic_curvature(self):
        # rho = c J has K_hol = 8c; measured with c = 1 and c = -1/2
        rng = np.random.default_rng(4)
        for n, c in [(1, 1.0), (2, -0.5), (3, -0.5)]:
            km = KaehlerModel(n)
            R = curvature_from_rho(c * km.J, km)
            vals = []
            for _ in range(50):
                X = rng.standard_normal(2 * n)
                X /= np.linalg.norm(X)
                vals.append(R.holomorphic_sectional(X, km))
            vals = np.array(vals)
            assert abs(vals.mean() - 8.0 * c) < 1e-10
            assert vals.std() <= 1e-10


class TestFitRho:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip(self, n):
        km = KaehlerModel(n)
        rng = np.random.default_rng(20 + n)
        rho = random_un(rng, n)
        fit, resid = fit_rho(curvature_from_rho(rho, km), km)
        assert np.abs(fit - rho).max() < 1e-9
        assert resid < 1e-9

    def test_zero_tensor(self):
        km = KaehlerModel(2)
        R = curvature_from_rho(np.zeros((4, 4)), km)
        fit, resid = fit_rho(R, km)
        assert np.abs(fit).max() == 0.0
        assert resid == 0.0

    def test_generic_tensor_has_positive_residual(self):
        # a random pair-symmetric tensor is not Bochner-Kaehler
        km = KaehlerModel(2)
        R = random_pair_symmetric(np.random.default_rng(6), 2)
        _, resid = fit_rho(R, km)
        assert resid > 1e-2 * np.abs(R.entries).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lstsq_reference(self, n):
        # the cached pseudo-inverse gives lstsq's minimizer and residual on
        # tensors off the template family (at n = 1 every such tensor is on
        # it, so the residual is compared against the tensor's norm)
        km = KaehlerModel(n)
        basis = np.array(unitary_algebra_basis(n))
        A = np.stack([curvature_from_rho(b, km).entries.ravel() for b in basis], axis=1)
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            R = random_pair_symmetric(rng, n)
            coef, *_ = np.linalg.lstsq(A, R.entries.ravel(), rcond=None)
            rho_ref = np.tensordot(coef, basis, axes=1)
            resid_ref = np.linalg.norm(A @ coef - R.entries.ravel())
            rho, resid = fit_rho(R, km)
            assert np.linalg.norm(rho - rho_ref) <= 1e-12 * np.linalg.norm(rho_ref)
            assert abs(resid - resid_ref) <= 1e-12 * max(resid_ref, np.linalg.norm(R.entries))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fit_runs_no_lstsq(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_rho called np.linalg.lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        km = KaehlerModel(n)
        rho = random_un(np.random.default_rng(50 + n), n)
        fit, resid = fit_rho(curvature_from_rho(rho, km), km)
        assert np.abs(fit - rho).max() < 1e-9
        assert resid < 1e-9

    def test_one_factorization_per_n(self):
        curvature._rho_design.cache_clear()
        km = KaehlerModel(3)
        rng = np.random.default_rng(8)
        for _ in range(3):
            fit_rho(curvature_from_rho(random_un(rng, 3), km), km)
        rho_map_rank(km)
        assert curvature._rho_design.cache_info().misses == 1

    def test_rank_deficient_design_is_refused(self, monkeypatch):
        # a repeated basis element gives the design a zero singular value
        basis = unitary_algebra_basis(2)
        monkeypatch.setattr(curvature, "unitary_algebra_basis",
                            lambda n: basis[:-1] + basis[:1])
        curvature._rho_design.cache_clear()
        try:
            km = KaehlerModel(2)
            with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
                fit_rho(curvature_from_rho(np.zeros((4, 4)), km), km)
            assert rho_map_rank(km) == (3, 4)
        finally:
            curvature._rho_design.cache_clear()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_template_map_is_injective(self, n):
        rank, expected = rho_map_rank(KaehlerModel(n))
        assert rank == expected


class TestDirectionFlat:
    def test_zero_rho_concludes_flat(self):
        km = KaehlerModel(2)
        rep = direction_flat_check(np.zeros((4, 4)), np.eye(4)[0], km)
        assert rep.direction_norm == 0.0
        assert rep.kernel_dimension == 0

    def test_projective_rho_never_satisfies_hypothesis(self):
        km = KaehlerModel(2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            X0 = rng.standard_normal(4)
            rep = direction_flat_check(-0.5 * km.J, X0, km)
            assert rep.direction_norm > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direction_map_has_trivial_kernel(self, n):
        km = KaehlerModel(n)
        rng = np.random.default_rng(30 + n)
        for _ in range(5):
            rep = direction_flat_check(np.zeros((2 * n, 2 * n)),
                                       rng.standard_normal(2 * n), km)
            assert rep.kernel_dimension == 0
