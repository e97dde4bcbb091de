import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkgeom import jsonio
from bkgeom.hermitian import (
    HermitianSpace,
    HermitianSpaceError,
    NonFiniteError,
    SuElement,
    SuMembershipError,
    _MIN_GAP,
    cayley,
    group_conjugator,
    random_su,
    su_element,
    su_project,
    su_residuals,
    wedge_j,
)

PROFILES = ["generic", "diagonal-imaginary", "rank1", "jordan2", "jordan3", "split-real"]


def basis_vector(d, j):
    e = np.zeros(d, dtype=complex)
    e[j] = 1.0
    return e


class TestHermForm:
    def test_first_basis_vector_has_unit_norm(self):
        sp = HermitianSpace(2)
        e1 = basis_vector(3, 0)
        assert sp.herm(e1, e1) == pytest.approx(1.0)

    def test_last_basis_vector_has_negative_norm(self):
        sp = HermitianSpace(2)
        e3 = basis_vector(3, 2)
        assert sp.herm(e3, e3) == pytest.approx(-1.0)

    def test_hermitian_symmetry(self):
        sp = HermitianSpace(3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert abs(sp.herm(x, y) - np.conj(sp.herm(y, x))) < 1e-12

    def test_omega_is_g_of_jy(self):
        sp = HermitianSpace(2)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert sp.omega(x, y) == pytest.approx(sp.g(x, 1j * y), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        sp = HermitianSpace(2)
        with pytest.raises(ValueError):
            sp.herm(np.ones(2), np.ones(3))

    def test_from_gram_rediagonalizes(self):
        rng = np.random.default_rng(5)
        B0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = np.diag([1.0, 1.0, -1.0]).astype(complex)
        G = B0.conj().T @ H @ B0
        sp, B = HermitianSpace.from_gram(G)
        assert np.linalg.norm(B.conj().T @ G @ B - sp.form_matrix) < 1e-10

    def test_wrong_signature_rejected(self):
        with pytest.raises(HermitianSpaceError):
            HermitianSpace.from_gram(np.eye(3))


class TestCheckSu:
    def test_accepts_traceless_imaginary_diagonal(self):
        sp = HermitianSpace(1)
        res = su_element(np.diag([1j, -1j]), sp)
        assert isinstance(res, SuElement)

    def test_rejects_nonzero_trace_with_residual(self):
        sp = HermitianSpace(1)
        with pytest.raises(SuMembershipError) as info:
            su_element(np.diag([1j, 1j]), sp)
        assert info.value.identity == "traceless"
        assert info.value.residual == pytest.approx(2.0)
        assert info.value.scale == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, value):
        # every residual comparison with NaN is false, so only an explicit
        # finiteness check keeps such a matrix from being certified
        M = np.full((3, 3), value)
        with pytest.raises(NonFiniteError):
            su_element(M, HermitianSpace(2))
        with pytest.raises(NonFiniteError):
            jsonio.matrix_from_json(jsonio.matrix_to_json(M))

    def test_projection_oracle_certifies(self):
        sp = HermitianSpace(3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            res = su_element(su_project(A, sp), sp)
            assert isinstance(res, SuElement)

    def test_skew_adjointness_identity(self):
        # h(Ax, y) + h(x, Ay) = 0 for certified elements
        sp = HermitianSpace(3)
        rng = np.random.default_rng(3)
        A = random_su(0, sp, "generic")
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            val = sp.herm(A.matrix @ x, y) + sp.herm(x, A.matrix @ y)
            bound = 1e-10 * np.linalg.norm(A.matrix) * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(val) <= bound


class TestWedgeJ:
    def test_null_vector_gives_traceless(self):
        sp = HermitianSpace(2)
        x = np.array([1.0, 0.0, 1.0], dtype=complex)
        assert abs(np.trace(wedge_j(x, sp))) < 1e-12

    def test_non_null_vector_has_trace(self):
        sp = HermitianSpace(2)
        x = basis_vector(3, 0)
        W = wedge_j(x, sp)
        assert abs(np.trace(W)) > 0.5

    def test_phase_invariance(self):
        sp = HermitianSpace(3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert np.linalg.norm(wedge_j(np.exp(0.7j) * x, sp) - wedge_j(x, sp)) < 1e-12

    def test_eigen_relation(self):
        # W x = i g(x,x) x
        sp = HermitianSpace(3)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            W = wedge_j(x, sp)
            assert np.linalg.norm(W @ x - 1j * sp.g(x, x) * x) < 1e-10

    def test_equivariance_seeded(self):
        sp = HermitianSpace(2)
        for k in range(100):
            rng = np.random.default_rng(k)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            G = group_conjugator(rng, sp)
            lhs = G @ wedge_j(x, sp) @ np.linalg.inv(G)
            rhs = wedge_j(G @ x, sp)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            wedge_j(np.zeros(3), HermitianSpace(2))


class TestRandomSu:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_profiles_certify(self, profile, n):
        if profile == "jordan3" and n < 2:
            pytest.skip("3-chains need n >= 2")
        sp = HermitianSpace(n)
        for seed in range(3):
            A = random_su(seed, sp, profile)
            r_skew, r_tr, scale = su_residuals(A.matrix, sp)
            assert r_skew <= 1e-10 * scale
            assert r_tr <= 1e-10 * scale

    def test_seed_determinism(self):
        sp = HermitianSpace(3)
        A = random_su(7, sp, "generic")
        B = random_su(7, sp, "generic")
        assert np.array_equal(A.matrix, B.matrix)

    def test_diagonal_imaginary_structure(self):
        sp = HermitianSpace(2)
        A = random_su(0, sp, "diagonal-imaginary")
        w = np.linalg.eigvals(A.matrix)
        assert np.abs(w.real).max() < 1e-12
        assert abs(w.sum()) < 1e-12

    def test_rank1_is_nilpotent_rank_one(self):
        sp = HermitianSpace(3)
        A = random_su(1, sp, "rank1").matrix
        assert np.linalg.matrix_rank(A, tol=1e-10) == 1
        assert np.linalg.norm(A @ A) < 1e-12

    def test_split_real_has_real_pair(self):
        sp = HermitianSpace(3)
        w = np.linalg.eigvals(random_su(2, sp, "split-real").matrix)
        real = sorted(w[np.abs(w.real) > 1e-6], key=lambda z: z.real)
        assert len(real) == 2
        # lam and -conj(lam)
        assert abs(real[0] + np.conj(real[1])) < 1e-8

    @pytest.mark.parametrize("seed", [54, 393])
    def test_jammed_sampler_redraws(self, seed):
        # the rejection sampler for 8 eigenvalues 0.25 apart jams at these seeds
        from bkgeom.orbits import classify

        sp = HermitianSpace(8)
        A = random_su(seed, sp, "diagonal-imaginary")
        assert isinstance(A, SuElement)
        assert classify(A).tag == "1"

    @pytest.mark.parametrize("profile,k,n", [
        (profile, k, n)
        for profile, k in (("diagonal-imaginary", 1), ("jordan2", 2), ("jordan3", 3),
                           ("split-real", 2))
        for n in range(2 if profile == "jordan3" else 1, 9)])
    def test_structured_spectrum_is_separated(self, profile, k, n):
        # the canonical head of k coordinates is one eigenvalue cluster of k on the
        # imaginary axis, or the split pair at least 0.3 off it; every other
        # eigenvalue is simple, imaginary and _MIN_GAP from the rest
        from bkgeom.orbits import eigenstructure

        sp = HermitianSpace(n)
        for seed in range(25):
            clusters = eigenstructure(random_su(seed, sp, profile)).clusters
            lam = np.array([c.eigenvalue for c in clusters])
            mult = np.array([c.multiplicity for c in clusters])
            assert abs(mult @ lam.imag) < 1e-9
            on_axis = np.abs(lam.real) < 1e-6
            pair = lam[~on_axis]
            if profile == "split-real":
                assert len(pair) == 2 and np.all(np.abs(pair.real) >= 0.3)
                head = []
            else:
                assert len(pair) == 0
                head = [k]
            assert sorted(mult[on_axis]) == [1] * (sp.dim - k) + head
            assert np.all(np.diff(np.sort(lam[on_axis].imag)) >= _MIN_GAP - 1e-9)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            random_su(0, HermitianSpace(2), "nope")


def test_eigenvalue_pairing_invariant():
    # the spectrum of any su(n,1) element is stable under lam -> -conj(lam),
    # up to clustering tolerance (defective eigenvalues splay at eps^(1/3))
    from bkgeom.orbits import eigenstructure

    for n in (2, 3):
        sp = HermitianSpace(n)
        for profile in PROFILES:
            A = random_su(5, sp, profile)
            es = eigenstructure(A)
            w = np.array([c.eigenvalue for c in es.clusters])
            for lam in w:
                assert np.min(np.abs(w - (-np.conj(lam)))) < 10 * es.cluster_tol


def test_su_element_scaling_stays_certified():
    sp = HermitianSpace(2)
    A = random_su(0, sp, "generic")
    res = su_element(A.scaled(2.5).matrix, sp)
    assert isinstance(res, SuElement)


def _u_n1_defect(G, space):
    """max of |G^* H G - H| and ||det G| - 1|: zero exactly on U(n,1)."""
    H = space.form_matrix
    return max(float(np.abs(G.conj().T @ H @ G - H).max()),
               abs(abs(np.linalg.det(G)) - 1.0))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_group_conjugator_preserves_the_form(n, seed):
    sp = HermitianSpace(n)
    assert _u_n1_defect(group_conjugator(np.random.default_rng(seed), sp), sp) <= 1e-12
    # control: the same map of a generic complex matrix of the same norm
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal((sp.dim, sp.dim))
    assert _u_n1_defect(cayley(0.7 * X / np.linalg.norm(X)), sp) >= 1e-3
