import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bkgeom import grading, orbits
from bkgeom.cone import cp_cone_model
from bkgeom.hermitian import (
    HermitianSpace,
    group_conjugator,
    random_su,
    su_element,
    su_project,
    wedge_j,
)
from bkgeom.orbits import (
    IllConditionedError,
    canonical_basis,
    char_poly,
    classify,
    eigenstructure,
)

EXPECTED_TAG = {
    "diagonal-imaginary": "1",
    "rank1": "2a",
    "jordan2": "2a",
    "jordan3": "3",
    "split-real": "4",
}


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a pass-through that logs each call in the returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def conjugated(A, seed):
    sp = A.space
    G = group_conjugator(np.random.default_rng(seed), sp)
    return su_element(su_project(G @ A.matrix @ np.linalg.inv(G), sp), sp)


def dead_band_element(a=3e-8):
    """An element of su(2,1) with the split-real pair +-a + 0.4i.  At a = 3e-8 it is
    refused at the default tolerance and type 1 at 1e-6; from a = 2e-7 it is type 4."""
    sp = HermitianSpace(2)
    npl = np.array([1.0, 0.0, 1.0], dtype=complex)
    nmi = np.array([1.0, 0.0, -1.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    B = np.array([npl, 0.5 * nmi, e2]).T
    C = np.diag([a + 0.4j, -a + 0.4j, -0.8j])
    return su_element(su_project(B @ C @ np.linalg.inv(B), sp), sp)


def fresh(A):
    """A new element with A's matrix, so nothing is known of it yet."""
    return su_element(A.matrix, A.space)


class TestEigenstructure:
    def test_small_diagonal(self):
        sp = HermitianSpace(1)
        es = eigenstructure(su_element(np.diag([1j, -1j]), sp))
        assert [c.block_sizes for c in es.clusters] == [(1,), (1,)]

    def test_rank_one_has_single_two_block_at_zero(self):
        sp = HermitianSpace(3)
        x = np.array([0.3 + 0.1j, -0.2j, 0.5, np.linalg.norm([0.3 + 0.1j, -0.2j, 0.5])])
        es = eigenstructure(su_element(wedge_j(x, sp), sp))
        assert len(es.clusters) == 1
        c = es.clusters[0]
        assert abs(c.eigenvalue) < 1e-8
        assert c.block_sizes == (2,) + (1,) * (sp.n - 1)

    def test_jordan3_profile_has_three_block(self):
        sp = HermitianSpace(3)
        for seed in range(5):
            es = eigenstructure(random_su(seed, sp, "jordan3"))
            assert max(max(c.block_sizes) for c in es.clusters) == 3

    def test_no_block_exceeds_three(self):
        for n in (2, 3, 4):
            sp = HermitianSpace(n)
            for profile in EXPECTED_TAG:
                es = eigenstructure(random_su(1, sp, profile))
                assert max(max(c.block_sizes) for c in es.clusters) <= 3

    def test_multiplicities_sum_to_dimension(self):
        sp = HermitianSpace(3)
        es = eigenstructure(random_su(9, sp, "jordan2"))
        assert sum(c.multiplicity for c in es.clusters) == sp.dim


class TestClassify:
    @pytest.mark.parametrize("profile,tag", sorted(EXPECTED_TAG.items()))
    def test_profiles(self, profile, tag):
        sp = HermitianSpace(3)
        for seed in range(5):
            assert classify(random_su(seed, sp, profile)).tag == tag

    def test_projective_generator_is_type_one(self):
        assert classify(cp_cone_model(3).generator()).tag == "1"

    def test_epsilon_calibration_on_standard_null_vector(self):
        # the calibration convention: wedge_j((1, 0, ..., 0, 1)) is "2a"
        for n in (2, 3, 4):
            sp = HermitianSpace(n)
            x = np.zeros(n + 1, dtype=complex)
            x[0] = x[n] = 1.0
            ot = classify(su_element(wedge_j(x, sp), sp))
            assert (ot.tag, ot.epsilon) == ("2a", 1)

    def test_negated_rank_one_flips_sign_class(self):
        sp = HermitianSpace(3)
        A = random_su(4, sp, "rank1")
        assert classify(A).tag == "2a"
        assert classify(su_element(-A.matrix, sp)).tag == "2b"

    def test_jordan2_epsilon_parameter(self):
        sp = HermitianSpace(2)
        assert classify(random_su(8, sp, "jordan2", epsilon=1)).tag == "2a"
        assert classify(random_su(8, sp, "jordan2", epsilon=-1)).tag == "2b"

    def test_conjugation_invariance_with_epsilon(self):
        sp = HermitianSpace(3)
        for profile in EXPECTED_TAG:
            A = random_su(13, sp, profile)
            t0 = classify(A)
            for k in range(3):
                tc = classify(conjugated(A, 50 + k))
                assert (tc.tag, tc.epsilon) == (t0.tag, t0.epsilon)

    def test_positive_scaling_preserves_class(self):
        sp = HermitianSpace(3)
        for profile in EXPECTED_TAG:
            A = random_su(2, sp, profile)
            t0 = classify(A)
            ts = classify(su_element(3.7 * A.matrix, A.space))
            assert (ts.tag, ts.epsilon) == (t0.tag, t0.epsilon)

    def test_type4_eigenvalues_pair(self):
        sp = HermitianSpace(4)
        ot = classify(random_su(6, sp, "split-real"))
        lam, mu = ot.invariant_data
        assert abs(lam + np.conj(mu)) < 1e-8

    def test_type4_literal_construction(self):
        # eigenvalues (1+i, -1+i, -2i) on the null-pair basis with
        # h(e1, e2) = 1, transformed to the standard basis
        sp = HermitianSpace(2)
        npl = np.array([1.0, 0.0, 1.0], dtype=complex)
        nmi = np.array([1.0, 0.0, -1.0], dtype=complex)
        e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        B = np.array([npl, 0.5 * nmi, e2]).T
        C = np.diag([1.0 + 1j, -1.0 + 1j, -2j])
        A = su_element(su_project(B @ C @ np.linalg.inv(B), sp), sp)
        ot = classify(A)
        assert ot.tag == "4"
        lam, mu = ot.invariant_data
        assert lam == pytest.approx(1.0 + 1j, abs=1e-9)
        assert mu == pytest.approx(-1.0 + 1j, abs=1e-9)

    def test_dead_band_raises(self):
        # a split-real pair with |Re| inside (tol/10, 10 tol) cannot be
        # distinguished from an imaginary pair at tol; refuse to guess
        with pytest.raises(IllConditionedError):
            classify(dead_band_element(3e-8))

    @pytest.mark.parametrize("a", [2e-7, 3e-6, 3e-5, 7e-5])
    def test_split_real_pair_inside_the_cluster_floor(self, a):
        # +-a + 0.4i share one cluster, whose mean is no eigenvalue: it is split
        A = dead_band_element(a)
        ot = classify(A)
        assert ot.tag == "4"
        assert ot.invariant_data[0] == pytest.approx(a + 0.4j, abs=1e-12)
        cb = canonical_basis(A)
        assert max(cb.conjugation_residual, cb.gram_residual) <= 1e-14

    @pytest.mark.parametrize("d", [1e-6, 2e-5])
    def test_imaginary_pair_inside_the_cluster_floor(self, d):
        sp = HermitianSpace(2)
        A = conjugated(su_element(np.diag([0.4j, 0.4j + 1j * d, -0.8j - 1j * d]), sp), 0)
        assert classify(A).tag == "1"
        assert [c.multiplicity for c in eigenstructure(A).clusters] == [1, 1, 1]

    def test_split_keeps_a_two_block_whole(self):
        # a 2-block at -i mu and its neighbour 2i mu share one cluster, and roundoff
        # splits the block by ~1e-8; the pair floor keeps it one block (type 2a), where
        # splitting into single eigenvalues reads the roundoff as a type-4 pair
        sp = HermitianSpace(2)
        P = canonical_basis(random_su(1, sp, "jordan2")).basis
        mu = 1.5e-4
        C = np.array([[-1j * mu, 1.0, 0.0], [0.0, -1j * mu, 0.0], [0.0, 0.0, 2j * mu]])
        A = su_element(su_project(P @ C @ np.linalg.inv(P), sp), sp)
        assert classify(A, 1e-10).tag == "2a"
        assert sorted(c.block_sizes for c in eigenstructure(A, 1e-10).clusters) == [(1,), (2,)]


@st.composite
def profiled_elements(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    profile = draw(st.sampled_from(sorted(EXPECTED_TAG)))
    kw = {"epsilon": draw(st.sampled_from([1, -1]))} if profile == "jordan2" else {}
    return random_su(draw(st.integers(0, 10**6)), HermitianSpace(n), profile, **kw)


NEGATED_TAG = {"1": "1", "2a": "2b", "2b": "2a", "3": "3", "4": "4"}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(A=profiled_elements(), conj_seed=st.integers(0, 10**6),
       c=st.floats(0.25, 4.0))
def test_classify_invariances(A, conj_seed, c):
    # the orbit type is a conjugacy invariant and blind to positive scale;
    # a negative scale reverses the chain pairing, so 2a and 2b trade places
    t0 = classify(A)
    for B in (conjugated(A, conj_seed), su_element(c * A.matrix, A.space)):
        t = classify(B)
        assert (t.tag, t.epsilon) == (t0.tag, t0.epsilon)
    t = classify(su_element(-c * A.matrix, A.space))
    assert t.tag == NEGATED_TAG[t0.tag]
    assert t.epsilon == (None if t0.epsilon is None else -t0.epsilon)


class TestCharPoly:
    def test_projective_generator_closed_form(self):
        # (t + i/(2(n+2)))^(n+1) (t - i(n+1)/(2(n+2))) for the ambient n+1 case
        for n in (1, 2, 3):
            pc = char_poly(cp_cone_model(n + 1).generator())
            target = np.poly(np.concatenate([
                np.full(n + 1, -1j / (2 * (n + 2))),
                [1j * (n + 1) / (2 * (n + 2))]]))
            assert np.abs(pc.coefficients - target).max() <= 1e-12

    def test_zero_matrix(self):
        sp = HermitianSpace(2)
        pc = char_poly(su_element(np.zeros((3, 3)), sp))
        assert np.abs(pc.coefficients - np.array([1, 0, 0, 0])).max() < 1e-15

    def test_conjugation_invariance(self):
        sp = HermitianSpace(3)
        for seed in range(10):
            A = random_su(seed, sp, "generic")
            ca = char_poly(A).coefficients
            cb = char_poly(conjugated(A, seed + 100)).coefficients
            assert np.abs(ca - cb).max() <= 1e-9 * max(1.0, np.abs(ca).max())

    def test_factored_form_matches_and_displayed_form_disagrees(self):
        # the block factorization with the -2i cofactor pairing reproduces
        # det(A - tI) to roundoff; the literal trace-shifted display does not,
        # and its measured discrepancy is reported rather than patched
        pc = char_poly(cp_cone_model(3).generator())
        assert pc.factored_residual is not None
        assert pc.factored_residual < 1e-12
        assert pc.displayed_residual is not None
        assert pc.displayed_residual > 1e-4

    def test_cross_check_skipped_when_not_extractable(self):
        sp = HermitianSpace(2)
        pc = char_poly(su_element(np.diag([0.4j, -0.2j, -0.2j]), sp))
        assert pc.factored_residual is None
        assert pc.displayed_residual is None

    def test_cross_check_runs_on_first_read_only(self, monkeypatch):
        calls = count_calls(monkeypatch, grading, "structure_functions")
        pc = char_poly(cp_cone_model(3).generator())
        assert len(pc.coefficients) == 5
        assert calls == []
        first = (pc.factored_residual, pc.displayed_residual)
        assert len(calls) == 1
        assert pc.factored_residual is first[0]
        assert pc.displayed_residual is first[1]
        assert len(calls) == 1


class TestOneEigenAnalysis:
    @pytest.mark.parametrize("profile", sorted(EXPECTED_TAG))
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_basis_orbit_and_scale(self, profile, n):
        A = random_su(5, HermitianSpace(n), profile)
        assert canonical_basis(A).orbit == classify(A)
        assert eigenstructure(A).scale == max(1.0, np.linalg.norm(A.matrix, 2))

    @pytest.mark.parametrize("profile", sorted(EXPECTED_TAG))
    def test_canonical_basis_builds_one_eigenstructure(self, profile, monkeypatch):
        calls = count_calls(monkeypatch, orbits, "eigenstructure")
        canonical_basis(random_su(5, HermitianSpace(3), profile))
        assert len(calls) == 1

    @pytest.mark.parametrize("profile", sorted(EXPECTED_TAG))
    def test_canonical_basis_builds_at_most_one_jordan_chain(self, profile, monkeypatch):
        calls = count_calls(monkeypatch, orbits, "_jordan_chain")
        canonical_basis(random_su(5, HermitianSpace(3), profile))
        assert len(calls) == (EXPECTED_TAG[profile] in ("2a", "2b", "3"))


def warm(A, tol=orbits.DEFAULT_CLASSIFY_TOL):
    """Run each reader of A's analysis once."""
    classify(A, tol)
    canonical_basis(A, tol)
    char_poly(A)


def same_basis(a, b):
    return (a.orbit == b.orbit and a.conjugation_residual == b.conjugation_residual
            and a.gram_residual == b.gram_residual
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("basis", "canonical", "gram_target")))


def same_char_poly(a, b):
    return (np.array_equal(a.coefficients, b.coefficients) and np.array_equal(a.roots, b.roots)
            and a.factored_residual == b.factored_residual
            and a.displayed_residual == b.displayed_residual)


class TestAnalysisMemo:
    @pytest.mark.parametrize("profile", sorted([*EXPECTED_TAG, "generic"]))
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_warm_results_equal_fresh_ones_bitwise(self, profile, n):
        A = random_su(5, HermitianSpace(n), profile)
        warm(A)
        assert classify(A) == classify(fresh(A))
        assert same_basis(canonical_basis(A), canonical_basis(fresh(A)))
        assert same_char_poly(char_poly(A), char_poly(fresh(A)))

    @pytest.mark.parametrize("profile", sorted(EXPECTED_TAG))
    def test_one_eigvals_and_one_analysis_per_tolerance(self, profile, monkeypatch):
        eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
        bodies = count_calls(monkeypatch, orbits, "_eigenstructure")
        chains = count_calls(monkeypatch, orbits, "_classify_with_chain")
        A = random_su(5, HermitianSpace(3), profile)
        warm(A)
        assert (len(eigvals), len(bodies), len(chains)) == (1, 1, 1)
        warm(A, 1e-6)
        eigenstructure(A, 1e-6)
        classify(A)
        assert (len(eigvals), len(bodies), len(chains)) == (1, 2, 2)

    @pytest.mark.parametrize("first", [1e-8, 1e-3])
    def test_tolerances_do_not_share_results(self, first):
        A = random_su(5, HermitianSpace(3), "jordan2")
        warm(A, first)
        assert classify(A, 1e-6) == classify(fresh(A), 1e-6)
        assert eigenstructure(A, 1e-6) == eigenstructure(fresh(A), 1e-6)
        assert eigenstructure(A, 1e-3) != eigenstructure(A, 1e-8)  # cluster_tol differs

        A = dead_band_element()
        with pytest.raises(IllConditionedError):
            classify(A, 1e-8)
        assert classify(A, 1e-6) == classify(fresh(A), 1e-6)
        assert classify(A, 1e-6).tag == "1"

    def test_refusals_are_not_stored(self, monkeypatch):
        bodies = count_calls(monkeypatch, orbits, "_eigenstructure")
        A = dead_band_element()
        messages = []
        for _ in range(2):
            with pytest.raises(IllConditionedError) as exc:
                classify(A)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "dead band" in messages[0]
        assert len(bodies) == 2

    def test_memo_dies_with_its_element(self):
        A = random_su(5, HermitianSpace(3), "jordan2")
        warm(A)
        ref = weakref.ref(A)
        del A
        gc.collect()
        assert ref() is None

    def test_cached_arrays_are_read_only(self):
        A = random_su(5, HermitianSpace(3), "jordan2")
        with pytest.raises(ValueError):
            char_poly(A).roots[0] = 0.0


def union_find_clusters(values, thr):
    """Reference single linkage by union-find, independent of the closure in _cluster."""
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) < thr:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(thr=st.sampled_from([1e-8, 0.1, 0.25, 1.0]),
       steps=st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2),
                                st.sampled_from([0.0, 1e-12, -1e-12, 0.5])),
                      min_size=1, max_size=9))
@example(thr=1.0, steps=[(r, 0, 0.0) for r in (3, -4, 0, 2, -2, 4, -1, 1, -3)])  # an 8-link chain
def test_cluster_matches_union_find(thr, steps):
    # neighbouring grid points link, points two steps apart sit exactly on
    # the threshold, and the 1e-12 jitter moves pairs just inside or outside it
    values = np.array([thr * (0.5 * re + jit + 0.5j * im) for re, im, jit in steps])
    assert orbits._cluster(values, thr) == union_find_clusters(values, thr)


class TestCanonicalBasis:
    @pytest.mark.parametrize("profile", sorted(EXPECTED_TAG))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conjugation_and_gram(self, profile, n):
        sp = HermitianSpace(n)
        for seed in range(3):
            cb = canonical_basis(random_su(seed, sp, profile))
            assert cb.conjugation_residual < 1e-8
            assert cb.gram_residual < 1e-8

    def test_round_trip(self):
        sp = HermitianSpace(3)
        A = random_su(1, sp, "jordan2")
        cb = canonical_basis(A)
        back = cb.basis @ cb.canonical @ np.linalg.inv(cb.basis)
        assert np.abs(back - A.matrix).max() < 1e-8

    def test_type1_gram_is_standard_form(self):
        sp = HermitianSpace(3)
        cb = canonical_basis(random_su(0, sp, "diagonal-imaginary"))
        target = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.abs(cb.gram_target - target).max() == 0.0

    def test_type2_gram_block(self):
        sp = HermitianSpace(2)
        cb = canonical_basis(random_su(0, sp, "rank1"))
        G = cb.basis.conj().T @ sp.form_matrix @ cb.basis
        # h(e, f) = eps * i shows up at (1, 0) in B^H H B
        assert G[1, 0] == pytest.approx(1j * cb.orbit.epsilon, abs=1e-9)
        assert abs(G[0, 0]) < 1e-9 and abs(G[1, 1]) < 1e-9

    def test_type3_gram_block(self):
        sp = HermitianSpace(3)
        cb = canonical_basis(random_su(2, sp, "jordan3"))
        G = cb.basis.conj().T @ sp.form_matrix @ cb.basis
        assert G[0, 2] == pytest.approx(-1.0, abs=1e-8)
        assert G[1, 1] == pytest.approx(1.0, abs=1e-8)
        assert abs(G[0, 0]) < 1e-8 and abs(G[2, 2]) < 1e-8

    @pytest.mark.parametrize("spectrum", [(1.0, -2.0, 1.0), (1.0, 1.0, -1.5, -1.5, 1.0)])
    def test_type1_timelike_in_repeated_eigenvalue(self, spectrum):
        # the negative-norm eigenvector shares its eigenvalue with a positive one
        n = len(spectrum) - 1
        sp = HermitianSpace(n)
        A = conjugated(su_element(np.diag(1j * np.array(spectrum)), sp), 3)
        cb = canonical_basis(A)
        assert cb.orbit.tag == "1"
        assert cb.conjugation_residual < 1e-8
        assert cb.gram_residual < 1e-8
        assert np.array_equal(cb.gram_target, np.diag([1.0] * n + [-1.0]))
        assert cb.canonical[n, n] == pytest.approx(1j * spectrum[n], abs=1e-8)
