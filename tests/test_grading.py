import numpy as np
import pytest

from bkgeom.cone import cp_cone_model
from bkgeom.grading import (
    NormalizationError,
    StructureFunctions,
    assemble,
    grading_basis,
    h_action,
    structure_functions,
)
from bkgeom.hermitian import HermitianSpace, SuElement, random_su, su_element


def bracket(a, b):
    return a @ b - b @ a


def random_structure(rng, m):
    rho = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rho = 0.5 * (rho - rho.conj().T)
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = float(rng.standard_normal())
    return rho, u, f


class TestGradingBasis:
    def test_bracket_weight_plus(self):
        gb = grading_basis(3)
        assert np.linalg.norm(bracket(gb.coroot, gb.e_plus2) - 2.0 * gb.e_plus2) < 1e-12

    def test_bracket_weight_minus(self):
        gb = grading_basis(3)
        assert np.linalg.norm(bracket(gb.coroot, gb.e_minus2) + 2.0 * gb.e_minus2) < 1e-12

    def test_extreme_bracket_proportional_to_coroot(self):
        # measured proportionality constant is -4 for these matrices
        gb = grading_basis(2)
        assert np.linalg.norm(bracket(gb.e_plus2, gb.e_minus2) + 4.0 * gb.coroot) < 1e-12

    def test_root_vector_rank_one_traceless(self):
        gb = grading_basis(4)
        assert np.linalg.matrix_rank(gb.e_plus2, tol=1e-12) == 1
        assert abs(np.trace(gb.e_plus2)) < 1e-14

    def test_basis_elements_lie_in_su(self):
        sp = HermitianSpace(3)
        gb = grading_basis(3)
        for M in (gb.e_plus2, gb.e_minus2, gb.coroot):
            assert isinstance(su_element(M, sp), SuElement)


class TestGradeSplit:
    def test_root_vector_is_pure_grade_two(self):
        sp = HermitianSpace(3)
        gb = grading_basis(3)
        parts = gb.split(gb.e_plus2)
        for k in (-2, -1, 0, 1):
            assert np.linalg.norm(parts[k]) < 1e-12
        assert np.linalg.norm(parts[2] - gb.e_plus2) < 1e-12

    def test_coroot_concentrates_in_grade_zero(self):
        gb = grading_basis(2)
        parts = gb.split(gb.coroot)
        assert np.linalg.norm(parts[0] - gb.coroot) < 1e-12

    def test_bracket_eigenvalue_per_grade(self):
        sp = HermitianSpace(3)
        gb = grading_basis(3)
        A = random_su(11, sp, "generic")
        for k, P in gb.split(A.matrix).items():
            assert np.linalg.norm(bracket(gb.coroot, P) - k * P) < 1e-10

    def test_projector_completeness(self):
        sp = HermitianSpace(4)
        gb = grading_basis(4)
        A = random_su(3, sp, "generic")
        total = sum(gb.split(A.matrix).values())
        rel = np.linalg.norm(total - A.matrix) / np.linalg.norm(A.matrix)
        assert rel < 1e-12

    def test_grade_bracket_law(self):
        # [g^i, g^j] lands in g^{i+j} (zero when out of range)
        sp = HermitianSpace(3)
        gb = grading_basis(3)
        A = random_su(5, sp, "generic")
        B = random_su(6, sp, "generic")
        pa, pb = gb.split(A.matrix), gb.split(B.matrix)
        for i in (-2, -1, 0, 1, 2):
            for j in (-2, -1, 0, 1, 2):
                br = bracket(pa[i], pb[j])
                if abs(i + j) <= 2:
                    resid = np.linalg.norm(br - gb.project(br, i + j))
                else:
                    resid = np.linalg.norm(br)
                assert resid < 1e-10


class TestStructureFunctions:
    def test_round_trip_seeded(self):
        sp = HermitianSpace(3)
        gb = grading_basis(3)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rho, u, f = random_structure(rng, 2)
            el = su_element(assemble(rho, u, f, gb), sp)
            sf = structure_functions(el, gb)
            assert isinstance(sf, StructureFunctions)
            assert np.abs(sf.rho - rho).max() < 1e-10
            assert np.abs(sf.u - u).max() < 1e-10
            assert abs(sf.f - f) < 1e-10
            assert abs(sf.scale - 1.0) < 1e-10
            assert sf.residual < 1e-12

    def test_assemble_zero_is_half_root_vector(self):
        gb = grading_basis(3)
        M = assemble(np.zeros((2, 2)), np.zeros(2), 0.0, gb)
        assert np.linalg.norm(M - 0.5 * gb.e_minus2) < 1e-14

    def test_rescaling_is_reported(self):
        sp = HermitianSpace(3)
        gb = grading_basis(3)
        rng = np.random.default_rng(0)
        rho, u, f = random_structure(rng, 2)
        el = su_element(assemble(rho, u, f, gb), sp)
        scaled = su_element(-0.25 * el.matrix, el.space)
        sf = structure_functions(scaled, gb)
        assert sf.scale == pytest.approx(-4.0)
        assert np.abs(sf.rho - rho).max() < 1e-10

    def test_vanishing_extreme_part_rejected(self):
        sp = HermitianSpace(2)
        gb = grading_basis(2)
        # a scalar bottom 2x2 block has no component along either root vector
        B = su_element(np.diag([0.4j, -0.2j, -0.2j]), sp)
        with pytest.raises(NormalizationError) as info:
            structure_functions(B, gb)
        assert info.value.coefficient == pytest.approx(0.0, abs=1e-15)

    def test_projective_generator_measured_values(self):
        # Under the e_minus2/2 normalization the algebraic extraction of the
        # projective-space generator gives rho = (2/(n+1)) J, u = 0, f = 1 at
        # scale -4.  The -J/2 value quoted for this geometry belongs to rho_M,
        # the generator compressed onto a contact frame of the cone section;
        # at a section point the normal form reads rho = i/(n+1) at scale -2
        # (see test_cone).  Both are pinned so the difference stays visible.
        for n in (2, 3, 4):
            gb = grading_basis(n)
            sf = structure_functions(cp_cone_model(n).generator(), gb)
            assert isinstance(sf, StructureFunctions)
            m = n - 1
            assert np.abs(sf.rho - (2.0 / (n + 1)) * 1j * np.eye(m)).max() < 1e-12
            assert np.abs(sf.u).max() < 1e-12
            assert sf.f == pytest.approx(1.0)
            assert sf.scale == pytest.approx(-4.0)
            assert sf.residual < 1e-12


class TestHAction:
    def test_zero_rho_acts_trivially(self):
        # the infinitesimal action of 0 is 0 (the flow then fixes u)
        u = np.array([1.0 + 2j, -0.5j])
        assert np.array_equal(h_action(np.zeros((2, 2)), u), np.zeros(2))

    def test_scalar_rho_formula(self):
        # rho = i I_m on e_1: (i + m i/2) e_1
        m = 2
        u = np.eye(m, dtype=complex)[0]
        out = h_action(1j * np.eye(m), u)
        assert np.abs(out - (1j + 0.5 * m * 1j) * u).max() < 1e-14

    def test_matches_matrix_bracket(self):
        gb = grading_basis(4)
        rng = np.random.default_rng(2)
        rho, u, _ = random_structure(rng, 3)
        lhs = bracket(gb.embed_h(rho), gb.embed_g1(u))
        rhs = gb.embed_g1(h_action(rho, u))
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            h_action(np.zeros((2, 2)), np.zeros(3))
