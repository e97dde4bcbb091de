"""Records that hold arrays compare by identity, so == and hash() never raise."""

import numpy as np
import pytest

from bkgeom import cone, curvature, grading, hermitian, orbits, sasaki

SP = hermitian.HermitianSpace(2)


def proposition_report():
    return cone.verify_curvature_prop(cone.cp_cone_model(2), 1, 1e-4, seed=0)


RECORDS = {
    "ConeModel": lambda: cone.cp_cone_model(2),
    "SuElement": lambda: hermitian.random_su(0, SP, "rank1"),
    "CharPoly": lambda: orbits.char_poly(cone.cp_cone_model(2).generator()),
    "CanonicalBasis": lambda: orbits.canonical_basis(cone.cp_cone_model(2).generator()),
    "CurvatureTensor": lambda: curvature.curvature_from_rho(
        np.zeros((4, 4)), curvature.KaehlerModel(2)),
    "GradingBasis": lambda: grading.grading_basis(2),
    "StructureFunctions": lambda: grading.structure_functions(
        cone.cp_cone_model(2).generator(), grading.grading_basis(2)),
    "DistributionFrame": lambda: cone.contact_frame(
        cone.sigma_sample(cone.cp_cone_model(2), 0)[0], cone.cp_cone_model(2)),
    "PropositionReport": proposition_report,
    "PropositionPointReport": lambda: proposition_report().points[0],
    "PipelineReport": lambda: sasaki.cpn_pipeline(1, samples=1),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_is_identity(name):
    x, y = RECORDS[name](), RECORDS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert not x == y
    assert isinstance(hash(x), int)
    assert len({x, y}) == 2
