"""Bochner-Kaehler geometry from su(n,1).

Orbit classification of generators, the parabolic 2-grading and its
structure functions, algebraic curvature templates, the concrete cone /
section geometry with its quotient charts, Sasaki checks, tower
embeddings, and a finite-difference oracle that independently verifies
the analytic claims.
"""

from .cone import (
    ConeModel,
    QUOTIENT_TEMPLATE_SCALE,
    algebra_action,
    cone_lift,
    cone_rep,
    contact_frame,
    cp_cone_model,
    group_action,
    induced_metric,
    j_m,
    quotient_chart,
    rho_map,
    sigma_membership,
    sigma_sample,
    sphere_proj,
    verify_curvature_prop,
)
from .curvature import (
    CurvatureTensor,
    KaehlerModel,
    circle,
    curvature_from_h,
    curvature_from_rho,
    direction_flat_check,
    fit_rho,
)
from .fdgeom import (
    ChartMetric,
    christoffel,
    cone_metric_chart,
    riemann,
    second_fundamental_form,
    sectional,
)
from .grading import (
    GradingBasis,
    StructureFunctions,
    assemble,
    cp_generator,
    grade_split,
    grading_basis,
    h_action,
    structure_functions,
)
from .hermitian import (
    HermitianSpace,
    SuElement,
    random_su,
    su_element,
    wedge_j,
)
from .orbits import (
    CanonicalBasis,
    EigenStructure,
    IllConditionedError,
    OrbitType,
    canonical_basis,
    char_poly,
    classify,
    eigenstructure,
)
from .sasaki import SasakiData, cpn_pipeline, hopf_sphere, sasaki_residual, transversal_J
from .tower import duality_action_check, embed_generator, sp_square, verify_tower_geodesic

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
