"""A mutation table: each row breaks one piece of src and names the channels that catch it.

A row monkeypatches src attributes, runs one criterion of
`bkgeom.selftest.CRITERIA` with `run_criterion` at its selftest sizes
and seed 42, and asserts that exactly the named channels fail.
A row that names no channel is a known blind spot: the whole criterion
still passes under that mutant, and its reason says which ROADMAP item
gives the criterion the content to catch it.
"""

import numpy as np
import pytest

from bkgeom import cone, curvature, fdgeom, orbits, sasaki, selftest, tower
from bkgeom.hermitian import HermitianSpace, SuElement

SEED = 42

_realify = curvature.complex_to_real_endo
_template = curvature.rho_template_endo
_riemann = fdgeom.riemann
_quotient_template = cone.curvature_template_at


def _conjugate_spectrum(A):
    """char_poly of the complex-conjugated spectrum."""
    w = orbits._analysis(A).eigenvalues.conj()
    return orbits.CharPoly(np.poly(w), A, w)


def _untwisted_action(a, X):
    """The cone action a X, without the trace twist tr(a) X."""
    return np.asarray(a, dtype=complex) @ np.asarray(X, dtype=complex)


def _conjugated_realification(C):
    return _realify(np.conj(C))


def _template_without_x_ry_term(rho, X, Y, model):
    """rho_template_endo less its wedge(X, rY J0^T) term."""
    X = np.asarray(X, dtype=float)
    rYJ = np.einsum("...kl,...l->...k", np.asarray(rho, dtype=float), Y) @ model.J.T
    return _template(rho, X, Y, model) - (curvature._outer(rYJ, X) - curvature._outer(X, rYJ))


def _riemann_flipped_gamma_gamma(chart, p, step=fdgeom.STEP):
    """riemann with the sign of its Gamma.Gamma terms flipped."""
    G = fdgeom.christoffel(chart, p, step)
    GG = np.einsum("lim,mjk->lijk", G, G) - np.einsum("ljm,mik->lijk", G, G)
    return _riemann(chart, p, step) - 2.0 * np.einsum("lm,mijk->ijkl", chart.at(p), GG)


def _scaled_quotient_template(frame, half_rho=True):
    return 1.01 * _quotient_template(frame, half_rho)


def _chart_without_push(frame):
    """quotient_chart with the frame left unpushed along xi0: H = F."""
    model, F = frame.model, frame.vectors

    def ev(s):
        psi = frame.point + F @ s
        return (-1.0 / cone.contact_form(model.act(psi), psi)) * cone.induced_metric(psi, F, F)

    return fdgeom.ChartMetric(frame.count, ev)


def _embed_without_shift(A, lambda0):
    """embed_generator less the -i lambda0/(n+1) shift of its block.

    Built without su_element, whose trace check would refuse the result first.
    """
    d = A.matrix.shape[0]
    out = np.zeros((d + 1, d + 1), dtype=complex)
    out[0, 0] = 1j * lambda0
    out[1:, 1:] = A.matrix
    return SuElement(HermitianSpace(A.space.n + 1), out, A.tolerance_used)


# cone, sasaki and selftest import riemann by value
FLIPPED_GAMMA_GAMMA = tuple((module, "riemann", _riemann_flipped_gamma_gamma)
                            for module in (fdgeom, cone, sasaki, selftest))
NO_TWIST = ((cone, "algebra_action", _untwisted_action),
            (tower, "algebra_action", _untwisted_action))
# cone, tower and sasaki import quotient_chart by value
UNPUSHED_CHART = tuple((module, "quotient_chart", _chart_without_push)
                       for module in (cone, tower, sasaki))

# (mutant, patches, criterion number, channels that must fail, reason for an empty set)
MUTANTS = (
    ("charpoly_conjugate_spectrum", ((orbits, "char_poly", _conjugate_spectrum),),
     2, {"projective_closed_form"}, None),
    ("no_trace_twist", NO_TWIST, 6, {"pipeline_hs_mean"}, None),
    ("no_trace_twist", NO_TWIST, 8, {"action_agreement"}, None),
    ("no_trace_twist", NO_TWIST, 9, set(),
     "both flows share one twist, so 09 compares realifications only (ROADMAP item 3)"),
    ("conjugated_realification",
     ((tower, "complex_to_real_endo", _conjugated_realification),),
     9, {"twisted_trajectory"}, None),
    ("template_without_x_ry_term",
     ((curvature, "rho_template_endo", _template_without_x_ry_term),),
     3, {"symmetry_residual"}, None),
    ("riemann_flipped_gamma_gamma", FLIPPED_GAMMA_GAMMA, 5, {"flatness", "relation"}, None),
    ("riemann_flipped_gamma_gamma", FLIPPED_GAMMA_GAMMA, 6,
     {"identity", "pipeline_sasaki", "pipeline_cone_flatness", "pipeline_cone_relation"}, None),
    ("riemann_flipped_gamma_gamma", FLIPPED_GAMMA_GAMMA, 7, {"residual"}, None),
    ("chart_without_push", UNPUSHED_CHART, 6, {"pipeline_hs_mean"}, None),
    ("chart_without_push", UNPUSHED_CHART, 7, {"residual", "control_ratio"}, None),
    ("quotient_template_scaled",
     ((cone, "curvature_template_at", _scaled_quotient_template),), 7, {"residual"}, None),
    ("embed_without_lambda0_shift", ((tower, "embed_generator", _embed_without_shift),),
     8, {"action_agreement"}, None),
)


@pytest.mark.parametrize("mutant, patches, number, killed, reason", MUTANTS,
                         ids=[f"{row[0]}-{row[2]:02d}" for row in MUTANTS])
def test_mutant_fails_named_channels(monkeypatch, mutant, patches, number, killed, reason):
    assert bool(killed) != bool(reason)
    criterion = next(c for c in selftest.CRITERIA if c.number == number)
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    curvature._rho_design.cache_clear()   # the fit's design is built from the template
    try:
        result = selftest.run_criterion(criterion, SEED, criterion.selftest)
    finally:
        curvature._rho_design.cache_clear()
    failed = {name for name, ch in result["channels"].items() if not selftest._passes(ch)}
    assert failed == killed, result["channels"]
