"""Command-line front end.

Subcommands: classify | grade | charpoly | curvature | verify-cpn |
verify-prop | tower | duality | selftest.  All reports are deterministic
JSON (sorted keys, full-precision floats): identical configuration and
seed give byte-identical output.

Exit codes: 0 success, 2 validation failure, 3 malformed JSON input,
4 ill-conditioned tolerance decision.  Failures emit a machine-readable
error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cone, curvature, grading, hermitian, jsonio, orbits, sasaki, tower
from .orbits import IllConditionedError
from .selftest import run_selftest

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BAD_JSON = 3
EXIT_ILL_CONDITIONED = 4


class ValidationFailure(Exception):
    pass


def _read_matrix(path: str) -> np.ndarray:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInput(f"cannot read matrix JSON: {exc}") from None
    try:
        return jsonio.matrix_from_json(doc)
    except ValueError as exc:
        raise BadInput(str(exc)) from None


class BadInput(Exception):
    pass


def _emit(report: dict, out_path: str | None) -> None:
    text = jsonio.dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _su_input(args) -> hermitian.SuElement:
    M = _read_matrix(args.matrix)
    space = hermitian.HermitianSpace(M.shape[0] - 1)
    try:
        return hermitian.su_element(M, space, args.tol)
    except hermitian.SuMembershipError as exc:
        raise ValidationFailure(
            f"matrix fails su(n,1) membership: {exc.identity} residual "
            f"{exc.residual:.6e} at scale {exc.scale:.6e}") from None


def _cmd_classify(args) -> dict:
    A = _su_input(args)
    ot = orbits.classify(A, args.tol)
    pc = orbits.char_poly(A)
    es = orbits.eigenstructure(A, args.tol)
    r_skew, r_tr, scale = hermitian.su_residuals(A.matrix, A.space)
    return {
        "type": ot.tag,
        "epsilon": ot.epsilon,
        "eigenvalues": [c.eigenvalue for c in es.clusters],
        "multiplicities": [c.multiplicity for c in es.clusters],
        "block_sizes": [list(c.block_sizes) for c in es.clusters],
        "charpoly": list(pc.coefficients),
        "residuals": {"skew": r_skew, "trace": r_tr, "scale": scale},
    }


def _cmd_grade(args) -> dict:
    A = _su_input(args)
    basis = grading.grading_basis(A.space.n, validate=False)
    parts = grading.grade_split(A, basis)
    out = {
        "grade_norms": {str(k): float(np.linalg.norm(v)) for k, v in parts.items()},
        "split_completeness": float(np.linalg.norm(
            sum(parts.values()) - A.matrix) / max(1.0, np.linalg.norm(A.matrix))),
    }
    try:
        sf = grading.structure_functions(A, basis)
    except grading.NormalizationError as exc:
        out["structure_functions"] = None
        out["rejection"] = str(exc)
        return out
    out["structure_functions"] = jsonio.structure_functions_to_json(
        sf.rho, sf.u, sf.f, sf.scale)
    out["reconstruction_residual"] = sf.residual
    return out


def _cmd_charpoly(args) -> dict:
    A = _su_input(args)
    pc = orbits.char_poly(A)
    return {
        "coefficients": list(pc.coefficients),
        "factored_residual": pc.factored_residual,
        "displayed_residual": pc.displayed_residual,
    }


def _cmd_curvature(args) -> dict:
    M = _read_matrix(args.matrix) if args.matrix else None
    if M is not None:
        n = M.shape[0]
        if np.linalg.norm(M + M.conj().T) > args.tol * max(1.0, np.linalg.norm(M)):
            raise ValidationFailure("curvature input must be skew-hermitian (u(n))")
        rho = curvature.complex_to_real_endo(M)
    else:
        n = args.n
        rng = np.random.default_rng(args.seed)
        basis = curvature.unitary_algebra_basis(n)
        rho = sum(rng.standard_normal() * b for b in basis)
    km = curvature.KaehlerModel(n)
    R = curvature.curvature_from_rho(rho, km)
    fit, resid = curvature.fit_rho(R, km)
    return {
        "n": n,
        "shape": list(R.entries.shape),
        "entries": list(R.entries.ravel()),
        "symmetry_residuals": R.symmetry_residuals(km),
        "fit_round_trip_error": float(np.abs(fit - rho).max()),
        "fit_residual": resid,
    }


def _cmd_verify_cpn(args) -> dict:
    rep = sasaki.cpn_pipeline(args.n, args.fd_step, seed=args.seed,
                              samples=args.samples)
    return rep.to_dict()


def _model_from_args(args) -> cone.ConeModel:
    sign = 1 if args.sigma_sign == "paper" else -1
    if args.matrix:
        M = _read_matrix(args.matrix)
        diag = np.diag(M)
        if np.linalg.norm(M - np.diag(diag)) > 1e-12 * max(1.0, np.linalg.norm(M)):
            raise ValidationFailure("verify-prop expects a diagonal generator")
        if np.abs(diag.real).max() > 1e-12 * max(1.0, np.abs(diag).max()):
            raise ValidationFailure("generator must be purely imaginary (type 1)")
        if abs(diag.sum()) > 1e-10 * max(1.0, np.abs(diag).max()):
            raise ValidationFailure("generator must be traceless")
        return cone.ConeModel(diag.imag[:-1], sigma_sign=sign)
    model = cone.cp_cone_model(args.n)
    if sign == 1:
        # the displayed sign empties the projective-type quadric; surface that
        return cone.ConeModel(model.lambdas, sigma_sign=1)
    return model


def _cmd_verify_prop(args) -> dict:
    model = _model_from_args(args)
    rep = cone.verify_curvature_prop(model, args.samples, args.fd_step, seed=args.seed)
    out = rep.to_dict()
    out["lambdas"] = list(model.lambdas)
    out["sigma_sign"] = "paper" if model.sigma_sign == 1 else "flipped"
    out["template_scale"] = cone.QUOTIENT_TEMPLATE_SCALE
    return out


def _cmd_tower(args) -> dict:
    model = cone.random_type1_cone_model(args.n, args.seed)
    rep = tower.verify_tower_geodesic(model, args.lambda0, samples=args.samples,
                                      fd_step=args.fd_step, seed=args.seed)
    out = rep.to_dict()
    out["n"] = args.n
    out["seed"] = args.seed
    out["action_agreement"] = tower.action_agreement_residual(
        model, args.lambda0, seed=args.seed)
    return out


def _cmd_duality(args) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = {"twisted_residual": 0.0, "untwisted_residual": 0.0,
             "sp_square_equivariance": 0.0}
    for _ in range(args.samples):
        a = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
        a = 0.5 * (a - a.conj().T)
        rep = tower.duality_action_check(a, samples=4, seed=args.seed, timesteps=32)
        worst["twisted_residual"] = max(worst["twisted_residual"], rep.twisted_residual)
        worst["untwisted_residual"] = max(worst["untwisted_residual"],
                                          rep.untwisted_residual)
        worst["sp_square_equivariance"] = max(worst["sp_square_equivariance"],
                                              rep.sq_equivariance)
    return worst


def _cmd_selftest(args) -> dict:
    return run_selftest(seed=args.seed, scale=args.scale, fd_step=args.fd_step)


# every option a subcommand may take; each subcommand lists the ones it reads
_OPTIONS = {
    "matrix": (("--matrix", "-m"), dict(default=None, help="matrix JSON path ('-' for stdin)")),
    "n": (("--n",), dict(type=int, default=2)),
    "tol": (("--tol",), dict(type=float, default=1e-8)),
    "seed": (("--seed",), dict(type=int, default=0)),
    "samples": (("--samples",), dict(type=int, default=4)),
    "fd_step": (("--fd-step",), dict(dest="fd_step", type=float, default=1e-4)),
    "sigma_sign": (("--sigma-sign",), dict(
        dest="sigma_sign", choices=("paper", "flipped"), default="flipped",
        help="section quadric sign convention; 'flipped' is the one reproducing "
             "the projective-space model")),
    "lambda0": (("--lambda0",), dict(type=float, default=0.3)),
}

_COMMANDS = [
    ("classify", _cmd_classify, ("matrix", "tol")),
    ("grade", _cmd_grade, ("matrix", "tol")),
    ("charpoly", _cmd_charpoly, ("matrix", "tol")),
    ("curvature", _cmd_curvature, ("matrix", "n", "tol", "seed")),
    ("verify-cpn", _cmd_verify_cpn, ("n", "seed", "samples", "fd_step")),
    ("verify-prop", _cmd_verify_prop,
     ("matrix", "n", "seed", "samples", "fd_step", "sigma_sign")),
    ("tower", _cmd_tower, ("n", "seed", "samples", "fd_step", "lambda0")),
    ("duality", _cmd_duality, ("n", "seed", "samples")),
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bkgeom",
        description="Bochner-Kaehler geometry toolkit: orbit classification, "
                    "curvature templates and finite-difference verification.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn, options in _COMMANDS:
        sp = sub.add_parser(name)
        for opt in options:
            flags, kwargs = _OPTIONS[opt]
            sp.add_argument(*flags, **kwargs)
        sp.add_argument("--out", default=None, help="also write the report here")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("selftest")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--scale", type=int, default=1)
    sp.add_argument("--fd-step", dest="fd_step", type=float, default=1e-4)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_selftest)
    return p


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(jsonio.dumps({"error": message, "kind": kind}))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # matrix-taking commands require -m except curvature/verify-prop, which
    # have seeded fallbacks
    if getattr(args, "matrix", "unset") is None and args.command in (
            "classify", "grade", "charpoly"):
        return _fail("validation", f"{args.command} requires --matrix", EXIT_VALIDATION)
    try:
        report = args.func(args)
    except BadInput as exc:
        return _fail("bad-json", str(exc), EXIT_BAD_JSON)
    except IllConditionedError as exc:
        return _fail("ill-conditioned", str(exc), EXIT_ILL_CONDITIONED)
    except (ValidationFailure, cone.EmptySectionError, cone.TangencyError,
            cone.ChartFailureError, ValueError) as exc:
        return _fail("validation", str(exc), EXIT_VALIDATION)
    _emit(report, args.out)
    if args.command == "selftest" and not report["pass"]:
        return _fail("validation", "selftest reported failures", EXIT_VALIDATION)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
