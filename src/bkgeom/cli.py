"""Command-line front end.

Subcommands: classify | grade | charpoly | curvature | verify-cpn |
verify-prop | tower | duality | selftest.  All reports are deterministic
JSON (sorted keys, full-precision floats): identical configuration and
seed give byte-identical output.

Exit codes: 0 success, 2 validation failure or usage error, 3 malformed
JSON input, 4 ill-conditioned tolerance decision.  Failures emit a
machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
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
    es = orbits.eigenstructure(A, args.tol)
    ot = orbits.classify_from(A, args.tol, es)
    pc = orbits.char_poly(A)
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
    out["structure_functions"] = {"rho": sf.rho, "u": sf.u, "f": sf.f, "scale": sf.scale}
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
        rho = curvature.complex_to_real_endo(M)
    else:
        n = args.n
        rng = np.random.default_rng(args.seed)
        basis = curvature.unitary_algebra_basis(n)
        rho = sum(rng.standard_normal() * b for b in basis)
    km = curvature.KaehlerModel(n)
    R = curvature.curvature_from_rho(rho, km, tol=args.tol)   # the one u(n) check
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


def _size(text: str) -> int:
    """A size option (--n, --samples, --scale): an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def _real(rule: str, ok):
    """A float option type: a finite number for which `ok` holds, else a usage error."""
    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and ok(x)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return x
    return parse


class _JsonErrorParser(argparse.ArgumentParser):
    """Usage errors go to stderr as the JSON error object, with exit code 2."""

    def error(self, message):
        sys.exit(_fail("usage", f"{self.prog}: {message}", EXIT_VALIDATION))


# every option a subcommand may take; each subcommand lists the ones it reads
_OPTIONS = {
    "matrix": (("--matrix", "-m"), dict(default=None, help="matrix JSON path ('-' for stdin)")),
    "n": (("--n",), dict(type=_size, default=2)),
    "tol": (("--tol",), dict(type=_real("a finite number in (0, 1)", lambda x: 0 < x < 1),
                             default=1e-8)),
    "seed": (("--seed",), dict(type=int, default=0)),
    "samples": (("--samples",), dict(type=_size, default=4)),
    "fd_step": (("--fd-step",), dict(
        dest="fd_step", type=_real("a finite number above 0", lambda x: x > 0), default=1e-4)),
    "sigma_sign": (("--sigma-sign",), dict(
        dest="sigma_sign", choices=("paper", "flipped"), default="flipped",
        help="section quadric sign convention; 'flipped' is the one reproducing "
             "the projective-space model")),
    "lambda0": (("--lambda0",), dict(type=_real("a finite number", lambda x: True),
                                     default=0.3)),
    "scale": (("--scale",), dict(type=_size, default=1)),
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
    ("selftest", _cmd_selftest, ("seed", "scale", "fd_step")),
]


def build_parser() -> argparse.ArgumentParser:
    p = _JsonErrorParser(
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
    # the selftest report is pinned to seed 42; set_defaults overrides --seed's 0
    sub.choices["selftest"].set_defaults(seed=42)
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
