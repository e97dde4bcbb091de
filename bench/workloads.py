"""Seeded workload inputs, the checks that run them, and their gates.

A workload is an endless sequence of *cycles*; a cycle is a fixed list of
check items whose kinds and sizes never change, while every random input in
it is drawn afresh from (bench seed, workload, cycle, position).  Runs stop
only at cycle boundaries, so every run sees the same mix of check kinds and
throughput compares across seeds.

Every check returns named channels.  A channel is a residual judged against
its gate, a negative control judged against the separation it must reach,
or an exact comparison.  The gates are the thresholds the repository's own
tests use (cited next to each constant); none is loosened here.

The program receives only generated inputs: integer seeds, real
coefficients, complex matrices, cone models and matrix JSON files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

# checks call through module attributes (never `from x import f`) so that a
# traced run, which rebinds those attributes, sees every call
from bkgeom import (cone, curvature, fdgeom, grading, hermitian, jsonio, orbits, sasaki,
                    selftest, tower)

WORKLOADS = ("algebra_sweep", "fd_small", "fd_large", "cli_cold")

FD_STEP = 1e-4

# -- gates, as the repository's tests state them -------------------------------
CHARPOLY_CONJUGATION = 1e-9     # criterion 02 (test_acceptance)
CANONICAL_RESIDUAL = 1e-8       # TestCanonicalBasis (test_orbits), strict
STRUCTURE_RESIDUAL = 1e-12      # TestStructureFunctions (test_grading), strict
STRUCTURE_VALUES = 1e-10        # TestStructureFunctions (test_grading), strict
FIT_RHO = 1e-9                  # criterion 03
SYMMETRY = 1e-10                # criterion 03
DIRECTION_TOL = 1e-10           # direction_flat_check default hypothesis tolerance
FD_GATE = 1e-3                  # criteria 05-08, test_sasaki
PROP_CONTROL_RATIO = 10.0       # criterion 07
TOWER_CONTROL = 0.05            # criterion 08
SASAKI_CONTROL = 1e-3           # criterion 06 radius-2 control, strict
CONE_CONTROL = 0.1              # criterion 05 ellipsoid control
DUALITY = 1e-6                  # criterion 09 trajectory
SQUARE_EQUIVARIANCE = 1e-10     # criterion 09 squaring map
CLI_AGREEMENT = 1e-12           # CLI report vs in-process result (same code, same input)
CLI_FD_AGREEMENT = 1e-9         # same, for finite-difference residuals

ELLIPSOID_AXES = {3: (1.0, 1.3, 1.6, 0.8), 5: (1.0, 1.3, 1.6, 0.8, 1.2, 0.9)}

ORBIT_CASES = (   # (profile, expected tag, expected epsilon); generic: A vs conjugate only
    ("diagonal-imaginary", "1", None),
    ("rank1", "2a", 1),
    ("rank1-negated", "2b", -1),
    ("jordan2", "2a", 1),
    ("jordan2", "2b", -1),
    ("jordan3", "3", None),
    ("split-real", "4", None),
    ("generic", None, None),
)


# -- channels ------------------------------------------------------------------


@dataclass(frozen=True)
class Channel:
    name: str
    kind: str            # "residual" | "control" | "exact" | "agreement"
    observed: object
    threshold: object
    ok: bool

    def as_list(self) -> list:
        return [self.name, self.kind, _plain(self.observed), _plain(self.threshold), self.ok]


def residual(name, observed, gate, strict=False) -> Channel:
    obs = float(observed)
    ok = obs < gate if strict else obs <= gate
    return Channel(name, "residual", obs, gate, bool(ok))


def control(name, observed, required, strict=False) -> Channel:
    obs = float(observed)
    ok = obs > required if strict else obs >= required
    return Channel(name, "control", obs, required, bool(ok))


def exact(name, observed, expected) -> Channel:
    return Channel(name, "exact", observed, expected, observed == expected)


def agreement(name, difference, tol) -> Channel:
    """Two computations of one result that must agree; no margin is taken."""
    diff = float(difference)
    return Channel(name, "agreement", diff, tol, bool(diff <= tol))


def _plain(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, tuple):
        return list(v)
    return v


# -- seeded inputs -------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    kind: str
    params: dict = field(hash=False)


def _seeds(seed: int, workload: str, cycle: int, count: int) -> list[int]:
    # cycle -1 is the warm-up cycle; SeedSequence needs non-negative entropy
    ss = np.random.SeedSequence([int(seed), WORKLOADS.index(workload), cycle + 1])
    return [int(s) for s in ss.generate_state(count)]


def _skew(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a - a.conj().T)


def cycle_items(workload: str, seed: int, cycle: int) -> list[Item]:
    """The check items of one cycle; same arguments, same items."""
    if workload == "algebra_sweep":
        return _algebra_cycle(seed, cycle)
    if workload == "fd_small":
        return _fd_small_cycle(seed, cycle)
    if workload == "fd_large":
        return _fd_large_cycle(seed, cycle)
    if workload == "cli_cold":
        return _cli_cycle(seed, cycle)
    raise ValueError(f"unknown workload {workload!r}")


def _algebra_cycle(seed, cycle):
    s = iter(_seeds(seed, "algebra_sweep", cycle, 128))
    items = []
    for size in (2, 3, 4, 8):
        for profile, tag, eps in ORBIT_CASES:
            # random_su draws the 8 separated eigenvalues of a diagonal-imaginary
            # element of su(8,1) by rejection and gives up (RuntimeError) for about
            # 0.3% of seeds; n=7 keeps that profile in the sweep until it is fixed
            n = 7 if size == 8 and profile == "diagonal-imaginary" else size
            items.append(Item("orbit", {"n": n, "profile": profile, "tag": tag,
                                        "epsilon": eps, "su_seed": next(s),
                                        "conj_seed": next(s)}))
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(next(s))
        items.append(Item("template", {"n": n, "coeffs": rng.standard_normal(n * n),
                                       "direction": rng.standard_normal(2 * n)}))
    for m in (2, 3, 4):
        rng = np.random.default_rng(next(s))
        items.append(Item("duality", {"m": m, "a": _skew(rng, m), "seed": next(s)}))
    return _interleave(items, every=5)


def _interleave(items, every):
    # spread the non-orbit checks through the cycle instead of bunching them
    orbit = [it for it in items if it.kind == "orbit"]
    rest = [it for it in items if it.kind != "orbit"]
    out = []
    for i, it in enumerate(orbit):
        out.append(it)
        if i % every == every - 1 and rest:
            out.append(rest.pop(0))
    return out + rest


def _cone_model_spec(rng, n, kind):
    if kind == "cp":
        return {"n": n, "kind": "cp"}
    return {"n": n, "kind": "random", "model_seed": int(rng.integers(2 ** 31))}


def _tower_lambda0(rng, n, kind):
    return -1.0 / (2 * (n + 2)) if kind == "cp" else float(rng.uniform(-0.5, 0.5))


def _fd_small_cycle(seed, cycle):
    rng = np.random.default_rng(_seeds(seed, "fd_small", cycle, 1)[0])
    items = []
    for n in (2, 3):
        for kind in ("cp", "random"):
            items.append(Item("prop", {"model": _cone_model_spec(rng, n, kind),
                                       "point_seed": int(rng.integers(2 ** 31))}))
    for kind in ("cp", "random"):
        items.append(Item("tower", {"model": _cone_model_spec(rng, 2, kind),
                                    "lambda0": _tower_lambda0(rng, 2, kind),
                                    "sample_seed": int(rng.integers(2 ** 31))}))
    items.append(Item("sasaki", {"point": rng.uniform(-0.6, 0.6, 3)}))
    items.append(Item("transversal", {"point": rng.uniform(-0.6, 0.6, 3)}))
    items.append(Item("cpn", {"seed": int(rng.integers(2 ** 31)),
                              "control_point": rng.uniform(-0.6, 0.6, 3)}))
    for m in (3, 5):
        items.append(Item("cone_flat", {"m": m, "point": np.concatenate(
            [rng.uniform(-0.5, 0.5, m), [rng.uniform(0.8, 1.3)]])}))
    return items


def _fd_large_cycle(seed, cycle):
    rng = np.random.default_rng(_seeds(seed, "fd_large", cycle, 1)[0])
    items = []
    for n in (4, 5):
        for kind in ("cp", "random"):
            items.append(Item("prop", {"model": _cone_model_spec(rng, n, kind),
                                       "point_seed": int(rng.integers(2 ** 31))}))
    for n in (3, 4):
        for kind in ("cp", "random"):
            items.append(Item("tower", {"model": _cone_model_spec(rng, n, kind),
                                        "lambda0": _tower_lambda0(rng, n, kind),
                                        "sample_seed": int(rng.integers(2 ** 31))}))
    return items


CLI_PROFILES = (("diagonal-imaginary", "1", None), ("rank1", "2a", 1),
                ("jordan2", "2a", 1), ("jordan2", "2b", -1),
                ("jordan3", "3", None), ("split-real", "4", None))


def _cli_cycle(seed, cycle):
    s = _seeds(seed, "cli_cold", cycle, 8)
    rng = np.random.default_rng(s[0])
    profile, tag, eps = CLI_PROFILES[cycle % len(CLI_PROFILES)]
    m = 2   # grade input lives in su(3,1): rho in u(2), u in C^2
    grade = {"rho": _skew(rng, m), "u": rng.standard_normal(m) + 1j * rng.standard_normal(m),
             "f": float(rng.standard_normal())}
    return [
        Item("cli", {"command": "classify", "n": 3, "profile": profile, "tag": tag,
                     "epsilon": eps, "su_seed": s[1]}),
        Item("cli", {"command": "charpoly", "n": 3, "su_seed": s[2]}),
        Item("cli", {"command": "grade", "n": 3, **grade}),
        Item("cli", {"command": "curvature", "n": 3, "seed": s[3] % 2 ** 31}),
        Item("cli", {"command": "verify-prop", "n": 2, "seed": s[4] % 2 ** 31}),
        Item("cli", {"command": "tower", "n": 2, "seed": s[5] % 2 ** 31}),
        Item("cli", {"command": "duality", "n": 2, "seed": s[6] % 2 ** 31}),
        Item("cli", {"command": "selftest", "seed": 42}),
    ]


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape), "hex": obj.tobytes().hex()}
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, complex):
        return [obj.real.hex(), obj.imag.hex()]
    return obj


def input_digest(workload: str, seed: int, cycles: int = 3) -> str:
    """sha256 over the exact bytes of the first `cycles` cycles of inputs."""
    doc = [[[it.kind, _canonical(it.params)] for it in cycle_items(workload, seed, c)]
           for c in range(cycles)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- checks --------------------------------------------------------------------


def run_item(item: Item) -> list[Channel]:
    """Run one in-process check and return its channels."""
    return _CHECKS[item.kind](**item.params)


def _orbit_element(n, profile, seed, epsilon):
    space = hermitian.HermitianSpace(n)
    if profile == "rank1-negated":
        A = hermitian.random_su(seed, space, "rank1")
        return hermitian.su_element(-A.matrix, space)
    kw = {"epsilon": epsilon} if profile == "jordan2" else {}
    return hermitian.random_su(seed, space, profile, **kw)


def _check_orbit(n, profile, tag, epsilon, su_seed, conj_seed):
    A = _orbit_element(n, profile, su_seed, epsilon)
    space = A.space
    g = hermitian.group_conjugator(np.random.default_rng(conj_seed), space)
    Ac = hermitian.su_element(hermitian.su_project(g @ A.matrix @ np.linalg.inv(g), space), space)
    oa, oc = orbits.classify(A), orbits.classify(Ac)
    got, got_c = (oa.tag, oa.epsilon), (oc.tag, oc.epsilon)
    want = got if tag is None else (tag, epsilon)
    ca, cc = orbits.char_poly(A).coefficients, orbits.char_poly(Ac).coefficients
    conj = float(np.abs(ca - cc).max() / max(1.0, np.abs(ca).max()))
    cb = orbits.canonical_basis(A)
    basis = grading.grading_basis(n, validate=False)
    sf = grading.structure_functions(A, basis)
    if not isinstance(sf, grading.StructureFunctions):
        return [exact(f"orbit.type@n{n}", got, want),
                exact(f"orbit.structure_functions@n{n}", "rejected", "extracted")]
    template = hermitian.su_element(grading.assemble(sf.rho, sf.u, sf.f, basis), space)
    back = grading.structure_functions(template, basis)
    return [
        exact(f"orbit.type@n{n}", got, want),
        exact(f"orbit.type_conjugated@n{n}", got_c, want),
        residual(f"orbit.charpoly_conjugation@n{n}", conj, CHARPOLY_CONJUGATION),
        residual(f"orbit.canonical_conjugation@n{n}", cb.conjugation_residual,
                 CANONICAL_RESIDUAL, strict=True),
        residual(f"orbit.canonical_gram@n{n}", cb.gram_residual, CANONICAL_RESIDUAL,
                 strict=True),
        residual(f"orbit.structure_roundtrip@n{n}", back.residual, STRUCTURE_RESIDUAL,
                 strict=True),
    ]


def _check_template(n, coeffs, direction):
    km = curvature.KaehlerModel(n)
    rho = sum(c * b for c, b in zip(coeffs, curvature.unitary_algebra_basis(n)))
    R = curvature.curvature_from_rho(rho, km)
    sym = max(R.symmetry_residuals(km).values())
    fit, _ = curvature.fit_rho(R, km)
    flat = curvature.direction_flat_check(np.zeros((2 * n, 2 * n)), direction, km)
    # negative control: a non-zero rho must fail the one-direction hypothesis
    live = curvature.direction_flat_check(rho, direction, km)
    return [
        residual(f"template.symmetry@n{n}", sym, SYMMETRY),
        residual(f"template.fit_rho@n{n}", np.abs(fit - rho).max(), FIT_RHO),
        exact(f"template.direction_kernel@n{n}", flat.kernel_dimension, 0),
        control(f"template.direction_control@n{n}",
                live.direction_norm / max(1.0, live.rho_norm), DIRECTION_TOL, strict=True),
    ]


def _check_duality(m, a, seed):
    rep = tower.duality_action_check(a, samples=3, seed=seed, timesteps=64)
    return [
        residual(f"duality.twisted@m{m}", rep.twisted_residual, DUALITY),
        residual(f"duality.square_equivariance@m{m}", rep.sq_equivariance,
                 SQUARE_EQUIVARIANCE),
        # dropping the determinant twist must break the pairing
        control(f"duality.untwisted@m{m}", rep.untwisted_residual, DUALITY, strict=True),
    ]


def _cone_model(spec):
    if spec["kind"] == "cp":
        return cone.cp_cone_model(spec["n"])
    return cone.random_type1_cone_model(spec["n"], spec["model_seed"])


def _check_prop(model, point_seed):
    m = _cone_model(model)
    rep = cone.verify_curvature_prop(m, 1, FD_STEP, seed=point_seed)
    d = 2 * (m.n - 1)
    return [residual(f"prop.residual@d{d}", rep.max_residual, FD_GATE),
            control(f"prop.control_ratio@d{d}", rep.min_control_ratio, PROP_CONTROL_RATIO)]


def _check_tower(model, lambda0, sample_seed):
    m = _cone_model(model)
    rep = tower.verify_tower_geodesic(m, lambda0, samples=1, fd_step=FD_STEP,
                                      seed=sample_seed)
    d = 2 * m.n   # ambient quotient chart of the embedding one dimension up
    return [residual(f"tower.ii@d{d}", rep.max_ii, FD_GATE),
            control(f"tower.control@d{d}", rep.min_control, TOWER_CONTROL)]


def _check_sasaki(point):
    good = sasaki.sasaki_residual(sasaki.hopf_sphere(3, 1.0), point, FD_STEP)
    bad = sasaki.sasaki_residual(sasaki.hopf_sphere(3, 2.0), point, FD_STEP)
    return [residual("sasaki.identity", good.identity_residual, FD_GATE),
            residual("sasaki.killing", good.killing_residual, FD_GATE),
            residual("sasaki.unit", good.unit_residual, FD_GATE),
            control("sasaki.radius2_control", bad.identity_residual, SASAKI_CONTROL,
                    strict=True)]


def _check_transversal(point):
    _, good = sasaki.transversal_J(sasaki.hopf_sphere(3, 1.0), point, FD_STEP)
    # negative control: the round circle field on an ellipsoid is not Sasaki
    wrong = sasaki.SasakiData(sasaki.ellipsoid_chart(np.array(ELLIPSOID_AXES[3])),
                              sasaki.hopf_field(3, 1.0))
    _, bad = sasaki.transversal_J(wrong, point, FD_STEP)
    return [residual("transversal.square", good.square_residual, FD_GATE),
            residual("transversal.contact", good.contact_residual, FD_GATE),
            residual("transversal.nabla_j", good.nabla_j_residual, FD_GATE),
            control("transversal.ellipsoid_control",
                    max(bad.square_residual, bad.contact_residual, bad.nabla_j_residual),
                    FD_GATE, strict=True)]


def _check_cpn(seed, control_point):
    rep = sasaki.cpn_pipeline(1, FD_STEP, seed=seed).to_dict()
    bad = sasaki.sasaki_residual(sasaki.hopf_sphere(3, 2.0), control_point, FD_STEP)
    out = [residual(f"cpn.{k}", rep[k], FD_GATE)
           for k in ("unit_residual", "killing_residual", "identity_residual",
                     "cone_flatness", "cone_relation_residual", "quotient_hs_spread")]
    out.append(control("cpn.radius2_control", bad.identity_residual, SASAKI_CONTROL,
                       strict=True))
    return out


def _check_cone_flat(m, point):
    round_cone = fdgeom.cone_metric_chart(sasaki.sphere_chart(m, 1.0))
    flat = np.abs(fdgeom.riemann(round_cone, point, FD_STEP)).max()
    ell = fdgeom.cone_metric_chart(sasaki.ellipsoid_chart(np.array(ELLIPSOID_AXES[m])))
    curved = np.abs(fdgeom.riemann(ell, point, FD_STEP)).max()
    return [residual(f"cone.flatness@S{m}", flat, FD_GATE),
            control(f"cone.ellipsoid_control@S{m}", curved, CONE_CONTROL)]


_CHECKS = {
    "orbit": _check_orbit,
    "template": _check_template,
    "duality": _check_duality,
    "prop": _check_prop,
    "tower": _check_tower,
    "sasaki": _check_sasaki,
    "transversal": _check_transversal,
    "cpn": _check_cpn,
    "cone_flat": _check_cone_flat,
}


# -- the CLI workload ----------------------------------------------------------


def cli_matrix(params: dict):
    """The matrix a matrix-taking CLI item feeds to the program, or None."""
    cmd = params["command"]
    if cmd == "classify":
        return _orbit_element(params["n"], params["profile"], params["su_seed"],
                              params["epsilon"]).matrix
    if cmd == "charpoly":
        space = hermitian.HermitianSpace(params["n"])
        return hermitian.random_su(params["su_seed"], space, "generic").matrix
    if cmd == "grade":
        basis = grading.grading_basis(params["n"], validate=False)
        return grading.assemble(params["rho"], params["u"], params["f"], basis)
    return None


def cli_argv(params: dict, matrix_path: str | None) -> list[str]:
    cmd = params["command"]
    if matrix_path is not None:
        return [cmd, "-m", matrix_path]
    if cmd == "selftest":
        return [cmd, "--seed", str(params["seed"])]
    return [cmd, "--n", str(params["n"]), "--seed", str(params["seed"])]


def _close(a, b) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max())) if a.size else 0.0


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _complex_list(v):
    return np.array([complex(x[0], x[1]) for x in v])


def judge_cli(params: dict, matrix, returncode: int, stdout: str,
              selftest_refs: dict) -> list[Channel]:
    """Channels of one CLI invocation: exit code, report gates, in-process agreement.

    selftest_refs caches the in-process selftest report by seed across calls.
    """
    cmd = params["command"]
    out = [exact(f"cli.{cmd}.exit_code", returncode, 0)]
    if returncode != 0:
        return out
    doc = json.loads(stdout)
    if cmd == "classify":
        A = hermitian.su_element(matrix, hermitian.HermitianSpace(params["n"]))
        ot = orbits.classify(A)
        out.append(exact("cli.classify.type", (doc["type"], doc["epsilon"]),
                         (params["tag"], params["epsilon"])))
        out.append(exact("cli.classify.agrees", (doc["type"], doc["epsilon"]),
                         (ot.tag, ot.epsilon)))
        out.append(agreement("cli.classify.charpoly_agreement",
                             _close(_complex_list(doc["charpoly"]),
                                    orbits.char_poly(A).coefficients), CLI_AGREEMENT))
    elif cmd == "charpoly":
        A = hermitian.su_element(matrix, hermitian.HermitianSpace(params["n"]))
        pc = orbits.char_poly(A)
        out.append(agreement("cli.charpoly.agreement",
                             _close(_complex_list(doc["coefficients"]), pc.coefficients),
                             CLI_AGREEMENT))
    elif cmd == "grade":
        sf = doc["structure_functions"]
        if sf is None:
            return out + [exact("cli.grade.structure_functions", "rejected", "extracted")]
        rho = np.array([_complex_list(row) for row in sf["rho"]])
        worst = max(float(np.abs(rho - params["rho"]).max()),
                    float(np.abs(_complex_list(sf["u"]) - params["u"]).max()),
                    abs(sf["f"] - params["f"]), abs(sf["scale"] - 1.0))
        out.append(residual("cli.grade.reconstruction", doc["reconstruction_residual"],
                            STRUCTURE_RESIDUAL, strict=True))
        out.append(residual("cli.grade.values", worst, STRUCTURE_VALUES, strict=True))
    elif cmd == "curvature":
        n = params["n"]
        rng = np.random.default_rng(params["seed"])   # the documented seeded rho recipe
        rho = sum(rng.standard_normal() * b for b in curvature.unitary_algebra_basis(n))
        R = curvature.curvature_from_rho(rho, curvature.KaehlerModel(n))
        out.append(residual("cli.curvature.symmetry", max(doc["symmetry_residuals"].values()),
                            SYMMETRY))
        out.append(residual("cli.curvature.fit_rho", doc["fit_round_trip_error"], FIT_RHO))
        out.append(agreement("cli.curvature.agreement",
                             _close(np.array(doc["entries"]), R.entries.ravel()),
                             CLI_AGREEMENT))
    elif cmd == "verify-prop":
        rep = cone.verify_curvature_prop(cone.cp_cone_model(params["n"]), 4, FD_STEP,
                                         seed=params["seed"])
        out.append(residual("cli.verify-prop.residual", doc["max_residual"], FD_GATE))
        out.append(control("cli.verify-prop.control_ratio", doc["min_control_ratio"],
                           PROP_CONTROL_RATIO))
        out.append(agreement("cli.verify-prop.agreement",
                             max(_rel(doc["max_residual"], rep.max_residual),
                                 _rel(doc["min_control_ratio"], rep.min_control_ratio)),
                             CLI_FD_AGREEMENT))
    elif cmd == "tower":
        model = cone.random_type1_cone_model(params["n"], params["seed"])
        rep = tower.verify_tower_geodesic(model, 0.3, samples=4, fd_step=FD_STEP,
                                          seed=params["seed"])
        out.append(residual("cli.tower.ii", doc["max_ii_norm"], FD_GATE))
        out.append(control("cli.tower.control", doc["min_control_norm"], TOWER_CONTROL))
        out.append(agreement("cli.tower.agreement",
                             max(abs(doc["max_ii_norm"] - rep.max_ii),
                                 _rel(doc["min_control_norm"], rep.min_control)),
                             CLI_FD_AGREEMENT))
    elif cmd == "duality":
        # the CLI's documented recipe: 4 seeded skew-hermitian elements, worst case
        rng = np.random.default_rng(params["seed"])
        n = params["n"]
        worst = 0.0
        for _ in range(4):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rep = tower.duality_action_check(0.5 * (a - a.conj().T), samples=4,
                                             seed=params["seed"], timesteps=32)
            worst = max(worst, rep.twisted_residual)
        out.append(residual("cli.duality.twisted", doc["twisted_residual"], DUALITY))
        out.append(residual("cli.duality.square_equivariance", doc["sp_square_equivariance"],
                            SQUARE_EQUIVARIANCE))
        out.append(control("cli.duality.untwisted", doc["untwisted_residual"], DUALITY,
                           strict=True))
        out.append(agreement("cli.duality.agreement",
                             abs(doc["twisted_residual"] - worst), CLI_FD_AGREEMENT))
    elif cmd == "selftest":
        seed = params["seed"]
        if seed not in selftest_refs:
            selftest_refs[seed] = jsonio.dumps(selftest.run_selftest(seed=seed))
        ref = selftest_refs[seed]
        out.append(exact("cli.selftest.pass", doc["pass"], True))
        out.append(exact("cli.selftest.byte_identical", stdout == ref, True))
    return out
