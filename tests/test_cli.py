import contextlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from bkgeom import jsonio, orbits
from bkgeom.cli import main
from bkgeom.cone import cp_cone_model
from bkgeom.hermitian import HermitianSpace, random_su, su_element, su_project


def run_cli(*args):
    """cli.main(args) in this process, with its streams and exit code captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:   # usage errors exit from inside argparse
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


# matrix files that are not JSON the reader can decode: nesting past the
# parser's recursion limit, and bytes that are not UTF-8
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b'{"n": 1, "matrix": \xff}'


@pytest.fixture(scope="module")
def cp_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "cp.json"
    cp = cp_cone_model(3).generator()
    path.write_text(jsonio.dumps(jsonio.matrix_to_json(cp.matrix)))
    return str(path)


class TestClassifyCommand:
    def test_projective_generator(self, cp_matrix):
        r = run_cli("classify", "-m", cp_matrix)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["type"] == "1"
        assert doc["epsilon"] is None
        assert len(doc["charpoly"]) == 5

    def test_type2_with_epsilon(self, tmp_path):
        sp = HermitianSpace(2)
        A = random_su(0, sp, "rank1")
        path = tmp_path / "r1.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(A.matrix)))
        doc = json.loads(run_cli("classify", "-m", str(path)).stdout)
        assert doc["type"] == "2a"
        assert doc["epsilon"] == 1

    def test_missing_matrix_flag(self):
        r = run_cli("classify")
        assert r.returncode == 2

    def test_bad_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        r = run_cli("classify", "-m", str(path))
        assert r.returncode == 3
        err = json.loads(r.stderr)
        assert err["kind"] == "bad-json"

    @pytest.mark.parametrize("data", [DEEP_JSON, NOT_UTF8], ids=["deeply-nested", "not-utf-8"])
    def test_undecodable_stdin_is_bad_json(self, data, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        r = run_cli("classify", "-m", "-")
        assert (r.returncode, r.stdout) == (3, "")
        assert json.loads(r.stderr)["kind"] == "bad-json"

    def test_not_su_exit_code(self, tmp_path):
        path = tmp_path / "notsu.json"
        path.write_text(json.dumps(
            {"n": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        r = run_cli("classify", "-m", str(path))
        assert r.returncode == 2
        assert json.loads(r.stderr)["kind"] == "validation"

    def test_ill_conditioned_exit_code(self, tmp_path):
        # split-real pair with |Re| in the classifier dead band
        sp = HermitianSpace(2)
        a = 3e-8
        npl = np.array([1.0, 0.0, 1.0], dtype=complex)
        nmi = np.array([1.0, 0.0, -1.0], dtype=complex)
        e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        B = np.array([npl, 0.5 * nmi, e2]).T
        C = np.diag([a + 0.4j, -a + 0.4j, -0.8j])
        M = su_project(B @ C @ np.linalg.inv(B), sp)
        path = tmp_path / "ill.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(M)))
        r = run_cli("classify", "-m", str(path))
        assert r.returncode == 4
        assert json.loads(r.stderr)["kind"] == "ill-conditioned"

    @pytest.mark.parametrize("command", ["classify", "grade", "charpoly"])
    def test_non_finite_matrix_exit_code(self, command, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n": 1, "matrix": [[[float("nan"), 0], [0, 0]],
                                                       [[0, 0], [0, 0]]]}))
        r = run_cli(command, "-m", str(path))
        assert r.returncode == 3
        assert r.stdout == ""
        assert json.loads(r.stderr)["kind"] == "bad-json"

    @pytest.mark.parametrize("doc", [
        {"n": None}, {"n": [1]}, {"n": 1.7}, {"n": True},
        {"matrix": [[[0, 1, 5], [0, 0]], [[0, 0], [0, 0]]]},
        {"matrix": [[[True, False], [0, 0]], [[0, 0], [0, 0]]]},
        {"matrix": [[[0, 0], [0, 0]], [[0, 0], [0, "1"]]]},
        {"matrix": [[0, 0], [0, 0]]}, {"matrix": "[[0, 0]]"},
        {"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]}])
    def test_malformed_matrix_json_is_refused(self, doc, tmp_path):
        # a non-integer 'n', an entry that is not two numbers, or a bool in
        # either place is refused, never truncated, dropped or coerced
        doc = {"n": 1, "matrix": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]], **doc}
        with pytest.raises(ValueError):
            jsonio.matrix_from_json(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        r = run_cli("classify", "-m", str(path))
        assert r.returncode == 3
        assert r.stdout == ""
        assert json.loads(r.stderr)["kind"] == "bad-json"

    @pytest.mark.parametrize("argv", [("classify", "-m", "MATRIX"),
                                      ("duality", "--n", "2", "--samples", "1")])
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_is_validation_error(self, argv, target, cp_matrix, tmp_path):
        out = str(tmp_path / target)
        argv = [cp_matrix if a == "MATRIX" else a for a in argv]
        r = run_cli(*argv, "--out", out)
        assert r.returncode == 2
        assert r.stdout == ""
        err = json.loads(r.stderr)
        assert err["kind"] == "validation"
        assert "--out" in err["error"] and out in err["error"]

    def test_ignored_option_is_usage_error(self, cp_matrix):
        # the finite-difference step and the battery's size are fixed, not options
        for argv, option in [(("classify", "-m", cp_matrix), "--n 3"),
                             (("selftest",), "--scale 2"),
                             (("selftest",), "--fd-step 1e-4"),
                             (("verify-cpn",), "--fd-step 1e-3"),
                             (("verify-prop",), "--fd-step 1e-3"),
                             (("tower",), "--fd-step 1e-3")]:
            r = run_cli(*argv, *option.split())
            assert (r.returncode, r.stdout) == (2, "")
            err = json.loads(r.stderr)
            assert err["kind"] == "usage"
            assert f"unrecognized arguments: {option}" in err["error"]

    @pytest.mark.parametrize("command, diagonal, extra, option", [
        ("curvature", False, ("--n", "5", "--seed", "9"), "--n"),
        ("curvature", False, ("--n", "2"), "--n"),
        ("curvature", False, ("--seed=0",), "--seed"),
        ("verify-prop", True, ("--n", "7"), "--n")])
    def test_fallback_option_with_matrix_is_usage_error(self, command, diagonal, extra,
                                                        option, tmp_path):
        # --n and curvature's --seed steer only the seeded fallback that -m replaces
        M = (np.diag([-0.3j, -0.2j, 0.5j]) if diagonal
             else np.array([[0.5j, 1.0 + 0.2j], [-1.0 + 0.2j, -0.3j]]))
        path = tmp_path / "m.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(M)))
        assert run_cli(command, "-m", str(path)).returncode == 0
        r = run_cli(command, *extra, "--matrix", str(path))
        assert (r.returncode, r.stdout) == (2, "")
        err = json.loads(r.stderr)
        assert err["kind"] == "usage"
        assert f"argument {option}: not allowed with argument --matrix/-m" in err["error"]

    @pytest.mark.parametrize("argv", [
        ("curvature", "--n", "0"), ("duality", "--n", "0"), ("verify-cpn", "--n", "0"),
        ("verify-prop", "--samples", "0"), ("tower", "--samples", "0")])
    def test_size_below_one_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["kind"] == "usage"
        assert f"argument {argv[1]}: must be an integer of at least 1" in err["error"]

    @pytest.mark.parametrize("command", ["curvature", "duality", "tower", "verify-cpn",
                                         "verify-prop", "selftest"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed=-1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["kind"] == "usage"
        assert "argument --seed: must be an integer of at least 0, got '-1'" in err["error"]

    @pytest.mark.parametrize("command,option,value", [
        ("classify -m -", "--tol", "inf"), ("classify -m -", "--tol", "nan"),
        ("classify -m -", "--tol", "0"), ("grade -m -", "--tol", "1"),
        ("tower", "--lambda0", "nan"), ("tower", "--lambda0", "-inf"),
        ("tower", "--lambda0", "x")])
    def test_float_outside_its_range_is_usage_error(self, command, option, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), f"{option}={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = json.loads(err)
        assert err["kind"] == "usage"
        assert f"argument {option}: must be a finite number" in err["error"]

    def test_byte_identical_reports(self, cp_matrix):
        r1 = run_cli("classify", "-m", cp_matrix)
        r2 = run_cli("classify", "-m", cp_matrix)
        assert r1.stdout == r2.stdout

    def test_one_eigenstructure_per_report(self, cp_matrix, monkeypatch):
        plain = run_cli("classify", "-m", cp_matrix).stdout
        calls, real = [], orbits.eigenstructure
        monkeypatch.setattr(orbits, "eigenstructure",
                            lambda *args: calls.append(args) or real(*args))
        assert run_cli("classify", "-m", cp_matrix).stdout == plain
        assert len(calls) == 1


class TestOtherCommands:
    def test_grade(self, cp_matrix):
        doc = json.loads(run_cli("grade", "-m", cp_matrix).stdout)
        sf = doc["structure_functions"]
        assert sf["f"] == pytest.approx(1.0)
        assert sf["scale"] == pytest.approx(-4.0)

    def test_grade_reports_vanishing_extreme_part(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(np.diag([0.4j, -0.2j, -0.2j]))))
        r = run_cli("grade", "-m", str(path))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["structure_functions"] is None
        assert doc["rejection"] == "g^-2 component vanishes; cannot normalize"

    def test_charpoly(self, cp_matrix):
        doc = json.loads(run_cli("charpoly", "-m", cp_matrix).stdout)
        assert doc["factored_residual"] < 1e-12

    def test_curvature_seeded(self):
        doc = json.loads(run_cli("curvature", "--n", "2", "--seed", "3").stdout)
        assert doc["shape"] == [4, 4, 4, 4]
        assert max(doc["symmetry_residuals"].values()) < 1e-10
        assert doc["fit_round_trip_error"] < 1e-9

    @pytest.mark.parametrize("perturbation, tol_args, code", [
        (1e-9, (), 0), (1e-6, (), 2), (1e-6, ("--tol", "1e-4"), 0)])
    def test_curvature_matrix_checked_once_at_tol(self, perturbation, tol_args, code,
                                                  tmp_path, capsys):
        # a skew-hermitian input moved off u(n): --tol alone decides
        rho = np.array([[0.5j, 1.0 + 0.2j], [-1.0 + 0.2j, -0.3j]])
        rho[0, 0] += perturbation
        path = tmp_path / "rho.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(rho)))
        assert main(["curvature", "-m", str(path), *tol_args]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["n"] == 2
        else:
            assert out == ""
            doc = json.loads(err)
            assert doc["kind"] == "validation"
            fields = re.fullmatch(
                r"rho is not in u\(n\): \|\|\[rho, J0\]\|\| (\S+), "
                r"\|\|rho \+ rho\^T\|\| (\S+), threshold (\S+) = (\S+) \* max\(1, \|\|rho\|\|\)",
                doc["error"])
            commutator, skew, threshold, tol = map(float, fields.groups())
            # a complex matrix realifies into the commutant of J0; only the
            # hermitian part of the perturbed entry breaks skewness
            assert commutator == 0.0
            assert skew == pytest.approx(2.0 * np.sqrt(2.0) * perturbation, rel=1e-6)
            assert tol == 1e-8
            assert threshold == pytest.approx(tol * 2.2, rel=1e-6)   # ||rho|| = 2.2
            assert skew > threshold

    def test_verify_prop(self):
        doc = json.loads(run_cli("verify-prop", "--n", "2", "--samples", "2").stdout)
        assert doc["max_residual"] <= 1e-3
        assert doc["min_control_ratio"] >= 10.0

    def test_verify_prop_mixed_sign_generator(self, tmp_path):
        # an indefinite quadric: the sampler keeps its points off the null
        # cone, where the contact frame would degenerate
        lam = np.random.default_rng(9).uniform(-1.0, 1.0, 2)
        path = tmp_path / "mixed.json"
        M = np.diag(np.append(1j * lam, -1j * lam.sum()))
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(M)))
        r = run_cli("verify-prop", "-m", str(path), "--seed", "9", "--samples", "6")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["max_residual"] <= 1e-3
        assert doc["min_control_ratio"] >= 10.0

    def test_verify_prop_paper_sign_surfaces_empty_section(self):
        r = run_cli("verify-prop", "--n", "2", "--samples", "2",
                    "--sigma-sign", "paper")
        assert r.returncode == 2
        assert "empty" in json.loads(r.stderr)["error"]

    @pytest.mark.parametrize("seed", [3, 12])
    def test_verify_prop_small_positive_quadric_part(self, tmp_path, seed):
        # the paper-sign quadric of these generators has one small positive
        # coefficient (0.014 at seed 3); the sampler still hits it
        lam = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        path = tmp_path / "tiny.json"
        M = np.diag(np.append(1j * lam, -1j * lam.sum()))
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(M)))
        r = run_cli("verify-prop", "-m", str(path), "--sigma-sign", "paper",
                    "--seed", str(seed), "--samples", "2")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["max_residual"] <= 1e-3
        assert doc["min_control_ratio"] >= 10.0

    @pytest.mark.parametrize("entry, bump, message", [
        ((0, 1), 0.1, "verify-prop expects a diagonal generator"),
        ((0, 0), 0.1, "generator must be purely imaginary (type 1)"),
        ((2, 2), 0.5j, "generator must be traceless"),
    ])
    def test_verify_prop_refuses_bad_generator(self, tmp_path, entry, bump, message):
        M = np.diag([0.3j, 0.2j, -0.5j])
        M[entry] += bump
        path = tmp_path / "bad.json"
        path.write_text(jsonio.dumps(jsonio.matrix_to_json(M)))
        r = run_cli("verify-prop", "-m", str(path))
        assert r.returncode == 2
        assert json.loads(r.stderr) == {"error": message, "kind": "validation"}

    def test_verify_cpn(self):
        doc = json.loads(run_cli("verify-cpn", "--n", "1", "--samples", "2").stdout)
        assert doc["cone_flatness"] <= 1e-3
        assert doc["identity_residual"] <= 1e-3
        assert abs(doc["quotient_hs_mean"] - 4.0) <= 1e-4

    def test_tower(self):
        doc = json.loads(run_cli("tower", "--n", "2", "--lambda0", "0.2",
                                 "--samples", "2").stdout)
        assert doc["max_ii_norm"] <= 1e-3
        assert doc["action_agreement"] <= 1e-10

    def test_duality(self):
        doc = json.loads(run_cli("duality", "--n", "2", "--samples", "2").stdout)
        assert doc["twisted_residual"] <= 1e-6

    def test_out_flag_writes_file(self, cp_matrix, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("classify", "-m", cp_matrix, "--out", str(out))
        assert r.returncode == 0
        assert out.read_text() == r.stdout


class TestProcess:
    """The CLI as a fresh interpreter sees it: one run per exit-code class."""

    @pytest.mark.parametrize("bad_json, extra, code", [
        (False, (), 0), (False, ("--n", "3"), 2), (True, (), 3),
        pytest.param(DEEP_JSON, (), 3, id="deeply-nested"),
        pytest.param(NOT_UTF8, (), 3, id="not-utf-8")])
    def test_exit_code_classes(self, cp_matrix, tmp_path, bad_json, extra, code):
        # bad_json: False reads the cp matrix, True "{not json", bytes that file
        path = cp_matrix
        if bad_json:
            path = tmp_path / "bad.json"
            path.write_bytes(b"{not json" if bad_json is True else bad_json)
        argv = ("classify", "-m", str(path), *extra)
        r = run_process("-m", "bkgeom.cli", *argv)
        assert r.returncode == code
        inproc = run_cli(*argv)
        assert (inproc.returncode, inproc.stdout, inproc.stderr) == (code, r.stdout, r.stderr)

    def test_subcommands_load_only_their_layers(self, cp_matrix):
        script = (
            "import contextlib, io, json, sys\n"
            "from bkgeom.cli import main\n"
            "def loaded():\n"
            "    return sorted(m[7:] for m in sys.modules if m.startswith('bkgeom.'))\n"
            "sets = [loaded()]\n"
            f"for argv in (['classify', '-m', {cp_matrix!r}], ['curvature', '--n', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    sets.append(loaded())\n"
            "print(json.dumps(sets))\n")
        r = run_process("-c", script)
        assert r.returncode == 0, r.stderr
        base = ["cli", "hermitian", "jsonio"]
        assert json.loads(r.stdout) == [base, sorted(base + ["orbits"]),
                                        sorted(base + ["orbits", "curvature"])]

    def test_import_leaves_scipy_unloaded(self):
        r = run_process("-c", "import sys, bkgeom.cli; print('scipy' in sys.modules)")
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"
