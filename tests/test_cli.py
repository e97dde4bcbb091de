import json
import subprocess
import sys

import numpy as np
import pytest

from bkgeom import jsonio
from bkgeom.grading import cp_generator
from bkgeom.hermitian import HermitianSpace, random_su, su_element, su_project


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "bkgeom.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def cp_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "cp.json"
    cp = cp_generator(HermitianSpace(3))
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

    def test_ignored_option_is_usage_error(self, cp_matrix):
        r = run_cli("classify", "-m", cp_matrix, "--n", "3")
        assert r.returncode == 2
        assert "unrecognized arguments: --n 3" in r.stderr

    def test_byte_identical_reports(self, cp_matrix):
        r1 = run_cli("classify", "-m", cp_matrix)
        r2 = run_cli("classify", "-m", cp_matrix)
        assert r1.stdout == r2.stdout


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

    def test_verify_prop(self):
        doc = json.loads(run_cli("verify-prop", "--n", "2", "--samples", "2").stdout)
        assert doc["max_residual"] <= 1e-3
        assert doc["template_scale"] == -2.0

    def test_verify_prop_paper_sign_surfaces_empty_section(self):
        r = run_cli("verify-prop", "--n", "2", "--samples", "2",
                    "--sigma-sign", "paper")
        assert r.returncode == 2
        assert "empty" in json.loads(r.stderr)["error"]

    def test_verify_cpn(self):
        doc = json.loads(run_cli("verify-cpn", "--n", "1", "--samples", "2").stdout)
        assert doc["cone_flatness"] <= 1e-3
        assert doc["identity_residual"] <= 1e-3

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
