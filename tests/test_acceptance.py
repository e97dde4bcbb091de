"""Acceptance criteria, one test per criterion at its stated tolerance.

Criteria 01-09 are the rows of `bkgeom.selftest.CRITERIA`, run here at
their acceptance sizes; their seeds, sizes and thresholds live in that
table only, nothing is calibrated at runtime.  Run with
`pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion, listing each channel as `observed (comparison threshold)`.
"""

import subprocess
import sys

from bkgeom import selftest


def report(number, ok, detail):
    line = f"[ACCEPTANCE {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _fmt(x):
    return f"{x:.2e}" if isinstance(x, float) else str(x)


def _acceptance_test(criterion):
    def test():
        result = selftest.run_criterion(criterion, selftest.ACCEPTANCE_SEED,
                                        criterion.acceptance, selftest.ACCEPTANCE_FD_STEP)
        detail = ", ".join(
            f"{name} {_fmt(ch['observed'])} ({ch['comparison']}{_fmt(ch['threshold'])})"
            for name, ch in result["channels"].items())
        report(criterion.number, result["pass"], f"{criterion.name}: {detail}")

    test.__name__ = f"test_criterion_{criterion.key}"
    return test


# one named test per row, so each criterion keeps its own test id
for _criterion in selftest.CRITERIA:
    globals()[f"test_criterion_{_criterion.key}"] = _acceptance_test(_criterion)


def test_criterion_10_selftest_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "bkgeom.cli", "selftest", "--seed", "42",
             "--out", str(path)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(10, ok, f"selftest --seed 42 twice: byte-identical reports "
                   f"({len(outs[0])} bytes)")
