"""The bkgeom benchmark: one command, four workloads, every result checked.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.

Workloads (closed loop, one client process, one check at a time):

  algebra_sweep  orbit checks at n in {2,3,4,8} over eight spectral profiles,
                 curvature-template round trips at n=1..4, duality at m=2..4.
                 No finite differences: fdgeom and cone do no work here.
  fd_small       cheap finite-difference checks: quotient curvature at chart
                 d=2 and 4, tower at n=2, Sasaki identity and transversal
                 structure on S^3, the CP^1 pipeline, cone flatness over
                 S^3 and S^5.  Frame and template overhead matter here.
  fd_large       quotient curvature at d=6 and 8 and tower at ambient d=6 and
                 8: bound by `riemann`.  orbits does no work here.
  cli_cold       fresh `python -m bkgeom.cli` processes in a fixed rotation of
                 eight subcommands: import, argparse and jsonio on the
                 blocking path, and no cache survives between calls.

`--trace 0` runs nothing but the program: it sets up twice more in fresh
processes (setup_s is the median of the three set-ups) and prints the
end-to-end metrics.  `--trace 1` runs the same cycles once untraced and once
with the layer wrappers of `tracer.py`, and prints the per-layer metrics plus
the tracing overhead (traced minus untraced wall time).

Every check is judged at the repository's acceptance thresholds
(`workloads.py`); the command exits 1 when any check fails.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the lines
before it say what was measured.  Per-check records (timing next to every
residual) go to bench/out/<workload>[.trace].records.jsonl, and the traced
run's spans to bench/out/<workload>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("algebra_sweep", "fd_small", "fd_large", "cli_cold")
SETUPS = 3            # set-ups per untraced run; setup_s is their median
CLIENT_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _client(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a client; return (seconds until READY, its summary or None).

    The client is killed at the deadline, so the run ends in bounded time.
    """
    cmd = [sys.executable, str(BENCH / "client.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read() if ready == "READY\n" else ""
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "READY\n" or code != 0:
        raise BenchError(f"client exited with {code} (first line {ready!r})")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setups: list[float]) -> dict:
    checks = result["checks"]
    return {
        "checks_per_s": _metric(checks / result["wall_s"], "1/s"),
        "check_ms.p50": _metric(result["check_ms_p50"], "ms"),
        "check_ms.p90": _metric(result["check_ms_p90"], "ms"),
        "cpu_ms_per_check": _metric(1e3 * result["cpu_s"] / checks, "ms"),
        "residual_margin": _metric(result["residual_margin"], "log10"),
        "control_margin": _metric(result["control_margin"], "log10"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    out = {k: _metric(v, _layer_unit(k)) for k, v in traced["per_layer"].items()}
    over_s = traced["wall_s"] - untraced["wall_s"]
    out["trace.overhead_ms_per_check"] = _metric(1e3 * over_s / traced["checks"], "ms")
    out["trace.overhead_share"] = _metric(over_s / untraced["wall_s"], "ratio")
    return out


def _layer_unit(name: str) -> str:
    if name.endswith(".us"):
        return "us"
    if name.endswith((".calls", ".refusals", ".chart_failures")):
        return "count"
    if name.endswith((".share", ".cpu_per_wall")):
        return "ratio"
    return "ms"


def _say(text: str) -> None:
    print(f"bench: {text}", flush=True)


def _report(result: dict, trace: bool) -> None:
    _say(f"workload={result['workload']} seed={result['seed']} trace={int(trace)} "
         f"checks={result['checks']} cycles={result['cycles']} wall_s={result['wall_s']:.3f} "
         f"failed={result['failed']} failed_frac={result['failed'] / result['checks']:.6g}")
    _say("env " + json.dumps(result["env"], sort_keys=True))
    _say(f"residual_margin={result['residual_margin']} at {result['residual_margin_channel']}; "
         f"control_margin={result['control_margin']} at {result['control_margin_channel']} "
         "(median observation per channel)")
    _say("worst-observation margins: residual {} at {}; control {} at {}".format(
        *result["worst_residual_margin"], *result["worst_control_margin"]))
    if result["checks"] < 100:
        _say(f"check_ms.p90 rests on {result['checks']} checks (fewer than 100)")
    for name, (zero, seen) in result["zero_channels"].items():
        _say(f"zero channel {name}: {zero} of {seen} observations exactly 0 "
             f"(no finite margin; {'excluded from' if 2 * zero > seen else 'kept in'} "
             f"residual_margin)")
    for f in result["failures"]:
        _say("FAILED " + json.dumps(f))
    for name, ms in result.get("entries", []):
        _say(f"self time entry {name}: {ms:.1f} ms")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bkgeom" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program source at {ROOT / 'src' / 'bkgeom'}; "
                         "run from the root of a bkgeom checkout\n")
        return 2
    deadline = time.perf_counter() + CLIENT_TIMEOUT_S
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = BENCH / "out"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work)]
    try:
        if args.trace == 0:
            setups = [_client(common + ["--mode", "setup"], deadline)[0]
                      for _ in range(SETUPS - 1)]
            s, result = _client(common + ["--seconds", str(args.seconds), "--records",
                                          str(out_dir / f"{args.workload}.records.jsonl")],
                                deadline)
            setups.append(s)
            _report(result, False)
            _say("setup_s samples " + " ".join(f"{x:.3f}" for x in setups))
            metrics = end_to_end(result, setups)
        else:
            _, untraced = _client(common + ["--seconds", str(args.seconds / 2)], deadline)
            _, result = _client(common + [
                "--trace", "1", "--cycles", str(untraced["cycles"]),
                "--records", str(out_dir / f"{args.workload}.trace.records.jsonl"),
                "--spans", str(out_dir / f"{args.workload}.spans.jsonl")], deadline)
            metrics = per_layer(untraced, result)
            result["failed"] += untraced["failed"]
            result["failures"] = untraced["failures"] + result["failures"]
            result["checks"] += untraced["checks"]
            _report(result, True)
            _say(f"tracing overhead {metrics['trace.overhead_share']['value']:.3f} "
                 f"of untraced wall {untraced['wall_s']:.3f} s")
    except (BenchError, json.JSONDecodeError, KeyError, TypeError) as exc:
        sys.stderr.write(f"bench: {type(exc).__name__}: {exc}\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["checks"],
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
