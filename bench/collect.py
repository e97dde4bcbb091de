"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                             [--seconds T] [--label NAME] [--out PATH]

For each workload and seed this runs `bench/run.py` once, then reports for
every metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median.
An end-to-end spread above a third of the metric's bound in BENCHMARK.json
is flagged; setup_s is compared only through its median.  With --out the
table and every run's values are written as JSON, which is how points of
the bench trajectory (bench/trajectory/) are made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--label", default="")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, runs, ok = {}, {}, True
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs[wl] = []
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            runs[wl].append({"seed": seed, "elapsed_s": elapsed, **result})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: {elapsed:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
        table[wl] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  > bound/3 = {bounds[name] / 3:.3f}"
                ok = False
            if args.trace == 0 or flag:
                print(f"  {wl:14s} {name:18s} median {med:12.6g}  spread {spread:.4f}{flag}")
            table[wl][name] = row
    if args.out:
        doc = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "table": table, "runs": runs}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
