"""One client process of the bkgeom benchmark.

    python bench/client.py --workload W --seed S --seconds T --mode run|setup
                           [--trace 0|1] [--cycles N] [--records PATH] [--spans PATH]
                           [--work DIR]

Imports the program from the checkout's `src`, builds the workload's inputs
from the seed, runs one warm-up cycle and prints READY.  In `setup` mode it
stops there.  In `run` mode it then runs checks one at a time (closed loop,
one client) in whole cycles until T seconds have passed, or for exactly N
cycles when --cycles is given, and prints one JSON summary line.  With
--trace 1 the layer wrappers are installed before warm-up; their spans are
kept in memory, aggregated into per-layer metrics and written to --spans
(one JSON tracer dump per line) at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def _cpu_s() -> float:
    """User plus system CPU of this process (all threads) and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Record:
    __slots__ = ("check", "kind", "params", "ms", "cpu_ms", "channels", "error")

    def __init__(self, check, kind, params, ms, cpu_ms, channels, error):
        self.check, self.kind, self.params = check, kind, params
        self.ms, self.cpu_ms, self.channels, self.error = ms, cpu_ms, channels, error

    @property
    def ok(self) -> bool:
        return self.error is None and all(ch.ok for ch in self.channels)

    def to_json(self) -> dict:
        return {"check": self.check, "kind": self.kind, "ms": self.ms, "cpu_ms": self.cpu_ms,
                "ok": self.ok,
                "params": {k: _jsonable(v) for k, v in self.params.items()},
                "channels": [ch.as_list() for ch in self.channels], "error": self.error}


def _jsonable(v):
    if hasattr(v, "tolist"):
        v = v.tolist()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, list):
        return [_jsonable(x) for x in v]
    return v


class InProcess:
    """Checks that call the program's layers directly."""

    def __init__(self, workloads, workload, seed):
        self.w, self.workload, self.seed = workloads, workload, seed

    def setup(self):
        self.run_cycle(-1, None, [])

    def run_cycle(self, cycle, tracer, records):
        for item in self.w.cycle_items(self.workload, self.seed, cycle):
            if tracer is not None:
                tracer.check = len(records)
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                channels, error = self.w.run_item(item), None
            except Exception as exc:   # an unexpected exception is a failed check
                channels, error = [], f"{type(exc).__name__}: {exc}"
            ms, cpu_ms = 1e3 * (time.perf_counter() - t0), 1e3 * (_cpu_s() - c0)
            records.append(Record(len(records), item.kind, item.params, ms, cpu_ms, channels,
                                  error))

    def finish(self, records):
        pass


class ColdCli:
    """Fresh `python -m bkgeom.cli` processes, one at a time.

    Reports are judged against in-process results after the timed phase.
    """

    def __init__(self, workloads, seed, work: Path, traced: bool, pool: int):
        self.w, self.seed, self.work, self.traced, self.pool = workloads, seed, work, traced, pool
        self.cycles = []
        self.outputs = []
        self.span_files = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def setup(self):
        from bkgeom import jsonio

        self.work.mkdir(parents=True, exist_ok=True)
        for c in range(-1, self.pool):
            prepared = []
            for i, item in enumerate(self.w.cycle_items("cli_cold", self.seed, c)):
                matrix = self.w.cli_matrix(item.params)
                path = None
                if matrix is not None:
                    path = self.work / f"c{c + 1}-{i}.json"
                    path.write_text(jsonio.dumps(jsonio.matrix_to_json(matrix)))
                prepared.append((item, matrix, self.w.cli_argv(item.params, path and str(path))))
            self.cycles.append(prepared)
        # warm-up: one invocation compiles and caches every module's bytecode
        item, _, argv = self.cycles[0][0]
        self._launch(argv, None)

    def _launch(self, argv, spans_path):
        if spans_path is None:
            cmd = [sys.executable, "-m", "bkgeom.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(spans_path), *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=60)

    def run_cycle(self, cycle, tracer, records):
        # the pool is generated in setup; a run that outlasts it reuses its inputs
        for item, matrix, argv in self.cycles[1 + cycle % self.pool]:
            spans = self.work / f"spans-{len(records)}.json" if self.traced else None
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                proc = self._launch(argv, spans)
                out, error = (proc.returncode, proc.stdout), None
            except subprocess.TimeoutExpired as exc:
                out, error = (None, ""), f"TimeoutExpired: {exc}"
            ms, cpu_ms = 1e3 * (time.perf_counter() - t0), 1e3 * (_cpu_s() - c0)
            records.append(Record(len(records), f"cli.{item.params['command']}", item.params,
                                  ms, cpu_ms, [], error))
            self.outputs.append((item, matrix, out))
            if spans is not None:
                self.span_files.append(spans)

    def finish(self, records):
        refs = {}
        for rec, (item, matrix, (code, stdout)) in zip(records, self.outputs):
            if rec.error is not None:
                continue
            try:
                rec.channels = self.w.judge_cli(item.params, matrix, code, stdout, refs)
            except Exception as exc:   # an unparsable report is a failed check
                rec.error = f"{type(exc).__name__}: {exc}"

    def span_dumps(self):
        dumps = []
        for path in self.span_files:
            with open(path) as fh:
                dumps.append(json.load(fh))
        return dumps


def summarize(records) -> dict:
    """Latency percentiles, failures, and the margin accounting of every channel.

    A channel's margin is log10(gate/observed) for a residual and
    log10(observed/required) for a control, taken at the channel's median
    observation over the run; residual_margin and control_margin are the
    smallest over channels.  The worst observation's margin is reported too,
    but not as a metric: it is an extreme over seeded inputs and moves with
    the seed.  A residual channel whose median is exactly 0 has no finite
    margin: it is counted and listed by name instead.
    """
    import numpy as np

    ms = np.array([r.ms for r in records])
    seen: dict[str, tuple[str, float, list]] = {}
    for r in records:
        for ch in r.channels:
            if ch.kind in ("residual", "control"):
                seen.setdefault(ch.name, (ch.kind, ch.threshold, []))[2].append(ch.observed)

    def margin(kind, thr, obs):
        if kind == "residual":
            return math.log10(thr / obs) if obs > 0.0 else None
        return math.log10(max(obs, 1e-300) / thr)

    typical, worst, zeros = {}, {}, {}
    for name, (kind, thr, obs) in seen.items():
        typical[name] = margin(kind, thr, float(np.median(obs)))
        worst[name] = margin(kind, thr, max(obs) if kind == "residual" else min(obs))
        zero = sum(1 for o in obs if kind == "residual" and o == 0.0)
        if zero:
            zeros[name] = [zero, len(obs)]

    def smallest(kind, table):
        vals = {k: v for k, v in table.items() if seen[k][0] == kind and v is not None}
        return (min(vals.values()), min(vals, key=vals.get)) if vals else (None, None)

    failed = [r for r in records if not r.ok]
    res, res_at = smallest("residual", typical)
    ctl, ctl_at = smallest("control", typical)
    return {
        "checks": len(records),
        "failed": len(failed),
        "check_ms_p50": float(np.percentile(ms, 50)),
        "check_ms_p90": float(np.percentile(ms, 90)),
        "residual_margin": res, "residual_margin_channel": res_at,
        "control_margin": ctl, "control_margin_channel": ctl_at,
        "worst_residual_margin": smallest("residual", worst),
        "worst_control_margin": smallest("control", worst),
        "zero_channels": dict(sorted(zeros.items())),
        "failures": [r.to_json() for r in failed[:10]],
    }


def _write(path, lines):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--records", default=None)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--work", default=None)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import bkgeom.cli   # noqa: F401  (the import users pay on every cold start)
    import_ms = 1e3 * (time.perf_counter() - t0)
    if not Path(bkgeom.cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"bench: bkgeom imported from {bkgeom.cli.__file__}, not {SRC}\n")
        return 2
    import workloads
    from tracer import Tracer, aggregate, install

    tracer = None
    if args.trace and args.workload != "cli_cold":
        tracer = Tracer()
        install(tracer)
    if args.workload == "cli_cold":
        work = Path(args.work) if args.work else BENCH / "_work" / f"cli-{os.getpid()}"
        pool = int(args.cycles or math.ceil(args.seconds / 2.5) + 1)
        runner = ColdCli(workloads, args.seed, work, bool(args.trace), pool)
    else:
        runner = InProcess(workloads, args.workload, args.seed)
    runner.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if tracer is not None:
        tracer.reset()
    records = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    cycle = 0
    while True:
        runner.run_cycle(cycle, tracer, records)
        cycle += 1
        if args.cycles:
            if cycle >= args.cycles:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    runner.finish(records)

    out = summarize(records)
    out.update({"workload": args.workload, "seed": args.seed, "cycles": cycle,
                "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
                "import_ms": import_ms, "env": environment()})
    if args.trace:
        if tracer is not None:
            dumps = [tracer.dump()]
            import_ms_traced = import_ms
        else:
            dumps = runner.span_dumps()
            import_ms_traced = sum(d["import_ms"] for d in dumps) / max(len(dumps), 1)
        layer, entries = aggregate(dumps, len(records), wall,
                                   {"cli.import_ms": import_ms_traced,
                                    "process.cpu_per_wall": cpu / wall})
        out["per_layer"] = layer
        out["entries"] = entries[:8]
        if args.spans:
            _write(args.spans, [json.dumps(d) for d in dumps])
    if args.records:
        _write(args.records, [json.dumps(r.to_json()) for r in records])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
