"""quiverstab benchmark: closed loop, one client, in-process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout, never from an
installed copy.  A run builds the workload's inputs from the seed, runs
one untimed warm-up pass, then for ``--seconds`` seconds of wall time
runs whole passes of the same operation list, timing each operation;
between the passes it times fresh interpreters importing
``quiverstab.cli`` (set-up).  Every output is checked.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from checks import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_STARTS = 11  # timed fresh interpreters per run, spread over the timed passes
MIN_OPS = 100  # operations per pass, at least, so the tail is p90 or higher
MIN_PASSES = 3  # timed passes per run, at least
TAIL_BEYOND = 10  # operations above the reported tail percentile


def fresh_import_s() -> float:
    """Wall time for a fresh interpreter to import quiverstab.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import quiverstab.cli"]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, check=False)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.decode()[-500:]}")
    return elapsed


class Runner:
    """Runs passes of an operation list, timing and checking each operation."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.op_times = {}  # op name -> untraced timed seconds

    def run_pass(self, timed: bool, traced: bool = False):
        times = []
        if traced:
            self.tracer.install()
        try:
            for op in self.ops:
                started = time.perf_counter()
                try:
                    if traced:
                        out = self.tracer.run_op(op.run)
                    else:
                        out = op.run()
                except workloads.OpFailed as exc:
                    self._fail(op, timed, f"failed: {exc}")
                    continue
                except Exception as exc:  # a crash in the program is a failed operation
                    self._fail(op, timed, f"raised {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - started
                if timed:
                    self.attempted += 1
                    times.append(elapsed)
                    if not traced:
                        self.op_times.setdefault(op.name, []).append(elapsed)
                try:
                    op.check(out)
                except CheckFailed as exc:
                    self.mismatches.append(f"{op.name}: {exc}")
                except Exception as exc:  # output the check cannot even parse
                    self.mismatches.append(f"{op.name}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                self.tracer.uninstall()
        return times

    def _fail(self, op, timed, message):
        if timed:
            self.attempted += 1
            self.failed += 1
        print(f"{op.name}: {message}", file=sys.stderr)


def percentile(sorted_values, level: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(level * len(sorted_values)))
    return sorted_values[rank - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quiverstab" / "__init__.py").is_file():
        print(f"no quiverstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup_times = []
    if not args.trace:
        fresh_import_s()  # untimed: writes the bytecode

    import quiverstab
    import quiverstab.cli as cli

    if Path(quiverstab.__file__).resolve().parent != (SRC / "quiverstab").resolve():
        print(f"imported quiverstab from {quiverstab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ctx = workloads.Context(quiverstab, cli, args.seed, workdir)
        ops = workloads.build(args.workload, ctx)
        if len(ops) < MIN_OPS:
            raise RuntimeError(f"{args.workload} has {len(ops)} operations, fewer than {MIN_OPS}")
        tracer = tracing.layer_tracer() if args.trace else None
        runner = Runner(ops, tracer)

        started = time.perf_counter()
        runner.run_pass(timed=False)
        warm_s = time.perf_counter() - started

        if args.trace:
            plain, traced = [], []
            pairs = max(1, round(args.seconds / warm_s / 2))
            for _ in range(pairs):
                plain += runner.run_pass(timed=True)
                traced += runner.run_pass(timed=True, traced=True)
            overhead = (sum(traced) / sum(plain) - 1.0) * 100.0 if plain and traced else 0.0
            metrics = tracing.per_layer_metrics(tracer, pairs, overhead)
            doc = tracing.trace_document(tracer, pairs, metrics)
            with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        else:
            # whole passes until --seconds of wall time have gone; a fresh
            # start is due at the middle of each of SETUP_STARTS equal slices
            passes = 0
            started = time.perf_counter()
            while passes < MIN_PASSES or time.perf_counter() - started < args.seconds:
                runner.run_pass(timed=True)
                passes += 1
                elapsed = time.perf_counter() - started
                while (len(setup_times) < SETUP_STARTS
                       and elapsed >= (len(setup_times) + 0.5) * args.seconds / SETUP_STARTS):
                    setup_times.append(fresh_import_s())
                    elapsed = time.perf_counter() - started
            while len(setup_times) < SETUP_STARTS:
                setup_times.append(fresh_import_s())
            measured_s = time.perf_counter() - started
            # the host's speed changes in spells of seconds, so each
            # operation's time is the median of its passes, and throughput
            # is every timed operation over their summed time
            typical = sorted(statistics.median(times) for times in runner.op_times.values())
            samples = [t for times in runner.op_times.values() for t in times]
            level = (len(ops) - TAIL_BEYOND) / len(ops)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "ops_per_s": {"value": len(samples) / sum(samples) if samples else 0.0,
                              "unit": "1/s"},
                "op_p50_ms": {"value": statistics.median(typical) * 1000.0 if typical else 0.0,
                              "unit": "ms"},
                "op_tail_ms": {"value": percentile(typical, level) * 1000.0 if typical else 0.0,
                               "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            print(f"{args.workload}: {len(ops)} ops x {passes} passes and {len(setup_times)} "
                  f"fresh starts in {measured_s:.1f} s, tail = p{100 * level:.1f} of "
                  f"{len(typical)} operations", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    result = {
        "correct": not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
