"""Closed-loop benchmark of signrate.

    python3 bench/run.py --workload {mc_point,enum_point,sweep_grid} \
        --seed N --seconds S --trace {0,1}

One caller issues the next operation only after the previous one has
returned; the library may use up to two threads underneath (the chunk or
sweep pool).  Inputs are drawn from ``--seed``; operations run for
``--seconds`` of wall time, and every output is checked afterwards.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
an untraced and a traced pass over the same inputs give the per-layer
metrics and the tracing overhead.  Report lines go first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh interpreters started to time set-up; the median is reported.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60
# Traced operations repeated to check that the counts repeat exactly.
REPEAT_OPS = 2
# mc_point cells timed at workers=1 and workers=2 for parallel_eff.
EFF_CELLS = 3
# A tail percentile needs this many operations beyond it.
TAIL_BEYOND = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_point", "enum_point", "sweep_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: time one fresh interpreter's import and warm-up call.
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library():
    """Import signrate from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import signrate
    except ImportError as err:
        raise SystemExit(f"error: cannot import signrate from {SRC}: {err}")
    if not Path(signrate.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: signrate was imported from "
                         f"{signrate.__file__}, not from {SRC}")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_env": {name: os.environ.get(name) for name in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_lines": sum(path.read_bytes().count(b"\n")
                         for path in (SRC / "signrate").glob("*.py")),
    }


def setup_seconds(args, workdir: Path) -> list:
    """Wall times of fresh interpreters that import signrate and make one
    warm-up operation of the workload."""
    times = []
    for i in range(SETUP_RUNS):
        probe = workdir / f"setup-{i}"
        probe.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--setup-probe", str(probe)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return times


class Loop:
    """Results of one closed-loop pass: inputs, outcomes and failures."""

    def __init__(self):
        self.inputs = []       # every input drawn, in order
        self.ops = []          # (input, Outcome) of operations that returned
        self.raised = 0
        self.span = 0.0

    @property
    def attempted(self):
        return len(self.inputs)

    def walls(self):
        return [out.wall for _, out in self.ops]

    def cells(self):
        return sum(out.cells for _, out in self.ops)

    def cells_per_s(self):
        return self.cells() / sum(self.walls())


def closed_loop(workload, seconds: float, tracer=None) -> Loop:
    """Run operations back to back until ``seconds`` have passed."""
    workload.restart()
    loop = Loop()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        item = workload.next_input()
        if tracer is not None:
            tracer.op = loop.attempted
        loop.inputs.append(item)
        try:
            outcome = workload.run(item)
        except Exception:
            traceback.print_exc()
            loop.raised += 1
            continue
        loop.ops.append((item, outcome))
    loop.span = time.perf_counter() - start
    return loop


def tail(walls):
    """Latency at the highest percentile with TAIL_BEYOND operations
    beyond it, that percentile, and the sample count."""
    ordered = sorted(walls)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, setup: list) -> dict:
    walls = loop.walls()
    tail_s, _, _ = tail(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "cells_per_s": _metric(loop.cells_per_s(), "1/s"),
        "latency_p50_s": _metric(statistics.median(walls), "s"),
        "latency_tail_s": _metric(tail_s, "s"),
        "cpu_s_per_cell": _metric(
            sum(out.cpu for _, out in loop.ops) / loop.cells(), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def parallel_eff(workload):
    """Mean wall and CPU seconds per cell at workers=1 and workers=2 over
    the first mc_point cells, alternating; efficiency t1 / (2 t2)."""
    workload.restart()
    cells = [workload.next_input() for _ in range(EFF_CELLS)]
    runs = {1: [], 2: []}
    for cfg in cells:
        for workers in runs:
            runs[workers].append(workload.run(cfg, workers=workers))
    wall = {w: statistics.mean(o.wall for o in outs) for w, outs in runs.items()}
    cpu = {w: statistics.mean(o.cpu for o in outs) for w, outs in runs.items()}
    print(f"parallel_eff over {EFF_CELLS} cells: workers=1 {wall[1]:.4f} s "
          f"wall, {cpu[1]:.4f} CPU-s per cell; workers=2 {wall[2]:.4f} s "
          f"wall, {cpu[2]:.4f} CPU-s per cell")
    return wall[1] / (2.0 * wall[2])


def per_layer(spans, traced: Loop, untraced: Loop, eff: float) -> dict:
    from tracer import self_times
    from workloads import SWEEP_WORKERS

    own = self_times(spans)
    n_ops = len(traced.ops)
    total = defaultdict(float)
    for span in spans:
        total[f"{span.name}.calls"] += 1
        total[f"{span.name}.self_s"] += own[id(span)]
        total[f"{span.name}.span_s"] += span.duration
        for key, value in span.counts.items():
            total[f"{span.name}.{key}"] += value

    def per_op(key):
        return total[key] / n_ops

    def ratio(num, den):
        return total[num] / total[den] if total[den] else 0.0

    sweep_ids = {id(s) for s in spans if s.name == "sweeps.run_sweep"}
    cell_s = sum(s.duration for s in spans if s.name == "rates.rate_for_config"
                 and s.parent is not None and id(s.parent) in sweep_ids)
    sweep_s = total["sweeps.run_sweep.span_s"]
    roots = sum(s.duration for s in spans if s.parent is None)
    out = {}
    for layer in ("pulses.discretize", "pulses.combined_response",
                  "channel.assemble", "transitions.mc_estimate",
                  "transitions.enumerate_exact", "rates.rate_for_config",
                  "rates.dmc_mutual_information"):
        out[f"{layer}.calls"] = _metric(per_op(f"{layer}.calls"), "count")
        out[f"{layer}.self_s"] = _metric(per_op(f"{layer}.self_s"), "s")
    for layer in ("rates.rate_from_table", "sweeps.run_sweep",
                  "sweeps.load_sweep_csv", "sweeps.region_compare",
                  "sweeps.find_optimum"):
        out[f"{layer}.self_s"] = _metric(per_op(f"{layer}.self_s"), "s")
    mc, enum = "transitions.mc_estimate", "transitions.enumerate_exact"
    out.update({
        f"{mc}.chunks": _metric(per_op(f"{mc}.chunks"), "count"),
        f"{mc}.samples_per_s": _metric(
            ratio(f"{mc}.samples", f"{mc}.span_s"), "1/s"),
        f"{mc}.parallel_eff": _metric(eff, "frac"),
        f"{enum}.windows": _metric(per_op(f"{enum}.windows"), "count"),
        f"{enum}.orthants": _metric(per_op(f"{enum}.orthants"), "count"),
        f"{enum}.orthants_per_s": _metric(
            ratio(f"{enum}.orthants", f"{enum}.span_s"), "1/s"),
        "sweeps.worker_idle_frac": _metric(
            1.0 - cell_s / (SWEEP_WORKERS * sweep_s) if sweep_s else 0.0,
            "frac"),
        "sweeps.csv_bytes_written": _metric(
            per_op("sweeps.sweep_csv_text.csv_bytes"), "B"),
        "trace.overhead_frac": _metric(
            untraced.cells_per_s() / traced.cells_per_s() - 1.0, "frac"),
        "trace.span_cover_frac": _metric(roots / sum(traced.walls()), "frac"),
    })
    return out


def counts_repeat(workload, traced: Loop, spans) -> list:
    """Trace the first operations again; their counts must repeat exactly."""
    from tracer import Tracer, op_counts

    first = op_counts([s for s in spans if s.op < REPEAT_OPS])
    with Tracer() as again:
        for op, item in enumerate(traced.inputs[:REPEAT_OPS]):
            again.op = op
            workload.run(item)
    second = op_counts(again.spans)
    if first != second:
        return [f"counts differ between two traced runs: {first} vs {second}"]
    return []


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    _import_library()
    import_s = time.perf_counter() - start
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.setup_probe is not None:
        workload = WORKLOADS[args.workload](args.seed, args.setup_probe)
        workload.run(workload.next_input())
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        env = environment()
        setup = [] if args.trace else setup_seconds(args, workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        workload.run(workload.next_input())      # untimed warm-up

        # A traced run splits its time between the untraced and the
        # traced pass, so both modes take about as long.
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = closed_loop(workload, seconds)
        passes = [untraced]
        checks = {}
        if args.trace:
            with Tracer() as tracer:
                traced = closed_loop(workload, seconds, tracer)
            passes.append(traced)
            checks["counts_repeat"] = counts_repeat(workload, traced,
                                                    tracer.spans)
            eff = (parallel_eff(workload) if args.workload == "mc_point"
                   else 0.0)

        op_failures = sum(loop.raised for loop in passes)
        attempted = sum(loop.attempted for loop in passes)
        for loop in passes:
            for item, outcome in loop.ops:
                problems = workload.check(item, outcome)
                if problems:
                    op_failures += 1
                    print(f"check failed: {problems}", file=sys.stderr)
        if untraced.ops:
            checks.update(workload.run_checks(untraced.ops[0]))
        check_failures = sum(1 for problems in checks.values() if problems)
        for name, problems in checks.items():
            if problems:
                print(f"check {name} failed: {problems}", file=sys.stderr)

        walls = untraced.walls()
        tail_s, pct, n = tail(walls) if walls else (0.0, 0.0, 0)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {n} operations "
              f"in {untraced.span:.2f} s, closed loop, one caller; "
              f"latency_tail_s is p{pct:.1f} of {n} operations")
        print(f"import signrate took {import_s:.3f} s in this process")
        print(f"checks: {sorted(checks)}; error_rate "
              f"{op_failures}/{attempted} operations")
        if args.trace:
            metrics = per_layer(tracer.spans, traced, untraced, eff)
            self_s = sum(metrics[k]["value"] for k in metrics
                         if k.endswith(".self_s"))
            print(f"self times sum to {self_s:.4f} thread-seconds per "
                  f"operation, {self_s / statistics.median(walls):.3f} of "
                  f"the untraced latency_p50_s")
        else:
            metrics = end_to_end(untraced, setup)
            print(f"setup_s runs: {[round(t, 4) for t in setup]}")
        for name, metric in metrics.items():
            print(f"metric {name} {metric['value']!r} {metric['unit']}")
        failed = op_failures + check_failures
        print(json.dumps({
            "correct": failed == 0 and n > 0,
            "attempted": attempted + len(checks),
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
