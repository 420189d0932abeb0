"""The benchmark's workloads: what one operation is, how its inputs are
drawn from the workload seed, and how its outputs are checked.

Every workload reaches signrate through module attributes
(``rates.rate_for_config``, ``sweeps.run_sweep`` and so on) looked up at
call time, so the tracer in ``tracer.py`` sees each call.  Checks run
outside the timed segments of an operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from signrate import channel, rates, sweeps, transitions
from signrate.config import RunConfig

SRC = Path(__file__).resolve().parent.parent / "src"

MC_SAMPLES = 1_000_000
MC_WORKERS = 2
SWEEP_WORKERS = 2
SWEEP_SNR_DB = 25.0
# A few chunks per cell, so the sweep pool runs many small MC budgets.
SWEEP_SAMPLES = 2 * transitions.CHUNK_SAMPLES
# Independent reference for exact tables (scipy's bivariate normal CDF).
ENUM_REFERENCE_TOL = 1e-6
# Round-off allowed on the rate range: a saturated exact cell sums to
# 2.0000000000000004 bits.
RATE_ROUNDOFF = 1e-12
CLI_TIMEOUT_S = 120


def cpu_seconds() -> float:
    """User plus system CPU time of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclasses.dataclass
class Outcome:
    """One finished operation: rate cells computed, timed wall and CPU
    seconds, and the output the checks inspect."""

    cells: int
    wall: float = 0.0
    cpu: float = 0.0
    value: object = None

    @contextlib.contextmanager
    def timed(self):
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += cpu_seconds() - cpu


def _top_rate(cfg: RunConfig) -> float:
    return 2.0 * math.log2(channel.component_alphabet(cfg.alphabet).size)


def _rate_problems(cfg: RunConfig, res, method: str, samples: int) -> list:
    problems = []
    top = _top_rate(cfg)
    if res.config != cfg:
        problems.append("result carries another config")
    if res.method != method or res.samples != samples:
        problems.append(f"method/samples {res.method}/{res.samples}")
    if not -RATE_ROUNDOFF <= res.rate_bpcu <= top + RATE_ROUNDOFF:
        problems.append(f"rate {res.rate_bpcu!r} outside [0, {top}]")
    if res.rate_3db != res.rate_bpcu * cfg.signaling_ratio:
        problems.append("rate_3db is not rate_bpcu times the ratio")
    return problems


def _rows_problems(probs: np.ndarray) -> list:
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12:
        return ["table rows do not sum to one"]
    return []


def _same_rate(res, table, cfg: RunConfig) -> list:
    """The operation's result must be what the checked table yields."""
    priors = channel.component_alphabet(cfg.alphabet).priors
    again = rates.rate_from_table(table, cfg, priors)
    if (again.rate_bpcu, again.stderr) != (res.rate_bpcu, res.stderr):
        return ["checked table gives another rate than the operation"]
    return []


def _cli(args, workdir: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "signrate.cli", *args],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)


def cli_rate_problems(cfg: RunConfig, expected: dict, workers: int,
                      workdir: Path) -> list:
    """``signrate rate`` must print the library's JSON for the same config."""
    path = workdir / "cli-rate.json"
    path.write_text(json.dumps(cfg.to_dict()))
    proc = _cli(["rate", "--config", str(path), "--workers", str(workers)],
                workdir)
    if proc.returncode != 0:
        return [f"rate command exited {proc.returncode}: {proc.stderr[-300:]}"]
    if json.loads(proc.stdout) != expected:
        return ["rate command JSON differs from RateResult.to_json_dict()"]
    return []


def cli_sweep_problems(grid, expected: bytes, workdir: Path) -> list:
    """``signrate sweep`` must write the reference CSV byte for byte."""
    config, out = workdir / "cli-grid.json", workdir / "cli-sweep.csv"
    config.write_text(json.dumps(grid.to_dict()))
    out.unlink(missing_ok=True)
    proc = _cli(["sweep", "--config", str(config), "--out", str(out),
                 "--workers", str(SWEEP_WORKERS)], workdir)
    if proc.returncode != 0:
        return [f"sweep command exited {proc.returncode}: {proc.stderr[-300:]}"]
    if out.read_bytes() != expected:
        return ["sweep command CSV differs from the workers=1 reference"]
    return []


def sweep_grid_config(seed: int) -> sweeps.SweepConfig:
    """The sweep_grid grid for a seed: both alphabets, M in {1, 4}, two
    shapes by two ratios from the default grid, at 25 dB."""
    rng = random.Random(f"sweep_grid/{seed}")
    axes = sweeps.default_grid()
    return sweeps.SweepConfig(
        family="rrc",
        beta=tuple(sorted(rng.sample(axes.beta, 2))),
        ratio=tuple(sorted(rng.sample(axes.ratio, 2))),
        snr_db=(SWEEP_SNR_DB,), oversampling=(1, 4),
        alphabets=("4qam", "16qam"), samples=SWEEP_SAMPLES,
        seed=rng.randrange(1 << 16))


def sweep_reference(grid, path: Path) -> tuple:
    """The grid's CSV and result from a single-worker run."""
    path.unlink(missing_ok=True)
    result = sweeps.run_sweep(grid, path, workers=1)
    data = path.read_bytes()
    path.unlink()
    return data, result


def _mvn_reference(ch) -> np.ndarray:
    """Exact table by scipy's multivariate normal CDF, window by window."""
    # Imported here: scipy.stats is not part of signrate's import, and the
    # set-up probes import this module.
    from scipy.stats import multivariate_normal

    alpha, m = ch.alphabet, ch.oversampling
    center = ch.memory // 2
    probs = np.zeros((alpha.size, 1 << m))
    shape = (alpha.size,) * (ch.memory + 1)
    for index in range(alpha.size ** (ch.memory + 1)):
        digits = np.array(np.unravel_index(index, shape))
        mu = alpha.levels[digits] @ ch.A.T
        weight = np.prod(alpha.priors[digits]) / alpha.priors[digits[center]]
        for y in range(1 << m):
            signs = 2.0 * ((y >> np.arange(m)) & 1) - 1.0
            cov = ch.R_component * np.outer(signs, signs)
            p = multivariate_normal(mean=np.zeros(m), cov=cov).cdf(signs * mu)
            probs[digits[center], y] += weight * p
    return probs


class Workload:
    """Draws inputs from the workload seed and runs one operation each.

    ``prepare`` computes references, ``run`` is one closed-loop operation,
    ``check`` inspects one outcome and ``run_checks`` makes the checks done
    once per run (tables, worker determinism, the command line).  Checks
    return lists of problems; an empty list passes.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.grid = sweep_grid_config(seed)
        self.sweep_bytes = self.sweep_result = None

    def restart(self):
        """Draw the same input sequence again from its start."""
        self.rng = random.Random(f"{self.name}/{self.seed}")

    def prepare(self):
        start = time.perf_counter()
        self.sweep_bytes, self.sweep_result = sweep_reference(
            self.grid, self.workdir / "ref.csv")
        print(f"sweep_grid reference at workers=1: {self.grid.n_cells()} "
              f"cells in {time.perf_counter() - start:.3f} s")

    def next_input(self):
        raise NotImplementedError

    def run(self, item) -> Outcome:
        raise NotImplementedError

    def check(self, item, outcome: Outcome) -> list:
        raise NotImplementedError

    def run_checks(self, first) -> dict:
        """Once-per-run checks on the first operation ``(item, outcome)``."""
        raise NotImplementedError

    def cli_checks(self, cfg: RunConfig, expected: dict, workers: int) -> dict:
        return {
            "cli_rate": cli_rate_problems(cfg, expected, workers,
                                          self.workdir),
            "cli_sweep": cli_sweep_problems(self.grid, self.sweep_bytes,
                                            self.workdir),
        }


class McPoint(Workload):
    """One 1M-sample M=4 Monte Carlo rate point with two chunk workers."""

    name = "mc_point"

    def next_input(self) -> RunConfig:
        axes = sweeps.default_grid()
        return RunConfig(
            family="rrc", shape=self.rng.choice(axes.beta),
            signaling_ratio=self.rng.choice(axes.ratio), oversampling=4,
            alphabet=self.rng.choice(axes.alphabets), snr_db=25.0,
            estimator="mc", samples=MC_SAMPLES,
            seed=self.rng.randrange(1 << 16))

    def run(self, cfg: RunConfig, workers: int = MC_WORKERS) -> Outcome:
        out = Outcome(cells=1)
        with out.timed():
            out.value = rates.rate_for_config(cfg, workers=workers)
        return out

    def check(self, cfg, outcome) -> list:
        res = outcome.value
        problems = _rate_problems(cfg, res, "mc", cfg.samples)
        # A saturated cell (every output names its input, so the rate is
        # 2 log2|X|) gives that rate in every sample group, and its spread
        # is exactly zero.
        saturated = abs(res.rate_bpcu - _top_rate(cfg)) <= RATE_ROUNDOFF
        if not (res.stderr > 0.0 or saturated and res.stderr == 0.0):
            problems.append(f"stderr {res.stderr!r} is not positive")
        return problems

    def run_checks(self, first) -> dict:
        cfg, outcome = first
        ch = channel.assemble(cfg.pulse_spec(), cfg.alphabet, cfg.snr_db)
        one = transitions.mc_estimate(ch, cfg.samples, cfg.stream_seed(),
                                      workers=1)
        two = transitions.mc_estimate(ch, cfg.samples, cfg.stream_seed(),
                                      workers=MC_WORKERS)
        table = []
        if int(one.counts.sum()) != cfg.samples:
            table.append(f"counts sum to {int(one.counts.sum())}")
        table += _rows_problems(one.probs)
        table += _same_rate(outcome.value, one, cfg)
        checks = {
            "mc_table": table,
            "mc_workers_identical": [] if np.array_equal(
                one.counts, two.counts) else ["workers=1 and 2 differ"],
        }
        checks.update(self.cli_checks(cfg, outcome.value.to_json_dict(),
                                      MC_WORKERS))
        return checks


class EnumPoint(Workload):
    """One exact 4-QAM M=2 rate point; the noise is correlated."""

    name = "enum_point"

    def next_input(self) -> RunConfig:
        axes = sweeps.default_grid()
        return RunConfig(
            family="rrc", shape=self.rng.choice(axes.beta),
            signaling_ratio=self.rng.choice(axes.ratio), oversampling=2,
            alphabet="4qam", snr_db=self.rng.choice(axes.snr_db),
            span_symbols=9, estimator="enum")

    def run(self, cfg: RunConfig) -> Outcome:
        out = Outcome(cells=1)
        with out.timed():
            out.value = rates.rate_for_config(cfg)
        return out

    def check(self, cfg, outcome) -> list:
        problems = _rate_problems(cfg, outcome.value, "enum", 0)
        if outcome.value.stderr != 0.0:
            problems.append("exact rate has a nonzero stderr")
        return problems

    def run_checks(self, first) -> dict:
        cfg, outcome = first
        ch = channel.assemble(cfg.pulse_spec(), cfg.alphabet, cfg.snr_db)
        table = transitions.enumerate_exact(ch)
        flipped = channel.flip_index(np.arange(table.n_outputs),
                                     ch.oversampling)
        problems = _rows_problems(table.probs)
        if not np.array_equal(table.probs, table.probs[::-1][:, flipped]):
            problems.append("rows are not bitwise sign-symmetric")
        gap = float(np.max(np.abs(table.probs - _mvn_reference(ch))))
        if gap > ENUM_REFERENCE_TOL:
            problems.append(f"table is {gap:.3g} from the MVN reference")
        problems += _same_rate(outcome.value, table, cfg)
        checks = {"enum_table": problems}
        checks.update(self.cli_checks(cfg, outcome.value.to_json_dict(), 1))
        return checks


class SweepGrid(Workload):
    """A full sweep into a fresh file, its no-op resume, then the region
    map and the optima over the finished grid."""

    name = "sweep_grid"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.count = 0
        self.reference = None

    def prepare(self):
        super().prepare()
        self.reference = self._analyse(self.sweep_result)

    def next_input(self):
        return self.grid

    def _analyse(self, result) -> tuple:
        grid = result.config
        regions = tuple(sweeps.region_compare(result, snr_db=SWEEP_SNR_DB,
                                              oversampling=m)
                        for m in grid.oversampling)
        optima = tuple(sweeps.find_optimum(result, alphabet=a,
                                           oversampling=m,
                                           snr_db=SWEEP_SNR_DB)
                       for a in grid.alphabets for m in grid.oversampling)
        return regions, optima

    def run(self, grid) -> Outcome:
        self.count += 1
        path = self.workdir / f"sweep-{self.count}.csv"
        out = Outcome(cells=grid.n_cells())
        with out.timed():
            fresh = sweeps.run_sweep(grid, path, workers=SWEEP_WORKERS)
        written = path.read_bytes()
        with out.timed():
            resumed = sweeps.run_sweep(grid, path, workers=SWEEP_WORKERS)
            analysis = self._analyse(resumed)
        out.value = (len(fresh.rows), written, path.read_bytes(), analysis)
        path.unlink()
        return out

    def check(self, grid, outcome) -> list:
        rows, written, resumed, analysis = outcome.value
        problems = []
        if rows != grid.n_cells():
            problems.append(f"sweep returned {rows} of {grid.n_cells()} rows")
        if written != self.sweep_bytes:
            problems.append("CSV differs from the workers=1 reference")
        if resumed != written:
            problems.append("resume changed the CSV")
        if analysis != self.reference:
            problems.append("regions or optima differ from the reference")
        return problems

    def run_checks(self, first) -> dict:
        cfg = next(iter(self.grid.cells()))
        return self.cli_checks(cfg, rates.rate_for_config(cfg).to_json_dict(),
                               1)


WORKLOADS = {cls.name: cls for cls in (McPoint, EnumPoint, SweepGrid)}
