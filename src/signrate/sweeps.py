"""Rate sweeps over pulse shape, signaling ratio, SNR, and alphabet.

A sweep is a full factorial grid; every cell is one :class:`RunConfig`
evaluated by :func:`rates.rate_for_config`.  Results live in a CSV file
whose first line echoes the canonical grid configuration, so a rerun can
tell whether an existing file belongs to the same grid: matching files
are resumed (only missing cells are computed), mismatching files raise
:class:`GridMismatchError` instead of being overwritten.

Cell order is fixed (alphabet, oversampling, shape, ratio, SNR, outer to
inner); files are read into and rewritten from one slot per cell in that
order, so two complete runs of the same grid produce byte-identical
files regardless of worker count or how often they were interrupted.

On top of a finished grid, :func:`find_optimum` picks the
bandwidth-normalized best (shape, ratio) cell for one alphabet, and
:func:`region_compare` maps which alphabet wins where.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import stat
from pathlib import Path

import numpy as np

from .config import RunConfig, _CanonicalConfig
from .errors import GridMismatchError
from .rates import RateResult, check_config, rate_for_config
from .transitions import in_order

__all__ = [
    "RegionMap",
    "RegionRow",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "default_grid",
    "find_optimum",
    "load_sweep_csv",
    "merge_sweeps",
    "region_compare",
    "run_sweep",
    "write_region_csv",
]

SWEEP_HEADER = "alphabet,M,pulse,beta,ratio,snr_db,rate_bpcu,rate_3db,stderr,samples,seed"
REGION_HEADER = "beta,ratio,winner,margin,ftn_flag"

# (SweepConfig axis, RunConfig field) pairs in the canonical cell order,
# outer to inner.
_AXES = (("alphabets", "alphabet"), ("oversampling", "oversampling"),
         ("beta", "shape"), ("ratio", "signaling_ratio"), ("snr_db", "snr_db"))


@dataclasses.dataclass(frozen=True)
class SweepConfig(_CanonicalConfig):
    """Factorial grid of rate evaluation points.

    ``beta`` holds the pulse shape axis (roll-off for the raised-cosine
    family, 3 dB bandwidth for the Gaussian family, matching the CSV
    column of the same name).
    """

    family: str
    beta: tuple
    ratio: tuple
    snr_db: tuple
    oversampling: tuple
    alphabets: tuple
    span_symbols: int = 9
    estimator: str = "mc"
    samples: int = 1000000
    seed: int = 0
    schema_version: int = 1

    def __post_init__(self):
        for axis, _ in _AXES:
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"axis {axis!r} must be a list of values, "
                                 f"got {values!r}")
            if not values:
                raise ValueError(f"axis {axis!r} must not be empty")
            object.__setattr__(self, axis, tuple(values))
        # Every value is read back from a probe cell, so RunConfig alone
        # types the numbers (a grid typed with 2.0 or 10 echoes and
        # fingerprints like one typed with 2 or 10.0) and validates every
        # axis value (pulse parameters, alphabet, estimator, budgets)
        # before any cell runs, at a cost of the summed axis lengths.
        base = next(iter(self.cells()))
        for name in ("span_symbols", "samples", "seed"):
            object.__setattr__(self, name, getattr(base, name))
        for axis, field in _AXES:
            values = (getattr(base, field),) + tuple(
                getattr(dataclasses.replace(base, **{field: value}), field)
                for value in getattr(self, axis)[1:])
            if len(set(values)) != len(values):
                raise ValueError(f"axis {axis!r} has duplicate values")
            object.__setattr__(self, axis, values)

    def cell_keys(self):
        """All cell keys (alphabet, M, shape, ratio, SNR), in the canonical
        order; they equal the keys of the cells' :class:`SweepRow`."""
        return itertools.product(*(getattr(self, axis) for axis, _ in _AXES))

    def cell(self, key: tuple) -> RunConfig:
        """The configuration of the cell with ``key``."""
        return RunConfig(family=self.family, span_symbols=self.span_symbols,
                         estimator=self.estimator, samples=self.samples,
                         seed=self.seed, schema_version=self.schema_version,
                         **{field: v for (_, field), v in zip(_AXES, key)})

    def cells(self):
        """All cell configurations, in the canonical order."""
        return map(self.cell, self.cell_keys())

    def n_cells(self) -> int:
        return math.prod(len(getattr(self, axis)) for axis, _ in _AXES)


def default_grid() -> SweepConfig:
    """The standard raised-cosine study grid."""
    return SweepConfig(
        family="rrc",
        beta=tuple(round(i / 10, 12) for i in range(11)),
        ratio=tuple(round(1 + i / 10, 12) for i in range(11)),
        snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        oversampling=(1, 4),
        alphabets=("4qam", "16qam"))


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One evaluated grid cell, as stored in the sweep CSV."""

    alphabet: str
    oversampling: int
    family: str
    beta: float
    ratio: float
    snr_db: float
    rate_bpcu: float
    rate_3db: float
    stderr: float
    samples: int
    seed: int

    @classmethod
    def from_result(cls, res: RateResult) -> "SweepRow":
        cfg = res.config
        return cls(alphabet=cfg.alphabet, oversampling=cfg.oversampling,
                   family=cfg.family, beta=cfg.shape,
                   ratio=cfg.signaling_ratio, snr_db=cfg.snr_db,
                   rate_bpcu=res.rate_bpcu, rate_3db=res.rate_3db,
                   stderr=res.stderr, samples=res.samples, seed=cfg.seed)

    def key(self) -> tuple:
        return (self.alphabet, self.oversampling, self.beta, self.ratio,
                self.snr_db)

    def to_csv_line(self) -> str:
        return ",".join([
            self.alphabet, str(self.oversampling), self.family,
            repr(self.beta), repr(self.ratio), repr(self.snr_db),
            repr(self.rate_bpcu), repr(self.rate_3db), repr(self.stderr),
            str(self.samples), str(self.seed)])

    @classmethod
    def from_csv_line(cls, line: str) -> "SweepRow":
        parts = line.split(",")
        if len(parts) != 11:
            raise GridMismatchError(f"malformed sweep row: {line!r}")
        row = cls(alphabet=parts[0], oversampling=int(parts[1]),
                  family=parts[2], beta=float(parts[3]),
                  ratio=float(parts[4]), snr_db=float(parts[5]),
                  rate_bpcu=float(parts[6]), rate_3db=float(parts[7]),
                  stderr=float(parts[8]), samples=int(parts[9]),
                  seed=int(parts[10]))
        # A NaN margin would name a winner; a NaN row is no result.
        if not all(map(math.isfinite,
                       (row.rate_bpcu, row.rate_3db, row.stderr))):
            raise GridMismatchError(f"non-finite rate in sweep row: {line!r}")
        return row


@dataclasses.dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple


def sweep_csv_text(config: SweepConfig, lines) -> str:
    """The sweep file of ``config``: the config echo line, the header, and
    the rendered rows ``lines``, which must come in canonical cell order."""
    return "\n".join([f"# config: {config.canonical_json()}", SWEEP_HEADER,
                      *lines, ""])


def load_sweep_csv(path) -> SweepResult:
    """Read a sweep file, verifying the config echo and every row; rows
    come back in canonical cell order.

    Anything but a sweep file of a valid grid (text that does not decode,
    a config line that is not JSON or not a whole grid, a row that does
    not parse, holds a non-finite rate or stderr, is no cell of the grid,
    repeats one or contradicts its pulse, seed or samples) raises
    :class:`GridMismatchError`.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as err:
        raise GridMismatchError(f"{path}: not a text file: {err}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# config: "):
        raise GridMismatchError(f"{path}: missing sweep config line")
    try:
        config = SweepConfig.from_dict(
            json.loads(lines[0][len("# config: "):]))
    except (TypeError, ValueError) as err:
        raise GridMismatchError(
            f"{path}: malformed sweep config line: {err}") from None
    if len(lines) < 2 or lines[1] != SWEEP_HEADER:
        raise GridMismatchError(f"{path}: missing sweep header")
    # What every row of the grid repeats: exact cells record no samples.
    fixed = (config.family, config.seed,
             config.samples if config.estimator == "mc" else 0)
    slots = dict.fromkeys(config.cell_keys())
    for line in lines[2:]:
        try:
            row = SweepRow.from_csv_line(line)
        except ValueError:
            raise GridMismatchError(
                f"{path}: malformed sweep row: {line!r}") from None
        key = row.key()
        if key not in slots:
            raise GridMismatchError(
                f"{path}: row {key} is not a cell of the stored grid")
        if slots[key] is not None:
            raise GridMismatchError(f"{path}: duplicate row {key}")
        if (row.family, row.seed, row.samples) != fixed:
            raise GridMismatchError(
                f"{path}: row {key} (pulse {row.family}, seed {row.seed}, "
                f"samples {row.samples}) contradicts the stored grid")
        slots[key] = row
    return SweepResult(config=config,
                       rows=tuple(filter(None, slots.values())))


def replace_text(path: Path, text: str) -> None:
    """Write ``path`` whole through a sibling temp file and ``os.replace``,
    following a symlink and keeping a file's mode; a target that is no
    regular file (``/dev/stdout``) is written through."""
    target, mode = _resolve_target(path)
    if mode is not None and not stat.S_ISREG(mode):
        target.write_text(text)
        return
    _replace_file(target, text, mode)


def _resolve_target(path) -> tuple:
    """The file ``path`` names, symlinks followed, and its ``st_mode``, or
    None while it does not exist."""
    target = Path(os.path.realpath(path))
    try:
        return target, target.stat().st_mode
    except FileNotFoundError:
        return target, None


def _replace_file(target: Path, text: str, mode) -> None:
    """Write ``target`` whole through a sibling temp file and
    ``os.replace``, giving it the permission bits of ``mode`` unless that
    is None."""
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        tmp.write_text(text)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def run_sweep(config: SweepConfig, out_path, *, workers: int = 1,
              progress=None) -> SweepResult:
    """Evaluate a grid, resuming from ``out_path`` when it already exists.

    An existing path that is no regular file raises :class:`ValueError`
    before it is read; one that does not echo the same canonical
    configuration raises :class:`GridMismatchError` rather than
    overwriting foreign results.  Completed cells are reused, missing
    ones are evaluated (``workers`` cells in parallel), and each row is
    rendered once, into its cell's slot.  After every recorded cell the
    file is rewritten whole from the slots, in canonical order, as
    :func:`replace_text` writes it, so an interrupted run or a failed
    write loses no recorded cell and every rewrite holds the same rows on
    every run; the path, a symlink followed, and the file's mode are read
    once per sweep.  A sweep with no cell left to compute rewrites the
    file once.
    A grid with a cell that its estimator would refuse raises that
    cell's refusal before any cell runs or the file is written.
    ``progress`` is called after every newly computed cell with
    (completed cells, total cells, cell key), and with key ``None`` once
    an existing file is accepted.  An exception, from a cell,
    ``progress`` or Ctrl-C, stops the sweep: queued cells are cancelled,
    cells already running finish unrecorded, and the exception
    propagates with every recorded cell already in the file.  The
    returned rows are the file's, in canonical order.
    """
    out_path = Path(out_path)
    # Cell key -> rendered row once recorded, in canonical cell order.
    slots = dict.fromkeys(config.cell_keys())
    total = len(slots)
    # Every rewrite replaces this file and gives it this mode.
    target, mode = _resolve_target(out_path)
    if mode is not None:
        if not stat.S_ISREG(mode):  # a pipe or device: reading may hang
            raise ValueError(
                f"{out_path}: a sweep file must be a regular file")
        previous = load_sweep_csv(out_path)
        if previous.config != config:
            raise GridMismatchError(
                f"{out_path}: existing sweep was built from a different "
                f"grid (stored {previous.config.fingerprint()}, "
                f"requested {config.fingerprint()})")
        for row in previous.rows:
            slots[row.key()] = row.to_csv_line()
        if progress is not None:
            progress(len(previous.rows), total, None)
    # No refusal depends on SNR: one cell per (alphabet, M, shape, ratio)
    # speaks for the grid.
    for key in dict.fromkeys(key[:4] for key in config.cell_keys()):
        check_config(config.cell(key + config.snr_db[:1]))

    todo = [key for key, line in slots.items() if line is None]
    done = total - len(todo)

    def flush():
        _replace_file(target,
                      sweep_csv_text(config, filter(None, slots.values())),
                      mode)

    with in_order(rate_for_config, map(config.cell, todo), workers) as cells:
        # Results are recorded, and the file rewritten, in the calling
        # thread only.
        for key, res in zip(todo, cells):
            slots[key] = SweepRow.from_result(res).to_csv_line()
            done += 1
            flush()
            if progress is not None:
                progress(done, total, key)
    # The last cell's rewrite wrote the final text; a sweep with nothing
    # left to compute rewrites its file once.
    if not todo:
        flush()
    return SweepResult(config=config,
                       rows=tuple(map(SweepRow.from_csv_line, slots.values())))


def merge_sweeps(a: SweepResult, b: SweepResult) -> SweepResult:
    """Join two sweeps that differ only in their alphabet axis.

    Every other grid parameter must match exactly and the alphabet sets
    must be disjoint; anything else raises :class:`GridMismatchError`.
    """
    cfg_a, cfg_b = a.config, b.config
    grid_a, grid_b = cfg_a.to_dict(), cfg_b.to_dict()
    del grid_a["alphabets"], grid_b["alphabets"]
    if grid_a != grid_b:
        raise GridMismatchError(
            f"sweeps describe different grids ({cfg_a.fingerprint()} vs "
            f"{cfg_b.fingerprint()})")
    overlap = set(cfg_a.alphabets) & set(cfg_b.alphabets)
    if overlap:
        raise GridMismatchError(
            f"sweeps share alphabets {sorted(overlap)}; nothing to join")
    merged = dataclasses.replace(
        cfg_a, alphabets=cfg_a.alphabets + cfg_b.alphabets)
    return SweepResult(config=merged, rows=a.rows + b.rows)


def _slice(result: SweepResult, alphabets, oversampling: int,
           snr_db: float) -> dict:
    """The rows of the (shape, ratio) planes of ``alphabets`` at one
    (M, SNR) by cell key; a slice off the grid or incomplete raises
    :class:`GridMismatchError`."""
    cfg = result.config
    if not set(alphabets) <= set(cfg.alphabets) \
            or oversampling not in cfg.oversampling \
            or snr_db not in cfg.snr_db:
        raise GridMismatchError(
            f"slice ({', '.join(alphabets)}, M={oversampling}, {snr_db} dB) "
            f"is not part of the grid")
    cells = dict.fromkeys(itertools.product(
        alphabets, (oversampling,), cfg.beta, cfg.ratio, (snr_db,)))
    for row in result.rows:
        if row.key() in cells:
            cells[row.key()] = row
    missing = [key for key, row in cells.items() if row is None]
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise GridMismatchError(
            f"sweep is missing {len(missing)} cells: {shown}{more}")
    return cells


def find_optimum(result: SweepResult, *, alphabet: str, oversampling: int,
                 snr_db: float) -> SweepRow:
    """The row of the slice's (shape, ratio) cell of best normalized rate.

    The slice must be complete.  Exact rate ties resolve toward the
    smaller ratio, then the smaller shape value, so the reported optimum
    never claims more aggressive signaling than necessary.
    """
    rows = _slice(result, (alphabet,), oversampling, snr_db).values()
    return min(rows, key=lambda row: (-row.rate_3db, row.ratio, row.beta))


@dataclasses.dataclass(frozen=True)
class RegionRow:
    beta: float
    ratio: float
    winner: str
    margin: float
    ftn_flag: int


@dataclasses.dataclass(frozen=True)
class RegionMap:
    snr_db: float
    oversampling: int
    rows: tuple


def region_compare(result: SweepResult, *, snr_db: float,
                   oversampling: int) -> RegionMap:
    """Compare alphabets cell by cell on one (shape, ratio) plane.

    ``margin`` is the 16-point rate advantage over the 4-point rate in
    normalized bits; a cell within three combined standard errors of
    zero is a tie.  ``ftn_flag`` marks cells whose signaling ratio
    exceeds 1 + shape, the regime a bandlimited linear receiver could
    not separate.
    """
    cfg = result.config
    cells = _slice(result, ("4qam", "16qam"), oversampling, snr_db)
    rows = []
    for beta in cfg.beta:
        for ratio in cfg.ratio:
            low = cells[("4qam", oversampling, beta, ratio, snr_db)]
            high = cells[("16qam", oversampling, beta, ratio, snr_db)]
            margin = high.rate_3db - low.rate_3db
            spread = 3.0 * float(np.hypot(low.stderr, high.stderr))
            if abs(margin) <= spread:
                winner = "tie"
            else:
                winner = "16qam" if margin > 0 else "4qam"
            rows.append(RegionRow(beta=beta, ratio=ratio, winner=winner,
                                  margin=margin,
                                  ftn_flag=int(ratio > 1.0 + beta)))
    return RegionMap(snr_db=snr_db, oversampling=oversampling,
                     rows=tuple(rows))


def write_region_csv(region: RegionMap, destination, *,
                     comment: str) -> None:
    """Write a region map as CSV, with ``comment`` as a config line,
    through :func:`replace_text`."""
    lines = [f"# config: {comment}", REGION_HEADER]
    for row in region.rows:
        lines.append(f"{row.beta!r},{row.ratio!r},{row.winner},"
                     f"{row.margin!r},{row.ftn_flag}")
    replace_text(Path(destination), "\n".join(lines) + "\n")
