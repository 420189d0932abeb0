"""Sweep grid, CSV persistence, optimum search, and region map tests.

Groups:
 1. Grid definition: default axes, cell order, counts, validation.
 2. CSV round trips and the config echo line.
 3. Running sweeps: determinism, resume, mismatch refusal, workers,
    stopping, writes through a path that is no regular file, one render
    per row, one file replacement per computed cell, canonical order
    from a shuffled file.
 4. Optimum search: completeness, tie-breaking.
 5. Region comparison: winners, ties, flags, CSV format.
"""

import dataclasses
import json
import os
import random
import stat
import time
from pathlib import Path

import pytest

from signrate import sweeps
from signrate.errors import GridMismatchError
from signrate.rates import RateResult
from signrate.sweeps import (
    REGION_HEADER,
    SWEEP_HEADER,
    SweepConfig,
    SweepResult,
    SweepRow,
    default_grid,
    find_optimum,
    load_sweep_csv,
    region_compare,
    replace_text,
    run_sweep,
    sweep_csv_text,
    write_region_csv,
)


def _tiny_sweep(**overrides):
    base = dict(family="rrc", beta=(0.2,), ratio=(1.0, 1.25),
                snr_db=(5.0,), oversampling=(1,),
                alphabets=("4qam", "16qam"), estimator="enum",
                samples=1000, seed=0)
    base.update(overrides)
    return SweepConfig(**base)


def _stub_rate(cfg):
    """A rate result at once, for tests of the sweep bookkeeping."""
    rate = cfg.shape + cfg.signaling_ratio / 3 + cfg.snr_db / 100
    return RateResult(config=cfg, mutual_information=rate / 2,
                      rate_bpcu=rate, rate_3db=rate * cfg.signaling_ratio,
                      stderr=0.001 * rate, method=cfg.estimator,
                      samples=cfg.samples if cfg.estimator == "mc" else 0)


def _row(alphabet="4qam", m=1, beta=0.2, ratio=1.0, snr=5.0,
         rate=1.0, stderr=0.001):
    return SweepRow(alphabet=alphabet, oversampling=m, family="rrc",
                    beta=beta, ratio=ratio, snr_db=snr, rate_bpcu=rate,
                    rate_3db=rate * ratio, stderr=stderr, samples=1000,
                    seed=0)


# -- Group 1: grid definition ------------------------------------------------------

def test_default_grid_axes():
    grid = default_grid()
    assert grid.family == "rrc"
    assert grid.beta == tuple(i / 10 for i in range(11))
    assert grid.ratio[0] == 1.0 and grid.ratio[-1] == 2.0
    assert len(grid.ratio) == 11
    assert grid.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert grid.oversampling == (1, 4)
    assert grid.alphabets == ("4qam", "16qam")
    assert grid.n_cells() == 2 * 2 * 11 * 11 * 7


def test_cell_order_is_lexicographic():
    grid = _tiny_sweep()
    keys = [(c.alphabet, c.oversampling, c.shape, c.signaling_ratio, c.snr_db)
            for c in grid.cells()]
    assert keys == [
        ("4qam", 1, 0.2, 1.0, 5.0),
        ("4qam", 1, 0.2, 1.25, 5.0),
        ("16qam", 1, 0.2, 1.0, 5.0),
        ("16qam", 1, 0.2, 1.25, 5.0),
    ]
    assert grid.n_cells() == 4


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        _tiny_sweep(beta=())
    with pytest.raises(ValueError):
        _tiny_sweep(ratio=(1.0, 1.0))
    with pytest.raises(ValueError):
        _tiny_sweep(alphabets=("4qam", "8psk"))
    with pytest.raises(ValueError):
        _tiny_sweep(family="sinc")
    with pytest.raises(ValueError):
        _tiny_sweep(estimator="exact")
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"family": "rrc", "betas": [0.1]})
    # The probe cells check the schema version, as RunConfig does.
    with pytest.raises(ValueError, match="unsupported schema version 2"):
        _tiny_sweep(schema_version=2)


def test_sweep_config_validates_every_axis_value():
    # An invalid value anywhere on an axis is refused at construction,
    # not when its cells come up mid-run.
    with pytest.raises(ValueError, match="roll-off"):
        _tiny_sweep(beta=(0.5, 1.5))
    with pytest.raises(ValueError, match="signaling ratio"):
        _tiny_sweep(ratio=(1.0, 1.25, 0.5))
    with pytest.raises(ValueError, match="oversampling"):
        _tiny_sweep(oversampling=(1, 0))
    with pytest.raises(ValueError, match="snr_db"):
        _tiny_sweep(snr_db=(5.0, "high"))


def test_sweep_config_canonicalizes_numeric_types():
    typed = _tiny_sweep(beta=(1,), ratio=(1, 1.25), snr_db=(5,),
                        oversampling=(2.0,), span_symbols=9.0,
                        samples=1000.0, seed=0.0)
    spelled = _tiny_sweep(beta=(1.0,), ratio=(1.0, 1.25), snr_db=(5.0,),
                          oversampling=(2,))
    assert typed.canonical_json() == spelled.canonical_json()
    assert typed.fingerprint() == spelled.fingerprint()
    assert type(typed.oversampling[0]) is int
    assert type(typed.beta[0]) is float
    assert [c.fingerprint() for c in typed.cells()] == [
        c.fingerprint() for c in spelled.cells()]
    with pytest.raises(ValueError, match="oversampling must be an integer"):
        _tiny_sweep(oversampling=(2.5,))
    with pytest.raises(ValueError, match="seed must be an integer"):
        _tiny_sweep(seed=0.5)
    with pytest.raises(ValueError, match="duplicate"):
        _tiny_sweep(oversampling=(2, 2.0))


def test_sweep_config_json_roundtrip():
    grid = _tiny_sweep()
    again = SweepConfig.from_dict(json.loads(grid.canonical_json()))
    assert again == grid
    assert again.fingerprint() == grid.fingerprint()
    assert grid.fingerprint() != _tiny_sweep(seed=1).fingerprint()


# -- Group 2: CSV round trips --------------------------------------------------------

def test_row_csv_roundtrip():
    row = _row(rate=1.2345678901234567, stderr=3.21e-05)
    again = SweepRow.from_csv_line(row.to_csv_line())
    assert again == row


def test_sweep_csv_text_layout():
    grid = _tiny_sweep()
    rows = (_row(), _row(alphabet="16qam", rate=1.5))
    text = sweep_csv_text(grid, [row.to_csv_line() for row in rows])
    lines = text.splitlines()
    assert lines[0] == f"# config: {grid.canonical_json()}"
    assert lines[1] == SWEEP_HEADER
    # A partial result: the lines follow the header in the order given.
    assert lines[2].startswith("4qam,1,rrc,0.2,1.0,5.0,")
    assert lines[3].startswith("16qam,1,rrc,0.2,1.0,5.0,")


def test_load_rejects_foreign_rows(tmp_path):
    grid = _tiny_sweep()
    good = sweep_csv_text(grid, [_row().to_csv_line()])
    bad_row = good + _row(beta=0.9).to_csv_line() + "\n"
    path = tmp_path / "sweep.csv"
    path.write_text(bad_row)
    with pytest.raises(GridMismatchError):
        load_sweep_csv(path)
    path.write_text(good + _row().to_csv_line() + "\n")
    with pytest.raises(GridMismatchError):
        load_sweep_csv(path)
    path.write_text("alphabet,M\n")
    with pytest.raises(GridMismatchError):
        load_sweep_csv(path)
    # A config line that is not a whole grid or not JSON, a row field that
    # is not a number, and bytes that are not text name the file instead
    # of leaking a TypeError or a bare ValueError.
    header = f"{SWEEP_HEADER}\n"
    bad_field = _row().to_csv_line().replace(",0.2,", ",zero,")
    for data in (('# config: {"family": "rrc"}\n' + header).encode(),
                 ("# config: {not json\n" + header).encode(),
                 (good + bad_field + "\n").encode(),
                 b"\xff\xfe\x00bad"):
        path.write_bytes(data)
        with pytest.raises(GridMismatchError) as info:
            load_sweep_csv(path)
        assert str(info.value).startswith(f"{path}: ")


# -- Group 3: running sweeps ------------------------------------------------------------

def test_run_sweep_completes_grid(tmp_path):
    grid = _tiny_sweep()
    out = tmp_path / "sweep.csv"
    result = run_sweep(grid, out)
    assert len(result.rows) == 4
    keys = [row.key() for row in result.rows]
    assert keys == [(c.alphabet, c.oversampling, c.shape, c.signaling_ratio,
                     c.snr_db) for c in grid.cells()]
    assert all(row.rate_bpcu > 0 for row in result.rows)
    assert all(row.stderr == 0.0 for row in result.rows)


def test_run_sweep_is_deterministic_and_resumable(tmp_path):
    grid = _tiny_sweep(estimator="mc", samples=20000)
    first = tmp_path / "a.csv"
    run_sweep(grid, first, workers=2)
    bytes_first = first.read_bytes()

    # A fresh run with a different worker count produces the same file.
    second = tmp_path / "b.csv"
    run_sweep(grid, second, workers=1)
    assert second.read_bytes() == bytes_first

    # Dropping rows and resuming recomputes only the missing cells and
    # restores the identical file; progress reports the resumed rows
    # once, with no cell key.
    lines = bytes_first.decode().splitlines()
    second.write_text("\n".join(lines[:-2]) + "\n")
    calls = []
    run_sweep(grid, second, workers=1,
              progress=lambda *args: calls.append(args))
    assert second.read_bytes() == bytes_first
    assert [(done, total, key is None) for done, total, key in calls] == [
        (2, 4, True), (3, 4, False), (4, 4, False)]

    # Rerunning a complete file leaves it untouched.
    run_sweep(grid, second)
    assert second.read_bytes() == bytes_first


def test_replace_text_writes_through_a_non_regular_file(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # A non-blocking reader lets the write open the pipe without waiting.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        replace_text(fifo, "row\n")
        assert os.read(reader, 64) == b"row\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


# A resumed sweep mixes rows written by the code that started it and the
# code that finishes it, so the full text of a small Monte Carlo sweep is
# pinned: a change to the MC stream, the rate arithmetic, the number
# spelling or the config echo shows up here.
PINNED_SWEEP_CSV = """\
# config: {"alphabets":["4qam","16qam"],"beta":[0.5],"estimator":"mc","family":"rrc","oversampling":[1,2],"ratio":[1.25],"samples":100000,"schema_version":1,"seed":7,"snr_db":[10.0,25.0],"span_symbols":9}
alphabet,M,pulse,beta,ratio,snr_db,rate_bpcu,rate_3db,stderr,samples,seed
4qam,1,rrc,0.5,1.25,10.0,1.8194948629302994,2.274368578662874,0.0070076721648560936,100000,7
4qam,1,rrc,0.5,1.25,25.0,2.0,2.5,0.0,100000,7
4qam,2,rrc,0.5,1.25,10.0,1.8224950302210203,2.2781187877762754,0.0032225451440088815,100000,7
4qam,2,rrc,0.5,1.25,25.0,2.0,2.5,0.0,100000,7
16qam,1,rrc,0.5,1.25,10.0,1.3485717971538693,1.6857147464423368,0.01120090615974667,100000,7
16qam,1,rrc,0.5,1.25,25.0,1.564962362890404,1.9562029536130048,0.0038530608083370277,100000,7
16qam,2,rrc,0.5,1.25,10.0,1.4065931678404104,1.7582414598005132,0.0006433521290573063,100000,7
16qam,2,rrc,0.5,1.25,25.0,1.659080262785336,2.07385032848167,0.0030829732076791405,100000,7
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_reproduces_pinned_csv(tmp_path, workers):
    # Axes spelled as a hand-written grid file might spell them.
    grid = SweepConfig.from_dict({
        "family": "rrc", "beta": [0.5], "ratio": [1.25],
        "snr_db": [10, 25], "oversampling": [1.0, 2],
        "alphabets": ["4qam", "16qam"], "samples": 100000, "seed": 7})
    out = tmp_path / "sweep.csv"
    run_sweep(grid, out, workers=workers)
    assert out.read_text() == PINNED_SWEEP_CSV


def test_failed_flush_keeps_previous_file_resumable(tmp_path, monkeypatch):
    grid = _tiny_sweep(estimator="mc", samples=20000)
    reference = tmp_path / "reference" / "sweep.csv"
    reference.parent.mkdir()
    run_sweep(grid, reference)
    complete = reference.read_bytes()

    out = tmp_path / "sweep.csv"
    partial = "\n".join(complete.decode().splitlines()[:-2]) + "\n"
    out.write_text(partial)
    real_write = Path.write_text

    def write_half(path, text, *args, **kwargs):
        real_write(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    with pytest.raises(OSError, match="no space"):
        run_sweep(grid, out)
    monkeypatch.undo()

    assert out.read_text() == partial
    assert len(load_sweep_csv(out).rows) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "reference", "sweep.csv"]
    run_sweep(grid, out)
    assert out.read_bytes() == complete


@pytest.mark.parametrize("workers, stop", [
    (2, RuntimeError), (2, KeyboardInterrupt), (1, RuntimeError)])
def test_stopped_sweep_cancels_queued_cells(tmp_path, monkeypatch, workers,
                                            stop):
    # 20 cells; the progress callback stops the sweep at the first one.
    grid = _tiny_sweep(beta=(0.2, 0.5), ratio=(1.0, 1.25, 1.5, 1.75, 2.0),
                       estimator="mc", samples=2000)
    reference = tmp_path / "reference.csv"
    run_sweep(grid, reference, workers=1)

    real_rate = sweeps.rate_for_config
    calls = []

    def counted_rate(cfg):
        calls.append(cfg)
        time.sleep(0.02)
        return real_rate(cfg)

    def stop_at_first(done, total, key):
        raise stop("stop")

    monkeypatch.setattr(sweeps, "rate_for_config", counted_rate)
    out = tmp_path / "sweep.csv"
    # The caller keeps the exception, and with it run_sweep's frame.
    with pytest.raises(stop) as raised:
        run_sweep(grid, out, workers=workers, progress=stop_at_first)
    # Queued cells never ran (besides the recorded one, only cells
    # already running when the sweep stopped), nor do they start once
    # the sweep has returned; the recorded cell was flushed before the
    # sweep stopped.
    stopped = len(calls)
    time.sleep(0.2)
    assert len(calls) == stopped < grid.n_cells() // 2
    assert len(load_sweep_csv(out).rows) == 1

    calls.clear()
    run_sweep(grid, out, workers=workers)
    assert len(calls) == grid.n_cells() - 1
    assert out.read_bytes() == reference.read_bytes()


def test_run_sweep_refuses_mismatched_file(tmp_path):
    out = tmp_path / "sweep.csv"
    run_sweep(_tiny_sweep(), out)
    with pytest.raises(GridMismatchError):
        run_sweep(_tiny_sweep(seed=1), out)
    with pytest.raises(GridMismatchError):
        run_sweep(_tiny_sweep(samples=2000, estimator="mc"), out)
    out.write_text("not a sweep\n")
    with pytest.raises(GridMismatchError):
        run_sweep(_tiny_sweep(), out)


def test_each_row_is_rendered_once(tmp_path, monkeypatch):
    # Every rewrite used to render every recorded row again: about n^2/2
    # renders for an n-cell sweep.
    grid = dataclasses.replace(default_grid(), snr_db=(0.0, 10.0, 20.0))
    assert grid.n_cells() >= 1000
    renders = []
    real_render = SweepRow.to_csv_line

    def counted_render(row):
        renders.append(row.key())
        return real_render(row)

    monkeypatch.setattr(sweeps, "rate_for_config", _stub_rate)
    monkeypatch.setattr(SweepRow, "to_csv_line", counted_render)
    out = tmp_path / "sweep.csv"
    result = run_sweep(grid, out)
    assert len(renders) <= grid.n_cells()
    assert result.rows == load_sweep_csv(out).rows
    complete = out.read_bytes()

    # A resume renders each existing row once and each new row once.
    kept = complete.decode().splitlines()[:2 + grid.n_cells() // 2]
    out.write_text("\n".join(kept) + "\n")
    renders.clear()
    result = run_sweep(grid, out)
    assert len(renders) <= grid.n_cells()
    assert out.read_bytes() == complete
    assert result.rows == load_sweep_csv(out).rows


def test_sweep_replaces_its_file_once_per_cell(tmp_path, monkeypatch):
    # A sweep replaces its file once per computed cell, with no extra
    # rewrite after the last; a no-op resume replaces it once.  Through
    # a symlink, the link and the mode of the file it names survive.
    monkeypatch.setattr(sweeps, "rate_for_config", _stub_rate)
    replaced = []
    real_replace = os.replace

    def counted_replace(src, dst, *args, **kwargs):
        replaced.append(Path(dst))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", counted_replace)
    grid = _tiny_sweep(beta=(0.2, 0.5), ratio=(1.0, 1.25, 1.5))
    target = tmp_path / "data" / "sweep.csv"
    target.parent.mkdir()
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    run_sweep(grid, link)
    assert replaced == [target] * grid.n_cells()
    complete = target.read_bytes()

    # A resume that computes five cells, into a file of mode 0o640.
    rows = complete.decode().splitlines()
    target.write_text("\n".join(rows[:-5]) + "\n")
    target.chmod(0o640)
    replaced.clear()
    run_sweep(grid, link)
    assert replaced == [target] * 5
    assert link.is_symlink() and link.resolve() == target
    assert target.stat().st_mode & 0o777 == 0o640
    assert target.read_bytes() == complete

    replaced.clear()
    run_sweep(grid, link)
    assert replaced == [target]
    assert target.read_bytes() == complete
    assert sorted(p.name for p in target.parent.iterdir()) == ["sweep.csv"]


def test_shuffled_file_loads_and_resumes_in_canonical_order(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(sweeps, "rate_for_config", _stub_rate)
    grid = _tiny_sweep(beta=(0.2, 0.5), ratio=(1.0, 1.25, 1.5))
    clean = tmp_path / "clean.csv"
    run_sweep(grid, clean)
    head = clean.read_text().splitlines()[:2]
    rows = clean.read_text().splitlines()[2:]
    # Two rows missing, the rest shuffled and apart by blank lines.
    kept = [rows[i] for i in range(len(rows)) if i not in (3, 7)]
    shuffled = random.Random(5).sample(kept, len(kept))
    out = tmp_path / "shuffled.csv"
    out.write_text("\n".join(head) + "\n\n" + "\n \n".join(shuffled) + "\n")
    loaded = load_sweep_csv(out)
    assert [row.to_csv_line() for row in loaded.rows] == kept
    result = run_sweep(grid, out)
    assert out.read_bytes() == clean.read_bytes()
    assert result.rows == load_sweep_csv(clean).rows


# -- Group 4: optimum search -----------------------------------------------------------------

def _synthetic_result():
    grid = _tiny_sweep(beta=(0.2, 0.5), estimator="mc", samples=1000)
    rows = []
    rates = {
        (0.2, 1.0): 1.00, (0.2, 1.25): 1.10,
        (0.5, 1.0): 0.90, (0.5, 1.25): 1.05,
    }
    for alphabet in ("4qam", "16qam"):
        for (beta, ratio), rate in rates.items():
            bump = 0.2 if alphabet == "16qam" else 0.0
            rows.append(_row(alphabet=alphabet, beta=beta, ratio=ratio,
                             rate=rate + bump))
    return SweepResult(config=grid, rows=tuple(rows))


def test_find_optimum_picks_best_normalized_rate():
    result = _synthetic_result()
    best = find_optimum(result, alphabet="4qam", oversampling=1, snr_db=5.0)
    assert best == _row(beta=0.2, ratio=1.25, rate=1.10)
    assert best.rate_3db == pytest.approx(1.10 * 1.25)
    best16 = find_optimum(result, alphabet="16qam", oversampling=1, snr_db=5.0)
    assert best16.rate_3db == pytest.approx(1.30 * 1.25)


def test_find_optimum_breaks_ties_toward_smaller_cells():
    grid = _tiny_sweep(beta=(0.2, 0.5), estimator="mc", samples=1000)
    rows = tuple(
        _row(alphabet=a, beta=b, ratio=r, rate=1.0 / r)
        for a in ("4qam", "16qam") for b in (0.2, 0.5) for r in (1.0, 1.25))
    result = SweepResult(config=grid, rows=rows)
    best = find_optimum(result, alphabet="4qam", oversampling=1, snr_db=5.0)
    assert (best.beta, best.ratio) == (0.2, 1.0)


def test_find_optimum_requires_complete_slice():
    result = _synthetic_result()
    partial = SweepResult(config=result.config, rows=result.rows[:-1])
    with pytest.raises(GridMismatchError) as info:
        find_optimum(partial, alphabet="16qam", oversampling=1, snr_db=5.0)
    assert "missing 1 cells" in str(info.value)
    with pytest.raises(GridMismatchError):
        find_optimum(result, alphabet="4qam", oversampling=4, snr_db=5.0)


# -- Group 5: region comparison -----------------------------------------------------------------

def test_region_compare_winners_and_flags():
    grid = _tiny_sweep(beta=(0.1, 0.4), estimator="mc", samples=1000)
    rows = []
    # beta 0.1: 16qam clearly ahead; beta 0.4: 4qam ahead at ratio 1,
    # dead heat at ratio 1.25.
    plan = {
        ("4qam", 0.1, 1.0): (1.00, 0.001), ("16qam", 0.1, 1.0): (1.30, 0.001),
        ("4qam", 0.1, 1.25): (1.00, 0.001), ("16qam", 0.1, 1.25): (1.28, 0.001),
        ("4qam", 0.4, 1.0): (1.20, 0.001), ("16qam", 0.4, 1.0): (1.00, 0.001),
        ("4qam", 0.4, 1.25): (1.00, 0.01), ("16qam", 0.4, 1.25): (1.01, 0.01),
    }
    for (alphabet, beta, ratio), (rate, se) in plan.items():
        rows.append(_row(alphabet=alphabet, beta=beta, ratio=ratio,
                         rate=rate, stderr=se))
    region = region_compare(SweepResult(config=grid, rows=tuple(rows)),
                            snr_db=5.0, oversampling=1)
    by_cell = {(r.beta, r.ratio): r for r in region.rows}
    assert by_cell[(0.1, 1.0)].winner == "16qam"
    assert by_cell[(0.1, 1.25)].winner == "16qam"
    assert by_cell[(0.4, 1.0)].winner == "4qam"
    assert by_cell[(0.4, 1.25)].winner == "tie"
    # ratio > 1 + beta only holds for the narrow pulse at high ratio.
    assert by_cell[(0.1, 1.25)].ftn_flag == 1
    assert by_cell[(0.1, 1.0)].ftn_flag == 0
    assert by_cell[(0.4, 1.25)].ftn_flag == 0
    assert {r.winner for r in region.rows} == {"4qam", "16qam", "tie"}


def test_region_compare_requires_both_alphabets():
    grid = _tiny_sweep(alphabets=("4qam",))
    result = SweepResult(config=grid, rows=(_row(), _row(ratio=1.25)))
    with pytest.raises(GridMismatchError):
        region_compare(result, snr_db=5.0, oversampling=1)


def test_region_csv_format(tmp_path):
    region = region_compare(_synthetic_result(), snr_db=5.0, oversampling=1)
    path = tmp_path / "regions.csv"
    write_region_csv(region, path, comment='{"snr_db":5.0}')
    lines = path.read_text().splitlines()
    assert lines[0] == '# config: {"snr_db":5.0}'
    assert lines[1] == REGION_HEADER
    assert len(lines) == 2 + 4
    beta, ratio, winner, margin, flag = lines[2].split(",")
    assert float(beta) == 0.2 and float(ratio) == 1.0
    assert winner == "16qam"
    assert float(margin) == pytest.approx(0.2)
    assert flag in {"0", "1"}


def test_failed_region_write_keeps_previous_file(tmp_path, monkeypatch):
    region = region_compare(_synthetic_result(), snr_db=5.0, oversampling=1)
    path = tmp_path / "regions.csv"
    write_region_csv(region, path, comment="{}")
    previous = path.read_bytes()
    real_write = Path.write_text

    def write_half(path, text, *args, **kwargs):
        real_write(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    with pytest.raises(OSError, match="no space"):
        write_region_csv(region, path, comment="{}")
    monkeypatch.undo()

    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["regions.csv"]
