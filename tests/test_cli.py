"""Command line interface tests.

Groups:
 1. taps: CSV layout, printed summary, derived center value, canonical
    echo, usage errors.
 2. rate: JSON payload, determinism, config file and overrides, refusals,
    output files that a failed write leaves whole and that a symlink
    redirects.
 3. sweep: grid runs, resume notes, mismatch exit code, worker counts,
    targets that are no regular file, rows that contradict their grid;
    with rate, non-finite or out-of-range numbers and strict JSON.
 4. regions: single and paired sweep inputs, mismatches, corrupted
    files, slice flags.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signrate
from signrate import cli
from signrate.cli import main
from signrate.errors import QuadratureToleranceError
from signrate.pulses import eval_rrc
from signrate.errors import GridMismatchError
from signrate.sweeps import SWEEP_HEADER, load_sweep_csv


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_grid(path, **overrides):
    grid = dict(family="rrc", beta=[0.2], ratio=[1.0, 1.25], snr_db=[5.0],
                oversampling=[1], alphabets=["4qam", "16qam"],
                estimator="enum", samples=1000, seed=0)
    grid.update(overrides)
    path.write_text(json.dumps(grid))
    return grid


# -- Group 1: taps -----------------------------------------------------------------

def test_taps_gaussian_csv(tmp_path, capsys):
    out = tmp_path / "taps.csv"
    code, stdout, _ = _run(capsys, [
        "taps", "--family", "gaussian", "--shape", "0.5",
        "--span", "9", "--oversampling", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "index,t,value"
    assert len(lines) == 2 + 36
    assert lines[2].split(",")[0] == "0"
    reported = dict(part.split(" ") for part in stdout.strip().splitlines())
    assert abs(float(reported["energy"]) - 1.0) < 1e-12
    assert abs(float(reported["bandwidth_3db"]) - 0.5) < 0.03


def test_taps_rrc_center_value(tmp_path, capsys):
    out = tmp_path / "taps.csv"
    code, stdout, _ = _run(capsys, [
        "taps", "--family", "rrc", "--shape", "0.5", "--out", str(out)])
    assert code == 0
    # One sample per symbol folds the excess band on top of the passband,
    # so no half-power crossing exists and the summary must say so.
    assert "bandwidth_3db nan" in stdout
    rows = [ln.split(",") for ln in out.read_text().splitlines()[2:]]
    center = {float(t): float(v) for _, t, v in rows}[0.0]
    # Recompute the truncation normalization independently.
    grid = np.arange(9) - 4.0
    values = eval_rrc(grid, 0.5)
    peak = 1.0 - 0.5 + 4.0 * 0.5 / np.pi
    assert center == pytest.approx(peak / np.sqrt(np.sum(values ** 2)),
                                   rel=1e-12)


def test_taps_echo_is_canonical(tmp_path, capsys):
    # "1" and "1.0", "4.0" and "4" name the same pulse and the same file.
    outs = []
    for spelling in ({"shape": 1, "oversampling": 4.0, "span_symbols": 9.0},
                     {"shape": 1.0, "oversampling": 4, "span_symbols": 9}):
        cfg = tmp_path / f"pulse{len(outs)}.json"
        cfg.write_text(json.dumps({"family": "rrc", **spelling}))
        outs.append(tmp_path / f"taps{len(outs)}.csv")
        assert _run(capsys, ["taps", "--config", str(cfg),
                             "--out", str(outs[-1])])[0] == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().startswith(
        '# config: {"family":"rrc","oversampling":4,"shape":1.0,')


@pytest.mark.parametrize("command", ["taps", "rate"])
def test_boolean_oversampling_exits_2(tmp_path, capsys, command):
    # JSON true used to pass as 1: taps echoed it, rate ran at M = 1.
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({
        "family": "rrc", "shape": 0.5, "oversampling": True,
        "alphabet": "4qam", "snr_db": 5.0, "estimator": "enum"}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "taps":
        cfg.write_text(json.dumps({"family": "rrc", "shape": 0.5,
                                   "oversampling": True}))
    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert "oversampling must be an integer, got True" in stderr
    assert stdout == "" and not out.exists()


def test_taps_missing_fields(tmp_path, capsys):
    code, _, stderr = _run(capsys, ["taps", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "error" in stderr
    code, _, stderr = _run(capsys, ["taps", "--family", "rrc",
                                    "--shape", "0.2"])
    assert code == 2
    assert "output path" in stderr


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frequency"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["rate", "--estimator", "guess"])
    assert info.value.code == 2


# -- Group 2: rate ------------------------------------------------------------------

_RATE_ARGS = ["rate", "--family", "rrc", "--shape", "0.22",
              "--oversampling", "1", "--alphabet", "4qam",
              "--snr-db", "10", "--estimator", "enum"]


def test_rate_json_output(capsys):
    code, stdout, _ = _run(capsys, _RATE_ARGS)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["alphabet"] == "4qam"
    assert payload["config"]["estimator"] == "enum"
    assert payload["rate_bpcu"] == 2.0 * payload["mutual_information"]
    assert 0.0 < payload["rate_bpcu"] < 2.0
    assert payload["stderr"] == 0.0
    assert len(payload["fingerprint"]) == 16


def test_rate_output_is_byte_stable(capsys):
    code, first, _ = _run(capsys, _RATE_ARGS)
    assert code == 0
    code, second, _ = _run(capsys, _RATE_ARGS)
    assert code == 0
    assert first == second


def test_rate_near_zero_at_deep_negative_snr(capsys):
    argv = list(_RATE_ARGS)
    argv[argv.index("--snr-db") + 1] = "-40"
    code, stdout, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(stdout)["rate_bpcu"] < 1e-2


def test_rate_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "rate.json"
    code, stdout, _ = _run(capsys, _RATE_ARGS + ["--out", str(out)])
    assert code == 0
    assert out.read_text() == stdout


@pytest.mark.parametrize("argv", [
    _RATE_ARGS, ["taps", "--family", "rrc", "--shape", "0.5"]])
def test_failed_out_write_keeps_previous_file(tmp_path, capsys, monkeypatch,
                                              argv):
    out = tmp_path / "result"
    out.write_text("previous\n")
    real_write = Path.write_text

    def write_half(path, text, *args, **kwargs):
        real_write(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_text", write_half)
    code, _, stderr = _run(capsys, argv + ["--out", str(out)])
    monkeypatch.undo()

    assert code == 2
    assert "no space" in stderr
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result"]


def test_out_symlink_writes_its_target(tmp_path, capsys):
    target = tmp_path / "rate.json"
    target.write_text("previous\n")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, stdout, _ = _run(capsys, _RATE_ARGS + ["--out", str(link)])
    assert code == 0
    assert link.is_symlink()
    assert target.read_text() == stdout
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "rate.json"]

def test_rate_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({
        "family": "rrc", "shape": 0.22, "signaling_ratio": 1.0,
        "oversampling": 1, "alphabet": "4qam", "snr_db": 10.0,
        "estimator": "enum"}))
    code, stdout, _ = _run(capsys, ["rate", "--config", str(cfg),
                                    "--snr-db", "15"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["config"]["snr_db"] == 15.0
    assert payload["config"]["shape"] == 0.22


def test_rate_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({"family": "rrc", "shape": 0.22,
                               "bandwidth": 3.0}))
    code, _, stderr = _run(capsys, ["rate", "--config", str(cfg)])
    assert code == 2
    assert "unknown configuration keys" in stderr


@pytest.mark.parametrize("oversampling, code", [(2.0, 0), (2.5, 2)])
def test_rate_config_float_oversampling(tmp_path, capsys, oversampling, code):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({
        "family": "rrc", "shape": 0.22, "oversampling": oversampling,
        "alphabet": "4qam", "snr_db": 5.0, "estimator": "enum"}))
    got, stdout, stderr = _run(capsys, ["rate", "--config", str(cfg)])
    assert got == code
    if code == 0:
        assert json.loads(stdout)["config"]["oversampling"] == 2
    else:
        assert "oversampling must be an integer" in stderr


def test_rate_refusal_is_machine_readable(capsys):
    code, stdout, _ = _run(capsys, [
        "rate", "--family", "rrc", "--shape", "0.22", "--oversampling", "5",
        "--alphabet", "4qam", "--snr-db", "10", "--estimator", "enum"])
    assert code == 3
    payload = json.loads(stdout)
    assert payload["error"]["type"] == "CorrelatedNoiseError"
    assert "message" in payload["error"]


def test_out_flag_beats_config_out(tmp_path, capsys):
    # An "out" key in the configuration file used to reach the config
    # constructor, and exit 2 as an unknown key, whenever --out was given.
    stale, fresh = tmp_path / "stale.json", tmp_path / "fresh.json"
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps({
        "family": "rrc", "shape": 0.22, "oversampling": 1,
        "alphabet": "4qam", "snr_db": 10.0, "estimator": "enum",
        "out": str(stale)}))
    code, stdout, _ = _run(capsys, ["rate", "--config", str(cfg),
                                    "--out", str(fresh)])
    assert code == 0
    assert fresh.read_text() == stdout
    assert not stale.exists()

    grid_cfg = tmp_path / "grid.json"
    grid = _write_grid(grid_cfg)
    grid_cfg.write_text(json.dumps({**grid, "out": str(tmp_path / "a.csv")}))
    out = tmp_path / "b.csv"
    code, _, _ = _run(capsys, ["sweep", "--config", str(grid_cfg),
                               "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2 + 4
    assert not (tmp_path / "a.csv").exists()


# -- Group 3: sweep ------------------------------------------------------------------

def test_sweep_run_resume_and_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    out = tmp_path / "grid.csv"
    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--out", str(out)])
    assert code == 0
    assert "[4/4]" in stderr
    assert f"wrote {out}" in stderr
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0].startswith("# config: ")
    assert len(lines) == 2 + 4

    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--out", str(out)])
    assert code == 0
    assert "resuming" in stderr and "4 of 4" in stderr
    assert out.read_bytes() == first

    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--seed", "7", "--out", str(out)])
    assert code == 4
    assert "different" in stderr


def test_sweep_foreign_file_exits_4_without_resuming(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path, beta=[0.5], ratio=[1.0], alphabets=["4qam"])
    out = tmp_path / "grid.csv"
    code, _, _ = _run(capsys, ["sweep", "--config", str(cfg_path),
                               "--out", str(out)])
    assert code == 0
    previous = out.read_bytes()

    _write_grid(cfg_path, beta=[0.3], ratio=[1.0], alphabets=["4qam"])
    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--out", str(out)])
    assert code == 4
    assert "different" in stderr
    assert "resuming" not in stderr
    assert out.read_bytes() == previous


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["rate-mc", "rate-enum", "sweep"])
def test_workers_below_one_exit_2(tmp_path, capsys, command, workers):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    out = tmp_path / "out"
    argv = {
        "rate-mc": _RATE_ARGS[:-1] + ["mc", "--samples", "1000"],
        "rate-enum": _RATE_ARGS,
        "sweep": ["sweep", "--config", str(cfg_path)],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--workers", workers, "--out", str(out)])
    assert info.value.code == 2
    assert "--workers: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr_db", ["nan", "inf", "-inf", "1e308", "-4000"])
@pytest.mark.parametrize("command", ["rate-mc", "rate-enum", "sweep"])
def test_snr_outside_its_range_exits_2(tmp_path, capsys, command, snr_db):
    # NaN used to give rate 0 with exit 0, -4000 dB an OverflowError, and
    # a sweep with a NaN SNR wrote its file and then exited 4 on reload.
    out = tmp_path / "out"
    if command == "sweep":
        cfg_path = tmp_path / "grid.json"
        _write_grid(cfg_path, snr_db=[5.0, float(snr_db)])
        argv = ["sweep", "--config", str(cfg_path)]
    else:
        at = _RATE_ARGS.index("--snr-db")
        argv = _RATE_ARGS[:at] + _RATE_ARGS[at + 2:] + [f"--snr-db={snr_db}"]
        if command == "rate-mc":
            argv[argv.index("enum")] = "mc"
    code, stdout, stderr = _run(capsys, argv + ["--out", str(out)])
    assert code == 2
    assert "snr_db" in stderr
    assert "Traceback" not in stderr
    assert "[1/" not in stderr
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--ratio", "nan"), ("--ratio", "inf"), ("--shape", "nan")])
def test_non_finite_pulse_numbers_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "rate.json"
    argv = _RATE_ARGS + [f"{flag}={value}", "--out", str(out)]
    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert "must be a finite number" in stderr
    assert stdout == "" and not out.exists()


def test_rate_json_refuses_nan(tmp_path, capsys, monkeypatch):
    # NaN is not JSON; a result carrying one exits 2 and writes nothing.
    real = cli.rate_for_config

    def nan_rate(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   mutual_information=float("nan"))

    monkeypatch.setattr(cli, "rate_for_config", nan_rate)
    out = tmp_path / "rate.json"
    code, stdout, stderr = _run(capsys, _RATE_ARGS + ["--out", str(out)])
    assert code == 2
    assert "JSON" in stderr
    assert stdout == "" and not out.exists()


def test_nan_deviation_refusal_is_strict_json(capsys, monkeypatch):
    # A non-finite exact table is refused with deviation NaN, which JSON
    # cannot spell; the refusal object carries null instead.
    def refuse(*args, **kwargs):
        raise QuadratureToleranceError(float("nan"), 1e-6)

    monkeypatch.setattr(cli, "rate_for_config", refuse)
    code, stdout, _ = _run(capsys, _RATE_ARGS)
    assert code == 3

    def no_constants(name):
        raise AssertionError(f"{name} in the refusal object")

    payload = json.loads(stdout, parse_constant=no_constants)["error"]
    assert payload["achieved"] is None
    assert payload["requested"] == 1e-6


@pytest.mark.parametrize("overrides, message", [
    ({"beta": [0.2, 1.5]}, "roll-off"),
    ({"oversampling": [1, 2.5]}, "oversampling must be an integer"),
])
def test_sweep_refuses_invalid_axis_value(tmp_path, capsys, overrides,
                                          message):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path, **overrides)
    out = tmp_path / "grid.csv"
    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--out", str(out)])
    assert code == 2
    assert message in stderr
    assert not out.exists()


@pytest.mark.parametrize("overrides, refusal", [
    ({"oversampling": [2, 5], "alphabets": ["4qam"]},
     {"type": "CorrelatedNoiseError"}),
    ({"span_symbols": 13},
     {"type": "BudgetExceededError", "required": 4 ** 13 * 2,
      "budget": 1 << 26}),
])
def test_sweep_refuses_infeasible_enum_grid_up_front(tmp_path, capsys,
                                                     overrides, refusal):
    # The first cells (M = 2, or 4qam) are feasible; the grid used to
    # write them and only then exit 3 at the cell that refused.
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path, **overrides)
    out = tmp_path / "grid.csv"
    code, stdout, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                         "--out", str(out)])
    assert code == 3
    payload = json.loads(stdout)["error"]
    assert {key: payload[key] for key in refusal} == refusal
    assert "[1/" not in stderr
    assert not out.exists()


def test_sweep_to_a_device_exits_2(tmp_path, capsys):
    # /dev/null used to be read as a resume file and exit 4.
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--out", os.devnull])
    assert code == 2
    assert "must be a regular file" in stderr
    assert "[1/" not in stderr


def test_sweep_to_a_fifo_exits_2_without_reading(tmp_path):
    # Reading a FIFO as a resume file used to block until killed.
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    src = str(Path(signrate.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "signrate.cli", "sweep", "--config",
         str(cfg_path), "--out", str(fifo)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert "must be a regular file" in proc.stderr
    assert "[1/" not in proc.stderr


@pytest.mark.parametrize("estimator, column, value", [
    ("enum", "pulse", "gaussian"), ("enum", "seed", "99"),
    ("enum", "samples", "123"), ("mc", "samples", "999")])
def test_row_contradicting_its_grid_exits_4(tmp_path, capsys, estimator,
                                            column, value):
    # Only a row's key used to be checked, so an edited pulse, seed or
    # sample count was kept on resume and read by regions.
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path, estimator=estimator)
    out = tmp_path / "grid.csv"
    assert _run(capsys, ["sweep", "--config", str(cfg_path),
                         "--out", str(out)])[0] == 0
    lines = out.read_text().splitlines()
    fields = lines[2].split(",")
    fields[SWEEP_HEADER.split(",").index(column)] = value
    lines[2] = ",".join(fields)
    edited = "\n".join(lines) + "\n"
    out.write_text(edited)
    with pytest.raises(GridMismatchError, match="contradicts the stored grid"):
        load_sweep_csv(out)
    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path),
                                    "--out", str(out)])
    assert code == 4
    assert "contradicts the stored grid" in stderr
    assert "resuming" not in stderr
    assert out.read_text() == edited


def test_sweep_requires_out(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    code, _, stderr = _run(capsys, ["sweep", "--config", str(cfg_path)])
    assert code == 2
    assert "output path" in stderr


# -- Group 4: regions ----------------------------------------------------------------

def test_regions_from_single_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    sweep_out = tmp_path / "grid.csv"
    assert _run(capsys, ["sweep", "--config", str(cfg_path),
                         "--out", str(sweep_out)])[0] == 0
    region_out = tmp_path / "regions.csv"
    code, _, stderr = _run(capsys, [
        "regions", str(sweep_out), "--snr-db", "5", "--oversampling", "1",
        "--out", str(region_out)])
    assert code == 0
    lines = region_out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "beta,ratio,winner,margin,ftn_flag"
    assert len(lines) == 2 + 2


def test_regions_from_sweep_pair(tmp_path, capsys):
    outs = []
    for name in ("4qam", "16qam"):
        cfg_path = tmp_path / f"{name}.json"
        _write_grid(cfg_path, alphabets=[name])
        out = tmp_path / f"{name}.csv"
        assert _run(capsys, ["sweep", "--config", str(cfg_path),
                             "--out", str(out)])[0] == 0
        outs.append(str(out))
    region_out = tmp_path / "regions.csv"
    code, _, _ = _run(capsys, ["regions", *outs, "--snr-db", "5",
                               "--oversampling", "1",
                               "--out", str(region_out)])
    assert code == 0
    assert len(region_out.read_text().splitlines()) == 4


def test_regions_mismatched_grids_exit_4(tmp_path, capsys):
    a_cfg = tmp_path / "a.json"
    _write_grid(a_cfg, alphabets=["4qam"])
    b_cfg = tmp_path / "b.json"
    _write_grid(b_cfg, alphabets=["16qam"], beta=[0.3])
    a_out, b_out = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(capsys, ["sweep", "--config", str(a_cfg),
                         "--out", str(a_out)])[0] == 0
    assert _run(capsys, ["sweep", "--config", str(b_cfg),
                         "--out", str(b_out)])[0] == 0
    code, _, stderr = _run(capsys, [
        "regions", str(a_out), str(b_out), "--snr-db", "5",
        "--oversampling", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 4
    assert "different grids" in stderr


def test_malformed_sweep_file_exit_4(tmp_path, capsys):
    # A config echo that lacks grid keys used to escape as a TypeError.
    bad = tmp_path / "bad.csv"
    bad.write_text('# config: {"family": "rrc"}\n' + SWEEP_HEADER + "\n")
    # Bytes that are not text used to exit 2 with a bare codec message.
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00bad")
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    for path in (bad, binary):
        for argv in (["regions", str(path), "--snr-db", "5",
                      "--oversampling", "1", "--out", str(tmp_path / "r.csv")],
                     ["sweep", "--config", str(cfg_path), "--out", str(path)]):
            code, _, stderr = _run(capsys, argv)
            assert code == 4
            assert stderr.startswith(f"error: {path}: ")
            assert "Traceback" not in stderr


def _drop_header(lines):
    del lines[1]


def _cut_row(lines):
    lines[2] = lines[2].rsplit(",", 1)[0]


def _foreign_cell(lines):
    lines[2] = lines[2].replace(",0.2,", ",0.9,")


def _duplicate_row(lines):
    lines.append(lines[2])


def _nan_rates(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("16qam,"))
    fields = lines[i].split(",")
    fields[6] = fields[7] = "nan"
    lines[i] = ",".join(fields)


@pytest.mark.parametrize("corrupt", [_drop_header, _cut_row, _foreign_cell,
                                     _duplicate_row, _nan_rates])
def test_corrupted_sweep_file_exits_4(tmp_path, capsys, corrupt):
    # A NaN rate used to load: regions named a winner with a NaN margin
    # and sweep kept the row as complete.
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    path = tmp_path / "grid.csv"
    assert _run(capsys, ["sweep", "--config", str(cfg_path),
                         "--out", str(path)])[0] == 0
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    with pytest.raises(GridMismatchError):
        load_sweep_csv(path)
    for argv in (["regions", str(path), "--snr-db", "5",
                  "--oversampling", "1", "--out", str(tmp_path / "r.csv")],
                 ["sweep", "--config", str(cfg_path), "--out", str(path)]):
        code, _, stderr = _run(capsys, argv)
        assert code == 4
        assert stderr.startswith(f"error: {path}: ")
    assert path.read_bytes() == before
    assert not (tmp_path / "r.csv").exists()


def test_regions_of_one_file_twice_exits_4(tmp_path, capsys):
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    path = tmp_path / "grid.csv"
    assert _run(capsys, ["sweep", "--config", str(cfg_path),
                         "--out", str(path)])[0] == 0
    code, _, stderr = _run(capsys, [
        "regions", str(path), str(path), "--snr-db", "5",
        "--oversampling", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 4
    assert "share alphabets ['16qam', '4qam']" in stderr


def test_sweep_file_of_unknown_schema_exit_4(tmp_path, capsys):
    # A grid echo with another schema version used to load and resume.
    grid = _write_grid(tmp_path / "grid.json")
    future = tmp_path / "future.csv"
    future.write_text(f"# config: {json.dumps({**grid, 'schema_version': 2})}"
                      f"\n{SWEEP_HEADER}\n")
    for argv in (["regions", str(future), "--snr-db", "5",
                  "--oversampling", "1", "--out", str(tmp_path / "r.csv")],
                 ["sweep", "--config", str(tmp_path / "grid.json"),
                  "--out", str(future)]):
        code, _, stderr = _run(capsys, argv)
        assert code == 4
        assert stderr.startswith(f"error: {future}: ")
        assert "unsupported schema version 2" in stderr


@pytest.mark.parametrize("flags", [
    ["--snr-db", "nan", "--oversampling", "1"],
    ["--snr-db=inf", "--oversampling", "1"],
    ["--snr-db", "5", "--oversampling", "0"]])
def test_regions_bad_slice_flags_exit_2(tmp_path, capsys, flags):
    # These used to read as a file fault: exit 4, "not part of the grid".
    cfg_path = tmp_path / "grid.json"
    _write_grid(cfg_path)
    sweep_out = tmp_path / "grid.csv"
    assert _run(capsys, ["sweep", "--config", str(cfg_path),
                         "--out", str(sweep_out)])[0] == 0
    region_out = tmp_path / "regions.csv"
    with pytest.raises(SystemExit) as info:
        main(["regions", str(sweep_out), *flags, "--out", str(region_out)])
    assert info.value.code == 2
    assert "must be a" in capsys.readouterr().err
    assert not region_out.exists()


def test_regions_missing_file_exit_2(tmp_path, capsys):
    code, _, stderr = _run(capsys, [
        "regions", str(tmp_path / "absent.csv"), "--snr-db", "5",
        "--oversampling", "1", "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "error" in stderr
