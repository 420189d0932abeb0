"""Command line front end.

Four subcommands cover the workflow: ``taps`` dumps a discretized pulse,
``rate`` evaluates one configuration, ``sweep`` fills a rate grid, and
``regions`` compares alphabets on a finished grid.  Parameters come from
an optional JSON configuration file (``--config``) with command line
flags taking precedence, and every output file embeds the resolved
configuration so results are reproducible from the file alone.

Exit codes are stable: 0 success, 2 usage or configuration errors,
3 estimator refusals (with a machine-readable error object on standard
output), 4 mismatched or malformed input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .config import RunConfig, canonical_json
from .errors import GridMismatchError, QuadratureToleranceError, RefusalError
from .pulses import PulseSpec, discretize, estimate_3db_bandwidth
from .rates import rate_for_config
from .sweeps import (
    SweepConfig,
    load_sweep_csv,
    merge_sweeps,
    region_compare,
    replace_text,
    run_sweep,
    write_region_csv,
)

# Flags that configure the command rather than the computation; every
# other flag is named after its configuration key.
_COMMAND_FLAGS = ("command", "handler", "config", "out", "workers")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: configuration must be a JSON object")
    return data


def _merge_flags(data: dict, args) -> dict:
    for key, value in vars(args).items():
        if value is not None and key not in _COMMAND_FLAGS:
            data[key] = value
    return data


def _resolve_out(args, data: dict, required: bool):
    out = data.pop("out", None)
    if args.out is not None:
        out = args.out
    if required and out is None:
        raise ValueError("an output path is required (--out)")
    return None if out is None else Path(out)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _add_pulse_flags(parser):
    parser.add_argument("--config", type=Path,
                        help="JSON file with configuration values")
    parser.add_argument("--family", choices=("rrc", "gaussian"),
                        help="pulse family")
    parser.add_argument("--shape", type=float,
                        help="roll-off (rrc) or 3 dB bandwidth (gaussian)")
    parser.add_argument("--ratio", dest="signaling_ratio", type=float,
                        metavar="RATIO",
                        help="signaling ratio, pulse interval over symbol "
                             "interval (default 1)")
    parser.add_argument("--span", dest="span_symbols", type=int,
                        metavar="SPAN",
                        help="pulse span in symbol intervals (default 9)")
    parser.add_argument("--oversampling", type=int,
                        help="samples per symbol interval")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signrate",
        description="Information rates of one-bit oversampled receivers.")
    sub = parser.add_subparsers(dest="command", required=True)

    taps = sub.add_parser(
        "taps", help="write discretized pulse taps as CSV")
    _add_pulse_flags(taps)
    taps.add_argument("--out", type=Path, help="output CSV path")
    taps.set_defaults(handler=_cmd_taps)

    rate = sub.add_parser(
        "rate", help="evaluate one rate point, JSON on standard output")
    _add_pulse_flags(rate)
    rate.add_argument("--alphabet", help="constellation name (4qam, 16qam)")
    rate.add_argument("--snr-db", dest="snr_db", type=float,
                      help="signal-to-noise ratio in dB")
    rate.add_argument("--estimator", choices=("mc", "enum"),
                      help="transition table estimator (default mc)")
    rate.add_argument("--samples", type=int,
                      help="Monte Carlo sample budget")
    rate.add_argument("--seed", type=int, help="top-level seed")
    rate.add_argument("--workers", type=_positive_int, default=1,
                      help="Monte Carlo simulation workers; exact tables run "
                           "on one core (default 1)")
    rate.add_argument("--out", type=Path,
                      help="also write the JSON to this path")
    rate.set_defaults(handler=_cmd_rate)

    sweep = sub.add_parser(
        "sweep", help="fill a rate grid CSV, resuming existing output")
    sweep.add_argument("--config", type=Path, required=True,
                       help="JSON file describing the grid")
    sweep.add_argument("--estimator", choices=("mc", "enum"))
    sweep.add_argument("--samples", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="cells evaluated in parallel (default 1)")
    sweep.add_argument("--out", type=Path, help="grid CSV path")
    sweep.set_defaults(handler=_cmd_sweep)

    regions = sub.add_parser(
        "regions", help="map the winning alphabet over a finished grid")
    regions.add_argument("sweeps", nargs="+", type=Path,
                         help="one grid CSV with both alphabets, or two "
                              "grid CSVs with one alphabet each")
    regions.add_argument("--snr-db", dest="snr_db", type=_finite_float,
                         required=True)
    regions.add_argument("--oversampling", type=_positive_int, required=True)
    regions.add_argument("--out", type=Path, required=True,
                         help="region CSV path")
    regions.set_defaults(handler=_cmd_regions)
    return parser


def _cmd_taps(args) -> int:
    data = _merge_flags(_load_config_file(args.config), args)
    out = _resolve_out(args, data, required=True)
    try:
        spec = PulseSpec(**data)
    except TypeError as err:
        raise ValueError(f"incomplete pulse description: {err}") from None
    taps = discretize(spec)
    try:
        bandwidth = estimate_3db_bandwidth(taps)
    except ValueError:
        # The aliased spectrum can sit above half power across the whole
        # sampled band (wide pulses at low oversampling).
        bandwidth = float("nan")
    lines = [f"# config: {canonical_json(dataclasses.asdict(spec))}",
             "index,t,value"]
    for i, (t, v) in enumerate(zip(taps.times, taps.taps)):
        lines.append(f"{i},{format(t, '.17g')},{format(v, '.17g')}")
    replace_text(out, "\n".join(lines) + "\n")
    print(f"energy {taps.energy!r}")
    print(f"bandwidth_3db {bandwidth!r}")
    return 0


def _cmd_rate(args) -> int:
    data = _merge_flags(_load_config_file(args.config), args)
    out = _resolve_out(args, data, required=False)
    data.setdefault("signaling_ratio", 1.0)
    config = RunConfig.from_dict(data)
    result = rate_for_config(config, workers=args.workers)
    text = json.dumps(result.to_json_dict(), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    sys.stdout.write(text)
    if out is not None:
        replace_text(out, text)
    return 0


def _cmd_sweep(args) -> int:
    data = _merge_flags(_load_config_file(args.config), args)
    out = _resolve_out(args, data, required=True)
    grid = SweepConfig.from_dict(data)

    def progress(done, total, key):
        print(f"[{done}/{total}] {key}" if key is not None else
              f"resuming {out}: {done} of {total} cells already complete",
              file=sys.stderr)

    run_sweep(grid, out, workers=args.workers, progress=progress)
    print(f"wrote {out} ({grid.n_cells()} cells)", file=sys.stderr)
    return 0


def _cmd_regions(args) -> int:
    if len(args.sweeps) > 2:
        raise ValueError("regions takes one or two sweep files")
    results = [load_sweep_csv(path) for path in args.sweeps]
    merged = results[0] if len(results) == 1 else merge_sweeps(*results)
    region = region_compare(merged, snr_db=args.snr_db,
                            oversampling=args.oversampling)
    echo = canonical_json({
        "oversampling": args.oversampling,
        "snr_db": args.snr_db,
        "sources": [r.config.fingerprint() for r in results],
    })
    write_region_csv(region, args.out, comment=echo)
    print(f"wrote {args.out} ({len(region.rows)} cells)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except GridMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (RefusalError, QuadratureToleranceError) as err:
        payload = {"type": type(err).__name__, "message": str(err)}
        for attr in ("required", "budget", "achieved", "requested"):
            if hasattr(err, attr):
                value = getattr(err, attr)
                # JSON has no NaN (the deviation of a non-finite table).
                if isinstance(value, float) and not math.isfinite(value):
                    value = None
                payload[attr] = value
        print(json.dumps({"error": payload}, sort_keys=True, allow_nan=False))
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
