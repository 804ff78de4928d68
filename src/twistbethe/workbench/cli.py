"""Command-line entry point.

    twistbethe <experiment> --eta 2 --n 8..18:2 --boundary anti [--out DIR]
    twistbethe verify --level fast|full
    twistbethe fit --kind power-offset --input scan.csv --y e_b_over_cosh

An experiment's subcommand has a flag for each input it reads
(`runner.inputs`).  Experiments write per-point JSON caches plus
aggregated CSV/JSON (and SVG for scans) into the output directory.  A
JSON config file can supply the same fields; explicit flags override it.
Experiment names and the verify level match in any letter case.

Exit codes: 0 success, 1 verification or solver failure, 2 bad config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from ..common import Boundary
from ..scaling import _KINDS, FitError, _coerce_kind, extrapolate, fit, fit_with_window
from .config import (INPUT_FIELDS, ConfigError, ExperimentConfig, coerce_experiment,
                     load_config_file)
from .emit import emit, parse_csv
from .runner import EXPERIMENT_TABLE, inputs, run
from .verify import coerce_level, verify


def _parse_n_list(text: str) -> list[int]:
    """Accept '4,6,8' or '8..18' or '8..18:2'."""
    text = text.strip()
    if ".." in text:
        span, _, step_s = text.partition(":")
        lo_s, _, hi_s = span.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
            step = int(step_s) if step_s else 1
        except ValueError:
            raise ConfigError(f"bad N range: {text!r}") from None
        if step <= 0 or hi < lo:
            raise ConfigError(f"bad N range: {text!r}")
        return list(range(lo, hi + 1, step))
    try:
        vals = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad N list: {text!r}") from None
    if not vals:
        raise ConfigError("empty N list")
    return vals


def _parse_eta(text: str):
    try:
        vals = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"bad eta value: {text!r}") from None
    if not vals:
        raise ConfigError("empty eta list")
    return vals


def _parsed_by(coerce):
    """An argparse `type` that parses through `coerce`, whose ValueError
    becomes a usage error (exit 2)."""
    def parse(text):
        try:
            return coerce(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


# the flag of each experiment input; --eta and --n are parsed after argparse
# (`_cmd_experiment`), so that a malformed list is a config error
_INPUT_FLAGS = {
    "eta": ("--eta", dict(help="crossing parameter, single value or comma list")),
    "N": ("--n", dict(metavar="LIST|RANGE", help="chain sizes: '4,6,8' or '8..18:2'")),
    "boundary": ("--boundary", dict(type=_parsed_by(Boundary.coerce),
                                    help="anti[periodic] or per[iodic], in any letter case")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistbethe",
        description="Bethe-ansatz workbench for the twisted XXZ chain")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENT_TABLE:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        for key in inputs(name):
            flag, settings = _INPUT_FLAGS[key]
            p.add_argument(flag, dest=key, default=None, **settings)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="recompute cached points")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file; flags override its values")
        p.add_argument("--formats", type=str, default="csv,json,svg",
                       help="comma list out of csv,json,svg")

    pv = sub.add_parser("verify", help="run the self-check suite")
    pv.add_argument("--level", type=_parsed_by(coerce_level), default="fast",
                    help="fast or full, in any letter case")

    pf = sub.add_parser("fit", help="fit a scaling law to a CSV")
    pf.add_argument("--kind", required=True, type=_parsed_by(_coerce_kind),
                    help=f"one of {', '.join(_KINDS)}, in any letter case")
    pf.add_argument("--input", required=True, help="CSV produced by a scan")
    pf.add_argument("--y", required=True, help="value column; the sizes are column N")
    pf.add_argument("--window", action="store_true",
                    help="drop small sizes outside the law before fitting")
    return parser


def _cmd_experiment(args) -> int:
    file_data = load_config_file(args.config) if args.config else {}
    if coerce_experiment(file_data.get("experiment", args.command)) != args.command:
        raise ConfigError(f"config file names {file_data['experiment']!r}, not {args.command}")
    given = {name: getattr(args, name) for name in inputs(args.command)}
    for name, parse in (("eta", _parse_eta), ("N", _parse_n_list)):
        if given.get(name) is not None:
            given[name] = parse(given[name])
    overrides = {"experiment": args.command, "output_dir": args.out,
                 **{INPUT_FIELDS[name]: value for name, value in given.items()}}
    config = ExperimentConfig.from_dict(file_data, overrides)

    records = run(config, force=args.force)

    formats = [f.strip().lower() for f in args.formats.split(",") if f.strip()]
    x_field, y_field = EXPERIMENT_TABLE[config.experiment][1]
    written = []
    for fmt in formats:
        if fmt == "svg" and all(r.status != "ok" for r in records):
            continue
        written += emit(records, fmt, config.output_dir,
                        x_field=x_field, y_field=y_field)

    n_err = sum(r.status != "ok" for r in records)
    for rec in records:
        label = ", ".join(f"{k}={v}" for k, v in rec.params.items())
        if rec.status == "ok":
            body = ", ".join(f"{k}={v}" for k, v in rec.outputs.items())
            print(f"ok    {label}: {body}")
        else:
            print(f"error {label}: {rec.error}")
    for path in written:
        print(f"wrote {path}")
    if n_err:
        print(f"{n_err}/{len(records)} points failed", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.level)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_fit(args) -> int:
    try:
        rows = parse_csv(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"cannot read input {args.input}: {reason}", file=sys.stderr)
        return 2
    samples = []
    for row in rows:
        if str(row.get("status", "ok")) not in ("ok", ""):
            continue
        if args.y not in row or "N" not in row or row[args.y] == "":
            continue
        for column in ("N", args.y):
            if isinstance(row[column], str):
                print(f"column {column!r} is not numeric: {row[column]!r}", file=sys.stderr)
                return 2
        samples.append((row["N"], float(row[args.y])))
    if not samples:
        print(f"no usable rows with columns 'N', {args.y!r}", file=sys.stderr)
        return 2
    try:
        if args.window:
            result, used = fit_with_window(args.kind, samples)
        else:
            result, used = fit(args.kind, samples), samples
    except (FitError, ValueError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    payload = dataclasses.asdict(result)
    if result.b < 0:
        payload["asymptote"] = extrapolate(result)
    print(json.dumps(payload, indent=2))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    with contextlib.suppress(IndexError, ConfigError):   # not an experiment: argparse decides
        argv[0] = coerce_experiment(argv[0])   # an experiment's name in any letter case
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fit":
            return _cmd_fit(args)
        return _cmd_experiment(args)
    except ConfigError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
