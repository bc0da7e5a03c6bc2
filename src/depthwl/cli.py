"""Command-line surface: fit, depth, simulate, breakdown.

Exit codes: 0 success, 1 usage/input error, 2 no converged root.
All randomness sits behind --seed, so every command is deterministic
given its flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .depth import DepthMethod, empirical_depths
from .estimator import EstimatorConfig, find_roots
from .gaussian import GaussianParams
from .initializers import InitSpec
# Not called here: perfbench's tracer patches the starts at these names.
from .initializers import depth_init, subsample_inits  # noqa: F401
from .residuals import _DEFAULT_ALPHA, WeightSpec
from .simulation import GridConfig, breakdown_experiment, run_grid

__all__ = ["main", "entry", "load_csv_dataset", "CsvError"]


class CsvError(ValueError):
    """Input CSV is unreadable, ragged or non-numeric."""


def load_csv_dataset(path) -> np.ndarray:
    """Read a rectangular numeric CSV as an n x p matrix.

    Comma separated, '.' decimal, no quoting of numeric fields.  An
    optional single header line is detected by its first line failing
    to parse as numbers.  A leading UTF-8 byte-order mark is dropped.
    Errors name the offending line.
    """
    rows = []
    width = None
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc}") from None
    with fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            try:
                values = [float(cell) for cell in record]
            except ValueError:
                if lineno == 1:
                    continue  # header line
                raise CsvError(
                    f"{path}: line {lineno}: non-numeric value in data row"
                ) from None
            if not all(map(math.isfinite, values)):
                raise CsvError(f"{path}: line {lineno}: non-finite value")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise CsvError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise CsvError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_json(path: str, what: str):
    """The JSON document in ``path``; an error names ``what`` it is."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


_SMOOTH_A = 0.05  # decay rate of the smooth family when --a is not given


def _from_flags(build, *args):
    """``build(*args)``, a spec that a command makes from flags; the
    message of a ValueError it raises names the flags instead of the
    config names.  Errors about a file's contents keep the names.  The
    field ``a`` is named only when quoted, as the bare word is English."""
    try:
        return build(*args)
    except ValueError as exc:
        flags = {"B": "--subsamples", "params_list": "--init-file", "trim_xi": "--xi",
                 "n_directions": "--directions", "'a'": "--a",
                 "subsample": "--init subsample", "depth_deterministic": "--init depth",
                 "custom": "--init file", "smooth_exp": "--family smooth",
                 "piecewise": "--family piecewise"}
        name = (r"(?:\['|'|\bthe )?(?<!\w)(" + "|".join(flags)
                + r")(?!\w)(?:'\]?| strategy| family)?")
        raise ValueError(re.sub(name, lambda m: flags[m[1]], str(exc))) from None


def _add_depth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depth-method", choices=["auto", "exact", "projection"],
                        default="auto")
    parser.add_argument("--directions", type=int, default=None,
                        help="projection directions (default max(1000, 100p))")
    parser.add_argument("--seed", type=int, default=0)


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=_DEFAULT_ALPHA,
                        help=f"residual exponent in (0, 1] (default {_DEFAULT_ALPHA})")
    parser.add_argument("--family", choices=["piecewise", "smooth"],
                        default="piecewise")
    parser.add_argument("--delta1", type=float, default=None)
    parser.add_argument("--delta2", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--a", type=float, default=None,
                        help=f"smooth family decay rate (default {_SMOOTH_A})")
    parser.add_argument("--xi", type=float, default=None,
                        help="trimming margin above the residual median")
    parser.add_argument("--scatter-norm", choices=["sumw", "n"], default="n")
    _add_depth_flags(parser)


def _weight_spec(args) -> WeightSpec:
    """Resolve weight flags; unset parameters fall back to the calibrated
    table for the requested alpha (smooth family: its xi, a = _SMOOTH_A).
    Every flag set is passed on, so ``WeightSpec`` rejects one that does
    not apply to the family."""
    spec = WeightSpec.optimal(args.alpha)
    if args.family == "smooth":
        spec = WeightSpec.smooth_exp(_SMOOTH_A, trim_xi=spec.trim_xi, alpha=spec.alpha)
    flags = {"delta1": args.delta1, "delta2": args.delta2,
             "gamma": args.gamma, "a": args.a, "trim_xi": args.xi}
    return dataclasses.replace(
        spec, **{k: v for k, v in flags.items() if v is not None}
    )


def _depth_method(args) -> DepthMethod:
    return DepthMethod(args.depth_method, args.directions, args.seed)


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        weights=_weight_spec(args),
        depth_method=_depth_method(args),
        scatter_norm="literal-1-over-n" if args.scatter_norm == "n"
        else "sum-of-weights",
    )


def cmd_fit(args) -> int:
    data = load_csv_dataset(args.input)
    cfg = _from_flags(_estimator_config, args)
    if args.init == "file" and args.init_file is None:
        raise ValueError("--init file requires --init-file PATH")
    starts = None
    if args.init_file is not None:
        raw = _read_json(args.init_file, "init file")
        starts = tuple(map(GaussianParams.from_dict, raw if isinstance(raw, list) else [raw]))
    # The start flags as an InitSpec: it rejects one set for another strategy.
    # --seed also seeds the directions, so only subsample takes it.
    strategy = {"subsample": "subsample", "depth": "depth_deterministic", "file": "custom"}
    spec = _from_flags(InitSpec, strategy[args.init], args.subsamples,
                       args.seed if args.init == "subsample" else None, starts)
    # empirical_depths_all(data), computed once for the depth start and
    # the fit; spelled through empirical_depths, the depth entry point
    # perfbench traces in this module.
    emp_depths = empirical_depths(data, data, cfg.depth_method)
    roots = find_roots(data, cfg, spec.make_inits(data, emp_depths), emp_depths)
    _write_output(_json_dumps(roots.to_dict()), args.output)
    return 0 if roots.selected is not None else 2


def cmd_depth(args) -> int:
    data = load_csv_dataset(args.input)
    queries = data if args.query is None else load_csv_dataset(args.query)
    depths = empirical_depths(queries, data, _from_flags(_depth_method, args))
    lines = ["row_index,depth"]
    lines += [f"{i},{d:.4f}" for i, d in enumerate(depths)]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_simulate(args) -> int:
    cfg = GridConfig.from_dict(_read_json(args.grid, "grid config"))
    report = run_grid(cfg)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "summary.json").write_text(report.maxima_json())
    sys.stdout.write(report.maxima_table() + "\n")
    return 0


def cmd_breakdown(args) -> int:
    cfg = _from_flags(_estimator_config, args)
    report = breakdown_experiment(
        args.n, args.p, args.m, args.distance, cfg, args.seed
    )
    _write_output(_json_dumps(report.to_dict()), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every token that ``float`` parses, such as -1e3 or -inf, as a
    value: argparse takes only -digits and -digits.digits for negative
    numbers, and no depthwl option looks like a number.  Subparsers are
    made with the parser's own class, so they read values alike."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="depthwl",
        description="Depth-weighted likelihood estimation of Gaussian "
        "location and scatter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a Gaussian robustly to CSV data")
    p_fit.add_argument("--input", required=True, help="CSV of observations")
    _add_weight_flags(p_fit)
    p_fit.add_argument("--init", choices=["subsample", "depth", "file"],
                       default="subsample")
    p_fit.add_argument("--subsamples", type=int, default=None,
                       help="elemental starting subsamples for --init subsample")
    p_fit.add_argument("--init-file", default=None,
                       help="JSON parameter set(s) for --init file")
    p_fit.add_argument("--output", default=None, help="write root-set JSON here")
    p_fit.set_defaults(func=cmd_fit)

    p_depth = sub.add_parser("depth", help="half-space depths of points")
    p_depth.add_argument("--input", required=True, help="CSV of observations")
    p_depth.add_argument("--query", default=None,
                         help="CSV of query points (default: the input rows)")
    _add_depth_flags(p_depth)
    p_depth.add_argument("--output", default=None)
    p_depth.set_defaults(func=cmd_depth)

    p_sim = sub.add_parser("simulate", help="run a contamination grid")
    p_sim.add_argument("--grid", required=True, help="GridConfig JSON path")
    p_sim.add_argument("--output-dir", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_bd = sub.add_parser("breakdown", help="additive contamination stress test")
    p_bd.add_argument("--p", type=int, required=True)
    p_bd.add_argument("--n", type=int, required=True)
    p_bd.add_argument("--m", type=int, required=True)
    p_bd.add_argument("--distance", type=float, required=True)
    _add_weight_flags(p_bd)
    p_bd.add_argument("--output", default=None)
    p_bd.set_defaults(func=cmd_breakdown)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
