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
import sys
from pathlib import Path

import numpy as np

from .depth import DepthMethod, empirical_depths, resolve_depth_method
from .estimator import EstimatorConfig, find_roots
from .gaussian import GaussianParams
from .initializers import depth_init, subsample_inits
from .residuals import DprConfig, WeightSpec
from .simulation import GridConfig, breakdown_experiment, run_grid

__all__ = ["main", "entry", "load_csv_dataset", "CsvError"]


class CsvError(ValueError):
    """Input CSV is unreadable, ragged or non-numeric."""


def load_csv_dataset(path) -> np.ndarray:
    """Read a rectangular numeric CSV as an n x p matrix.

    Comma separated, '.' decimal, no quoting of numeric fields.  An
    optional single header line is detected by its first line failing
    to parse as numbers.  Errors name the offending line.
    """
    rows = []
    width = None
    try:
        fh = open(path, newline="")
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
            if not all(np.isfinite(values)):
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


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="residual exponent in (0, 1] (default 0.5)")
    parser.add_argument("--family", choices=["piecewise", "smooth"],
                        default="piecewise")
    parser.add_argument("--delta1", type=float, default=None)
    parser.add_argument("--delta2", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--a", type=float, default=0.05,
                        help="smooth family decay rate (default 0.05)")
    parser.add_argument("--xi", type=float, default=None,
                        help="trimming margin above the residual median")
    parser.add_argument("--scatter-norm", choices=["sumw", "n"], default="n")
    parser.add_argument("--depth-method", choices=["auto", "exact", "projection"],
                        default="auto")
    parser.add_argument("--directions", type=int, default=None,
                        help="projection directions (default max(1000, 100p))")
    parser.add_argument("--seed", type=int, default=0)


def _weight_spec(args) -> WeightSpec:
    """Resolve weight flags; unset parameters fall back to the
    calibrated table for the requested alpha.  The smooth family takes
    only the table's trimming margin; the piecewise shape flags do not
    apply to it."""
    spec = WeightSpec.optimal(args.alpha)
    flags = {"trim_xi": args.xi}
    if args.family == "smooth":
        spec = WeightSpec.smooth_exp(args.a, trim_xi=spec.trim_xi)
    else:
        flags.update(delta1=args.delta1, delta2=args.delta2, gamma=args.gamma)
    return dataclasses.replace(
        spec, **{k: v for k, v in flags.items() if v is not None}
    )


def _depth_method(args, p: int) -> DepthMethod:
    if args.depth_method == "projection" or (args.depth_method == "auto" and p > 2):
        return DepthMethod.projection(args.directions, seed=args.seed)
    if p > 2:
        raise ValueError("exact depth is available only for p <= 2")
    return resolve_depth_method(None, p)


def _estimator_config(args, p: int) -> EstimatorConfig:
    return EstimatorConfig(
        dpr=DprConfig(args.alpha),
        weights=_weight_spec(args),
        depth_method=_depth_method(args, p),
        scatter_norm="literal-1-over-n" if args.scatter_norm == "n"
        else "sum-of-weights",
    )


def cmd_fit(args) -> int:
    data = load_csv_dataset(args.input)
    p = data.shape[1]
    cfg = _estimator_config(args, p)
    if args.init == "subsample":
        inits = subsample_inits(data, args.subsamples, args.seed)
    elif args.init == "depth":
        inits = [depth_init(data, cfg.depth_method)]
    else:
        if args.init_file is None:
            raise ValueError("--init file requires --init-file PATH")
        raw = json.loads(Path(args.init_file).read_text())
        raw = raw if isinstance(raw, list) else [raw]
        inits = [GaussianParams.from_dict(d) for d in raw]
    roots = find_roots(data, cfg, inits)
    _write_output(_json_dumps(roots.to_dict()), args.output)
    return 0 if roots.selected is not None else 2


def cmd_depth(args) -> int:
    data = load_csv_dataset(args.input)
    p = data.shape[1]
    queries = data if args.query is None else load_csv_dataset(args.query)
    depths = empirical_depths(queries, data, _depth_method(args, p))
    lines = ["row_index,depth"]
    lines += [f"{i},{d:.4f}" for i, d in enumerate(depths)]
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_simulate(args) -> int:
    try:
        raw = json.loads(Path(args.grid).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read grid config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"grid config is not valid JSON: {exc}") from None
    cfg = GridConfig.from_dict(raw)
    report = run_grid(cfg)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "summary.json").write_text(report.maxima_json())
    sys.stdout.write(report.maxima_table() + "\n")
    return 0


def cmd_breakdown(args) -> int:
    if args.n <= 2 * args.p:
        raise ValueError(
            f"breakdown experiment requires n > 2*p "
            f"(got n={args.n}, p={args.p}); the clean sample must exceed "
            f"twice the dimension"
        )
    cfg = _estimator_config(args, args.p)
    report = breakdown_experiment(
        args.n, args.p, args.m, args.distance, cfg, args.seed
    )
    _write_output(_json_dumps(report.to_dict()), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_fit.add_argument("--subsamples", type=int, default=500,
                       help="number of elemental starting subsamples")
    p_fit.add_argument("--init-file", default=None,
                       help="JSON parameter set(s) for --init file")
    p_fit.add_argument("--output", default=None, help="write root-set JSON here")
    p_fit.set_defaults(func=cmd_fit)

    p_depth = sub.add_parser("depth", help="half-space depths of points")
    p_depth.add_argument("--input", required=True, help="CSV of observations")
    p_depth.add_argument("--query", default=None,
                         help="CSV of query points (default: the input rows)")
    p_depth.add_argument("--depth-method",
                         choices=["auto", "exact", "projection"], default="auto")
    p_depth.add_argument("--directions", type=int, default=None)
    p_depth.add_argument("--seed", type=int, default=0)
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
    except (CsvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
