"""Command-line interface.

Subcommands cover the whole workflow: ``calibrate`` prints the closed-form
normalizing constant and the unit cube's boundary coefficient that the
estimators use, ``entropy`` and ``mi`` estimate from CSV samples,
``rate-experiment`` and ``isa`` drive the two studies, and ``diagnostics``
runs the structural checks. Results are printed as JSON (carrying the tool
version and the effective settings); experiment tables are written as
plot-ready CSV.

Input CSV format: UTF-8, comma-separated, one sample per row, all rows the
same width, finite decimal floats, no missing values. A leading byte-order
mark is accepted and blank lines are skipped. Each cell is read as Python's
``float()`` reads it. A single header line is auto-detected (any non-numeric
cell in the first row).

Exit codes: 0 success; 2 usage error (bad flags or parameter ranges);
3 data error (unreadable input, malformed config, a file that cannot be
read or written); 4 numerical error (degenerate sample, infeasible histogram,
an estimate beyond float64's range).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from array import array
from pathlib import Path

import numpy as np

from ._version import __version__
from .calibration import _closed_form
from .diagnostics import run_diagnostics
from .errors import (
    DataFormatError,
    DegenerateSampleError,
    HistogramInfeasibleError,
    InsufficientPointsError,
    NNEntropyError,
    OutsideCubeError,
)
from .estimators import DEFAULT_SPEC, EstimatorSettings, renyi_entropy, renyi_mi
from .experiments import (
    PAPER_SCALE_ISA,
    IsaExperimentConfig,
    RateExperimentConfig,
    run_isa_experiment,
    run_rate_experiment,
)
from .points import NeighborSpec, PointSet

__all__ = ["main"]


def _parse_ranks(text: str) -> NeighborSpec:
    try:
        return NeighborSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_gamma(text: str):
    if text == "analytic":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'gamma must be a number or "analytic", got {text!r}'
        ) from None


def _read_csv(path) -> np.ndarray:
    """Load a sample matrix, tolerating one auto-detected header line.

    The file is read and decoded once. One vectorized parse takes the common
    case; every input it declines goes to the per-line parser, which gives
    the same array for each file both accept and alone reports errors.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    points = _parse_fast(text)
    return _parse_lines(path, text) if points is None else points


def _looks_like_header(row) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _parse_fast(text: str) -> np.ndarray | None:
    """The sample matrix from one ``np.loadtxt`` call, or None to decline.

    Without quotes and bare CRs the rows are the ``\\n``-separated lines
    split at commas, as ``csv.reader`` splits them. ``loadtxt`` reads a cell
    as ``float()`` does, except that it strips ``\\x1c``-``\\x1f`` as
    whitespace where ``float()`` rejects them, and that it rejects the
    underscores and non-ASCII digits ``float()`` takes (a rejection only
    declines). So the text is declined when it has a quote, a bare CR or one
    of those four characters, when ``loadtxt`` fails, when no data row or a width
    other than the first row's comes back, and when a value is not finite.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if any(c in text for c in '"\r\x1c\x1d\x1e\x1f'):
        return None
    lines = text.lstrip("\n").split("\n")
    first = lines[0].split(",")
    data = lines[1:] if _looks_like_header(first) else lines
    if not any(data):  # loadtxt would warn on stderr, and no data is an error
        return None
    try:
        points = np.loadtxt(data, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return None
    if points.shape[1] != len(first) or not np.isfinite(points).all():
        return None
    return points


def _parse_lines(path, text: str) -> np.ndarray:
    """Parse row by row with ``csv.reader``, stopping at the first bad row.

    Each row is checked (width, number, finite) as it is read and only its
    floats are kept; errors name the physical line a row ends on.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    values = array("d")
    width = None
    try:
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if width is None:
                width = len(row)
                if _looks_like_header(row):
                    continue
            elif len(row) != width:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}"
                )
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {lineno}: invalid number {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataFormatError(
                        f"{path}: line {lineno}: non-finite value {cell.strip()!r}"
                    )
                values.append(value)
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not values:
        raise DataFormatError(f"{path}: no data")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


def _load_json(path, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON in {what}: {exc}") from None
    except RecursionError:
        raise DataFormatError(f"{path}: {what} is nested too deeply to read") from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}: {what} must be a JSON object")
    return obj


def _emit(payload: dict, out=None) -> None:
    text = json.dumps(payload, indent=2)
    if out is not None:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


def cmd_calibrate(args) -> None:
    p = args.p if args.alpha is None else EstimatorSettings(alpha=args.alpha).p(args.d)
    gamma, b = _closed_form(args.d, p, args.S)
    _emit({"tool_version": __version__, "d": args.d, "p": p, "S": list(args.S),
           "gamma": gamma, "b": b})


def cmd_estimate(args) -> None:
    settings = EstimatorSettings(
        alpha=args.alpha,
        spec=args.S,
        gamma=args.gamma,
        workers=args.threads,
    )
    points = PointSet(_read_csv(args.input))
    estimator = renyi_entropy if args.command == "entropy" else renyi_mi
    report = estimator(points, settings)
    _emit({"tool_version": __version__, "input": str(args.input), **report.to_dict()})


def cmd_rate_experiment(args) -> None:
    config = RateExperimentConfig.from_dict(_load_json(args.config, "rate config"))
    result = run_rate_experiment(config, seed=args.seed, workers=args.threads)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    result.write_csv(args.out)
    _emit({"tool_version": __version__, "seed": args.seed, "out": str(args.out), **result.summary()})


def cmd_isa(args) -> None:
    if args.paper_scale:
        config = PAPER_SCALE_ISA
    else:
        config = IsaExperimentConfig.from_dict(_load_json(args.config, "ISA config"))
    result = run_isa_experiment(config, seed=args.seed, workers=args.threads)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.write_block_norms_csv(out_dir / "block_norms.csv")
    payload = {"tool_version": __version__, "seed": args.seed, **result.to_dict()}
    _emit(payload, out=out_dir / "solution.json")


def cmd_diagnostics(args) -> None:
    summary = run_diagnostics(seed=args.seed, quick=args.quick)
    payload = {"tool_version": __version__, "seed": args.seed, "quick": args.quick}
    _emit({**payload, **summary.to_dict()}, out=args.out)


@functools.cache  # parse_args leaves the parser unchanged, so one tree serves every call
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads",
        type=int,
        default=-1,
        help="worker cap for neighbor queries (-1: all cores)",
    )

    parser = argparse.ArgumentParser(
        prog="nnentropy",
        description="Entropy and mutual-information estimation from nearest-neighbor graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    cal = sub.add_parser(
        "calibrate", help="print the closed-form gamma and the cube's boundary coefficient b"
    )
    cal.add_argument("--d", type=int, required=True, help="sample dimension")
    power = cal.add_mutually_exclusive_group(required=True)
    power.add_argument("--alpha", type=float, help="entropy order in (0, 1); p = d(1-alpha)")
    power.add_argument("--p", type=float, help="graph power directly, 0 < p < d")
    cal.add_argument("--S", type=_parse_ranks, default=DEFAULT_SPEC,
                     help="neighbor ranks, e.g. 1,2,3 (default)")
    cal.set_defaults(func=cmd_calibrate)

    for name, description in (
        ("entropy", "estimate entropy from a CSV sample"),
        ("mi", "estimate mutual information from a CSV sample"),
    ):
        est = sub.add_parser(name, parents=[common], help=description)
        est.add_argument("input", help="CSV file, one sample per row")
        est.add_argument("--alpha", type=float, required=True, help="order in (0, 1)")
        est.add_argument("--S", type=_parse_ranks, default=DEFAULT_SPEC,
                         help="neighbor ranks, e.g. 1,2,3 (default)")
        est.add_argument("--gamma", type=_parse_gamma, default=None,
                         help='normalizing constant: a number, or "analytic" for the limit '
                              "constant (default: the limit, times the unit cube's boundary "
                              "factor for mi)")
        est.add_argument("--cache", help="ignored: gamma is closed-form")
        est.set_defaults(func=cmd_estimate)

    rate = sub.add_parser(
        "rate-experiment", parents=[common], help="convergence-rate study over a size grid"
    )
    rate.add_argument("--config", required=True, help="experiment config JSON")
    rate.add_argument("--out", required=True, help="output CSV (long format)")
    rate.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    rate.set_defaults(func=cmd_rate_experiment)

    isa = sub.add_parser(
        "isa", parents=[common], help="subspace-separation study on mixed wireframe sources"
    )
    source = isa.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="experiment config JSON")
    source.add_argument("--paper-scale", action="store_true",
                        help="run the built-in full-size configuration (6 sources, q=18)")
    isa.add_argument("--out-dir", required=True, dest="out_dir",
                     help="directory for solution.json and block_norms.csv")
    isa.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    isa.set_defaults(func=cmd_isa)

    diag = sub.add_parser("diagnostics", help="run the structural checks")
    diag.add_argument("--out", help="also write the report JSON here")
    diag.add_argument("--quick", action="store_true", help="one representative cell per check")
    diag.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    diag.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (DataFormatError, InsufficientPointsError, OutsideCubeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DegenerateSampleError, HistogramInfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NNEntropyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
