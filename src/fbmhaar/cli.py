"""Command-line front-end: generate paths, dump coefficients, run
validation campaigns.

All configuration is explicit flags (no environment variables), numeric
flags are range-checked before any computation starts, and file bodies
never contain timestamps, so identical invocations produce byte-identical
artifacts.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from importlib import metadata

import numpy as np

from .coefficients import (CoefficientKind, HurstParams, _check_t,
                           coeff_matrix)
from .expansion import GeneratorConfig, _check_times, generate_path
from .haar import dyadic_arrays
from .noise import draw_bundle, dump_bundle
from . import validation

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3

# acceptance-grade campaign defaults
COEFF_H_SET = (0.1, 0.25, 0.5, 0.75, 0.9)
COEFF_T_SET = (0.0, 0.137, 0.5, 1.0)
COVARIANCE_H_SET = (0.3, 0.5, 0.7)
COVARIANCE_GRID = (0.25, 0.5, 0.75, 1.0)
RATE_H_SET = (0.3, 0.5, 0.7)

# Each validate-* command: its campaign in fbmhaar.validation (looked up
# when it runs), the campaign's fixed arguments, and its flags as
# {flag: (campaign parameter, default)}; --hurst replaces a fixed h_set.
CAMPAIGNS = {
    "validate-coeffs": (
        "run_coefficient_campaign",
        {"h_set": COEFF_H_SET, "t_set": COEFF_T_SET},
        {"levels": ("n_max", 255), "workers": ("workers", 0)}),
    "validate-parseval": (
        "run_parseval_campaign",
        {"h_set": COEFF_H_SET, "t_set": COEFF_T_SET}, {}),
    "validate-covariance": (
        "run_covariance_campaign",
        {"h_set": COVARIANCE_H_SET, "time_grid": COVARIANCE_GRID},
        {"levels": ("n_terms", 1023), "paths": ("n_paths", 20000),
         "seed": ("seed", 0)}),
    "validate-rate": (
        "run_rate_campaign", {"h_set": RATE_H_SET},
        {"seed": ("seed0", 0), "seeds": ("n_seeds", 32)}),
    # runs at H = 1/2 by definition
    "validate-brownian": (
        "run_brownian_campaign", {},
        {"levels": ("n_terms", 1023), "paths": ("n_paths", 10000),
         "seed": ("seed", 0)}),
}
_FLAG_HELP = {"seeds": "number of independent seeds"}


def _fmt(x: float) -> str:
    """Round-trip decimal form (17 significant digits)."""
    return format(float(x), ".17g")


def _version() -> str:
    try:
        return metadata.version("fbmhaar")
    except metadata.PackageNotFoundError:
        return "unknown"


def _parse_times(args, parser) -> np.ndarray:
    if args.times_file is not None:
        try:
            with open(args.times_file, "r", encoding="ascii") as fh:
                values = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise _IoFailure(f"cannot read times file: {exc}") from exc
        times = np.asarray(values, dtype=np.float64)
    elif args.spacing == "equispaced":
        if args.times < 1:
            parser.error("--times must be positive")
        times = np.arange(args.times + 1, dtype=np.float64) / args.times
    else:  # dyadic: all k/2**j with j <= depth, deduplicated
        depth = args.times
        if not 0 < depth <= 20:
            parser.error("dyadic depth must lie in 1..20")
        times = np.arange(2**depth + 1, dtype=np.float64) / 2.0**depth
    return _check_times(times)


class _IoFailure(Exception):
    pass


def _write_text(path: str | None, body: str) -> None:
    try:
        if path is None or path == "-":
            sys.stdout.write(body)
        else:
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                fh.write(body)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


def _check_hurst(parser, value: float) -> float:
    if not 0.0 < value < 1.0:
        parser.error(f"--hurst must lie strictly inside (0, 1), got {value}")
    return value


def _check_levels(parser, value: int) -> int:
    if value < 2:
        parser.error(f"--levels must be at least 2, got {value}")
    return value


def cmd_generate(args, parser) -> int:
    hurst = _check_hurst(parser, args.hurst)
    n_terms = _check_levels(parser, args.levels)
    if args.format == "binary-bundle":
        # the noise alone: no instants are read and no path is evaluated
        bundle = draw_bundle(args.seed, n_terms)
        try:
            if args.out == "-":
                dump_bundle(bundle, sys.stdout.buffer)
                sys.stdout.buffer.flush()
            else:
                with open(args.out, "wb") as fh:
                    dump_bundle(bundle, fh)
        except OSError as exc:
            raise _IoFailure(str(exc)) from exc
        return EXIT_OK
    config = GeneratorConfig(params=HurstParams(hurst),
                             n_terms=n_terms, seed=args.seed,
                             workers=args.workers)
    sample = generate_path(_parse_times(args, parser), config)
    # workers deliberately not recorded: the file must be byte-identical
    # for every parallelism degree
    lines = [
        f"# generator: fbmhaar {_version()}",
        f"# hurst: {_fmt(hurst)}",
        f"# levels: {n_terms}",
        f"# seed: {args.seed}",
        "t,value",
    ]
    lines += [f"{_fmt(t)},{_fmt(v)}"
              for t, v in zip(sample.times, sample.values)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_dump_coeffs(args, parser) -> int:
    hurst = _check_hurst(parser, args.hurst)
    n_terms = _check_levels(parser, args.levels)
    try:
        _check_t(args.t)
    except ValueError as exc:
        parser.error(f"--t: {exc}")
    p = HurstParams(hurst)
    t = np.array([args.t])
    f1 = coeff_matrix(CoefficientKind.F1, t, p, 0, n_terms)[0]
    f2 = coeff_matrix(CoefficientKind.F2, t, p, 0, n_terms)[0]
    g = coeff_matrix(CoefficientKind.G, t, p, 0, n_terms)[0]
    lines = [
        f"# generator: fbmhaar {_version()}",
        f"# hurst: {_fmt(hurst)}",
        f"# t: {_fmt(args.t)}",
        "n,j,k,f1,f2,g",
    ]
    # row n = 0 is the scaling function, which has no (j, k)
    js, ks = ([-1] + v.astype(np.int64).tolist()
              for v in dyadic_arrays(1, n_terms)[:2])
    for n, (j, k) in enumerate(zip(js, ks)):
        lines.append(f"{n},{j},{k},{_fmt(f1[n])},{_fmt(f2[n])},{_fmt(g[n])}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _emit_report(report, args) -> int:
    if args.format == "report-structured":
        _write_text(args.out, report.to_json())
    else:
        _write_text(args.out, report.to_text())
    if not report.passed:
        failing = [r for r in report.records if not r.passed]
        for r in failing:
            print(f"FAILED: {r.name}: observed={r.observed!r} "
                  f"target={r.target!r} tol={r.tolerance!r} {r.note}",
                  file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_validate(args, parser) -> int:
    campaign, fixed, flags = CAMPAIGNS[args.command]
    kwargs = dict(fixed)
    if "h_set" in fixed and args.hurst is not None:
        kwargs["h_set"] = [_check_hurst(parser, args.hurst)]
    kwargs.update((param, getattr(args, flag))
                  for flag, (param, _) in flags.items())
    return _emit_report(getattr(validation, campaign)(**kwargs), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmhaar",
        description="Fractional Brownian motion by truncated Haar expansion:"
                    " path generation and oracle-backed validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write one sample path as CSV")
    gen.add_argument("--hurst", type=float, required=True)
    gen.add_argument("--levels", type=int, required=True,
                     help="series truncation index N")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--times", type=int, default=256,
                     help="equispaced: i/T for i=0..T; dyadic: depth j")
    gen.add_argument("--spacing", choices=("equispaced", "dyadic"),
                     default="equispaced")
    gen.add_argument("--times-file", default=None,
                     help="explicit list, one time per line (overrides "
                          "--times/--spacing)")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.add_argument("--format", choices=("csv", "binary-bundle"),
                     default="csv")

    dump = sub.add_parser("dump-coeffs",
                          help="write the three coefficient families at one t")
    dump.add_argument("--hurst", type=float, required=True)
    dump.add_argument("--levels", type=int, required=True)
    dump.add_argument("--t", type=float, required=True)
    dump.add_argument("--out", default="-")

    for name, (_, fixed, flags) in CAMPAIGNS.items():
        val = sub.add_parser(name, help=f"run the {name[9:]} campaign")
        if "h_set" in fixed:
            val.add_argument("--hurst", type=float, default=None,
                             help="restrict to one Hurst index")
        val.add_argument("--out", default="-")
        val.add_argument("--format",
                         choices=("report-text", "report-structured"),
                         default="report-text")
        for flag, (_, default) in flags.items():
            val.add_argument(f"--{flag}", type=int, default=default,
                             help=_FLAG_HELP.get(flag))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args, parser)
        if args.command == "dump-coeffs":
            return cmd_dump_coeffs(args, parser)
        return cmd_validate(args, parser)
    except _IoFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"invalid request: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
