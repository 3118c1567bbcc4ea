"""Command-line front end.

Exit codes: 0 on success (all checks passed), 1 when a verification
produced a certified failure, 2 on usage, domain or I/O errors, and 3 when
the result is inconclusive (a sharpness probe found no witness).
"""

from __future__ import annotations

import argparse
import sys

import mpmath as mp

from . import reporting
from .catalog import catalog, record, sharpness_probe, verify, verify_random
from .constants import sharp_constants
from .errors import BracketError, DomainError, NotApplicableError, ParameterError
from .means import PositivePair, parse
from .ratios import solve_p0
from .series import SeriesId, difference_sign_check


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--samples", type=int, default=100_000)
    common.add_argument("--depth", type=int, default=200)
    common.add_argument(
        "--format",
        dest="output_format",
        choices=reporting.FORMATS,
        default="human",
    )
    common.add_argument("--output", dest="output_path", default=None)

    parser = argparse.ArgumentParser(
        prog="meanslab",
        description="Evaluate bivariate means and check the inequality catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one mean at a pair")
    p.add_argument("--mean", required=True, help="mean kind, e.g. arithmetic or L:2")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)

    sub.add_parser("verify-all", parents=[common], help="sample-check every record")

    p = sub.add_parser("verify", parents=[common], help="check one record")
    p.add_argument("--record", required=True, help="record id, e.g. thm3.1")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)

    sub.add_parser(
        "series-check", parents=[common], help="sign-check coefficient differences"
    )

    p = sub.add_parser("sharpness", parents=[common], help="probe sharp constants")
    p.add_argument("--record", default=None, help="restrict to one record id")
    p.add_argument("--epsilon", type=float, default=1e-6)

    sub.add_parser("p0", parents=[common], help="solve for the critical exponent")
    sub.add_parser("constants", parents=[common], help="list the sharp constants")

    return parser


# Each command takes the parsed arguments and returns its report rows and a
# verdict: True when every check passed, False for a certified failure and
# None when the result is inconclusive.
_EXIT_CODES = {True: 0, False: 1, None: 3}


def _cmd_eval(args):
    label, kernel = parse(args.mean)
    pair = PositivePair(args.a, args.b)
    return [reporting.eval_row(label, args.a, args.b, kernel(pair.a, pair.b))], True


def _cmd_constants(args):
    return [reporting.constant_row(c) for c in sharp_constants()], True


def _cmd_p0(args):
    root = solve_p0()
    with mp.workdps(40):
        residual = abs(
            mp.power(root + 1, 1 / mp.mpf(root)) - 2 * mp.log(1 + mp.sqrt(2))
        )
    return [reporting.p0_row(root, float(residual))], True


def _cmd_series_check(args):
    reports = [difference_sign_check(sid, args.depth) for sid in SeriesId]
    return [reporting.series_row(rep) for rep in reports], all(rep.passed for rep in reports)


def _cmd_verify(args):
    rec = record(args.record)
    if (args.a is None) != (args.b is None):
        raise ParameterError("verify needs both --a and --b, or neither")
    if args.a is not None:
        margins = verify(rec, PositivePair(args.a, args.b))
        return [reporting.pair_margins_row(margins, args.a, args.b)], margins.passed
    report = verify_random(rec, args.samples, args.seed)
    return [reporting.report_row(report)], report.passed


def _cmd_verify_all(args):
    reports = [verify_random(rec, args.samples, args.seed) for rec in catalog()]
    return [reporting.report_row(r) for r in reports], all(r.passed for r in reports)


def _cmd_sharpness(args):
    records = [record(args.record)] if args.record else catalog()
    results = [r for rec in records if rec.probes for r in sharpness_probe(rec, args.epsilon)]
    if not results:
        raise ParameterError(f"record {args.record!r} declares no sharp constants")
    # a probe without a witness shows no inequality false: inconclusive
    return [reporting.probe_row(r) for r in results], all(r.found for r in results) or None


_DISPATCH = {
    "eval": _cmd_eval,
    "verify-all": _cmd_verify_all,
    "verify": _cmd_verify,
    "series-check": _cmd_series_check,
    "sharpness": _cmd_sharpness,
    "p0": _cmd_p0,
    "constants": _cmd_constants,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute, and return the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.samples < 1:
            raise ParameterError("samples must be at least 1")
        if args.depth < 1:
            raise ParameterError("depth must be at least 1")
        rows, verdict = _DISPATCH[args.command](args)
        reporting.emit(reporting.render(rows, args.output_format), args.output_path)
    except (ParameterError, DomainError, NotApplicableError, BracketError, ValueError, OSError) as exc:
        print(f"meanslab: {exc}", file=sys.stderr)
        return 2
    return _EXIT_CODES[verdict]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
