"""Command-line front end.

Exit codes: 0 on success (all checks passed), 1 when a verification
produced a certified failure, 2 on usage, domain or I/O errors and when
memory runs out, and 3 when the result is inconclusive (a sharpness probe
found no witness).

Every subcommand takes ``--format`` and ``--output``.  ``verify`` checks
one record on one pair, and ``verify-all`` samples: only it takes ``--seed``
and ``--samples``, and ``--record`` runs it on one record.  Only
``series-check`` takes ``--depth``.  Each command is one library call;
argparse and the library do the validation, so a count below 1 or an
unknown record exits 2.
"""

from __future__ import annotations

import argparse
import sys

from . import reporting
from .constants import p0_residual, solve_p0
from .errors import NotApplicableError
from .means import PositivePair, parse
from .records import catalog, record, sharp_constants, sharpness_probe, verify, verify_all
from .series import SeriesId, difference_sign_check


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", dest="output_format", choices=reporting.FORMATS, default="human")
    common.add_argument("--output", dest="output_path", default=None)

    description = "Evaluate bivariate means and check the inequality catalog."
    parser = argparse.ArgumentParser(prog="meanslab", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one mean at a pair")
    p.add_argument("--mean", required=True, help="mean kind, e.g. arithmetic or L:2")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("verify-all", parents=[common], help="sample-check every record")
    p.add_argument("--record", default=None, help="restrict to one record id")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(run=_cmd_verify_all)

    p = sub.add_parser("verify", parents=[common], help="check one record on one pair")
    p.add_argument("--record", required=True, help="record id, e.g. thm3.1")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("series-check", parents=[common], help="sign-check coefficient differences")
    p.add_argument("--depth", type=int, default=200)
    p.set_defaults(run=_cmd_series_check)

    p = sub.add_parser("sharpness", parents=[common], help="probe sharp constants")
    p.add_argument("--record", default=None, help="restrict to one record id")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(run=_cmd_sharpness)

    p = sub.add_parser("p0", parents=[common], help="solve for the critical exponent")
    p.set_defaults(run=_cmd_p0)
    p = sub.add_parser("constants", parents=[common], help="list the sharp constants")
    p.set_defaults(run=_cmd_constants)

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
    return [reporting.p0_row(root, p0_residual(root))], True


def _cmd_series_check(args):
    reports = [difference_sign_check(sid, args.depth) for sid in SeriesId]
    return [reporting.series_row(rep) for rep in reports], all(rep.passed for rep in reports)


def _cmd_verify(args):
    margins = verify(record(args.record), PositivePair(args.a, args.b))
    return [reporting.pair_margins_row(margins, args.a, args.b)], margins.passed


def _cmd_verify_all(args):
    records = [record(args.record)] if args.record else catalog()
    reports = verify_all(records, args.samples, args.seed)
    return [reporting.report_row(r) for r in reports], all(r.passed for r in reports)


def _cmd_sharpness(args):
    records = [record(args.record)] if args.record else [r for r in catalog() if r.probes]
    results = [r for rec in records for r in sharpness_probe(rec, args.epsilon)]
    # a probe without a witness shows no inequality false: inconclusive
    return [reporting.probe_row(r) for r in results], all(r.found for r in results) or None


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute, and return the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        rows, verdict = args.run(args)
        reporting.emit(reporting.render(rows, args.output_format), args.output_path)
    except (NotApplicableError, ValueError, OSError) as exc:
        print(f"meanslab: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a resource error like OSError: no verdict, nothing written
        print(f"meanslab: out of memory: {exc}" if str(exc) else "meanslab: out of memory", file=sys.stderr)
        return 2
    return _EXIT_CODES[verdict]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
