"""Command-line front end.

Exit codes: 0 on success (all checks passed), 1 when a verification
produced a certified failure, 2 on usage, domain or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import reporting
from .catalog import catalog, record, sharpness_probe, verify, verify_random
from .constants import sharp_constants
from .errors import BracketError, DomainError, NotApplicableError, ParameterError
from .means import PositivePair, parse
from .ratios import THETA_STAR, h_eval, solve_p0
from .series import SeriesId, difference_sign_check

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 100_000
DEFAULT_DEPTH = 200


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: the command plus the shared knobs."""

    command: str
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    depth: int = DEFAULT_DEPTH
    output_format: str = "human"
    output_path: str | None = None

    def __post_init__(self):
        if self.command not in _DISPATCH:
            raise ParameterError(f"unknown command {self.command!r}")
        if self.samples < 1:
            raise ParameterError("samples must be at least 1")
        if self.depth < 1:
            raise ParameterError("depth must be at least 1")
        if self.output_format not in reporting.FORMATS:
            raise ParameterError(f"unknown output format {self.output_format!r}")


def _env_seed() -> int:
    raw = os.environ.get("MEANSLAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"MEANSLAB_SEED must be an integer, got {raw!r}")


def build_parser(default_seed: int) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=default_seed)
    common.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    common.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
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

    p = sub.add_parser("scan", parents=[common], help="tabulate one h function")
    p.add_argument("--h", type=int, choices=(1, 2, 3), required=True)

    p = sub.add_parser("sharpness", parents=[common], help="probe sharp constants")
    p.add_argument("--record", default=None, help="restrict to one record id")
    p.add_argument("--epsilon", type=float, default=1e-6)

    sub.add_parser("p0", parents=[common], help="solve for the critical exponent")
    sub.add_parser("constants", parents=[common], help="list the sharp constants")

    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        seed=args.seed,
        samples=args.samples,
        depth=args.depth,
        output_format=args.output_format,
        output_path=args.output_path,
    )


def _finish(rows: list[dict], cfg: RunConfig, code: int) -> int:
    reporting.emit(reporting.render(rows, cfg.output_format), cfg.output_path)
    return code


def _cmd_eval(cfg: RunConfig, args) -> int:
    label, kernel = parse(args.mean)
    pair = PositivePair(args.a, args.b)
    rows = [reporting.eval_row(label, args.a, args.b, kernel(pair.a, pair.b))]
    return _finish(rows, cfg, 0)


def _cmd_constants(cfg: RunConfig, args) -> int:
    rows = [reporting.constant_row(c) for c in sharp_constants()]
    return _finish(rows, cfg, 0)


def _cmd_p0(cfg: RunConfig, args) -> int:
    root = solve_p0()
    with mp.workdps(40):
        residual = abs(
            mp.power(root + 1, 1 / mp.mpf(root)) - 2 * mp.log(1 + mp.sqrt(2))
        )
    rows = [reporting.p0_row(root, float(residual))]
    return _finish(rows, cfg, 0)


def _cmd_series_check(cfg: RunConfig, args) -> int:
    rows = []
    ok = True
    for sid in SeriesId:
        rep = difference_sign_check(sid, cfg.depth)
        ok = ok and rep.passed
        rows.append(reporting.series_row(rep))
    return _finish(rows, cfg, 0 if ok else 1)


def _cmd_scan(cfg: RunConfig, args) -> int:
    label = f"h{args.h}"
    thetas = np.linspace(THETA_STAR / cfg.samples, THETA_STAR, cfg.samples)
    values = h_eval(label, thetas)
    rows = [
        reporting.scan_row(label, float(t), float(v))
        for t, v in zip(thetas, values)
    ]
    return _finish(rows, cfg, 0)


def _cmd_verify(cfg: RunConfig, args) -> int:
    rec = record(args.record)
    if (args.a is None) != (args.b is None):
        raise ParameterError("verify needs both --a and --b, or neither")
    if args.a is not None:
        margins = verify(rec, PositivePair(args.a, args.b))
        rows = [reporting.pair_margins_row(margins, args.a, args.b)]
        code = 0 if margins.passed else 1
    else:
        report = verify_random(rec, cfg.samples, cfg.seed)
        rows = [reporting.report_row(report)]
        code = 0 if report.passed else 1
    return _finish(rows, cfg, code)


def _cmd_verify_all(cfg: RunConfig, args) -> int:
    rows = []
    ok = True
    for rec in catalog():
        report = verify_random(rec, cfg.samples, cfg.seed)
        ok = ok and report.passed
        rows.append(reporting.report_row(report))
    return _finish(rows, cfg, 0 if ok else 1)


def _cmd_sharpness(cfg: RunConfig, args) -> int:
    records = [record(args.record)] if args.record else list(catalog())
    rows = []
    ok = True
    for rec in records:
        if not rec.probes:
            continue
        for result in sharpness_probe(rec, args.epsilon):
            ok = ok and result.found
            rows.append(reporting.probe_row(result))
    if not rows:
        raise ParameterError(f"record {args.record!r} declares no sharp constants")
    return _finish(rows, cfg, 0 if ok else 1)


_DISPATCH = {
    "eval": _cmd_eval,
    "verify-all": _cmd_verify_all,
    "verify": _cmd_verify,
    "series-check": _cmd_series_check,
    "scan": _cmd_scan,
    "sharpness": _cmd_sharpness,
    "p0": _cmd_p0,
    "constants": _cmd_constants,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute, and return the process exit code."""
    try:
        parser = build_parser(default_seed=_env_seed())
    except ParameterError as exc:
        print(f"meanslab: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _config(args)
        return _DISPATCH[args.command](cfg, args)
    except (ParameterError, DomainError, NotApplicableError, BracketError, ValueError, OSError) as exc:
        print(f"meanslab: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
