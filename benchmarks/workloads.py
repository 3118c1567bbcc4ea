"""The three workloads: seeded inputs, one pass each, and the checks on its output.

* ``verify-all`` — the headline user task, ``meanslab verify-all`` at 1e6
  samples run in-process through ``cli.run``.  Most of its time is in the
  catalog's margin functions and the bulk kernels behind them.
* ``kernel-bands`` — every public kernel on 1e6-element arrays in three
  bands of t = |a-b|/(a+b), so each branch lane of the kernels is timed,
  including the near-equal lane that the verify-all sampler almost never
  reaches.
* ``certify`` — exact series checks, the mpmath identity oracle, per-pair
  verification, sharpness probes, ``solve_p0`` and monotonicity scans: the
  scalar uses of the same layers, where per-call overhead dominates.

A pass returns the seconds spent in the calls it times; checks are made
outside those intervals.  ``layer_probes`` runs only in the traced run and
times single layers on their own (per-record margins, scalar kernels, the
lanes of ``h_eval``), all under spans named after the layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

import mpmath as mp
import numpy as np

import meanslab as ml
import oracles
from meanslab import cli, reporting
from meanslab.ratios import TAU_H, THETA_STAR
from meanslab.series import SeriesId

BANDS = ("near", "mid", "far")

# Relative bound on identity residuals, as in acceptance criterion 4.
RESIDUAL_BOUND = 1e-11


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one run; the defaults are the benchmark's."""

    samples: int = 1_000_000  # verify-all --samples
    kernel_elems: int = 1_000_000  # pairs per band
    kernel_checks: int = 32  # oracle-checked elements per kernel and band
    depth: int = 2000  # difference_sign_check depth
    oracle_pairs: int = 10_000  # identity_residuals calls per pass
    verify_pairs: int = 3000  # pairs verified against every record per pass
    scan_grid: int = 100_000  # monotonicity_scan grid
    scalar_calls: int = 1000  # calls per scalar-latency probe
    h_elems: int = 100_000  # elements per h_eval lane probe
    renders: int = 100  # reporting.render calls per probe
    starts: int = 15  # fresh interpreters per set-up measurement


class Checks:
    """Counts checks attempted and failed; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str, *args) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what % args if args else what)


def kernel_table() -> dict:
    """Every public kernel, by the label used in metric names."""
    p0 = ml.constant("lp0-l2.lower").float_value
    glog = ml.generalized_logarithmic
    return {
        "A": ml.arithmetic,
        "G": ml.geometric,
        "H": ml.harmonic,
        "Cbar": ml.centroidal,
        "C": ml.contraharmonic,
        "P": ml.first_seiffert,
        "T": ml.second_seiffert,
        "Q": ml.root_square,
        "M": ml.neuman_sandor,
        "CH": ml.ch_difference,
        "L-1": partial(glog, -1.0),
        "L0": partial(glog, 0.0),
        "L2": partial(glog, 2.0),
        "Lp0": partial(glog, p0),
    }


def log_ratio_pairs(rng: np.random.Generator, n: int):
    """a/b log-uniform in (1, 1e8] at a random decade scale: the catalog's
    default sampling distribution."""
    ratio = 10.0 ** rng.uniform(0.0, 8.0, n)
    b = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return ratio * b, b


def band_pairs(rng: np.random.Generator, band: str, n: int):
    """Pairs whose t = |a-b|/(a+b) lies in one band.

    ``near``: t log-uniform in [1e-8, 1e-4), the series lane of M.
    ``mid``: t log-uniform in [1e-4, 0.5), the direct arcsin lane of P.
    ``far``: a/b log-uniform in (3, 1e300], so t > 0.5 (the complement lane
    of P) and the log-space lane of L_p takes most of the band.
    """
    b = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if band == "far":
        ratio = 10.0 ** rng.uniform(math.log10(3.0), 300.0, n)
    else:
        lo, hi = {"near": (-8.0, -4.0), "mid": (-4.0, math.log10(0.5))}[band]
        t = 10.0 ** rng.uniform(lo, hi, n)
        ratio = (1.0 + t) / (1.0 - t)
    return ratio * b, b


def percentile_us(seconds: list[float], q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e6


# --------------------------------------------------------------------------
# verify-all


def check_verify_all(code: int, data: bytes, records: int, first_sha: str | None,
                     checks: Checks) -> tuple[str, list[dict]]:
    """Exit 0, one passing row per record, and the bytes of the first pass.

    Returns the output's sha256 and its rows."""
    sha = hashlib.sha256(data).hexdigest()
    checks.record(code == 0, "verify-all exited %d", code)
    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    checks.record(len(rows) == records, "verify-all wrote %d rows", len(rows))
    for row in rows:
        checks.record(row["pass"] is True, "verify-all row %s did not pass", row["id"])
    checks.record(first_sha in (None, sha), "verify-all output changed between passes")
    return sha, rows


class VerifyAll:
    name = "verify-all"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.records = ml.catalog()
        self.output = workdir / "verify-all.jsonl"
        self.argv = [
            "verify-all", "--samples", str(sizes.samples), "--seed", str(seed),
            "--format", "json-lines", "--output", str(self.output),
        ]
        self.sha256: str | None = None
        self.rows: list[dict] = []
        self.work_items = len(self.records) * sizes.samples
        self._probe_pairs = None

    def run_pass(self, span, checks: Checks) -> float:
        t0 = perf_counter()
        with span("cli.run"):
            code = cli.run(self.argv)
        elapsed = perf_counter() - t0
        self.sha256, self.rows = check_verify_all(
            code, self.output.read_bytes(), len(self.records), self.sha256, checks)
        return elapsed

    def summary(self, pass_s: float) -> dict:
        return {"verify_pairs_per_s": (self.work_items / pass_s, "1/s")}

    def decisive_ratio(self) -> float:
        """Share of samples whose margins were not indeterminate."""
        indeterminate = sum(row["values"]["indeterminate"] for row in self.rows)
        samples = sum(row["inputs"]["samples"] for row in self.rows)
        return 1.0 - indeterminate / samples

    def layer_probes(self, span, checks: Checks) -> None:
        if self._probe_pairs is None:
            rng = np.random.default_rng([self.seed, 1])
            n = self.sizes.samples
            unit = (rng.uniform(1e-6, 0.5 - 1e-6, n), rng.uniform(1e-6, 0.5 - 1e-6, n))
            self._probe_pairs = {"log-ratio": log_ratio_pairs(rng, n), "unit-interval": unit}
        by_id = {row["id"]: row for row in self.rows}
        for rec in self.records:
            with span(f"catalog.{rec.id}.verify_random"):
                report = ml.verify_random(rec, self.sizes.samples, self.seed)
            checks.record(reporting.report_row(report) == by_id.get(rec.id),
                          "verify_random(%s) disagrees with cli verify-all", rec.id)
            a, b = self._probe_pairs[rec.sampler]
            with span(f"catalog.{rec.id}.margins"):
                rec.margins(a, b)
        with span("reporting.render_json_lines"):
            for _ in range(self.sizes.renders):
                text = reporting.render(self.rows, "json-lines")
        checks.record(hashlib.sha256(text.encode("utf-8")).hexdigest() == self.sha256,
                      "render(json-lines) differs from the cli output")


# --------------------------------------------------------------------------
# kernel-bands


class KernelBands:
    name = "kernel-bands"

    def __init__(self, seed: int, sizes: Sizes, kernels: dict | None = None) -> None:
        self.kernels = kernels if kernels is not None else kernel_table()
        refs = oracles.references(ml.constant("lp0-l2.lower").float_value)
        rng = np.random.default_rng([seed, 2])
        n = sizes.kernel_elems
        self.inputs = {band: band_pairs(rng, band, n) for band in BANDS}
        self.expected = {}
        for band, (a, b) in self.inputs.items():
            for label in self.kernels:
                idx = rng.choice(n, min(sizes.kernel_checks, n), replace=False)
                want = np.array(oracles.reference_values(refs[label], a[idx], b[idx]))
                self.expected[label, band] = (idx, want)
        self.work_items = len(self.kernels) * len(BANDS) * n

    def run_pass(self, span, checks: Checks) -> float:
        elapsed = 0.0
        for band, (a, b) in self.inputs.items():
            for label, fn in self.kernels.items():
                t0 = perf_counter()
                with span(f"means.{label}.{band}"):
                    out = fn(a, b)
                elapsed += perf_counter() - t0
                idx, want = self.expected[label, band]
                err = np.abs(out[idx] - want) / np.abs(want)
                checks.record(bool((err <= oracles.TOLERANCE[label]).all()),
                              "%s on the %s band: relative error %.3g", label, band, float(err.max()))
        return elapsed

    def summary(self, pass_s: float) -> dict:
        return {"kernel_elems_per_s": (self.work_items / pass_s, "1/s")}

    def layer_probes(self, span, checks: Checks) -> None:
        pass


# --------------------------------------------------------------------------
# certify


class Certify:
    name = "certify"

    def __init__(self, seed: int, sizes: Sizes, records=None) -> None:
        self.sizes = sizes
        self.records = tuple(records) if records is not None else ml.catalog()
        rng = np.random.default_rng([seed, 3])
        # Criterion 4's distribution: a/b log-uniform in (1, 1e8], b = 1.
        ratios = 10.0 ** rng.uniform(0.0, 8.0, sizes.oracle_pairs)
        self.oracle_pairs = [ml.PositivePair(float(r), 1.0) for r in ratios]
        a, b = log_ratio_pairs(rng, sizes.verify_pairs)
        self.verify_pairs = [ml.PositivePair(float(x), float(y)) for x, y in zip(a, b)]
        self.thetas = {
            "series": rng.uniform(0.0, TAU_H, sizes.h_elems),
            "closed": rng.uniform(TAU_H, THETA_STAR, sizes.h_elems),
        }
        self.p0 = ml.constant("lp0-l2.lower").float_value
        self.constants = len(ml.sharp_constants())
        self.oracle_s: list[float] = []
        self.pair_s: list[float] = []
        self.probe_steps = 0

    def run_pass(self, span, checks: Checks) -> float:
        start = perf_counter()
        for sid in SeriesId:
            with span(f"series.{sid.value}.d2000"):
                rep = ml.difference_sign_check(sid, self.sizes.depth)
            checks.record(rep.passed, "series check %s failed at n=%s", sid.value, rep.first_failure)

        with span("ratios.identity_residuals"):
            for pair in self.oracle_pairs:
                t0 = perf_counter()
                res = ml.identity_residuals(pair)
                self.oracle_s.append(perf_counter() - t0)
                checks.record(res.max_residual < RESIDUAL_BOUND,
                              "identity residual %.3g at %s", res.max_residual, pair)

        with span("catalog.verify_pair"):
            for pair in self.verify_pairs:
                t0 = perf_counter()
                ok = True
                for rec in self.records:
                    try:
                        ok = ml.verify(rec, pair).passed and ok
                    except ml.NotApplicableError:
                        pass
                self.pair_s.append(perf_counter() - t0)
                checks.record(ok, "a record fails at %s", pair)

        with span("catalog.probes"):
            probes = [r for rec in self.records if rec.probes for r in ml.sharpness_probe(rec)]
        checks.record(len(probes) == self.constants, "%d probes for %d constants",
                      len(probes), self.constants)
        for r in probes:
            checks.record(r.found, "no witness for %s", r.constant_name)
        self.probe_steps = sum(r.steps for r in probes)

        with span("ratios.solve_p0"):
            p0 = ml.solve_p0()
        checks.record(abs(p0 - self.p0) <= 1e-12 * self.p0, "solve_p0 gave %r", p0)

        with span("ratios.scan"):
            scans = [ml.monotonicity_scan(h, self.sizes.scan_grid) for h in ("h1", "h2", "h3")]
        for v in scans:
            checks.record(v.passed, "%s not monotone at %s", v.series_id.value, v.first_violation)
        return perf_counter() - start

    def summary(self, pass_s: float) -> dict:
        return {
            "certify_s": (pass_s, "s"),
            "oracle_p50_us": (percentile_us(self.oracle_s, 50), "us"),
            "oracle_p99_us": (percentile_us(self.oracle_s, 99), "us"),
            "pair_verify_p50_us": (percentile_us(self.pair_s, 50), "us"),
            "pair_verify_p99_us": (percentile_us(self.pair_s, 99), "us"),
        }

    def layer_probes(self, span, checks: Checks) -> None:
        pairs = [p.as_tuple() for p in self.verify_pairs[: self.sizes.scalar_calls]]
        for label, fn in kernel_table().items():
            with span(f"means.{label}.scalar"):
                for a, b in pairs:
                    fn(a, b)
        thetas = [ml.substitution_theta(p) for p in self.oracle_pairs[: self.sizes.scalar_calls]]
        for sid in SeriesId:
            for lane, grid in self.thetas.items():
                with span(f"ratios.{sid.value}.{lane}"):
                    ml.h_eval(sid, grid)
            with span(f"ratios.{sid.value}.scalar"):
                for th in thetas:
                    ml.h_eval(sid, th)
        with span("ratios.solve_p0_loop"):
            for _ in range(self.sizes.scalar_calls):
                ml.solve_p0()
        with span("constants.expr_value"):
            with mp.workdps(40):
                for c in ml.sharp_constants():
                    ml.expr_value(c.exact_expr)


def make(name: str, seed: int, sizes: Sizes, workdir: Path):
    if name == VerifyAll.name:
        return VerifyAll(seed, sizes, workdir)
    if name == KernelBands.name:
        return KernelBands(seed, sizes)
    return Certify(seed, sizes)
