"""meanslab benchmark: run one workload, or all three, and print its metrics.

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1            # all three workloads in turn

Run it from the repository root or anywhere else: the package is imported
from this checkout's ``src`` by absolute path, so no install is needed.
With ``--trace 0`` no spans are recorded and the run gives the end-to-end
metrics; with ``--trace 1`` it runs traced passes of every workload plus
single-layer probes, writes the spans to ``benchmarks/.traces/`` and gives
the per-layer metrics.  Metric names and units are listed in
``BENCHMARK.json``; ``README.md`` in this directory explains them.

Standard error carries a readable summary.  Standard output ends with a
JSON record (seed, output digest, environment) and, as its last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "kernel-bands", "certify")

# A fresh interpreter doing what every meanslab user pays before the first
# result: import, the 40-digit constants table and the catalog.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import meanslab
t1 = time.perf_counter()
meanslab.catalog()
meanslab.sharp_constants()
print(json.dumps({{"import_ms": (t1 - t0) * 1e3}}))
"""

# A fresh `meanslab constants`, the cheapest complete CLI command.
CLI_CODE = """\
import sys
sys.path.insert(0, {src!r})
from meanslab.cli import run
sys.exit(run(["constants"]))
"""


def die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Put this checkout's src first on sys.path and make sure it is what loads."""
    if not (SRC / "meanslab" / "__init__.py").is_file():
        die(f"no meanslab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import meanslab

    if Path(meanslab.__file__).resolve().parent != (SRC / "meanslab").resolve():
        die(f"imported meanslab from {meanslab.__file__}, not from {SRC}")


def fresh_starts(code: str, count: int, cwd: Path) -> tuple[list[float], list[str]]:
    """Wall seconds and standard output of ``count`` fresh interpreters."""
    walls, outputs = [], []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                              text=True, timeout=120)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            die(f"fresh interpreter exited {proc.returncode}: {proc.stderr.strip()}")
        outputs.append(proc.stdout)
    return walls, outputs


def environment() -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_cache": l3,
    }


def timed_passes(workload, span, checks, seconds: float) -> list[float]:
    """Passes until ``seconds`` of wall time have gone by, at least one."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        times.append(workload.run_pass(span, checks))
    return times


def end_to_end(name: str, seed: int, seconds: float, sizes, workdir: Path, checks):
    """Untraced run: the end-to-end metrics of one workload."""
    import tracing
    import workloads

    walls, _ = fresh_starts(SETUP_CODE.format(src=str(SRC)), sizes.starts, workdir)
    workload = workloads.make(name, seed, sizes, workdir)
    times = timed_passes(workload, tracing.null_span, checks, seconds)
    pass_s = statistics.median(times)
    metrics = {
        "pass_s": (pass_s, "s"),
        "setup_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    summary = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "fail_ratio": (checks.failed / checks.attempted, "1"),
        **workload.summary(pass_s),
    }
    record = {"passes": len(times), "verify_all_sha256": getattr(workload, "sha256", None)}
    return metrics, summary, record


def per_layer(name: str, seed: int, seconds: float, sizes, workdir: Path, checks):
    """Traced run: passes of every workload and the single-layer probes."""
    import tracing
    import workloads

    setup_walls, setup_out = fresh_starts(SETUP_CODE.format(src=str(SRC)), sizes.starts, workdir)
    cli_walls, _ = fresh_starts(CLI_CODE.format(src=str(SRC)), sizes.starts, workdir)
    ws = {w: workloads.make(w, seed, sizes, workdir) for w in WORKLOADS}
    tracer = tracing.Tracer()
    traced, untraced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        tracer.pass_id += 1
        for w in ws.values():
            # The named workload also gets an untraced pass next to its traced
            # one, before it and after it in turn, for the tracing overhead.
            if w.name == name and tracer.pass_id % 2 == 0:
                untraced.append(w.run_pass(tracing.null_span, checks))
            with tracer.span(f"harness.{w.name}"):
                elapsed = w.run_pass(tracer.span, checks)
            if w.name == name:
                traced.append(elapsed)
                if tracer.pass_id % 2 == 1:
                    untraced.append(w.run_pass(tracing.null_span, checks))
        for w in ws.values():
            w.layer_probes(tracer.span, checks)
    trace_file = BENCH / ".traces" / f"{name}-seed{seed}.jsonl"
    tracer.write(trace_file)

    dur = tracer.per_pass()
    own = tracer.per_pass(self_time=True)

    def med(*names: str, table=dur) -> float:
        """Median over passes of the summed nanoseconds of the named spans."""
        return statistics.median(sum(table[n][p] for n in names) for p in table[names[0]])

    va, kb, ce = ws["verify-all"], ws["kernel-bands"], ws["certify"]
    metrics = {}
    for label in kb.kernels:
        for band in workloads.BANDS:
            metrics[f"means.{label}.{band}.ns_per_elem"] = (
                med(f"means.{label}.{band}") / sizes.kernel_elems, "ns/elem")
    for label in kb.kernels:
        metrics[f"means.{label}.scalar_us"] = (
            med(f"means.{label}.scalar") / sizes.scalar_calls / 1e3, "us")
    verify_random = [f"catalog.{rec.id}.verify_random" for rec in va.records]
    margins = [f"catalog.{rec.id}.margins" for rec in va.records]
    for rec, vr, mg in zip(va.records, verify_random, margins):
        metrics[f"catalog.{rec.id}.verify_random_ms"] = (med(vr) / 1e6, "ms")
        metrics[f"catalog.{rec.id}.margins_ms"] = (med(mg) / 1e6, "ms")
    metrics["catalog.sample_aggregate_ms"] = ((med(*verify_random) - med(*margins)) / 1e6, "ms")
    metrics["catalog.decisive_ratio"] = (va.decisive_ratio(), "ratio")
    metrics["catalog.probe_ms"] = (med("catalog.probes") / 1e6, "ms")
    metrics["catalog.probe_steps"] = (ce.probe_steps, "count")
    metrics["catalog.verify_pair_p50_us"] = (workloads.percentile_us(ce.pair_s, 50), "us")
    metrics["catalog.verify_pair_p99_us"] = (workloads.percentile_us(ce.pair_s, 99), "us")
    for sid in ("H1", "H2", "H3"):
        metrics[f"series.{sid}.d2000_ms"] = (med(f"series.{sid}.d2000") / 1e6, "ms")
    for sid in ("H1", "H2", "H3"):
        for lane in ("series", "closed"):
            metrics[f"ratios.{sid}.{lane}.ns_per_elem"] = (
                med(f"ratios.{sid}.{lane}") / sizes.h_elems, "ns/elem")
        metrics[f"ratios.{sid}.scalar_us"] = (
            med(f"ratios.{sid}.scalar") / sizes.scalar_calls / 1e3, "us")
    metrics["ratios.identity_residuals_p50_us"] = (workloads.percentile_us(ce.oracle_s, 50), "us")
    metrics["ratios.identity_residuals_p99_us"] = (workloads.percentile_us(ce.oracle_s, 99), "us")
    metrics["ratios.solve_p0_us"] = (med("ratios.solve_p0_loop") / sizes.scalar_calls / 1e3, "us")
    metrics["ratios.scan_ms"] = (med("ratios.scan") / 1e6, "ms")
    metrics["constants.expr_value_ms"] = (med("constants.expr_value") / 1e6, "ms")
    metrics["import.meanslab_ms"] = (
        statistics.median(json.loads(out)["import_ms"] for out in setup_out), "ms")
    metrics["cli.cold_start_ms"] = (statistics.median(cli_walls) * 1e3, "ms")
    metrics["cli.verify_all_overhead_ms"] = (
        statistics.median(dur["cli.run"][p] - sum(dur[n][p] for n in verify_random)
                          for p in dur["cli.run"]) / 1e6, "ms")
    metrics["reporting.render_json_lines_us"] = (
        med("reporting.render_json_lines") / sizes.renders / 1e3, "us")
    for w in WORKLOADS:
        metrics[f"harness.{w}.self_ms"] = (med(f"harness.{w}", table=own) / 1e6, "ms")
    base = statistics.median(untraced)
    metrics["trace.overhead_pct"] = ((statistics.median(traced) - base) / base * 100.0, "%")
    summary = {"trace.overhead_pct": metrics["trace.overhead_pct"]}
    record = {"passes": len(traced), "verify_all_sha256": va.sha256,
              "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, summary, record


def run_one(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; returns the result object (the last output line)."""
    import workloads

    sizes = sizes or workloads.Sizes()
    checks = workloads.Checks()
    (BENCH / ".work").mkdir(exist_ok=True)
    here = Path.cwd()
    # cli verify-all writes a state file into the working directory.
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        os.chdir(tmp)
        try:
            measure = per_layer if trace else end_to_end
            metrics, summary, record = measure(name, seed, seconds, sizes, Path(tmp), checks)
        finally:
            os.chdir(here)
    try:
        (BENCH / ".work").rmdir()
    except OSError:
        pass  # another run is still using it

    print(f"{name}  seed={seed}  trace={int(trace)}  passes={record['passes']}  "
          f"checks={checks.attempted}  failed={checks.failed}", file=sys.stderr)
    for failure in checks.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    for key, (value, unit) in summary.items():
        print(f"  {key:<22} {value:.6g} {unit}", file=sys.stderr)
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  env=environment(), summary={k: v for k, (v, _) in summary.items()})
    print(json.dumps(record, sort_keys=True))
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
