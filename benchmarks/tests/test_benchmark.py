"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest benchmarks/tests -q

Checks that every metric listed in BENCHMARK.json is emitted with its unit,
that deliberately wrong outputs are counted as failures, and that the
benchmark refuses to run without the package source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import meanslab as ml  # noqa: E402
import workloads  # noqa: E402
from meanslab import cli  # noqa: E402
from tracing import null_span  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = workloads.Sizes(
    samples=2000, kernel_elems=500, kernel_checks=4, depth=20, oracle_pairs=50,
    verify_pairs=40, scan_grid=200, scalar_calls=5, h_elems=100, renders=2, starts=1,
)


def units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    result = run.run_one(workload, seed=3, seconds=0.001, trace=False, sizes=TINY)
    assert units(SPEC["end_to_end"]) == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_per_layer_metrics_are_emitted_with_units():
    result = run.run_one("certify", seed=3, seconds=0.001, trace=True, sizes=TINY)
    assert units(SPEC["per_layer"]) == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0


def test_tightened_constant_is_counted_as_failure():
    rec = ml.record("thm3.2")
    tightened = rec.lower.float_value + 1e-3  # M/CH > this is false for lopsided pairs

    def margin_fn(a, b, lower_c, upper_c):
        return rec.margins(a, b, lower_c=tightened if lower_c is None else lower_c)

    wrong = dataclasses.replace(rec, margin_fn=margin_fn)
    records = [wrong if r.id == rec.id else r for r in ml.catalog()]
    checks = workloads.Checks()
    workloads.Certify(3, TINY, records=records).run_pass(null_span, checks)
    assert checks.failed > 0
    assert all("a record fails" in f for f in checks.failures)


def test_wrong_kernel_is_counted_as_failure():
    kernels = dict(workloads.kernel_table(), G=ml.arithmetic)
    checks = workloads.Checks()
    workloads.KernelBands(3, TINY, kernels=kernels).run_pass(null_span, checks)
    assert checks.failed > 0
    assert all(f.startswith("G on the") for f in checks.failures)


def test_wrong_verify_all_output_is_counted_as_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # cli verify-all writes a state file here
    argv = ["verify-all", "--samples", "500", "--seed", "3", "--format", "json-lines",
            "--output", str(tmp_path / "out.jsonl")]
    ok = workloads.Checks()
    code = cli.run(argv)
    data = (tmp_path / "out.jsonl").read_bytes()
    sha, _ = workloads.check_verify_all(code, data, len(ml.catalog()), None, ok)
    assert ok.failed == 0

    bad = workloads.Checks()
    flipped = data.replace(b'"pass":true', b'"pass":false', 1)
    workloads.check_verify_all(code, flipped, len(ml.catalog()), sha, bad)
    assert bad.failed == 2  # the failing row, and bytes that differ from the first pass


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", ".traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
