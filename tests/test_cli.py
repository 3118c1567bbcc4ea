"""Command-line behavior: output contracts, formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meanslab
import meanslab.cli as cli
from meanslab.catalog import RecordSpec, build_record
from meanslab.cli import run


@pytest.fixture(autouse=True)
def in_tmp_cwd(tmp_path, monkeypatch):
    # commands write nothing into the working directory; run each test in an
    # empty one so the ones that write files cannot litter the checkout
    monkeypatch.chdir(tmp_path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_prints_a_bare_number(capsys):
    code, out = run_cli(capsys, "eval", "--mean", "arithmetic", "--a", "1", "--b", "3")
    assert code == 0
    assert out == "2\n"


def test_eval_prints_full_precision(capsys):
    code, out = run_cli(capsys, "eval", "--mean", "M", "--a", "3", "--b", "1")
    assert code == 0
    digits = [c for c in out.strip() if c.isdigit()]
    assert len(digits) >= 15
    assert float(out) == pytest.approx(2.0780869212350275, rel=1e-15)


def test_eval_accepts_glog_orders(capsys):
    # L_1 is the arithmetic mean; the general-order branch may carry a couple
    # of ulps of roundtrip error, so parse rather than string-match
    code, out = run_cli(capsys, "eval", "--mean", "L:1", "--a", "1", "--b", "3")
    assert code == 0
    assert float(out) == pytest.approx(2.0, rel=1e-14)


def test_constants_output(capsys):
    code, out = run_cli(capsys, "constants")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 24
    assert any("0.567296" in line for line in lines)
    assert any(line.startswith("thm3.1.lower = 1/(2*ln(1+sqrt(2))) - 1 = -0.432703") for line in lines)


def test_p0_output(capsys):
    code, out = run_cli(capsys, "p0")
    assert code == 0
    assert out.startswith("p0 = 1.843")
    assert "residual" in out


def test_series_check_passes(capsys):
    code, out = run_cli(capsys, "series-check")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_verify_single_record_with_pair(capsys):
    code, out = run_cli(
        capsys, "verify", "--record", "thm3.1", "--a", "3", "--b", "1",
        "--format", "json-lines",
    )
    assert code == 0
    row = json.loads(out)
    assert row["id"] == "thm3.1"
    assert row["pass"] is True
    assert row["margins"]["lower"] == pytest.approx(0.0107905926817720, rel=1e-10)


def test_verify_all_formats_carry_the_same_records(capsys):
    code, human = run_cli(capsys, "verify-all", "--samples", "500")
    assert code == 0
    assert len(human.strip().splitlines()) == 17

    code, jl = run_cli(capsys, "verify-all", "--samples", "500", "--format", "json-lines")
    assert code == 0
    jl_rows = [json.loads(line) for line in jl.strip().splitlines()]

    code, cv = run_cli(capsys, "verify-all", "--samples", "500", "--format", "csv")
    assert code == 0
    reader = csv.DictReader(io.StringIO(cv))
    cv_rows = []
    for raw in reader:
        cv_rows.append(
            {
                "id": raw["id"],
                "kind": raw["kind"],
                "inputs": json.loads(raw["inputs"]),
                "values": json.loads(raw["values"]),
                "margins": json.loads(raw["margins"]),
                "pass": json.loads(raw["pass"]),
            }
        )
    assert cv_rows == jl_rows
    assert all(r["pass"] for r in jl_rows)


def test_machine_output_is_byte_identical_across_runs(capsys):
    args = ("verify-all", "--samples", "400", "--seed", "9", "--format", "json-lines")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_output_file_written_with_lf(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out = run_cli(
        capsys, "verify", "--record", "amt", "--samples", "100",
        "--format", "json-lines", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    raw = target.read_bytes()
    assert raw.endswith(b"\n")
    assert b"\r" not in raw
    assert json.loads(raw.decode("utf-8"))["id"] == "amt"


def test_unwritable_output_is_an_io_error_exit_2(tmp_path, capsys):
    target = tmp_path / "a-directory"
    target.mkdir()
    code = run(["verify-all", "--samples", "10", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("meanslab: ")
    # nothing else lands in the working directory, which is tmp_path
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]


def test_defaults_and_an_explicit_seed(capsys):
    _, out = run_cli(capsys, "verify", "--record", "chain", "--format", "json-lines")
    inputs = json.loads(out)["inputs"]
    assert (inputs["seed"], inputs["samples"]) == (42, 100_000)
    _, out = run_cli(capsys, "series-check", "--format", "json-lines")
    assert {json.loads(line)["inputs"]["depth"] for line in out.splitlines()} == {200}
    _, out = run_cli(capsys, "verify", "--record", "chain", "--samples", "50",
                     "--seed", "3", "--format", "json-lines")
    assert json.loads(out)["inputs"]["seed"] == 3


def test_usage_errors_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["scan", "--h", "2", "--samples", "7"]) == 2
    assert run(["eval", "--mean", "bogus", "--a", "1", "--b", "2"]) == 2
    assert run(["eval", "--mean", "arithmetic", "--a", "-1", "--b", "2"]) == 2
    assert run(["verify-all", "--samples", "0"]) == 2
    assert run(["series-check", "--depth", "0"]) == 2
    assert run(["verify-all", "--format", "yaml"]) == 2
    assert run(["verify", "--record", "no-such-record"]) == 2
    assert run(["verify", "--record", "thm3.1", "--a", "3"]) == 2
    assert run(["sharpness", "--record", "chain"]) == 2
    assert run(["sharpness", "--record", "thm3.1", "--epsilon", "-1"]) == 2
    assert run(["sharpness", "--record", "thm3.1", "--epsilon", "inf"]) == 2
    assert run(["verify", "--record", "kyfan", "--a", "0.7", "--b", "0.2"]) == 2
    assert run([]) == 2


def test_a_failing_verification_exits_1(capsys, monkeypatch):
    # a deliberately false statement: the chain A < G fails on every distinct pair
    bogus = build_record(RecordSpec("bogus-ag", "classical-ordering", "chain", "A G"))
    monkeypatch.setattr(cli, "record", lambda rid: bogus)
    code, out = run_cli(capsys, "verify", "--record", "bogus-ag", "--samples", "200")
    assert code == 1
    assert out.startswith("FAIL")


def test_sharpness_command(capsys):
    code, out = run_cli(capsys, "sharpness", "--record", "thm3.4",
                        "--format", "json-lines")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["id"] for r in rows} == {"thm3.4:thm3.4.lower", "thm3.4:thm3.4.upper"}
    assert all(r["pass"] for r in rows)


def test_sharpness_without_a_witness_is_inconclusive(capsys):
    # at ε = 1e-9 the near-end probes of thm3.1 cannot clear the noise
    # threshold: no witness is not a counterexample, so exit 3, not 1
    code, out = run_cli(capsys, "sharpness", "--record", "thm3.1", "--epsilon", "1e-9")
    assert code == 3
    assert "NO-WITNESS thm3.1:" in out
    code, out = run_cli(capsys, "sharpness", "--record", "thm3.1", "--epsilon", "1e-6")
    assert code == 0
    assert out.count("SHARP thm3.1:") == 2


def test_console_entry_point_runs_in_a_subprocess(tmp_path):
    """Run ``python -m meanslab.cli``, the module behind the ``meanslab`` script.

    The child starts in ``tmp_path``, where a relative ``PYTHONPATH`` such as
    ``src`` would not resolve, so the directory holding the imported package
    goes first as an absolute entry and the child runs the same code.
    """
    package_root = str(Path(meanslab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, inherited]))
    proc = subprocess.run(
        [sys.executable, "-m", "meanslab.cli", "eval",
         "--mean", "arithmetic", "--a", "1", "--b", "3"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2\n"
