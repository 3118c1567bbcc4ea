"""Command-line behavior: output contracts, formats, determinism, exit codes."""

import csv
import dataclasses
import doctest
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import meanslab
import meanslab.cli as cli
import meanslab.reporting as reporting
from meanslab.records import RecordSpec, build_record
from meanslab.series import _REGISTRY as SERIES_REGISTRY
from meanslab.series import SeriesId, series
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
    assert float(out) == pytest.approx(2.0780869212350275, rel=1e-15, abs=0.0)


def test_eval_accepts_glog_orders(capsys):
    # L_1 is the arithmetic mean; the general-order branch may carry a couple
    # of ulps of roundtrip error, so parse rather than string-match
    code, out = run_cli(capsys, "eval", "--mean", "L:1", "--a", "1", "--b", "3")
    assert code == 0
    assert float(out) == pytest.approx(2.0, rel=1e-14, abs=0.0)


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
    assert out.startswith("p0 = 1.8435205184311405  residual = ")


def test_series_check_passes(capsys):
    code, out = run_cli(capsys, "series-check")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)


def test_a_failing_series_check_names_its_first_failure(capsys, monkeypatch):
    # every closed-form difference of H1 set to 0: the direct ones disagree
    broken = dataclasses.replace(series(SeriesId.H1), difference_closed=lambda n: Fraction(0))
    monkeypatch.setitem(SERIES_REGISTRY, SeriesId.H1, broken)
    code, out = run_cli(capsys, "series-check", "--depth", "5")
    assert code == 1
    assert out.splitlines()[0] == (
        "FAIL H1  depth=5  expected=decreasing  first_difference=0  first_failure=0"
    )


def test_a_row_of_unknown_kind_renders_as_json_and_an_unknown_format_raises():
    row = reporting._row("x", "unknown-kind", None, {"v": 1}, None, None)
    assert reporting.render([row], "human") == json.dumps(row) + "\n"
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        reporting.render([row], "xml")


def test_verify_single_record_with_pair(capsys):
    code, out = run_cli(
        capsys, "verify", "--record", "thm3.1", "--a", "3", "--b", "1",
        "--format", "json-lines",
    )
    assert code == 0
    row = json.loads(out)
    assert row["id"] == "thm3.1"
    assert row["pass"] is True
    assert row["margins"]["lower"] == pytest.approx(0.0107905926817720, rel=1e-10, abs=0.0)


def test_verify_decides_a_pair_at_the_top_of_the_range(capsys):
    code, out = run_cli(capsys, "verify", "--record", "thm3.1", "--a", "1.7e308", "--b", "1e308")
    assert code == 0
    assert "indeterminate" not in out
    assert out.startswith("PASS")


@pytest.mark.parametrize("record_id", ["chain", "neuman-QA"])
def test_verify_at_the_least_subnormals_is_no_certified_failure(capsys, record_id):
    # M, L and the others round to a few ulp of 2^-1074 there: noise, not a failure
    code, out = run_cli(capsys, "verify", "--record", record_id, "--a", "1e-323", "--b", "5e-324")
    assert code == 0
    assert "FAIL" not in out


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


@pytest.mark.parametrize("output_format", reporting.FORMATS)
def test_verify_all_on_one_record_prints_that_record_s_row(capsys, output_format):
    args = ("--samples", "300", "--seed", "5", "--format", output_format)
    _, whole = run_cli(capsys, "verify-all", *args)
    lines = whole.splitlines(keepends=True)
    header = lines[:1] if output_format == "csv" else []
    rows = lines[len(header):]
    assert len(rows) == len(meanslab.catalog())
    for rec, row in zip(meanslab.catalog(), rows):
        _, one = run_cli(capsys, "verify-all", "--record", rec.id, *args)
        assert one == "".join(header) + row, rec.id


def test_machine_output_is_byte_identical_across_runs(capsys):
    args = ("verify-all", "--samples", "400", "--seed", "9", "--format", "json-lines")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_verify_all_bytes_are_pinned(tmp_path):
    # a change to sampling, blocking or the margins must name the bytes it moves
    target = tmp_path / "verify-all.jsonl"
    argv = ["verify-all", "--samples", "100000", "--seed", "42", "--format", "json-lines"]
    assert run(argv + ["--output", str(target)]) == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "6905d177ab298522b3bb07925bbec8de7e17995fe187c7b90c2c07b48d34c693"


def test_output_file_written_with_lf(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out = run_cli(
        capsys, "verify-all", "--record", "amt", "--samples", "100",
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
    _, out = run_cli(capsys, "verify-all", "--record", "chain", "--format", "json-lines")
    inputs = json.loads(out)["inputs"]
    assert (inputs["seed"], inputs["samples"]) == (42, 100_000)
    _, out = run_cli(capsys, "series-check", "--format", "json-lines")
    assert {json.loads(line)["inputs"]["depth"] for line in out.splitlines()} == {200}
    _, out = run_cli(capsys, "verify-all", "--record", "chain", "--samples", "50",
                     "--seed", "3", "--format", "json-lines")
    assert json.loads(out)["inputs"]["seed"] == 3


def test_usage_errors_exit_2(capsys):
    assert run(["frobnicate"]) == 2
    assert run(["scan", "--h", "2", "--samples", "7"]) == 2
    assert run(["eval", "--mean", "bogus", "--a", "1", "--b", "2"]) == 2
    assert run(["eval", "--mean", "arithmetic", "--a", "-1", "--b", "2"]) == 2
    assert run(["verify-all", "--samples", "0"]) == 2
    assert run(["series-check", "--depth", "0"]) == 2
    # flags belong only to the commands that read them
    assert run(["eval", "--mean", "A", "--a", "1", "--b", "2", "--seed", "3"]) == 2
    assert run(["constants", "--depth", "3"]) == 2
    assert run(["sharpness", "--samples", "5"]) == 2
    assert run(["verify-all", "--format", "yaml"]) == 2
    assert run(["verify", "--record", "no-such-record", "--a", "3", "--b", "1"]) == 2
    assert run(["verify-all", "--record", "no-such-record"]) == 2
    assert run(["verify", "--record", "thm3.1"]) == 2
    assert run(["verify", "--record", "thm3.1", "--a", "3"]) == 2
    assert run(["verify", "--record", "thm3.1", "--a", "3", "--b", "1", "--samples", "5"]) == 2
    assert run(["verify", "--record", "thm3.1", "--a", "3", "--b", "1", "--seed", "42"]) == 2
    assert run(["sharpness", "--record", "chain"]) == 2
    assert run(["sharpness", "--record", "thm3.1", "--epsilon", "-1"]) == 2
    assert run(["sharpness", "--record", "thm3.1", "--epsilon", "inf"]) == 2
    assert run(["verify", "--record", "kyfan", "--a", "0.7", "--b", "0.2"]) == 2
    assert run([]) == 2


def test_a_failing_verification_exits_1(capsys, monkeypatch):
    # a deliberately false statement: the chain A < G fails on every distinct pair
    bogus = build_record(RecordSpec("bogus-ag", "classical-ordering", "chain", "A G"))
    monkeypatch.setattr(cli, "record", lambda rid: bogus)
    code, out = run_cli(capsys, "verify-all", "--record", "bogus-ag", "--samples", "200")
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


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_python_quick_tour_runs_as_a_doctest():
    block = _readme().split("\n## Library quick tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick tour", "README.md", 0)
    report = io.StringIO()
    result = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS).run(test, out=report.write)
    assert result.attempted > 0
    assert result.failed == 0, report.getvalue()


def _readme_cli_examples():
    # the "$ meanslab ..." lines of the README's CLI block, each with the
    # lines printed under it
    block = _readme().split("\n## CLI\n", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    return [pytest.param(command, printed, id=command)
            for command, *printed in (example.splitlines() for example in block.strip().split("\n\n"))]


@pytest.mark.parametrize("command,printed", _readme_cli_examples())
def test_readme_cli_examples_match_the_program(capsys, command, printed):
    # a printed line ending in "..." is a prefix; "| head -N" keeps N lines
    command, *pipe = command.removeprefix("$ ").split(" | ")
    argv = shlex.split(command)
    assert argv[0] == "meanslab"
    code, out = run_cli(capsys, *argv[1:])
    assert code == 0
    lines = out.splitlines()
    for stage in pipe:
        assert stage.split()[0] == "head", stage
        lines = lines[: int(stage.split()[1].lstrip("-"))]
    assert len(lines) == len(printed)
    for got, want in zip(lines, printed):
        assert got.startswith(want[:-3]) if want.endswith("...") else got == want, (got, want)


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
