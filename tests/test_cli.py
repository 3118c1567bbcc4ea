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
    assert any(line.startswith("thm3.1.lower = (1/ln(1+sqrt(2)) - 2)/2 = -0.432703") for line in lines)


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


# (command, format) -> (exit code, sha256 of the output) of every
# deterministic command; a change must name the bytes it moves
COMMAND_SHA256 = {
    ("constants", "human"): (0, "e2b93883bbe9788712239f262435bdd12acb2cc76546359692ae0c87bbf0ae90"),
    ("constants", "json-lines"): (0, "972227eb0a1bc5531c043ace76b856e924fae8a19ff9f7babb60de5097d215e8"),
    ("constants", "csv"): (0, "7780096766c32310fa0dfd8941e25273c897334082d9c231968da63acb9c94a7"),
    ("p0", "human"): (0, "43962fad6f8d67482a8088ed558c95cff44ea3f594c0b69594189122a337f9c8"),
    ("p0", "json-lines"): (0, "e05ce1b32a3d9345eda6635530eef8874ded9fc9c67369314a03fe2ef9e34162"),
    ("p0", "csv"): (0, "57108089205559379fd64dde8dfc604e715f2f8ce0e942f0fc7e1fbe5cc01438"),
    ("series-check", "human"): (0, "c3343a949d1f4da58b520aa4fa693760031225810e898520ff9517bc71244354"),
    ("series-check", "json-lines"): (0, "517d11f3a7d6e6c68c5f7a30d558747dd6c659c5badf9f6e400ca11ed07c727c"),
    ("series-check", "csv"): (0, "19436a459214341cfec938e375c28091be3a96a01f6d6768916145f55025077a"),
    ("sharpness", "human"): (0, "2c8b79b1f81cede27843ae12aa541ddebe3208af25eb800052c87485bf5722a2"),
    ("sharpness", "json-lines"): (0, "4c859520a625c6702ab062cba87c1e8220797a147098d9db36baf271fa065d42"),
    ("sharpness", "csv"): (0, "258af51c339059a7e8b8724ec44cc887d9520a7bca961b6ca24e52c2d9c82fef"),
    ("sharpness --epsilon 1e-9", "human"): (3, "8c49129e74e0f611a7404e0543398838b9e84237b71335973f501e86abcccdd3"),
    ("sharpness --epsilon 1e-9", "json-lines"): (3, "e075ef0c7adb95022e8b206ba287ae8d800efcaefdebe2c41094512dac77dc10"),
    ("sharpness --epsilon 1e-9", "csv"): (3, "698baad16e8a6476b0be9725ff65949642918e7fc9d1041f5e9772b449377494"),
    ("verify --record thm3.1 --a 3 --b 1", "human"): (0, "f3be99490ed2216dfe01f05cba0a594a23c3076c873d16aa2ad653bb6348dc6a"),
    ("verify --record thm3.1 --a 3 --b 1", "json-lines"): (0, "43ac05fab48ce29c0f2e1fb982f43cfee379d6b9ba65f855bb1fbfd87b815251"),
    ("verify --record thm3.1 --a 3 --b 1", "csv"): (0, "f8d277fbe11af1c903fef9be81286ae95cc41c431015f2f40b2697661792b378"),
    ("verify --record product --a 1e200 --b 1", "human"): (0, "7e90ca79401603ed45c2e32f3c1d02794bc0c6a0b4dae20b94bcbc6c3061fcd9"),
    ("verify --record product --a 1e200 --b 1", "json-lines"): (0, "53da08a648a244a91179e8b585e0d7a04bc67a6ff3b995cf3995347325ad7c82"),
    ("verify --record product --a 1e200 --b 1", "csv"): (0, "aa56727ebbd1323eede918202c7fc644a79d492b8341d0492f9995ced2201693"),
    ("verify --record chain --a 1.7e308 --b 5e-324", "human"): (0, "61fd0e0c4fdcf3a8728827f5dea8390412b73ff9da5cb739bd5c530c42663b23"),
    ("verify --record chain --a 1.7e308 --b 5e-324", "json-lines"): (0, "a265867c1293633441deb432391c33deac21e3f032ec5ff0dd30c71426d8f450"),
    ("verify --record chain --a 1.7e308 --b 5e-324", "csv"): (0, "dd29cc98f1624b3b7b12e0434c392b6b4c18437c27fe8d4e0652fc8989cfc483"),
    ("eval --mean L:2 --a 1 --b 3", "human"): (0, "df41615e1a5996aa3a4b9611f916315748963a6c6c9c1b17955a85c09afd6d92"),
    ("eval --mean L:2 --a 1 --b 3", "json-lines"): (0, "b5573d79e0bb33a4a4da43b6b22e1b5901bfaca57163b2b73bd922e2f21e2d44"),
    ("eval --mean L:2 --a 1 --b 3", "csv"): (0, "5c40f5c89594715c0b63b3d1e930cea902011ebfae5bbb3d7438866a5a2e055d"),
    ("verify-all --samples 100000 --seed 42", "human"): (0, "92ba9e1440d419cac11b2273b24389a52574c28375022adc1f04faef39c921e8"),
    ("verify-all --samples 100000 --seed 42", "json-lines"): (0, "6905d177ab298522b3bb07925bbec8de7e17995fe187c7b90c2c07b48d34c693"),
    ("verify-all --samples 100000 --seed 42", "csv"): (0, "8e27f9a3470694cc19021b8a213b4a24a5247a8a0e833a956a77c36e8f08f8db"),
}
VERIFY_ALL_JSON_LINES = ("verify-all --samples 100000 --seed 42", "json-lines")


def _pinned_run(tmp_path, command, output_format):
    target = tmp_path / "report"
    code = run([*command.split(), "--format", output_format, "--output", str(target)])
    return code, hashlib.sha256(target.read_bytes()).hexdigest()


def test_verify_all_bytes_are_pinned(tmp_path):
    # a change to sampling, blocking or the margins must name the bytes it moves
    assert _pinned_run(tmp_path, *VERIFY_ALL_JSON_LINES) == COMMAND_SHA256[VERIFY_ALL_JSON_LINES]


@pytest.mark.parametrize("command,output_format", [k for k in COMMAND_SHA256 if k != VERIFY_ALL_JSON_LINES])
def test_command_bytes_and_exit_codes_are_pinned(tmp_path, command, output_format):
    assert _pinned_run(tmp_path, command, output_format) == COMMAND_SHA256[command, output_format]


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


def test_running_out_of_memory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # exit 1 is a certified counterexample only; a sample that does not fit is
    # a resource error, as an unwritable output is
    def no_room(records, count, seed):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setattr(cli, "verify_all", no_room)
    target = tmp_path / "report.jsonl"
    code = run(["verify-all", "--samples", "10000000000", "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "meanslab: out of memory: Unable to allocate 74.5 GiB for an array with shape (10000000000,)\n"
    assert list(tmp_path.iterdir()) == []


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


def test_a_negative_seed_is_a_usage_error_that_names_the_seed(capsys):
    assert run(["verify-all", "--samples", "10", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "meanslab: seed must be >= 0\n"


def test_a_failing_verification_exits_1(capsys, monkeypatch):
    # a deliberately false statement: the chain A < G fails on every distinct pair
    bogus = build_record(RecordSpec("bogus-ag", "chain", "A G"))
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
