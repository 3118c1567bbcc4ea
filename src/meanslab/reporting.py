"""Report rows and their three renderings (human, json-lines, csv).

Every command produces a list of flat row dicts with the same six fields:
``id, kind, inputs, values, margins, pass``.  The json-lines and csv
renderings are field-for-field identical views of those rows; the human
rendering is a per-kind one-liner.  All floats go through the shortest
round-trip representation so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import mpmath as mp

from .constants import SharpConstant
from .means import format_float
from .records import Margins, ProbeResult, VerificationReport
from .series import DifferenceReport

__all__ = [
    "FORMATS",
    "ROW_FIELDS",
    "constant_row",
    "emit",
    "eval_row",
    "pair_margins_row",
    "probe_row",
    "p0_row",
    "render",
    "report_row",
    "series_row",
]

ROW_FIELDS = ("id", "kind", "inputs", "values", "margins", "pass")
FORMATS = ("human", "json-lines", "csv")
# the JSON of json-lines rows and csv cells: compact, UTF-8 as is
_compact_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _row(row_id, kind, inputs, values, margins, passed):
    return dict(zip(ROW_FIELDS, (row_id, kind, inputs, values, margins, passed)))


def eval_row(label: str, a: float, b: float, value: float) -> dict:
    return _row(label, "eval", {"a": a, "b": b}, {"mean": value}, None, None)


def pair_margins_row(m: Margins, a: float, b: float) -> dict:
    return _row(
        m.record_id,
        "verify-pair",
        {"a": a, "b": b},
        {"lower_state": m.lower_state, "upper_state": m.upper_state},
        {"lower": m.lower, "upper": m.upper},
        m.passed,
    )


def report_row(r: VerificationReport) -> dict:
    return _row(
        r.record_id,
        "verify",
        {"samples": r.samples, "seed": r.seed},
        {
            "lower_witness": list(r.lower_witness) if r.lower_witness else None,
            "upper_witness": list(r.upper_witness) if r.upper_witness else None,
            "failures": r.failures,
            "indeterminate": r.indeterminate,
        },
        {"lower": r.min_lower_margin, "upper": r.min_upper_margin},
        r.passed,
    )


def probe_row(p: ProbeResult) -> dict:
    return _row(
        f"{p.record_id}:{p.constant_name}",
        "sharpness",
        {"epsilon": p.epsilon, "tightened": p.tightened, "endpoint": p.endpoint},
        {
            "witness": list(p.witness) if p.witness else None,
            "steps": p.steps,
            "margin": p.margin,
        },
        None,
        p.found,
    )


def series_row(rep: DifferenceReport) -> dict:
    return _row(
        rep.series_id.value,
        "series-check",
        {"depth": rep.depth},
        {
            "expected": rep.expected_monotonicity,
            "first_difference": str(rep.first_difference),
            "first_failure": rep.first_failure,
        },
        None,
        rep.passed,
    )


def constant_row(c: SharpConstant) -> dict:
    value = mp.nstr(c.value, 30)
    values = {"expr": c.exact_expr, "value": value, "context": c.context}
    if c.definition:
        values["definition"] = c.definition
    return _row(c.name, "constant", None, values, None, None)


def p0_row(value: float, residual: float) -> dict:
    return _row("p0", "root", None, {"p0": value, "residual": residual}, None, None)


# --------------------------------------------------------------------------
# renderings


def _human_line(row: dict) -> str:
    kind = row["kind"]
    v = row["values"]
    if kind == "eval":
        return format_float(v["mean"])
    if kind == "constant":
        line = f"{row['id']} = {v['expr']} = {v['value']}"
        if "definition" in v:
            line += f"  [{v['definition']}]"
        return line
    if kind == "root":
        return f"p0 = {format_float(v['p0'])}  residual = {format_float(v['residual'])}"
    if kind == "verify":
        m = row["margins"]
        parts = [
            "PASS" if row["pass"] else "FAIL",
            row["id"],
            f"samples={row['inputs']['samples']}",
            f"seed={row['inputs']['seed']}",
        ]
        for side in ("lower", "upper"):
            if m[side] is not None:
                w = v[f"{side}_witness"]
                at = f"({format_float(w[0])}, {format_float(w[1])})"
                parts.append(f"min_{side}={format_float(m[side])} at {at}")
        parts.append(f"indeterminate={v['indeterminate']}")
        return "  ".join(parts)
    if kind == "verify-pair":
        m = row["margins"]
        state = "PASS" if row["pass"] else "FAIL"
        bits = [state, row["id"]]
        for side in ("lower", "upper"):
            if m[side] is not None:
                bits.append(f"{side}={format_float(m[side])} ({v[side + '_state']})")
        i = row["inputs"]
        bits.append(f"at ({format_float(i['a'])}, {format_float(i['b'])})")
        return "  ".join(bits)
    if kind == "sharpness":
        if row["pass"]:
            w = v["witness"]
            return (
                f"SHARP {row['id']}  tightened={format_float(row['inputs']['tightened'])}"
                f"  witness=({format_float(w[0])}, {format_float(w[1])})"
                f"  steps={v['steps']}  margin={format_float(v['margin'])}"
            )
        return f"NO-WITNESS {row['id']}  tightened={format_float(row['inputs']['tightened'])}"
    if kind == "series-check":
        state = "PASS" if row["pass"] else "FAIL"
        line = (
            f"{state} {row['id']}  depth={row['inputs']['depth']}"
            f"  expected={v['expected']}  first_difference={v['first_difference']}"
        )
        if v["first_failure"] is not None:
            line += f"  first_failure={v['first_failure']}"
        return line
    return json.dumps(row)


def render(rows: list[dict], output_format: str) -> str:
    """Render rows in one of the three formats, always LF-terminated."""
    if output_format == "human":
        return "".join(_human_line(r) + "\n" for r in rows)
    if output_format == "json-lines":
        return "".join(_compact_json(r) + "\n" for r in rows)
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for r in rows:
            writer.writerow([r["id"], r["kind"], *(_compact_json(r[f]) for f in ROW_FIELDS[2:])])
        return buf.getvalue()
    raise ValueError(f"unknown output format {output_format!r}")


def emit(text: str, output_path: str | None) -> None:
    """Write the rendered report to a file (UTF-8, LF) or stdout."""
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
