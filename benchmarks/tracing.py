"""In-memory spans recorded by the benchmark around its calls into meanslab.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that was open when it started, and the id of the pass it belongs
to.  Spans stay in memory while the benchmark runs and are written as JSON
lines when it ends, so writing costs nothing inside a timed region.

The untraced run uses :func:`null_span`, which records nothing; end-to-end
numbers come only from that run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns

_NULL = nullcontext()


def null_span(name: str):
    """The span factory of an untraced run: a reusable no-op context."""
    return _NULL


class Tracer:
    """Records nested spans; ``pass_id`` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, pass_id]
        self._open: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, perf_counter_ns(), None, parent, self.pass_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_pass(self, *, self_time: bool = False) -> dict[str, dict[int, int]]:
        """Nanoseconds per span name and pass, summed over same-named spans."""
        times = self.self_ns() if self_time else [e - s for _, s, e, _, _ in self.spans]
        out: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for (name, _, _, _, pass_id), ns in zip(self.spans, times):
            out[name][pass_id] += ns
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "pass": pass_id},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
