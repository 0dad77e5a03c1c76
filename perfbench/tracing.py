"""Spans and correctness bookkeeping for the benchmark.

Spans are recorded by the benchmark around its own calls into revcirc; the
program itself is not instrumented.  They stay in memory until the run
ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records one span per call into the program while `enabled`.

    A span holds its name, the pass it belongs to (the identifier all spans
    of one pass share), its parent span, start and end, and attributes the
    caller may fill in after the call.  When disabled, `span` records
    nothing and only hands back the attribute dict.
    """

    def __init__(self):
        self.enabled = False
        self.pass_id: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        record = {
            "name": name,
            "pass": self.pass_id,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def select(self, name: str, **match) -> list[dict]:
        """Spans called `name` whose attributes include `match`."""
        return [
            s for s in self.spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    def total(self, name: str, **match) -> float:
        """Summed duration of the matching spans."""
        return sum(s["end"] - s["start"] for s in self.select(name, **match))

    def per_pass(self, name: str, **match) -> dict[int, float]:
        """Summed duration of the matching spans, by pass."""
        out: dict[int, float] = defaultdict(float)
        for s in self.select(name, **match):
            out[s["pass"]] += s["end"] - s["start"]
        return dict(out)

    def export(self) -> list[dict]:
        """Spans with duration and self time (duration minus the time the
        span's children cover), ready to write as JSON."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = []
        for i, s in enumerate(self.spans):
            duration = s["end"] - s["start"]
            out.append(
                {
                    "id": i,
                    "name": s["name"],
                    "pass": s["pass"],
                    "parent": s["parent"],
                    "start_s": s["start"],
                    "duration_s": duration,
                    "self_s": duration - child_time[i],
                    "attrs": s["attrs"],
                }
            )
        return out


class Checker:
    """Counts checked operations and the ones that failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok
