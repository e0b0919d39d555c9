"""In-memory spans recorded around calls into the package's layers.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``. Spans are kept
in a list while the benchmark runs and written out once at the end. Self
time is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, _now(), 0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = _now()

    def wrap(self, name: str, fn, sink: list | None = None):
        """``fn`` with a span named ``name`` around every call; with a sink,
        each call also appends ``(args, result, duration_ms)`` to it."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if sink is not None:
                sink.append((args, result, (record[2] - record[1]) / 1e6))
            return result
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0
            cursor = start
            for c_start, c_end in sorted(children.get(i, ())):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(end - start - covered)
        return out

    def nesting_errors(self) -> list[str]:
        """Children that start before or end after their parent, and spans
        whose self time is negative or exceeds their own duration."""
        errors = []
        selfs = self.self_times()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if not 0 <= selfs[i] <= end - start:
                errors.append(f"span {i} ({name}) self time {selfs[i]} outside [0, {end - start}]")
            if parent >= 0:
                p_name, p_start, p_end, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    errors.append(f"span {i} ({name}) escapes parent {parent} ({p_name})")
        return errors

    def totals_ms(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive ms, self ms and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), s in zip(self.spans, self.self_times()):
            inclusive[name] += (end - start) / 1e6
            own[name] += s / 1e6
            calls[name] += 1
        return inclusive, own, calls

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
