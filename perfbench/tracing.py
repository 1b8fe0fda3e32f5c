"""Span recording for the traced benchmark run.

A span is one call across a layer boundary: its name, start, end, the span
that was open when it began, and any sizes computed from its arguments or
result.  Spans are kept in lists while the child runs and written once, when
it ends.  Only one thread runs netsketch code in a benchmark child (the
experiment is run with ``--jobs 1``), so a single stack of open spans gives
every span its parent.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

Counter = Callable[..., dict[str, float]]


class Tracer:
    """Records nested spans on the monotonic clock shared by all processes."""

    def __init__(self, start: float) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float | None] = []
        self.parents: list[int] = []
        self.counts: list[dict[str, float] | None] = []
        self._open: list[int] = []
        self.root = self.open("process", start)

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.monotonic() if start is None else start)
        self.ends.append(None)
        self.parents.append(self._open[-1] if self._open else -1)
        self.counts.append(None)
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        """End span ``index`` and any span an exception left open inside it."""
        now = time.monotonic()
        while self._open:
            top = self._open.pop()
            self.ends[top] = now
            if top == index:
                return
        raise RuntimeError(f"span {self.names[index]!r} is not open")

    def close_innermost(self, name: str) -> None:
        """End the innermost open span if it is called ``name``."""
        if self._open and self.names[self._open[-1]] == name:
            self.close(self._open[-1])

    def wrap(self, function: Callable, name: str, count: Counter | None = None) -> Callable:
        """``function`` inside a span; ``count(result, *args, **kwargs)`` sizes it."""

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                self.counts[index] = count(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, count: Counter | None = None) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by a traced one."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def spans(self) -> list[list[Any]]:
        if self._open:
            raise RuntimeError(f"spans still open: {[self.names[i] for i in self._open]}")
        return [
            [name, start, end, parent, counts]
            for name, start, end, parent, counts in zip(
                self.names, self.starts, self.ends, self.parents, self.counts
            )
        ]


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds and summed counts.

    A span's self time is its duration minus the durations of its direct
    children; spans nest on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _, counts) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - child_time[index]
        for key, value in (counts or {}).items():
            row[key] = row.get(key, 0.0) + value
    return table
