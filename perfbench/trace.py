"""In-memory spans around calls into the program's public functions.

The tracer patches module attributes for the duration of a traced round and
restores them afterwards; no file of the program is touched.  A span records
its name, start, end, parent and thread.  A layer is the part of the span
name before the first dot, which is the module of ``src/surveyaudit/`` the
call goes into.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    thread: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        # parent for spans opened on a thread with no open span of its own
        # (the workers of a batch); set while a batch span is open
        self.adopt: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        span = Span(next(self._ids), parent, name, time.perf_counter(),
                    thread=threading.get_ident())
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (e.g. inside the fake endpoint)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.adopt
        self.spans.append(Span(next(self._ids), parent, name, start, end,
                               threading.get_ident()))

    def patch(self, owner, attr: str, name: str,
              on_result: Optional[Callable] = None, adopt: bool = False):
        """Replace ``owner.attr`` by a wrapper that records a span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            previous = self.adopt
            if adopt:
                self.adopt = span.id
            try:
                result = original(*args, **kwargs)
            finally:
                self.adopt = previous
                self.close(span)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "layer": s.layer, "start": s.start - origin,
                    "end": s.end - origin, "thread": s.thread,
                }) + "\n")

    # --- analysis -------------------------------------------------------

    def under(self, root: Span) -> list[Span]:
        """Every span in root's subtree, root included."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children[s.id])
        return out


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _subtract(span: tuple[float, float], covered: list[tuple[float, float]]
              ) -> list[tuple[float, float]]:
    a, b = span
    out = []
    for c, d in covered:  # sorted and disjoint
        if d <= a or c >= b:
            continue
        if c > a:
            out.append((a, c))
        a = max(a, d)
    if a < b:
        out.append((a, b))
    return out


def self_time(spans: list[Span], key: Callable[[Span], str] = lambda s: s.name
              ) -> dict[str, float]:
    """Wall-clock self time per key (span name by default).

    A span's self intervals are its interval minus the union of its
    children's intervals.  Per key, the self intervals of all its spans are
    merged before measuring, so spans that overlap on worker threads count
    once, as wall time.  With ``key=lambda s: s.layer`` the per-layer totals
    partition the root span's wall time, so they sum to at most its length.
    """
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s.parent].append((s.start, s.end))
    pieces = defaultdict(list)
    for s in spans:
        covered = _union(by_parent.get(s.id, []))
        pieces[key(s)].extend(_subtract((s.start, s.end), covered))
    return {k: sum(b - a for a, b in _union(iv)) for k, iv in pieces.items()}
