"""In-memory spans recorded around calls into permorb's modules.

A span is ``(id, parent, op, name, start, end, attrs)``: ``parent`` is the
span that was open when it started, ``op`` the benchmark operation (one CLI
invocation or one micro-benchmark batch) that caused it.  Spans are kept in
a list and written as JSON once, when the traced run ends.

``Tracer.install`` replaces module attributes with timing wrappers for the
duration of the traced run only; the untraced run never builds a tracer.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

Span = list  # [id, parent, op, name, start, end, attrs]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = 0
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; a span opened at top level starts a new op."""
        if not self._stack:
            self._op += 1
        rec: Span = [len(self.spans), self._stack[-1] if self._stack else None, self._op, name, 0.0, 0.0, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[4] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, rename: Optional[Callable] = None,
             annotate: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``rename(args, result)`` and ``annotate(result)``
        may refine the span's name and attributes after the call."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if rename is not None:
                rec[3] = rename(args, out)
            if annotate is not None:
                rec[6].update(annotate(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, **kw))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- reading the spans back ------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def median_s(self, name: str) -> Optional[float]:
        d = self.durations(name)
        return statistics.median(d) if d else None

    def per_call_us(self, name: str) -> Optional[float]:
        """Pooled mean per call over batch spans carrying a call count ``n``."""
        spans = [s for s in self.spans if s[3] == name]
        calls = sum(s[6].get("n", 1) for s in spans)
        return 1e6 * sum(s[5] - s[4] for s in spans) / calls if calls else None

    def children(self, parent: Span, name: str) -> List[Span]:
        return [s for s in self.spans if s[1] == parent[0] and s[3] == name]

    def dump(self, path: str, meta: Dict) -> None:
        doc = {
            "meta": meta,
            "fields": ["id", "parent", "op", "name", "start", "end", "attrs"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
