"""Span recording for the traced benchmark run.

The benchmark wraps its own calls into paramdex in call-site spans and, for
the traced passes only, installs shims that replace program names where
their callers look them up (module globals and class attributes). Every
span records its name, start, end, parent span and op id; spans of one
query or one stage call share the op id. Spans stay in memory until the
run ends. Untraced passes install nothing, and a call-site span of an
inactive tracer is a shared null context.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._op = 0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ spans

    def new_op(self) -> None:
        """Start a new op id: one query, or one stage call."""
        self._op += 1

    def span(self, name: str):
        """Context manager recording a call-site span while the tracer is active."""
        return self._span(name) if self.active else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])

    def _exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    # ------------------------------------------------------------ shims

    def install(self, shims) -> None:
        """Replace each (owner, attribute, span name, hook) with a recording shim.

        A name the program no longer has is recorded in `missing` and
        skipped, so a renamed function costs its span, not the run.
        """
        for owner, attr, name, hook in shims:
            original = getattr(owner, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            # keep the class's own attribute (not a bound method) to restore it
            saved = owner.__dict__[attr] if isinstance(owner, type) else original
            self._saved.append((owner, attr, saved))
            setattr(owner, attr, self._shim(name, original, hook))
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._saved):
            setattr(owner, attr, saved)
        self._saved.clear()
        self.active = False

    def _shim(self, name, fn, hook):
        tracer = self

        def shim(*args, **kwargs):
            if hook is not None:
                hook(tracer.counts, args, kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        shim.__wrapped__ = fn
        return shim


def self_times(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, dict]:
    """Per span name: total self seconds and call count.

    Self time is a span's duration minus the durations of its direct
    children; one thread runs the spans, so children never overlap.
    """
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    for s in spans[lo:hi]:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, dict] = {}
    for i in range(lo, hi):
        name, start, end, _, _ = spans[i]
        agg = out.setdefault(name, {"self_s": 0.0, "calls": 0})
        agg["self_s"] += (end - start) - child[i]
        agg["calls"] += 1
    return out


def op_latencies(spans: list[list], lo: int, hi: int, root: str) -> list[float]:
    """Seconds of each op whose top-level spans include `root`: the sum of its top-level spans."""
    by_op: dict[int, float] = defaultdict(float)
    has_root: set[int] = set()
    for s in spans[lo:hi]:
        if s[3] == -1:
            by_op[s[4]] += s[2] - s[1]
            if s[0] == root:
                has_root.add(s[4])
    return [by_op[op] for op in sorted(has_root)]


def children_durations(spans: list[list], lo: int, hi: int, parent: str, name: str) -> list[float]:
    """Durations of `name` spans whose parent span is a `parent` span."""
    return [
        s[2] - s[1] for s in spans[lo:hi]
        if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent
    ]
