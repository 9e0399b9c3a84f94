"""In-memory span recorder for the traced benchmark pass.

A span is one call across a layer boundary: its name, start, end, the span
that was open when it began (its parent) and the run it belongs to.  Spans
stay in memory until the pass ends.  Wrappers are installed with `patched`,
which always puts the original functions back, so an untraced pass times
the unwrapped code.  Standard library only.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    tag: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans; `clock` is injectable so tests can fix times."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        rec = Span(sid, name, self.clock(), 0.0, parent, self.run_id)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._open.pop()
            self.spans.append(rec)

    def wrap(self, fn: Callable, name: str, describe: Optional[Callable] = None) -> Callable:
        """Return `fn` wrapped so each call records a span named `name`.

        `describe(args, kwargs, result)` may return (tag, counts) for the
        span; it runs after the span has ended, so its cost is not charged
        to the wrapped layer.
        """
        clock, open_, ids, spans, run_id = self.clock, self._open, self._ids, self.spans, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = open_[-1] if open_ else None
            open_.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append(Span(sid, name, start, clock(), parent, run_id, "raised"))
                open_.pop()
                raise
            end = clock()
            open_.pop()
            span = Span(sid, name, start, end, parent, run_id)
            if describe is not None:
                span.tag, span.counts = describe(args, kwargs, result)
            spans.append(span)
            return result

        return wrapper


@contextmanager
def patched(recorder: SpanRecorder, targets):
    """Install span wrappers for `targets` and restore the originals on exit.

    targets: iterable of (owner, attribute, span_name, describe), where the
    owner is the module (or class) through which callers look the function
    up.  Raises RuntimeError on exit if any original could not be restored.
    """
    saved = []
    try:
        for owner, attr, name, describe in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, describe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in saved if getattr(o, a) is not orig]
        if stale:
            raise RuntimeError(f"span wrappers left installed: {stale}")


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(s.start, s.end, children[s.id]) for s in spans}


def layer_self_times(spans) -> dict[str, float]:
    """Layer name (first dotted part of the span name) -> summed self time."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)
