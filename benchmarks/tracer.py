"""In-memory span recorder that times library calls from the outside.

The tracer replaces a function or method at the place where callers look it
up (a module global or a class attribute) with a wrapper that records one
span per call: its name, start, end, the enclosing span and the run it
belongs to.  Nothing inside the library changes; ``restore`` puts every
original object back.  Spans are appended when a call starts, so a parent
always has a smaller index than its children.
"""

import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    run: str             # phase of the benchmark run the span belongs to
    attrs: object = None  # what the site's annotate hook returned (JSON-able)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans for every wrapped site while installed."""

    def __init__(self):
        self.spans = []
        self.run = ""
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, annotate=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``owner`` is a module or a class; the original is read from its own
        namespace, so a method is wrapped where instances look it up.
        ``annotate(args, kwargs, result)`` may return a value kept on the span.
        """
        original = vars(owner)[attr]
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped original, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write the spans as a JSON list of [name, start, end, parent, run, attrs]."""
        rows = [[s.name, s.start, s.end, s.parent, s.run, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are merged into disjoint intervals and clipped to the parent
    first, so overlapping or out-of-bounds children are not counted twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end))
                             for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out
