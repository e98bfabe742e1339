"""Spans around calls into poselift's public functions, recorded from outside.

A ``Tracer`` replaces a function at the place where callers look it up
(a module attribute such as ``poselift.network.hga_forward``, or a class
attribute such as ``Tensor.backward``) with a wrapper that records one
span per call: name, start, end, parent span and operation id.  Spans
stay in memory until the run ends.  ``installed`` puts the wrappers in
and always takes them out again, so untraced runs execute the original
functions untouched.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None       # index of the operation in progress, if any
        self.ops = 0         # operations traced so far
        self._open: list[int] = []

    def wrap(self, fn, name, count=None):
        """Return `fn` wrapped in a span.

        `name` is a string, or a mapping from the enclosing span's name to
        this span's name (for one function reached through two callers),
        whose ``None`` entry names every other call.
        `count`, if given, maps the call's positional arguments to an
        amount added to ``counts[name]``.
        """
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else NO_PARENT
            if isinstance(name, str):
                label = name
            else:
                label = name.get(spans[parent][0] if parent != NO_PARENT else None, name[None])
            if count is not None:
                self.counts[label] += count(args)
            index = len(spans)
            spans.append([label, clock(), None, parent, self.op])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced


@contextmanager
def installed(tracer: Tracer, sites):
    """Wrap every (owner, attribute, name[, count]) site; restore on exit."""
    saved = []
    try:
        for owner, attr, name, *count in sites:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, *count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] != NO_PARENT:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(spans) -> dict:
    """Total self time and call count per span name, over the spans
    recorded inside an operation."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        if span[4] is None:
            continue
        entry = table.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return table
