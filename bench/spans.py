"""Span recording around the public functions of each scmodes layer.

The traced worker replaces module and class attributes with wrappers
that record one span per call: a name, a start, an end and the index of
the enclosing span.  Spans stay in memory and are written out when the
run ends.  Nothing here touches the untraced workers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, info]
        self._stack = []

    def wrap(self, fn, name, describe=None):
        """fn wrapped in a span; describe(args, result) -> dict adds span info."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span[4] = describe(args, result)
            return result

        return traced

    # -- reading the spans ---------------------------------------------------

    def _ancestors(self, index):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def outermost(self, names):
        """Spans named in ``names`` with no enclosing span also named there."""
        names = set(names)
        return [
            s for i, s in enumerate(self.spans)
            if s[0] in names and not names.intersection(self._ancestors(i))
        ]

    def total(self, *names):
        """Seconds covered by the spans in ``names``, counting nested ones once."""
        return sum((s[2] - s[1] for s in self.outermost(names)), 0.0)

    def count(self, *names):
        return sum(1 for s in self.spans if s[0] in names)

    def inside(self, name, ancestor):
        """Spans called ``name`` that run within a span called ``ancestor``."""
        return [
            s for i, s in enumerate(self.spans)
            if s[0] == name and ancestor in self._ancestors(i)
        ]

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path, origin):
        """Spans as JSON, start and end in seconds from ``origin``."""
        own = self.self_times()
        rows = [
            {
                "name": s[0],
                "start": s[1] - origin,
                "end": s[2] - origin,
                "parent": s[3],
                "self": own[i],
                **({"info": s[4]} if s[4] else {}),
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
