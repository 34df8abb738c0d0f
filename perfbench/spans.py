"""In-memory spans recorded from outside the program, and their per-layer sums.

A span has a name, a start, an end, the span that caused it (its parent) and
one identifier: the training step, `evaluate_model` call, set-up repetition or
document it belongs to. Spans stay in memory until the run ends.

Wrappers are installed where each name is looked up, not only where it is
defined: `barycenter` imports `sqrtm_psd` by name and `gaussian` imports
`sym_eig` by name, so a call through those modules never goes through the
`linalg` attribute.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Tracer:
    """Records spans; `ident` is the identifier stamped on new spans."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.idents = []
        self.rows = []
        self.ident = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.idents.append(self.ident)
        self.rows.append(0)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts[index] = time.perf_counter()
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, rows=None):
        """`fn` inside a span; `rows(*args)`, if given, is the work it is handed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                if rows is not None:
                    self.rows[index] = rows(*args)
                return fn(*args, **kwargs)

        return traced

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Duration minus the part covered by direct children.

        Spans run on one thread, so direct children never overlap and their
        durations add up to the covered part.
        """
        out = self.durations()
        for child, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[child] - self.starts[child]
        return out

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["name", "start", "end", "parent", "id", "rows"],
                    "spans": [
                        list(span)
                        for span in zip(
                            self.names,
                            self.starts,
                            self.ends,
                            self.parents,
                            self.idents,
                            self.rows,
                        )
                    ],
                },
                f,
            )
            f.write("\n")


@contextlib.contextmanager
def patched(tracer, targets):
    """Wrap `(owner, attribute, span name[, rows])` targets for the block.

    Targets that share a span name share one wrapper around the original
    callable, so a function reachable under several names is timed once per
    call whichever name the caller used.
    """
    wrappers = {}
    saved = []
    try:
        for owner, attr, name, *rows in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            if name not in wrappers:
                wrappers[name] = tracer.wrap(name, original, *rows)
            setattr(owner, attr, wrappers[name])
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_ident(tracer, name, *, parent=None, value="s", idents=None):
    """Per-identifier totals of spans called `name`.

    `value` is "s" (summed duration), "self_s" (summed self time), "calls"
    or "rows" (summed work handed to the calls).
    `parent`, when given, keeps only spans whose direct parent has that name.
    Identifiers in `idents` that hold no matching span count as 0.
    """
    durations = tracer.self_times() if value == "self_s" else tracer.durations()
    zero = 0 if value in ("calls", "rows") else 0.0
    totals = {i: zero for i in idents} if idents is not None else {}
    for index, span_name in enumerate(tracer.names):
        if span_name != name:
            continue
        p = tracer.parents[index]
        if parent is not None and (p < 0 or tracer.names[p] != parent):
            continue
        ident = tracer.idents[index]
        if idents is not None and ident not in totals:
            continue
        if value == "calls":
            amount = 1
        elif value == "rows":
            amount = tracer.rows[index]
        else:
            amount = durations[index]
        totals[ident] = totals.get(ident, zero) + amount
    return totals


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0
