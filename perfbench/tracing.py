"""Spans and LAPACK call counters for the traced benchmark run.

Spans are recorded only around the calls the benchmark itself makes into
the library; nothing inside ``twistnets`` is instrumented.  They are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

# numpy.linalg entry points the library uses; each is counted under its
# group.  The patched names are module attributes, so calls made inside
# numpy itself (matrix_rank calls svd internally) are not counted twice.
LINALG_GROUPS = {
    "svd": "svd",
    "lstsq": "lstsq",
    "det": "other",
    "solve": "other",
    "inv": "other",
    "eig": "other",
    "matrix_rank": "other",
}


class NullTracer:
    """The tracer of an untimed or untraced task: every span is a no-op."""

    _null = nullcontext()

    def span(self, name, calls=1):
        return self._null


class Tracer:
    """Spans with name, start, end, parent and task id, plus call counts.

    A span is the list ``[name, start, end, parent, task, calls]``; ``parent``
    is the index of the enclosing span or None, and ``calls`` the number of
    library calls the span covers (batched microtimings cover several).
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # task -> linalg group -> calls
        self._stack = []
        self.task = None

    @contextmanager
    def span(self, name, calls=1):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.task, calls]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def task_scope(self, task, root="task"):
        """Attribute spans and linalg calls to ``task`` under one root span.

        The numpy.linalg wrappers are installed only for the duration of the
        scope, so untraced tasks run against the unpatched functions.
        """
        saved = {name: getattr(np.linalg, name) for name in LINALG_GROUPS}
        counts = self.counts[task]

        def counted(fn, group):
            def wrapper(*args, **kwargs):
                counts[group] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in saved.items():
            setattr(np.linalg, name, counted(fn, LINALG_GROUPS[name]))
        self.task = task
        try:
            with self.span(root):
                yield
        finally:
            self.task = None
            for name, fn in saved.items():
                setattr(np.linalg, name, fn)

    def self_times(self):
        """Per span: duration minus the part covered by its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, task, calls in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, *_), c in zip(self.spans, child)]

    def write(self, path, extra):
        spans = [dict(zip(("name", "start", "end", "parent", "task", "calls"), s))
                 for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=spans,
                           linalg_counts={str(k): dict(v) for k, v in self.counts.items()}),
                      fh)
