"""In-memory spans around the calls the benchmark makes into cohsync's layers.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that was open when it started (its parent) and the root span of
its command, which identifies the request.  Spans stay in memory until the
run ends and are then written out once.

The wrappers are installed by replacing a function on the module whose code
calls it, so the program itself is unchanged; ``restore`` puts the
originals back.
"""

import functools
import json
import time
from collections import Counter

NAME, START, END, PARENT, ROOT = range(5)


class Tracer:
    """Records spans and counters from wrapped functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped so that each call records one span called ``name``.

        ``on_result(counts, args, kwargs, result)`` runs after a call that
        returned, outside the span, to update the tracer's counters.
        """
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            root = self.spans[self._stack[0]][ROOT] if self._stack else index
            record = [name, time.perf_counter(), None, parent, root]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[END] = time.perf_counter()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace ``module.attr`` by a wrapped version recording ``name``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def patch_factory(self, module, attr: str, name: str) -> None:
        """Replace the factory ``module.attr`` so that every callable it returns records ``name``."""
        factory = getattr(module, attr)
        self.names.add(name)
        self._patched.append((module, attr, factory))
        setattr(module, attr, functools.wraps(factory)(lambda *a, **kw: self.wrap(name, factory(*a, **kw))))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children.  Every wrapped name is present, with zero calls if it was
        never reached.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for span, children in zip(self.spans, child_s):
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            count += parent >= 0
        return count

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent, root]`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "root"], "spans": self.spans}, fh)
