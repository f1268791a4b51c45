"""Outside-in span tracing of chowcheck for the traced benchmark run.

The benchmark wraps the public functions of each chowcheck module from the
outside; nothing inside src/chowcheck changes.  A span is (id, parent,
name, start, end).  Structural calls (stages, claims, Groebner bases,
subcommands) are kept as individual spans.  Hot leaf calls such as
Polynomial.__mul__ would produce millions of spans, so they are folded
into per-(parent span, name) counters instead; their time still counts as
child time of the enclosing span, so self times stay exact.

Self time of a span = its duration minus the time covered by its child
spans.  Inclusive time of a name counts only its outermost calls, so a
function that re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self, clock=perf_counter):
        self._clock = clock    # run.py passes a clock that skips the speed probe
        self.spans = []        # [id, parent, name, start, end]
        self.folded = {}       # (parent id, name) -> [calls, total_s, self_s]
        self.stats = {}        # name -> [calls, inclusive_s, self_s]
        self._stack = []       # frames: [span id or None, name, start, child_s]
        self._depth = {}       # name -> current nesting depth
        self._next_id = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fold, fn, args, kwargs):
        stack = self._stack
        span_id = None
        if not fold:
            span_id = self._next_id
            self._next_id += 1
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        frame = [span_id, name, self._clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            stack.pop()
            self._depth[name] = depth
            dur = end - frame[2]
            own = dur - frame[3]
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[2] += own
            if depth == 0:
                stat[1] += dur
            parent = None
            if stack:
                stack[-1][3] += dur
                parent = self._span_parent()
            if fold:
                key = (parent, name)
                agg = self.folded.get(key)
                if agg is None:
                    agg = self.folded[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += own
            else:
                self.spans.append([span_id, parent, name, frame[2], end])

    def _span_parent(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own (the benchmark's request spans)."""
        return self.call(name, False, fn, args, kwargs)

    # -- wrapping --------------------------------------------------------------

    def wrap_function(self, module_name, attr, name, fold=False,
                      namer=None, observe=None):
        """Rebind a function in every loaded chowcheck module that holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(original, name, fold, namer, observe)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "chowcheck" or mod_name.startswith("chowcheck.")) \
                    and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def wrap_method(self, cls, attr, name, fold=False, namer=None):
        """Patch a method on the class, so every instance and caller sees it."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, fold, namer, None))

    def _wrapper(self, fn, name, fold, namer, observe):
        tracer = self

        if observe is None and namer is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fold, fn, args, kwargs)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = namer(name, args, kwargs) if namer else name
            result = tracer.call(full, fold, fn, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return traced

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------------

    def calls(self, name) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def inclusive(self, name) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def self_time(self, name) -> float:
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0

    def dump(self, path):
        """Write the span tree and the folded counters as JSON."""
        doc = {
            "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                      for i, p, n, s, e in self.spans],
            "folded": [{"parent": p, "name": n, "calls": c, "total_s": t,
                        "self_s": o}
                       for (p, n), (c, t, o) in self.folded.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")
