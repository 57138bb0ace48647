"""In-memory spans around calls into the library's public functions.

A span records name, start, end, parent span and op id.  Step calls are
far too many for one span each, so a wrapped protocol sums its step
calls into one record per (run span, phase); that record counts as a
child of the run span when self time is computed.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


def direct(name, fn, *args, **kwargs):
    """The untraced stand-in for `Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, pass]
        self.steps = {}  # (run span, phase) -> [calls, seconds, changes]
        self.stack = []
        self.op = None
        self.pass_index = None

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), None, self.stack[-1] if self.stack else None,
                self.op, self.pass_index]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    @contextmanager
    def protocols(self, algorithms):
        """Wrap every protocol `algorithms.make_protocol` returns while active."""
        original = algorithms.make_protocol

        def make_protocol(name, config, k=1):
            proto = self.call(f"algorithms.{name}.setup", original, name, config, k)
            key = (self.stack[-1], name)
            return _TimedProtocol(proto, self.steps.setdefault(key, [0, 0.0, 0]))

        algorithms.make_protocol = make_protocol
        try:
            yield
        finally:
            algorithms.make_protocol = original

    def totals(self, pass_index) -> dict:
        """Per metric name, summed over the spans of one pass.

        Each span name gives `<name>_s`, and `<name>.self_s` too when its
        spans have children; step records give `algorithms.<phase>.step_s`,
        `.step_calls` and `.changes`.
        """
        out = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _p in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for (parent, phase), (calls, seconds, changes) in self.steps.items():
            child_s[parent] += seconds
            if self.spans[parent][5] == pass_index:
                for key, value in (("step_calls", calls), ("step_s", seconds),
                                   ("changes", changes)):
                    metric = f"algorithms.{phase}.{key}"
                    out[metric] = out.get(metric, 0) + value
        for idx, (name, start, end, _parent, _op, p) in enumerate(self.spans):
            if p != pass_index:
                continue
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start)
            if child_s[idx]:
                self_s = end - start - child_s[idx]
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, (name, start, end, parent, op, p) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "pass": p}) + "\n")
            for (parent, phase), (calls, seconds, changes) in self.steps.items():
                fh.write(json.dumps({"name": f"algorithms.{phase}.step",
                                     "parent": parent, "calls": calls,
                                     "seconds": seconds, "changes": changes}) + "\n")


class _TimedProtocol:
    def __init__(self, inner, counters):
        self.inner = inner
        self.describe = inner.describe
        self.counters = counters

    def step(self, p, state, inbox, states):
        start = perf_counter()
        out = self.inner.step(p, state, inbox, states)
        c = self.counters
        c[1] += perf_counter() - start
        c[0] += 1
        if out[0] is not state:
            c[2] += 1
        return out
