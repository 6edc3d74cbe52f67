"""Outside-in tracer: spans around calls into tdcnet's public functions.

Nothing inside tdcnet is changed. `install` replaces each named function in
every `tdcnet` module namespace that binds it (`tdc` and `pipeline`, for
example, import `conv2d` and `quantized_conv_rows` by name) with a wrapper
that records one span; `uninstall` puts the originals back. A named function
that no longer exists is listed in `missing` instead of failing the run.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "label", "macs")

    def __init__(self, name, parent, op):
        self.name, self.start, self.end = name, 0.0, 0.0
        self.parent, self.op = parent, op
        self.label, self.macs = None, 0


class Tracer:
    """Records (name, start, end, parent, op id) spans in memory.

    `targets` maps "module.function" to an optional tagger; a tagger gets the
    call's arguments and returns (layer label, useful MACs) or None.
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.spans: list[Span] = []
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tagger):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            if tagger is not None:
                try:
                    tag = tagger(*args, **kwargs)
                except (AttributeError, IndexError, StopIteration, TypeError):
                    tag = None          # signature changed: leave the span unlabelled
                if tag is not None:
                    span.label, span.macs = tag
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "tdcnet" or n.startswith("tdcnet."))]
        self.missing = []
        for qual, tagger in self.targets.items():
            mod_name, attr = qual.rsplit(".", 1)
            home = sys.modules.get(f"tdcnet.{mod_name}")
            fn = getattr(home, attr, None) if home is not None else None
            if not callable(fn):
                self.missing.append(qual)
                continue
            wrapper = self._wrap(qual, fn, tagger)
            for ns in namespaces:
                if getattr(ns, attr, None) is fn:
                    setattr(ns, attr, wrapper)
                    self._patches.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [sp.end - sp.start - _covered(children.get(i, []))
            for i, sp in enumerate(spans)]


def aggregate(spans: list[Span], ops: set) -> dict:
    """Totals over the spans of `ops`: name -> calls/self_s, (name, label) ->
    self_s/macs."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    by_label = defaultdict(lambda: {"self_s": 0.0, "macs": 0})
    for sp, st in zip(spans, selfs):
        if sp.op not in ops:
            continue
        row = by_name[sp.name]
        row["calls"] += 1
        row["self_s"] += st
        if sp.label is not None:
            lab = by_label[(sp.name, sp.label)]
            lab["self_s"] += st
            lab["macs"] += sp.macs
    return {"by_name": dict(by_name), "by_label": dict(by_label)}


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per line: name, start_s, end_s, parent index, op, label."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as f:
        for sp in spans:
            f.write(json.dumps([sp.name, round(sp.start - t0, 9), round(sp.end - t0, 9),
                                sp.parent, sp.op, sp.label]) + "\n")
