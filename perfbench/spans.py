"""In-memory span tracing by wrapping functions at module attributes.

A Target names the module attributes its callers look a function up
through, such as ``patchscape.mapping:integral_normals``. Installing a
Tracer replaces each attribute with a wrapper and uninstalling puts the
original back, so the traced program's files stay untouched. A wrapper
records a Span (name, start, end, parent span, op id, attributes) only while
``Tracer.op`` is set; otherwise it calls straight through. Spans stay in
memory until the run writes them out at its end.

An attribute that does not exist is listed in ``Tracer.missing`` and never
wrapped, so a name the program stops providing reports 0 calls instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Target:
    """One traced layer function.

    name is the metric prefix ("mapping.integral_normals"); attrs are the
    "module:attribute" lookups its callers use. With span False the wrapper
    only counts calls: for tiny functions called per point, where a span
    per call would cost more than the call. before(args, kwargs) and
    after(args, kwargs, result) return attributes to store on the span;
    before sees the arguments ahead of a call that mutates them.
    """

    name: str
    attrs: Tuple[str, ...]
    span: bool = True
    before: Optional[Callable] = None
    after: Optional[Callable] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    op: object
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, targets: Sequence[Target], clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.op = None  # spans are recorded only while this is not None
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, object], int] = {}
        self.missing: List[str] = []
        self.hook_errors = 0
        self._stack: List[int] = []
        self._saved: list = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        for target in self.targets:
            for path in target.attrs:
                mod_name, attr = path.split(":")
                try:
                    module = importlib.import_module(mod_name)
                except ImportError:
                    self.missing.append(path)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(path)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(target, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _hook(self, hook, *args) -> dict:
        # a hook reads the call's arguments and result; one that no longer
        # fits a changed signature is counted, never allowed to fail the call
        try:
            return hook(*args)
        except Exception:
            self.hook_errors += 1
            return {}

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if not target.span:
                key = (target.name, op)
                self.counts[key] = self.counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            attrs = self._hook(target.before, args, kwargs) if target.before else {}
            parent = self._stack[-1] if self._stack else -1
            span = Span(target.name, 0.0, 0.0, parent, op, attrs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.after:
                attrs.update(self._hook(target.after, args, kwargs, result))
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {"i": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op, "attrs": s.attrs}
                f.write(json.dumps(rec, default=str) + "\n")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out
