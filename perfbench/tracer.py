"""Outside-in tracer: wraps named functions of an already imported package.

The package under test imports names with ``from .x import y``, so one
function object is bound in several module namespaces.  ``Tracer.wrap``
replaces the original in every namespace of the package that holds it (or
on the class, for a method), so calls made through any of those names are
seen.  A name that cannot be found raises ``TraceError``: a missing layer
must never read as zero work.

Spans (name, start, end, parent) are kept in memory; self time is a span's
duration minus the durations of its direct children, which cannot overlap
in a single-threaded program.  ``dump`` writes the spans as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.t0 = clock()

    # -- installation ------------------------------------------------------

    def _resolve(self, module: str, qualname: str):
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            raise TraceError(f"cannot import {module}: {exc}") from exc
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TraceError(f"{module}.{qualname}: no attribute {part!r}")
        space = vars(owner)
        if attr not in space or not callable(space[attr]):
            raise TraceError(f"{module}.{qualname} is missing")
        return owner, attr, space[attr]

    def _rebind(self, owner, attr: str, original, wrapper) -> int:
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return 1
        bound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound += 1
        return bound

    def wrap(self, module: str, qualname: str, after=None, on_raise=None) -> None:
        """Record a span named "<last module part>.<qualname>" for every call
        of ``module.qualname``.

        after(args, kwargs, result) runs on return and on_raise(exc) on an
        exception; both may update ``self.counters``.
        """
        owner, attr, original = self._resolve(module, qualname)
        name = f"{module.rsplit('.', 1)[-1]}.{qualname}"
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        if not self._rebind(owner, attr, original, wrapper):
            raise TraceError(f"{module}.{qualname} is bound nowhere in {self.package}")

    def count_yields(self, module: str, qualname: str, counter: str) -> None:
        """Count the items a generator function yields (no span: a generator's
        time is spent in its consumer's frames)."""
        owner, attr, original = self._resolve(module, qualname)
        counters = self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in original(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[counter] += n

        if not self._rebind(owner, attr, original, wrapper):
            raise TraceError(f"{module}.{qualname} is bound nowhere in {self.package}")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and incl_s.

        incl_s sums only the outermost span of each recursive nest, so a
        recursive function's time is not counted twice.
        """
        if self._stack:
            raise TraceError("summary taken while spans are still open")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["incl_s"] += end - start
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent}) + "\n")
