"""Outside-in tracer for the modraft package.

The tracer replaces every public function of the package with a timing
wrapper, from outside the package: nothing under ``src/`` knows about it.
A function is wrapped at every module that binds it by name, because
``from .core import create_module`` in ``persistence`` copies the function
into ``persistence``'s globals and a wrapper installed only in ``core``
would miss those calls. Each binding gets its own wrapper and its own key,
``<defining module>.<function>@<binding module>``, so the key also tells
which module made the call.

Spans are kept in memory as ``(binding, parent span, start_ns, end_ns)``
tuples. Between operations :meth:`Tracer.fold` turns them into per-binding
call counts, inclusive time and self time (a span's duration minus the
spans directly under it). The spans of the first folded operation are kept
whole and written out when the benchmark ends.

Functions reached through a data structure instead of a module global (the
``_GENERATORS`` table in ``generators``) cannot be seen; their time lands in
the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable, Mapping

# Skipped on purpose, because a span each would cost more than they show:
# ``palette`` hands back a cached list once per emitted SVG element, and
# ``norm_deg`` folds an angle into [0, 360) thousands of times per edit.
SKIP = frozenset({"render.palette", "geometry.norm_deg"})

Hook = Callable[[dict, tuple, dict, object, int], None]


class Tracer:
    """Wrap, time and restore the public functions of one package."""

    def __init__(self, package: str, hooks: "Mapping[str, Hook] | None" = None):
        self.package = package
        self.keys: list[str] = []
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.sample: "list | None" = None
        self._hooks = dict(hooks or {})
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        self._calls: list[int] = []
        self._incl: list[int] = []
        self._self: list[int] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        prefix = self.package + "."
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == self.package
                                      or modname.startswith(prefix)):
                continue
            site = modname.rpartition(".")[2] if modname != self.package \
                else self.package
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(prefix):
                    continue
                definer = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
                if definer in SKIP:
                    continue
                index = len(self.keys)
                self.keys.append(f"{definer}@{site}")
                self._saved.append((module, name, obj))
                setattr(module, name, self._wrap(obj, index, self._hooks.get(definer)))
        n = len(self.keys)
        self._calls, self._incl, self._self = [0] * n, [0] * n, [0] * n

    def remove(self) -> None:
        """Put every original function back, whatever happened meanwhile."""
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, fn, index: int, hook: "Hook | None"):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(pos)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[pos] = (index, parent, t0, t1)
            if hook is not None:
                hook(counts, args, kwargs, result, t1 - t0)
            return result

        return traced

    def fold(self) -> None:
        """Add the spans recorded since the last fold to the per-binding
        totals and drop them, keeping the first operation's spans whole.
        Call only between operations, when no wrapped call is open."""
        spans = self.spans
        if self._stack:
            raise RuntimeError("fold called inside a traced call")
        children = [0] * len(spans)
        for index, parent, t0, t1 in spans:
            if parent >= 0:
                children[parent] += t1 - t0
        calls, incl, own = self._calls, self._incl, self._self
        for pos, (index, parent, t0, t1) in enumerate(spans):
            calls[index] += 1
            incl[index] += t1 - t0
            own[index] += t1 - t0 - children[pos]
        if self.sample is None:
            base = spans[0][2] if spans else 0
            self.sample = [(self.keys[index], parent, t0 - base, t1 - t0)
                           for index, parent, t0, t1 in spans]
        spans.clear()

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per binding key: (calls, inclusive ns, self ns)."""
        return {key: (self._calls[i], self._incl[i], self._self[i])
                for i, key in enumerate(self.keys)}
