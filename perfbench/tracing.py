"""Spans around tapsim's public entry points, installed from outside.

The tracer patches the targets named in ``layers.OPS`` for the duration of a
``with tracer.installed():`` block and restores every original on exit. Each
wrapped call records a span (run id, span id, parent span id, op, start,
end); its self time is its duration minus the time covered by wrapped
children. Totals are aggregated as calls happen; full span records are kept
in memory only while ``keep_spans`` is set, and written out by the caller.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Iterator

from layers import COUNTED, OPS


def op_calls(calls: Counter[str]) -> dict[str, int]:
    """Fold per-target call counts into per-op counts."""
    return {op: sum(calls[target] for _module, target in targets)
            for op, targets in OPS.items()}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()    # target -> calls
        self.self_ns: Counter[str] = Counter()  # op -> self time
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.keep_spans = False
        self.run_id = 0
        self._stack: list[list[int]] = []       # [span id, child ns]
        self._last_id = 0

    def _span(self, op: str, target: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.calls[target] += 1
            self._last_id += 1
            frame = [self._last_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.self_ns[op] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.keep_spans:
                    self.spans.append((self.run_id, frame[0], parent, op, start, end))
        return traced

    def _count(self, target: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            self.calls[target] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        undo: list[Callable[[], None]] = []
        try:
            for op, targets in OPS.items():
                for module_name, target in targets:
                    self._patch(module_name, target,
                                functools.partial(self._span, op, target), undo)
            for module_name, target in COUNTED:
                self._patch(module_name, target,
                            functools.partial(self._count, target), undo)
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    @staticmethod
    def _patch(module_name: str, target: str, wrap: Callable[[Callable], Callable],
               undo: list[Callable[[], None]]) -> None:
        module = importlib.import_module(module_name)
        owner, _, attr = target.rpartition(".")
        if target == "CATALOG.stage":
            catalog = module.CATALOG
            for attack_id, spec in catalog.items():
                catalog[attack_id] = dataclasses.replace(spec, stage=wrap(spec.stage))
                undo.append(functools.partial(catalog.__setitem__, attack_id, spec))
        elif owner:
            cls = getattr(module, owner)
            original = cls.__dict__[attr]
            setattr(cls, attr, wrap(original))
            undo.append(functools.partial(setattr, cls, attr, original))
        else:
            # a free function: rebind every tapsim name that refers to it
            original = getattr(module, attr)
            wrapped = wrap(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "tapsim" and not mod_name.startswith("tapsim."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        undo.append(functools.partial(setattr, mod, name, original))
