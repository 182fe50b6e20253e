"""In-memory span tracer that wraps fedsplit's public callables from outside.

`Tracer.install()` replaces every public function, method and property
getter of the traced modules with a timing wrapper. A module-level function
is replaced in its defining module and in every loaded fedsplit module that
bound the same object with `from ... import`; a method or property is
replaced on its class. `uninstall()` puts every original object back and
checks that it did.

Each call records one span: its id, name, parent span, op id, start, end
and self time. Spans live in one flat array until the run ends. Self time
is the span's duration minus the part of it that its direct children cover
(the union of their intervals, so children on pool threads that overlap
count once). A span opened on a thread with no open span of its own is
parented to the innermost open span of the thread that installed the
tracer: the CLI call that waits on its pool. Op roots (`orchestrator.run`
and `privacy_audit.run_audit`) take a new op id; every span under them
shares it, and spans outside any op get op id 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "fedsplit"
TRACED_MODULES = (
    "problem",
    "rng",
    "splitting",
    "consensus",
    "quantizer",
    "spectral",
    "orchestrator",
    "privacy_audit",
    "cli",
)
OP_ROOTS = ("orchestrator.run", "privacy_audit.run_audit")
# One span is one row of FIELDS in the flat record array.
FIELDS = ("id", "name", "parent", "op", "start", "end", "self_s")


def union_length(intervals) -> float:
    """Total length covered by a collection of (lo, hi) intervals."""
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    return covered + (cur_hi - cur_lo if cur_hi is not None else 0.0)


def _targets():
    """(owner, attribute, raw object, span name) for every public callable."""
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, name, obj, f"{short}.{name}"
            elif inspect.isclass(obj):
                for attr, raw in sorted(vars(obj).items()):
                    if not attr.startswith("_") and (
                        inspect.isfunction(raw)
                        or isinstance(raw, (staticmethod, classmethod, property))
                    ):
                        yield obj, attr, raw, f"{short}.{name}.{attr}"


class _Open:
    __slots__ = ("id", "op", "parent", "children", "start")

    def __init__(self, span_id: int, op: int, parent):
        self.id = span_id
        self.op = op
        self.parent = parent
        self.children = []
        self.start = 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array("d")
        self._patched: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[_Open] = []
        self._ids = itertools.count()
        self._ops = itertools.count(1)
        self._table = np.zeros((0, len(FIELDS)))

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._main_stack
        targets = list(_targets())  # imports every traced module first
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        for owner, attr, raw, span in targets:
            wrapped = self._wrap_raw(raw, span)
            owners = [owner] if inspect.isclass(owner) else [
                mod for mod in modules if vars(mod).get(attr) is raw
            ]
            for target in owners:
                self._patched.append((target, attr, raw))
                setattr(target, attr, wrapped)

    def uninstall(self) -> list[str]:
        """Put back every original; returns the attributes that still differ."""
        patched, self._patched = self._patched, []
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, raw in patched
            if vars(owner).get(attr) is not raw
        ]

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _wrap_raw(self, raw, span: str):
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, span), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(raw.__func__, span))
        return self._wrap(raw, span)

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        is_root = span in OP_ROOTS
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(is_root)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, name_id)

        return wrapper

    # -- spans ----------------------------------------------------------------

    def _enter(self, is_root: bool) -> _Open:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        op = next(self._ops) if is_root else (parent.op if parent is not None else 0)
        frame = _Open(next(self._ids), op, parent)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _leave(self, frame: _Open, name_id: int) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        parent = frame.parent
        own = (end - frame.start) - union_length(frame.children)
        if parent is not None:
            parent.children.append((frame.start, end))
        # one extend call appends the whole row while holding the GIL
        self.records.extend(
            (frame.id, name_id, parent.id if parent is not None else -1, frame.op,
             frame.start, end, own)
        )

    # -- results --------------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as a (n, len(FIELDS)) array, one row per finished span."""
        if self._table.size != len(self.records):
            self._table = np.array(self.records).reshape(-1, len(FIELDS))
        return self._table

    def summary(self) -> dict:
        """Per span name: calls, total duration and total self time."""
        rows = self.table()
        ids = rows[:, 1].astype(np.int64)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        dur = np.bincount(ids, weights=rows[:, 5] - rows[:, 4], minlength=n)
        own = np.bincount(ids, weights=rows[:, 6], minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(dur[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def root_coverage(self) -> float:
        """Seconds covered by the union of root spans (spans with no parent)."""
        rows = self.table()
        roots = rows[rows[:, 2] < 0]
        return union_length(zip(roots[:, 4].tolist(), roots[:, 5].tolist()))

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), fields=np.array(FIELDS), spans=self.table())
