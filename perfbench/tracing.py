"""Spans recorded from outside the program, around calls into its layers.

A :class:`Recorder` owns the spans of one traced phase.  :func:`install`
replaces each wrap target — a function or method looked up by name where
its caller finds it — with a thin wrapper that records a span (name,
start, end, parent, op id) or, for very hot targets, only a call count.
:meth:`Installation.uninstall` puts every original back, so the untraced
phases run the program's own code objects.

Parents come from a per-thread stack.  A span that starts on a thread
with an empty stack is adopted by the innermost open span of an
*adopting* target (the cluster's scatter), so shard work done on
fan-out threads counts as that span's children; any other such span is
a root (the streaming pipeline's background encodes, for example).

A target that no longer exists (a later change deleted that path) is
recorded in ``Installation.missing`` instead of raising.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    thread: int


class Recorder:
    """In-memory span and call-count store for one traced phase."""

    def __init__(self, adopters: Iterable[str] = ()):
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        #: Sum of ``len(result)`` per span name, for targets that ask.
        self.items: Dict[str, int] = {}
        #: Bytes passed as ``data`` per span name (store writes).
        self.nbytes: Dict[str, int] = {}
        self.op = 0
        self._adopters = frozenset(adopters)
        self._open_adopters: List[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def next_op(self) -> None:
        """Start a new user-visible operation; later spans carry its id."""
        self.op += 1

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + amount

    def add(self, table: Dict[str, int], name: str, amount: int) -> None:
        with self._lock:
            table[name] = table.get(name, 0) + amount

    def enter(self, name: str) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            open_adopters = self._open_adopters
            parent = open_adopters[-1] if open_adopters else None
        sid = next(self._ids)
        stack.append(sid)
        if name in self._adopters:
            self._open_adopters.append(sid)
        return sid, parent, time.perf_counter()

    def exit(self, name: str, token: Tuple[int, Optional[int], float]) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        if name in self._adopters:
            self._open_adopters.remove(sid)
        self.spans.append(
            Span(sid, name, start, end, parent, self.op, threading.get_ident())
        )

    def write(self, path: str, header: dict) -> None:
        """Write the header, then every span as a JSON array of
        ``Span._fields`` (once, at the end)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, fields=Span._fields), sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the part of it its children cover.

    Children running in parallel (shard work on fan-out threads) cover
    the union of their intervals, clipped to the parent's own interval.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        kids = children.get(span.sid)
        if kids:
            clipped = [
                (max(start, span.start), min(end, span.end))
                for start, end in kids
                if end > span.start and start < span.end
            ]
            covered = _union_length(clipped)
        out[span.sid] = max(0.0, (span.end - span.start) - covered)
    return out


def totals(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """Per span name: summed self time, summed duration, span count."""
    selfs = self_times(spans)
    self_by: Dict[str, float] = {}
    incl_by: Dict[str, float] = {}
    count_by: Dict[str, int] = {}
    for span in spans:
        self_by[span.name] = self_by.get(span.name, 0.0) + selfs[span.sid]
        incl_by[span.name] = incl_by.get(span.name, 0.0) + (span.end - span.start)
        count_by[span.name] = count_by.get(span.name, 0) + 1
    return self_by, incl_by, count_by


# ----------------------------------------------------------------------
# wrap targets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One function to wrap, named where its caller looks it up.

    ``path`` is ``module:attr.attr``.  ``mode`` is ``"span"`` (record a
    span), ``"count"`` (only count calls — for targets called per value)
    or ``"items"`` (span plus ``len(result)``).  ``data_arg`` names the
    positional index of a bytes argument whose length is summed.
    """

    path: str
    name: str
    mode: str = "span"
    data_arg: Optional[int] = None


class _ModuleProxy:
    """Stands in for a stdlib module inside one program module, so only
    that module's calls to the overridden functions are seen."""

    def __init__(self, module: types.ModuleType):
        self.__dict__["_module"] = module

    def __getattr__(self, attr: str):
        return getattr(self.__dict__["_module"], attr)

    def __setattr__(self, attr: str, value) -> None:
        self.__dict__[attr] = value


def _make_wrapper(fn: Callable, target: Target, rec: Recorder) -> Callable:
    name = target.name
    if target.mode == "count":
        def counted(*args, **kwargs):
            rec.count(name)
            return fn(*args, **kwargs)
        return counted

    data_arg = target.data_arg
    want_items = target.mode == "items"

    def traced(*args, **kwargs):
        token = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(name, token)
        if want_items and result is not None:
            rec.add(rec.items, name, len(result))
        if data_arg is not None and len(args) > data_arg:
            rec.add(rec.nbytes, name, len(args[data_arg]))
        return result

    return traced


@dataclass
class Installation:
    """The wrappers of one traced phase; ``uninstall`` restores them."""

    missing: Dict[str, str] = field(default_factory=dict)
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _resolve(path: str) -> Tuple[object, str, object]:
    """``module:a.b`` → (owner object, attribute name, raw attribute).

    The raw attribute is read from the owner's ``__dict__`` when the
    owner is a class, so classmethods stay classmethods.
    """
    module_name, _, attr_path = path.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    last = parts[-1]
    if isinstance(owner, type):
        if last not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {last!r}")
        return owner, last, owner.__dict__[last]
    return owner, last, getattr(owner, last)


def install(targets: Iterable[Target], rec: Recorder) -> Installation:
    inst = Installation()
    for target in targets:
        try:
            owner, attr, raw = _resolve(target.path)
        except (ImportError, AttributeError) as exc:
            inst.missing[target.path] = f"wrap target not found: {exc}"
            continue
        module_name, _, attr_path = target.path.partition(":")
        if isinstance(owner, types.ModuleType) and owner.__name__ != module_name:
            # A module seen through a program module (``zlib`` as
            # ``repro.capsule.capsule`` uses it): proxy it in that module
            # only, so other callers of the module are not seen.
            program_module = importlib.import_module(module_name)
            alias = attr_path.split(".")[0]
            current = getattr(program_module, alias)
            if not isinstance(current, _ModuleProxy):
                proxy = _ModuleProxy(current)
                inst._restore.append((program_module, alias, current))
                setattr(program_module, alias, proxy)
                current = proxy
            setattr(current, attr, _make_wrapper(raw, target, rec))
            continue
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(_make_wrapper(raw.__func__, target, rec))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_make_wrapper(raw.__func__, target, rec))
        elif callable(raw):
            wrapped = _make_wrapper(raw, target, rec)
        else:
            inst.missing[target.path] = "wrap target is not callable"
            continue
        inst._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    return inst
