"""In-memory span tracer that wraps the public functions of paulimem's layers.

The library modules import each other's functions by name (``capacity``
calls ``apply``, not ``channel.apply``), so a function is replaced in
every namespace that holds it.  Each call records one span: function,
start, end and the span that was open when it began.  Spans stay in
per-thread arrays until the run ends; a span opened in a worker thread
with nothing open in that thread takes the main thread's innermost open
span as its parent, so pool work is charged to the call that started it.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from array import array
from time import perf_counter

import numpy as np

#: The library's modules, which are the benchmark's layers.
LAYERS = ("pauli", "channel", "spectral", "symmetric", "search", "capacity", "cli")


class _ThreadBuffer:
    """Spans opened by one thread, in call order."""

    def __init__(self, index: int):
        self.index = index
        self.fn = array("i")
        self.parent_buf = array("i")
        self.parent_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    """Wraps functions, records their spans and undoes the wrapping."""

    def __init__(self, keep_results=None):
        """``keep_results`` maps a function's name to ``keep_result`` (see ``wrap``)."""
        self.keep_results = keep_results or {}
        self.names: list[str] = []
        self.results: dict[str, list] = {}
        self._buffers: list[_ThreadBuffer] = []
        self._main: _ThreadBuffer | None = None
        self._local = threading.local()
        self._register = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._register:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            if threading.current_thread() is threading.main_thread():
                self._main = buf
            self._local.buf = buf
            return buf

    def _root_parent(self) -> tuple[int, int]:
        main = self._main
        if main is not None and main.stack:
            return main.index, main.stack[-1]
        return -1, -1

    def wrap(self, name: str, fn, keep_result=None):
        """Return ``fn`` recording a span named ``name`` on every call.

        ``keep_result(value)``, when given, maps each return value to an
        entry of ``self.results[name]``.
        """
        fn_id = len(self.names)
        self.names.append(name)
        kept = self.results.setdefault(name, []) if keep_result else None

        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            idx = len(buf.fn)
            if stack:
                pbuf, pidx = buf.index, stack[-1]
            else:
                pbuf, pidx = self._root_parent()
            buf.fn.append(fn_id)
            buf.parent_buf.append(pbuf)
            buf.parent_idx.append(pidx)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(perf_counter())
            try:
                value = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(keep_result(value))
            return value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, in every namespace.

        The wrappers are made on the first call; later calls put the same
        ones back, so a function keeps one name and one set of spans.
        """
        if not self._patches:
            self._patches = self._make_patches()
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def _make_patches(self) -> list[tuple[object, str, object, object]]:
        package = importlib.import_module("paulimem")
        modules = {name: importlib.import_module(f"paulimem.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, self.keep_results.get(name)))
        patches = []
        for namespace in (package, *modules.values()):
            for attr, obj in vars(namespace).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((namespace, attr, obj, entry[1]))
        return patches

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; ``parent`` indexes the same arrays."""
        offsets, total = [], 0
        for buf in self._buffers:
            offsets.append(total)
            total += len(buf.fn)
        fn, thread, parent = (np.empty(total, dtype=np.int64) for _ in range(3))
        start, end = np.empty(total), np.empty(total)
        for buf, off in zip(self._buffers, offsets):
            n = len(buf.fn)
            sl = slice(off, off + n)
            fn[sl] = np.frombuffer(buf.fn, dtype=np.int32)
            thread[sl] = buf.index
            start[sl] = np.frombuffer(buf.start)
            end[sl] = np.frombuffer(buf.end)
            pbuf = np.frombuffer(buf.parent_buf, dtype=np.int32)
            pidx = np.frombuffer(buf.parent_idx, dtype=np.int32)
            base = np.array(offsets + [0], dtype=np.int64)[pbuf]
            parent[sl] = np.where(pbuf >= 0, base + pidx, -1)
        return {"fn": fn, "thread": thread, "parent": parent, "start": start, "end": end}

    def save(self, path, spans: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names), **spans)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children in the parent's own thread run one after another and their
    durations add up; children in other threads may overlap, so their
    intervals are merged before they are subtracted.
    """
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    same = has_parent.copy()
    same[has_parent] = spans["thread"][parent[has_parent]] == spans["thread"][has_parent]
    covered = np.bincount(parent[same], weights=dur[same], minlength=dur.size)
    cross = np.flatnonzero(has_parent & ~same)
    for p in np.unique(parent[cross]):
        kids = cross[parent[cross] == p]
        order = np.argsort(spans["start"][kids])
        union, lo, hi = 0.0, None, None
        for s, e in zip(spans["start"][kids][order], spans["end"][kids][order]):
            if hi is None or s > hi:
                if hi is not None:
                    union += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        covered[p] += union + (hi - lo)
    return dur - covered


def outermost(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Mask of spans with no ancestor of the same function (no double count)."""
    fn, parent = spans["fn"], spans["parent"]
    keep = np.ones(fn.size, dtype=bool)
    anc = parent.copy()
    while (anc >= 0).any():
        live = anc >= 0
        keep[live] &= fn[anc[live]] != fn[live]
        anc[live] = parent[anc[live]]
    return keep
