"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions at the module attribute where their callers look
them up (``replikit.cli.run_simulation``, ``replikit.simulation.summarize``,
...), so nothing inside ``src/`` changes. Each call records one span
``(sid, name, start, end, parent, thread)`` into a packed in-memory log.

Every thread keeps its own span stack, so spans of concurrent threads never
become each other's parents. A span that opens on an empty stack of a thread
other than the tracer's home thread (a thread-pool worker) gets the innermost
open span of the home thread as its parent: the call that started the pool.

Self time is a span's duration minus the part of its interval that its child
spans cover. Children on the parent's own thread are disjoint, so their
durations add up; when children run on other threads they may overlap, and
the union of their intervals is subtracted instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

NO_PARENT = -1

_RECORD = struct.Struct("<qiddqq")
SPAN_DTYPE = np.dtype(
    [
        ("sid", "<i8"),
        ("name", "<i4"),
        ("t0", "<f8"),
        ("t1", "<f8"),
        ("parent", "<i8"),
        ("thread", "<i8"),
    ]
)
assert SPAN_DTYPE.itemsize == _RECORD.size


class Tracer:
    """Collects spans from wrapped functions; one span stack per thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._log = bytearray()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._next_sid = itertools.count().__next__

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that each call records a span named ``name``."""
        nid = self.name_id(name)
        stacks = self._stacks
        home = self._home
        next_sid = self._next_sid
        append = self._log.extend
        pack = _RECORD.pack
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            elif tid != home:
                # Slice, not index: the home stack may empty concurrently.
                tail = stacks.get(home, ())[-1:]
                parent = tail[0] if tail else NO_PARENT
            else:
                parent = NO_PARENT
            sid = next_sid()
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                # One bytearray.extend is a single call under the interpreter
                # lock, so records from different threads never interleave.
                append(pack(sid, nid, t0, t1, parent, tid))

        return traced

    def spans(self) -> np.ndarray:
        """All spans recorded so far, sorted by span id (= start order)."""
        spans = np.frombuffer(bytes(self._log), dtype=SPAN_DTYPE)
        return spans[np.argsort(spans["sid"], kind="stable")]

    def clear(self) -> None:
        self._log.clear()


def parent_index(spans: np.ndarray) -> np.ndarray:
    """Row of each span's parent in ``spans`` (sorted by sid), or -1."""
    n = len(spans)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    sid = spans["sid"]
    parent = spans["parent"]
    idx = np.minimum(np.searchsorted(sid, parent), n - 1)
    found = (parent != NO_PARENT) & (sid[idx] == parent)
    return np.where(found, idx, -1)


def _union_length(t0: np.ndarray, t1: np.ndarray, lo: float, hi: float) -> float:
    order = np.argsort(t0, kind="stable")
    covered = 0.0
    reach = lo
    for a, b in zip(np.maximum(t0[order], lo), np.minimum(t1[order], hi)):
        if b > reach:
            covered += b - max(a, reach)
            reach = b
    return covered


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time of each span (same order as ``spans``), in seconds."""
    n = len(spans)
    dur = spans["t1"] - spans["t0"]
    if n == 0:
        return dur
    pidx = parent_index(spans)
    has_parent = pidx >= 0
    same_thread = has_parent & (spans["thread"] == spans["thread"][np.maximum(pidx, 0)])
    covered = np.bincount(pidx[same_thread], weights=dur[same_thread], minlength=n)
    cross = has_parent & ~same_thread
    for p in np.unique(pidx[cross]):
        kids = np.flatnonzero(pidx == p)
        covered[p] = _union_length(
            spans["t0"][kids], spans["t1"][kids], spans["t0"][p], spans["t1"][p]
        )
    return dur - covered


def count_within(spans: np.ndarray, names: list[str], child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    if child not in names or ancestor not in names or len(spans) == 0:
        return 0
    child_id, anc_id = names.index(child), names.index(ancestor)
    pidx = parent_index(spans)
    cur = pidx[spans["name"] == child_id]
    hits = 0
    while len(cur):
        is_anc = spans["name"][cur] == anc_id
        hits += int(is_anc.sum())
        cur = pidx[cur[~is_anc]]
        cur = cur[cur >= 0]
    return hits


# ---------------------------------------------------------------------------
# Wrap sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One lookup point to wrap: ``module``'s attribute ``path``.

    ``name`` is the span name, ``<layer>.<function>``. It stays fixed when a
    refactor moves the function, so named metrics keep their meaning; the
    layer a span's self time is charged to follows the wrapped function's
    actual module.
    """

    module: str
    path: str
    name: str


def _resolve(site: Site):
    try:
        obj = importlib.import_module(site.module)
    except ImportError:
        return None, None, None
    *owners, attr = site.path.split(".")
    for part in owners:
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None, None
    fn = getattr(obj, attr, None)
    return (obj, attr, fn) if callable(fn) else (None, None, None)


def layer_of(fn: Callable, fallback: str, layers: Sequence[str]) -> str:
    module = getattr(fn, "__module__", "") or ""
    short = module.rsplit(".", 1)[-1]
    return short if short in layers else fallback


@contextmanager
def installed(
    tracer: Tracer, sites: Sequence[Site], layers: Sequence[str]
) -> Iterator[tuple[dict[str, str], list[Site]]]:
    """Wrap every resolvable site for the duration of the block.

    Yields ``(layer_by_span_name, absent_sites)``. A site whose module,
    owner or function no longer exists is reported absent, not an error.
    """
    restore: list[tuple[object, str, object]] = []
    layer_by_name: dict[str, str] = {}
    absent: list[Site] = []
    try:
        for site in sites:
            owner, attr, fn = _resolve(site)
            if fn is None:
                absent.append(site)
                continue
            layer_by_name.setdefault(site.name, layer_of(fn, site.name.split(".")[0], layers))
            restore.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(site.name, fn))
        yield layer_by_name, absent
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)
