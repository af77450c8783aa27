"""Span tracing from outside the program.

The traced run wraps the public entry points of each layer (and the
cipher, hash and device objects the store holds) with a recorder, runs
the workload, and restores every original on exit.  No program source
changes: the wrappers are installed on the classes the stack is built
from.

Each call at a wrapped boundary becomes one span ``(layer, start, end,
parent, request, child_seconds)``.  Spans stay in memory until the run
ends; a layer's self time is its span time minus its child spans.  The
benchmark opens a root span (layer ``bench``) per request, so time no
layer span covers is the root spans' self time.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT_LAYER = "bench"


class _HasherProxy:
    """Times ``update``/``digest`` on a streaming hasher (hashlib objects
    cannot be patched)."""

    __slots__ = ("_inner", "_traced")

    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._traced = tracer

    def update(self, data) -> None:
        self._traced.call("crypto.hash", self._inner.update, data)

    def digest(self) -> bytes:
        return self._traced.call("crypto.hash", self._inner.digest)


class _ThreadSpans:
    """One thread's spans and its stack of open ones."""

    __slots__ = ("name", "spans", "stack", "request")

    def __init__(self, name: str) -> None:
        self.name = name
        self.spans: List[Optional[Tuple]] = []
        self.stack: List[list] = []
        self.request = -1


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Each thread records into its own span list (parents are indices into
    that list), so concurrent sessions never share a span stack."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._threads_mutex = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _mine(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            mine = _ThreadSpans(threading.current_thread().name)
            with self._threads_mutex:
                self._threads.append(mine)
            self._local.spans = mine
            return mine

    # -- recording ------------------------------------------------------------

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        mine = self._mine()
        spans, stack = mine.spans, mine.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else None
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent[1] += end - start
            spans[index] = (
                layer,
                start,
                end,
                parent[0] if parent is not None else -1,
                mine.request,
                frame[1],
            )

    def request(self, request_id: int, fn, *args, **kwargs):
        """Run one benchmark request under a root span tagged with its id."""
        mine = self._mine()
        mine.request = request_id
        try:
            return self.call(ROOT_LAYER, fn, *args, **kwargs)
        finally:
            mine.request = -1

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Record a span of ``layer`` around every call of
        ``owner.attr`` (a class or an instance) until :meth:`restore`."""
        original = getattr(owner, attr)
        call = self.call

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return call(layer, original, *args, **kwargs)

        self._patch(owner, attr, traced)

    def wrap_hash(self, hash_class) -> None:
        """Time a hash function's streaming interface (its one-shot
        ``hash`` goes through ``new`` too)."""
        original_new = hash_class.new
        tracer = self

        def new(self_):
            return _HasherProxy(original_new(self_), tracer)

        self._patch(hash_class, "new", new)

    def _patch(self, owner, attr: str, replacement) -> None:
        previous = vars(owner).get(attr, _ABSENT)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, previous))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, previous in reversed(self._patches):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, self seconds, and inclusive seconds
        (outermost spans of the layer only, so nesting is not double
        counted)."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"spans": 0, "outer": 0, "self_s": 0.0, "inclusive_s": 0.0}
        )
        for thread in self._threads:
            all_spans = thread.spans
            for span in all_spans:
                if span is None:
                    continue
                layer, start, end, parent, _request, child = span
                row = out[layer]
                row["spans"] += 1
                row["self_s"] += (end - start) - child
                parent_span = all_spans[parent] if parent >= 0 else None
                if parent_span is None or parent_span[0] != layer:
                    row["outer"] += 1
                    row["inclusive_s"] += end - start
        return dict(out)

    def seconds_within(self, layer: str, ancestor: str) -> float:
        """Time in ``layer`` spans that run inside an ``ancestor`` span
        (e.g. decryption on the read path, not in the cleaner)."""
        total = 0.0
        for thread in self._threads:
            spans = thread.spans
            for span in spans:
                if span is None or span[0] != layer:
                    continue
                parent = span[3]
                while parent >= 0 and spans[parent][0] != ancestor:
                    parent = spans[parent][3]
                if parent >= 0:
                    total += span[2] - span[1]
        return total

    def dump(self, path: Path) -> None:
        """Write every span as gzipped CSV (times relative to the first;
        ``index`` and ``parent`` count within the span's thread)."""
        origin = min(
            (s[1] for t in self._threads for s in t.spans if s is not None),
            default=0.0,
        )
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["thread", "index", "layer", "start_us", "end_us", "parent",
                 "request"]
            )
            for thread in self._threads:
                for index, span in enumerate(thread.spans):
                    if span is None:
                        continue
                    layer, start, end, parent, request, _child = span
                    writer.writerow(
                        [
                            thread.name,
                            index,
                            layer,
                            round((start - origin) * 1e6, 3),
                            round((end - origin) * 1e6, 3),
                            parent,
                            request,
                        ]
                    )


_ABSENT = object()


#: (layer, module, class, methods) wrapped at class level
LAYER_ENTRY_POINTS = (
    ("collection", "repro.collection.store", "CollectionStore",
     ("insert", "insert_ref", "update", "remove", "exact")),
    ("objectstore", "repro.objectstore.store", "Transaction",
     ("get", "get_many", "get_for_update", "update", "create", "delete",
      "commit", "abort")),
    ("objectstore.lock", "repro.objectstore.locks", "LockManager",
     ("acquire_shared", "acquire_exclusive")),
    # the serving layer: a group commit's self time is the wait for (or
    # the lead of) a batch, outside the nested ChunkStore.commit
    ("server.commit", "repro.server.group_commit", "GroupCommitter",
     ("commit",)),
    ("server.snapshot", "repro.server.snapshots", "SnapshotManager",
     ("acquire",)),
    ("server.read", "repro.server.snapshots", "Snapshot",
     ("get", "get_many")),
    ("chunkstore.read", "repro.chunkstore.store", "ChunkStore",
     ("read_chunk", "read_chunks")),
    # the second validated read path, used by snapshot readers
    ("chunkstore.read", "repro.chunkstore.snapshot", "SnapshotView",
     ("read_chunk", "read_chunks")),
    ("chunkstore.commit", "repro.chunkstore.store", "ChunkStore",
     ("commit",)),
    # ``_write_checkpoint`` is the one seam every checkpoint passes
    # through: the ones commits trigger on the dirty-descriptor threshold
    # or to bound the residual log never enter the public ``checkpoint``
    ("chunkstore.checkpoint", "repro.chunkstore.store", "ChunkStore",
     ("checkpoint", "_write_checkpoint")),
    ("chunkstore.cleaner", "repro.chunkstore.cleaner", "Cleaner",
     ("clean_one",)),
    ("untrusted.read", "repro.platform.untrusted", "UntrustedStore",
     ("read", "read_many")),
    ("untrusted.write", "repro.platform.untrusted", "UntrustedStore",
     ("write",)),
    ("untrusted.flush", "repro.platform.untrusted", "FileUntrustedStore",
     ("flush",)),
    ("trusted.write", "repro.platform.tamper_resistant",
     "TamperResistantCounter", ("increment", "advance_to")),
)


def install(tracer: Tracer, chunks) -> None:
    """Wrap every layer entry point plus the crypto the store holds."""
    for layer, module_name, class_name, methods in LAYER_ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            tracer.wrap(cls, method, layer)
    cipher_classes = {type(chunks.codec.system_cipher)}
    hash_classes = {type(chunks.codec.system_hash)}
    for state in chunks.partitions.values():
        cipher_classes.add(type(state.cipher))
        hash_classes.add(type(state.hash))
    for cls in sorted(cipher_classes, key=lambda c: c.__name__):
        tracer.wrap(cls, "encrypt", "crypto.encrypt")
        tracer.wrap(cls, "decrypt", "crypto.decrypt")
    for cls in sorted(hash_classes, key=lambda c: c.__name__):
        tracer.wrap_hash(cls)
