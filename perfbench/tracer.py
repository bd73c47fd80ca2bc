"""Traced launcher: run ``repro.cli.main`` with spans around each layer.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON SPAWNED_NS -- serve --port 0

The launcher wraps public functions and methods of the program by
module attribute, records one span per call in memory, then calls
``repro.cli.main(argv)`` in place of ``python -m repro``.  When ``main``
returns, the spans are written to ``SPANS_JSON``.  ``SPAWNED_NS`` is the
parent's ``time.perf_counter_ns()`` at spawn (a system-wide clock on
Linux), which opens the ``process.startup`` span.  No file of the
program changes.

A span is ``[sid, layer, start_ns, end_ns, parent_sid, request_id,
thread_id]``.  ``parent_sid`` is the enclosing span on the same thread
(-1 at top level).  ``request_id`` comes from a context variable that
the ``decode_line`` wrapper sets to the decoded request's ``id``, so the
spans of one request share it.  ``apply_delta`` runs on an executor
thread that does not inherit the context; its spans take the id of the
oldest decoded ``apply_delta`` request not yet started, which is the
order the per-tenant writer queue serves them in.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

#: (module, attribute path, layer) for every wrapped callable.  Module
#: level functions are also replaced in every ``repro`` module that
#: imported them by name.
TARGETS = (
    ("repro.serve.protocol", "decode_line", "protocol.decode"),
    ("repro.serve.protocol", "result_to_dict", "protocol.result_to_dict"),
    ("repro.serve.protocol", "encode_line", "protocol.encode"),
    ("repro.serve.service", "LookupService.lookup", "service.lookup"),
    ("repro.serve.service", "LookupService.lookup_many", "service.lookup_many"),
    ("repro.serve.service", "LookupService.apply_delta", "service.apply_delta"),
    ("repro.serve.service", "LookupService.add_tenant", "service.add_tenant"),
    ("repro.hierarchy.serialize", "hierarchy_from_dict", "hierarchy.from_dict"),
    ("repro.core.cache", "LookupCache.get", "cache.get"),
    ("repro.core.snapshot", "TableSnapshot.lookup", "snapshot.lookup"),
    ("repro.core.snapshot", "TableSnapshot.apply_delta", "snapshot.apply_delta"),
    ("repro.core.columnar", "ColumnarTable.lookup_many", "columnar.lookup_many"),
    ("repro.core.columnar", "ColumnarTable.from_rows", "columnar.from_rows"),
    ("repro.core.columnar", "ColumnarTable.apply_delta", "columnar.apply_delta"),
    ("repro.core.fastpath", "build_flat_table", "fastpath.build"),
    ("repro.core.fastpath", "FlatTable.apply_delta", "fastpath.apply_delta"),
    ("repro.core.kernel", "batched_sweep", "kernel.sweep"),
    ("repro.core.kernel", "cone_sweep", "kernel.cone_sweep"),
    ("repro.hierarchy.graph", "ClassHierarchyGraph.compile", "hierarchy.compile"),
    ("repro.hierarchy.compiled", "describe_delta", "hierarchy.describe_delta"),
    ("repro.frontend.lexer", "tokenize", "frontend.lex"),
    ("repro.frontend.parser", "Parser.iter_declarations", "frontend.parse"),
    ("repro.frontend.sema", "IncrementalSema.declare", "frontend.sema"),
    ("repro.ingest.pipeline", "StreamingIngest.ingest_file", "ingest.read"),
    ("repro.ingest.pipeline", "StreamingIngest.ingest_source", "ingest.stream"),
    ("repro.ingest.pipeline", "StreamingIngest.flush", "ingest.flush"),
    ("repro.core.flatpack", "pack", "flatpack.pack"),
)

#: Modules imported before patching, so that every ``from X import f``
#: in the program has already bound the name the launcher replaces.
PRELOAD = (
    "repro.cli",
    "repro.serve.server",
    "repro.serve.service",
    "repro.core.semantics",
    "repro.core.parallel",
    "repro.core.lookup",
    "repro.core.flatpack",
    "repro.ingest.pipeline",
)


class Tracer:
    """In-memory span recorder plus the publish counters read at the
    same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        #: ``(entries_reused, entries_recomputed, cone_classes)`` per publish.
        self.publishes: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._rid = contextvars.ContextVar("request_id", default=None)
        self._pending_deltas: collections.deque = collections.deque()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end, parent=-1, rid=None) -> None:
        """Append a span built outside a wrapper."""
        self.spans.append([next(self._ids), name, start, end, parent, rid,
                           threading.get_ident()])

    def wrap(self, fn, name, after=None):
        """``fn`` with a span around every call; ``after(result)`` runs
        on the result before the span closes."""
        spans, ids, rid, stack_of = self.spans, self._ids, self._rid, self._stack
        clock, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, name, start, end, parent, rid.get(), ident()])

        return wrapper

    def wrap_generator(self, fn, name):
        """A generator function whose every ``next()`` is one span."""
        step = self.wrap(next, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = step(inner)
                except StopIteration:
                    return
                yield item

        return wrapper

    def on_decoded(self, message) -> None:
        """Tag the current request context with the decoded ``id``."""
        if isinstance(message, dict):
            self._rid.set(message.get("id"))
            if message.get("op") == "apply_delta":
                self._pending_deltas.append(message.get("id"))

    def wrap_writer(self, fn):
        """Run an executor-side ``apply_delta`` under the request id it
        was queued with (FIFO per tenant writer)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._rid.get() is not None or not self._pending_deltas:
                return fn(*args, **kwargs)
            token = self._rid.set(self._pending_deltas.popleft())
            try:
                return fn(*args, **kwargs)
            finally:
                self._rid.reset(token)

        return wrapper

    def on_publish(self, result) -> None:
        if isinstance(result, dict):
            self.publishes.append([result["entries_reused"],
                                   result["entries_recomputed"],
                                   result["cone_classes"]])
        elif result is not None:
            self.publishes.append([result.entries_reused,
                                   result.entries_recomputed,
                                   result.cone_classes])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "publishes": self.publishes}))


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module attribute bound to ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS`."""
    for name in PRELOAD:
        importlib.import_module(name)
    for module_name, path, layer in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        static = inspect.getattr_static(owner, attr)
        after = None
        if layer == "ingest.flush" or layer == "service.apply_delta":
            after = tracer.on_publish
        if layer == "protocol.decode":
            after = tracer.on_decoded
        if isinstance(static, classmethod):
            wrapped = classmethod(tracer.wrap(static.__func__, layer, after))
            setattr(owner, attr, wrapped)
            continue
        if inspect.isgeneratorfunction(static):
            wrapped = tracer.wrap_generator(static, layer)
        else:
            wrapped = tracer.wrap(static, layer, after)
        if layer == "service.apply_delta":
            wrapped = tracer.wrap_writer(wrapped)
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(static, wrapped)


def main(argv: list) -> int:
    spans_path, spawned_ns, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON SPAWNED_NS -- ARGS...")
    tracer = Tracer()
    install(tracer)
    tracer.record("process.startup", int(spawned_ns), time.perf_counter_ns())
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
