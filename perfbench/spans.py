"""Spans around the public entry points of each repro layer.

The benchmark measures the program from outside: it never edits
``src/``.  For a traced run it replaces a fixed set of methods with thin
wrappers that record one span per call (layer, request id, parent,
start, end) in memory, and restores the originals afterwards.  Untraced
runs install nothing, so end-to-end numbers come from the unmodified
program.

Parents are tracked with a ``ContextVar``: synchronous calls nest by
call structure, each asyncio task has its own context, and the one hop
from the server's event loop to its engine thread pool is linked by the
``params`` dict both sides share (``SodaServer._run_engine_route`` runs
on the loop, ``SodaServer._run_engine`` on a pool thread).

A span's self time is its duration minus the durations of its child
spans; :meth:`Recorder.summary` sums self time per layer and request.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import resource
import threading
from collections import defaultdict
from time import perf_counter

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

_DML_PREFIXES = ("INSERT", "UPDATE", "DELETE")


class Span:
    """One timed call of one layer."""

    __slots__ = ("layer", "rid", "parent", "start", "end", "child", "n",
                 "matches")

    def __init__(self, layer: str, parent: "Span | None", rid=None) -> None:
        self.layer = layer
        self.parent = parent
        self.rid = rid if rid is not None else (
            parent.rid if parent is not None else None
        )
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0  # summed duration of direct child spans
        self.n = 0  # a per-layer count noted from the call's result
        self.matches = 0  # TripleStore.match calls made directly inside

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child


class Recorder:
    """Collects spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self._patches: list = []
        #: id(params) -> route span, for the loop -> pool-thread hop
        self._pending: dict = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def root(self, layer: str, rid) -> "tuple[Span, object]":
        """Open a root span in the caller's context (benchmark side)."""
        span = Span(layer, None, rid)
        token = _CURRENT.set(span)
        span.start = perf_counter()
        return span, token

    def close(self, span: Span, token=None) -> None:
        span.end = perf_counter()
        if token is not None:
            _CURRENT.reset(token)
        parent = span.parent
        if parent is not None:
            parent.child += span.end - span.start
        self.spans.append(span)

    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _sync(self, owner, attr: str, layer: str, note=None) -> None:
        fn = owner.__dict__[attr]
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, _CURRENT.get())
            token = _CURRENT.set(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span, token)
            if note is not None:
                span.n = note(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self, server: bool = False) -> None:
        """Wrap every layer entry point (idempotent)."""
        if self._patches:
            return
        from repro.core.filters import FiltersStep
        from repro.core.lookup import Lookup
        from repro.core.pipeline import SearchResult
        from repro.core.serving import SearchSession
        from repro.core.soda import Soda
        from repro.core.sqlgen import SqlGenerator
        from repro.core.tables import TablesStep
        from repro.graph.triples import TripleStore
        from repro.index.maintenance import InvertedIndexMaintainer
        from repro.sqlengine.database import Database
        from repro.sqlengine.planner import QueryPlanner

        self._sync(Soda, "search", "session")
        self._sync(SearchSession, "search", "session")
        self._sync(Lookup, "run", "lookup",
                   lambda args, result: len(result.interpretations))
        self._sync(TablesStep, "run", "tables")
        self._sync(FiltersStep, "run", "filters")
        self._sync(SqlGenerator, "generate", "sqlgen",
                   lambda args, result: int(result is not None))
        self._sync(QueryPlanner, "prepare", "plan")
        self._sync(Database, "execute_select_ast", "execute",
                   lambda args, result: len(result.rows))
        self._sync(Database, "explain_select_ast", "explain")
        self._sync(SearchResult, "to_dict", "serialize")
        self._sync(SearchResult, "to_json", "serialize")
        for hook in ("on_insert", "on_update", "on_delete"):
            self._sync(InvertedIndexMaintainer, hook, "index_maint")
        self._wrap_dml(Database)
        self._count_matches(TripleStore)
        if server:
            self._wrap_server()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _wrap_dml(self, database_cls) -> None:
        """``Database.execute`` spans only DML statements (the write path)."""
        fn = database_cls.__dict__["execute"]
        rec = self

        @functools.wraps(fn)
        def wrapper(db, sql, *args, **kwargs):
            if not sql.lstrip()[:6].upper().startswith(_DML_PREFIXES):
                return fn(db, sql, *args, **kwargs)
            span = Span("write", _CURRENT.get())
            token = _CURRENT.set(span)
            span.start = perf_counter()
            try:
                return fn(db, sql, *args, **kwargs)
            finally:
                rec.close(span, token)

        self._patch(database_cls, "execute", wrapper)

    def _count_matches(self, store_cls) -> None:
        fn = store_cls.__dict__["match"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _CURRENT.get()
            if span is not None:
                span.matches += 1
            return fn(*args, **kwargs)

        self._patch(store_cls, "match", wrapper)

    def _wrap_server(self) -> None:
        from repro.resilience.admission import AdmissionController
        from repro.server import SodaServer

        rec = self
        route = SodaServer.__dict__["_run_engine_route"]

        @functools.wraps(route)
        async def route_wrapper(server, handler, params, what):
            span = Span("route", None, params.get("rid"))
            token = _CURRENT.set(span)
            with rec._lock:
                rec._pending[id(params)] = span
            span.start = perf_counter()
            try:
                return await route(server, handler, params, what)
            finally:
                with rec._lock:
                    rec._pending.pop(id(params), None)
                rec.close(span, token)

        self._patch(SodaServer, "_run_engine_route", route_wrapper)

        engine = SodaServer.__dict__["_run_engine"]

        @functools.wraps(engine)
        def engine_wrapper(server, handler, params, deadline, what):
            with rec._lock:
                parent = rec._pending.get(id(params))
            span = Span("session", parent)
            token = _CURRENT.set(span)
            span.start = perf_counter()
            try:
                return engine(server, handler, params, deadline, what)
            finally:
                rec.close(span, token)

        self._patch(SodaServer, "_run_engine", engine_wrapper)

        acquire = AdmissionController.__dict__["acquire"]

        @functools.wraps(acquire)
        async def acquire_wrapper(controller):
            span = Span("admission", _CURRENT.get())
            token = _CURRENT.set(span)
            span.start = perf_counter()
            try:
                return await acquire(controller)
            finally:
                rec.close(span, token)

        self._patch(AdmissionController, "acquire", acquire_wrapper)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per request id: root duration, self time and counts per layer.

        ``{rid: {"root": seconds, "self": {layer: s}, "calls": {layer: n},
        "notes": {layer: sum of n}, "kept": rows kept in snippets,
        "matches": n}}``; spans without a request id (warm-up,
        background work) are dropped.
        """
        from repro.core.soda import SodaConfig

        shown = SodaConfig().snippet_rows  # rows a search keeps per statement
        out: dict = {}
        for span in list(self.spans):
            rid = span.rid
            if rid is None:
                continue
            entry = out.get(rid)
            if entry is None:
                entry = out[rid] = {
                    "root": 0.0,
                    "self": defaultdict(float),
                    "calls": defaultdict(int),
                    "notes": defaultdict(int),
                    "kept": 0,
                    "matches": 0,
                }
            if span.parent is None:
                entry["root"] += span.end - span.start
            entry["self"][span.layer] += span.self_time
            entry["calls"][span.layer] += 1
            entry["notes"][span.layer] += span.n
            if span.layer == "execute":
                entry["kept"] += min(span.n, shown)
            entry["matches"] += span.matches
        return {
            str(rid): {
                "root": entry["root"],
                "self": dict(entry["self"]),
                "calls": dict(entry["calls"]),
                "notes": dict(entry["notes"]),
                "kept": entry["kept"],
                "matches": entry["matches"],
            }
            for rid, entry in out.items()
        }


class GcMonitor:
    """Collector pauses via ``gc.callbacks``, timestamped on one clock.

    ``perf_counter`` reads CLOCK_MONOTONIC on Linux, so pauses recorded
    in a program process can be cut to a window the benchmark process
    timed.
    """

    def __init__(self) -> None:
        self.pauses: list = []  # (start, end, generation)
        self._started = None

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        elif self._started is not None:
            self.pauses.append(
                (self._started, perf_counter(), info["generation"])
            )
            self._started = None


def gc_window(pauses, start: float, end: float) -> dict:
    """Total/max pause (ms) and gen-2 collections inside [start, end]."""
    inside = [p for p in pauses if start <= p[0] <= end]
    durations = [(p[1] - p[0]) * 1000.0 for p in inside]
    return {
        "pause_ms": sum(durations),
        "max_pause_ms": max(durations, default=0.0),
        "gen2_collections": sum(1 for p in inside if p[2] == 2),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
