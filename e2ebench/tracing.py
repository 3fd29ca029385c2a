"""Spans around the public entry points of each layer.

The traced run installs wrappers on the program's classes and module
functions (nothing under ``src/`` changes) and removes them when the
phase ends.  A span is ``(name, start, end, parent, request)``: spans
opened while another is open on the stack are its children; the
request id of a root span is the page, statement or writer batch it
serves, and children inherit their parent's.  Self time is a span's
duration minus the time its children cover.

``check_many`` is a coroutine, so its span is timed step by step: only
the intervals in which its own frames run on the loop count as busy
time, and the reader-window sweep it awaits (which runs later, as a
loop callback, for many pages at once) is a span of its own.
"""

from __future__ import annotations

import contextvars
import dataclasses
import gc
import json
import os
import time
from collections import defaultdict

from repro.analysis import lint as lint_module
from repro.analysis import repair as repair_module
from repro.core.authz_index import AuthorizationIndex, ReviewSnapshot
from repro.core.monitor import ReferenceMonitor
from repro.core.policy import Policy
from repro.dbms import sql as sql_module
from repro.dbms.audit import AuditLog
from repro.dbms.backends.kvlog import KVLogBackend
from repro.serve import pdp as pdp_module
from repro.serve.cache import DecisionCache
from repro.serve.wal import PolicyWal

clock = time.perf_counter

#: the request (page or statement) the running task serves.
REQUEST = contextvars.ContextVar("e2ebench_request", default=None)


class Tracer:
    """In-memory span store plus the counters measured at the same
    boundaries (bytes appended, rows examined, entries evicted)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list] = defaultdict(list)
        self.submitted: dict[int, float] = {}
        self.assigned: dict[int, tuple] = {}
        self.batch_request: str | None = None
        self.batches = 0
        self.windows = 0
        self.gc_seconds = 0.0
        #: span index where the recovery phase starts (None: no
        #: recovery); serving-path metrics read only the spans before it.
        self.recovery_from: int | None = None
        self._gc_started: float | None = None
        self._undo: list = []

    # -- span recording --------------------------------------------------
    def open(self, name: str, request=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if request is None:
            if parent >= 0:
                request = self.spans[parent][4]
            else:
                request = REQUEST.get() or self.batch_request
        index = len(self.spans)
        self.spans.append([name, clock(), None, parent, request])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    def wrap(self, name: str, function, request=None):
        def traced(*args, **kwargs):
            index = self.open(name, request)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        tracer = self
        service = pdp_module.PolicyDecisionPoint
        self._patch(service, "check_many",
                    self._traced_check_many(service.check_many))
        submit_many = service.submit_many

        async def traced_submit_many(pdp, commands, **kwargs):
            commands = list(commands)
            sent = clock()
            for command in commands:
                tracer.submitted[id(command)] = sent
            records = await submit_many(pdp, commands, **kwargs)
            done = clock()
            for command in commands:
                batch, wait = tracer.assigned.pop(id(command), (None, 0.0))
                tracer.values["pdp.submit"].append((done - sent, wait, batch))
            return records
        self._patch(service, "submit_many", traced_submit_many)

        get = DecisionCache.get

        def traced_get(cache, subject, command):
            index = tracer.open("cache.get")
            try:
                verdict = get(cache, subject, command)
            finally:
                tracer.close(index)
            tracer.counts["cache.lookups"] += 1
            tracer.counts["cache.hits"] += verdict is not None
            return verdict
        self._patch(DecisionCache, "get", traced_get)
        advance = DecisionCache.advance

        def traced_advance(cache, version):
            evicted, clears = cache.evicted_entries, cache.full_clears
            index = tracer.open("cache.advance")
            try:
                return advance(cache, version)
            finally:
                tracer.close(index)
                tracer.values["cache.evicted"].append(
                    cache.evicted_entries - evicted)
                tracer.counts["cache.full_clears"] += (
                    cache.full_clears - clears)
        self._patch(DecisionCache, "advance", traced_advance)

        self._patch(ReviewSnapshot, "__init__",
                    self.wrap("authz.capture", ReviewSnapshot.__init__))
        snapshot_batch = ReviewSnapshot.authorizes_batch

        def traced_snapshot_batch(snapshot, pairs):
            pairs = list(pairs)
            name = (
                "authz.first_use" if snapshot._index is None
                else "authz.sweep"
            )
            tracer.windows += 1
            index = tracer.open(name, f"w{tracer.windows}")
            tracer.values["pdp.window"].append((index, len(pairs)))
            try:
                return snapshot_batch(snapshot, pairs)
            finally:
                tracer.close(index)
        self._patch(ReviewSnapshot, "authorizes_batch",
                    traced_snapshot_batch)
        self._patch(AuthorizationIndex, "authorizes_batch", self.wrap(
            "authz.index_batch", AuthorizationIndex.authorizes_batch))

        submit_queue = ReferenceMonitor.submit_queue

        def traced_submit_queue(monitor, queue, *args, **kwargs):
            commands = list(queue)
            tracer.batches += 1
            tracer.batch_request = f"b{tracer.batches}"
            index = tracer.open("monitor.submit_queue", tracer.batch_request)
            start = tracer.spans[index][1]
            tracer.values["pdp.batch"].append((index, len(commands)))
            for command in commands:
                sent = tracer.submitted.pop(id(command), None)
                if sent is not None:
                    tracer.assigned[id(command)] = (
                        tracer.batch_request, start - sent)
            try:
                return submit_queue(monitor, commands, *args, **kwargs)
            finally:
                tracer.close(index)
        self._patch(ReferenceMonitor, "submit_queue", traced_submit_queue)
        self._patch(Policy, "copy", self.wrap("policy.copy", Policy.copy))
        self._patch(ReferenceMonitor, "check_access", self.wrap(
            "monitor.check_access", ReferenceMonitor.check_access))

        append_batch = PolicyWal.append_batch

        def traced_append_batch(wal, *args, **kwargs):
            before = wal.bytes_written
            index = tracer.open("wal.append")
            try:
                return append_batch(wal, *args, **kwargs)
            finally:
                tracer.close(index)
                tracer.values["wal.bytes"].append(wal.bytes_written - before)
        self._patch(PolicyWal, "append_batch", traced_append_batch)
        read_wal = self.wrap("wal.read", pdp_module.read_wal)

        def traced_read_wal(*args, **kwargs):
            records, torn = read_wal(*args, **kwargs)
            tracer.counts["wal.records"] += len(records)
            return records, torn
        self._patch(pdp_module, "read_wal", traced_read_wal)
        self._patch(pdp_module, "verify_chain",
                    self.wrap("wal.verify", pdp_module.verify_chain))
        self._patch(pdp_module, "replay_wal",
                    self.wrap("wal.replay", pdp_module.replay_wal))

        self._patch(sql_module, "parse_sql",
                    self.wrap("sql.parse", sql_module.parse_sql))
        scan = KVLogBackend.scan

        def traced_scan(store, name, *args, **kwargs):
            examined = len(store._tables.get(name, ()))
            index = tracer.open("backend.scan")
            try:
                rows = scan(store, name, *args, **kwargs)
            finally:
                tracer.close(index)
            tracer.counts["backend.examined"] += examined
            tracer.counts["backend.returned"] += len(rows)
            return rows
        self._patch(KVLogBackend, "scan", traced_scan)
        for method in ("insert", "update", "delete"):
            self._patch(KVLogBackend, method,
                        self._traced_write(getattr(KVLogBackend, method)))
        self._patch(AuditLog, "record",
                    self.wrap("audit.record", AuditLog.record))

        for name, rule in list(lint_module.RULES.items()):
            self._patch_rule(name, rule)
        self._patch(repair_module, "lint_policy",
                    self.wrap("repair.lint", repair_module.lint_policy))
        self._patch(repair_module, "apply_plan",
                    self.wrap("repair.apply", repair_module.apply_plan))
        gc.callbacks.append(self._on_gc)

    def _patch_rule(self, name: str, rule) -> None:
        check = rule.check

        def traced_check(context):
            index = self.open(f"lint.rule.{name}")
            try:
                return list(check(context))
            finally:
                self.close(index)
        registry = lint_module.RULES
        self._undo.append((registry, name, rule))
        registry[name] = dataclasses.replace(rule, check=traced_check)

    def _traced_write(self, method):
        tracer = self

        def traced(store, *args, **kwargs):
            handle = store._log_file
            before = handle.tell() if handle is not None else 0
            index = tracer.open("backend.write")
            try:
                return method(store, *args, **kwargs)
            finally:
                tracer.close(index)
                after = handle.tell() if handle is not None else 0
                tracer.values["backend.log_bytes"].append(after - before)
        return traced

    def _traced_check_many(self, check_many):
        tracer = self

        async def traced(pdp, subject, requests, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(
                ["pdp.check_many", clock(), None, -1, REQUEST.get()]
            )
            busy = 0.0
            steps = check_many(pdp, subject, requests, **kwargs).__await__()
            value, error = None, None
            while True:
                tracer.stack.append(index)
                started = clock()
                try:
                    if error is None:
                        yielded = steps.send(value)
                    else:
                        yielded = steps.throw(error)
                except StopIteration as stop:
                    busy += clock() - started
                    tracer.stack.pop()
                    tracer.spans[index][2] = clock()
                    tracer.values["pdp.busy"].append((index, busy))
                    return stop.value
                except BaseException:
                    tracer.stack.pop()
                    tracer.spans[index][2] = clock()
                    raise
                busy += clock() - started
                tracer.stack.pop()
                try:
                    value, error = await _Yield(yielded), None
                except BaseException as raised:
                    value, error = None, raised
        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = clock()
        elif self._gc_started is not None:
            self.gc_seconds += clock() - self._gc_started
            self._gc_started = None

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump every span as one JSON line (name, start, end, parent,
        request), times in seconds from the first span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps([
                    name, round(start - origin, 9),
                    None if end is None else round(end - origin, 9),
                    parent, request,
                ]) + "\n")

    def self_times(self) -> dict[int, float]:
        """Child-covered time per span index (children are nested, so
        the direct children's durations are the covered time)."""
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        return covered


class _Yield:
    """Re-yield one value from an inner awaitable to the event loop."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __await__(self):
        return (yield self.value)
