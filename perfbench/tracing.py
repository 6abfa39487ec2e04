"""The traced run's span ledger and the wrappers that feed it.

Every span is opened and closed by the benchmark itself, around a call
into one layer's public functions; the only instrument of the program
used is its own wall-clock profiler (``repro.obs.perf``), attached to
every engine for per-operator row counts. :func:`traced` installs the
wrappers for the duration of one pass and restores every original
attribute on exit.

A span's *self time* is its duration minus the time its direct child
spans cover, so a layer's time excludes the layers it calls into: the
scan operator's slices exclude the buffer-pool accesses made inside
them, the advisor excludes the profiling it triggers, and
``Simulator.run`` keeps only the event loop's own work (the harness).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from repro.engine.engine import Engine
from repro.obs.perf import attach_profiler, WallProfiler
from repro.policies.base import SharingPolicy
from repro.policies.coordinator import SharingCoordinator
from repro.profiling.profiler import QueryProfiler
from repro.db.session import Session
from repro.server.admission import AdmissionPolicy
from repro.sim.simulator import Simulator
from repro.storage.buffer import BufferPool, SpillFile
from repro.storage.shared_scan import ScanShareManager
from repro.storage.spill_cursor import SpillCursor
from repro.storage.table import Table

# The span list is kept in memory for the trace file; beyond this many
# spans only the per-name aggregates keep counting (a fig2 pass resumes
# operator generators millions of times).
MAX_RECORDED_SPANS = 100_000

# Operator kinds with their own per-layer metrics; every other plan
# node kind (filter, project, sort, sinks, ...) reports as "other".
_ENGINE_KINDS = ("scan", "aggregate", "hash_join")


class Ledger:
    """Spans in memory: per-name call counts, total and self seconds,
    and the first :data:`MAX_RECORDED_SPANS` spans with their parent."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.span_count = 0
        self.slices = 0
        # Open frames: [span id, name, start, seconds covered by children].
        self._stack: list[list] = []
        self.origin = self.clock()
        # Outcome counters measured at the wrapped boundaries.
        self.pool_hits = 0
        self.spill_pages_written = 0
        self.decisions = 0
        self.share_verdicts = 0
        self.op_kinds: dict[str, str] = {}
        self.children: dict[str, tuple[str, ...]] = {}
        self.profiler = WallProfiler()

    def enter(self, name: str) -> list:
        self.span_count += 1
        frame = [self.span_count, name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, name, start, covered = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < MAX_RECORDED_SPANS:
            self.spans.append((
                span_id, parent[0] if parent is not None else 0, name,
                start - self.origin, end - self.origin,
            ))

    def call(self, name: str, fn, *args, **kwargs):
        frame = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def op_layer(self, task_name: str) -> str:
        """Engine tasks are named ``prefix/op_id``; the op's plan kind
        (recorded at launch) picks its layer."""
        op = task_name.rsplit("/", 1)[-1]
        kind = self.op_kinds.get(op)
        if kind in _ENGINE_KINDS:
            return f"engine.{kind}"
        if task_name.startswith("server/"):
            return "server.arrivals"
        return "engine.other"

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans_total": self.span_count,
            "spans_recorded": len(self.spans),
            "columns": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _timed_generator(ledger: Ledger, name: str, gen):
    """Forward a task generator, one span per resumption (slice)."""
    send = gen.send
    value = None
    while True:
        ledger.slices += 1
        frame = ledger.enter(name)
        try:
            request = send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            ledger.exit(frame)
        value = yield request


def _layer_of_callback(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    if module.startswith("repro.policies"):
        return "policies.coordinator"
    if module.startswith("repro.server"):
        return "server.complete"
    if module.startswith("repro.workload"):
        return "workload.client"
    return "sim.callback"


def _wrap_callback(ledger: Ledger, fn):
    if fn is None:
        return None
    name = _layer_of_callback(fn)

    def callback(*args, **kwargs):
        return ledger.call(name, fn, *args, **kwargs)

    return callback


def _record_plans(ledger: Ledger, plans) -> None:
    for plan in plans:
        for node in plan.walk():
            ledger.op_kinds[node.op_id] = node.kind
            ledger.children[node.op_id] = tuple(
                child.op_id for child in node.children
            )


def _wrappers(ledger: Ledger):
    """(owner, attribute, replacement factory) for every wrapped call."""

    def span(name):
        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return ledger.call(name, original, *args, **kwargs)
            return wrapper
        return factory

    def engine_init(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            attach_profiler(self.sim, self, profiler=ledger.profiler)
        return wrapper

    def execute_group(original):
        @functools.wraps(original)
        def wrapper(self, plans, pivot_op_id, labels=None, on_complete=None,
                    batch_rows=None):
            _record_plans(ledger, plans)
            if callable(on_complete):
                on_complete = _wrap_callback(ledger, on_complete)
            elif on_complete is not None:
                on_complete = [_wrap_callback(ledger, f) for f in on_complete]
            return ledger.call(
                "engine.launch", original, self, plans, pivot_op_id,
                labels, on_complete, batch_rows,
            )
        return wrapper

    def spawn(original):
        @functools.wraps(original)
        def wrapper(self, gen, name, *args, **kwargs):
            timed = _timed_generator(ledger, ledger.op_layer(name), gen)
            return original(self, timed, name, *args, **kwargs)
        return wrapper

    def call_soon(original):
        @functools.wraps(original)
        def wrapper(self, fn):
            return original(self, _wrap_callback(ledger, fn))
        return wrapper

    def coordinator_submit(original):
        @functools.wraps(original)
        def wrapper(self, query, label, on_complete=None):
            return ledger.call(
                "policies.coordinator", original, self, query, label,
                _wrap_callback(ledger, on_complete),
            )
        return wrapper

    def pool_access(original):
        @functools.wraps(original)
        def wrapper(self, key, pin=False):
            hit = ledger.call("storage.pool.access", original, self, key, pin)
            ledger.pool_hits += hit
            return hit
        return wrapper

    def decide(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            verdict = ledger.call("policies.decide", original, self, *args,
                                  **kwargs)
            ledger.decisions += 1
            ledger.share_verdicts += bool(verdict)
            return verdict
        return wrapper

    def spill_write(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            written = ledger.call("storage.spill", original, self, *args,
                                  **kwargs)
            ledger.spill_pages_written += written
            return written
        return wrapper

    yield Engine, "__init__", engine_init
    yield Engine, "execute_group", execute_group
    yield Simulator, "run", span("sim.run")
    yield Simulator, "spawn", spawn
    yield Simulator, "call_soon", call_soon
    yield BufferPool, "access", pool_access
    yield ScanShareManager, "acquire", span("storage.scan.acquire")
    yield SpillFile, "append_rows", spill_write
    yield SpillFile, "flush", spill_write
    yield SpillFile, "read_all", span("storage.spill")
    yield SpillCursor, "next_page", span("storage.spill")
    yield Table, "column_slices", span("storage.memo_decode")
    yield Session, "advise", span("db.advise")
    yield QueryProfiler, "profile", span("profiling.profile")
    yield SharingCoordinator, "submit", coordinator_submit
    for policy in _subclasses(SharingPolicy):
        if "should_share" in vars(policy):
            yield policy, "should_share", decide
    for admission in _subclasses(AdmissionPolicy):
        if "admit" in vars(admission):
            yield admission, "admit", span("server.admit")


def _subclasses(cls) -> list:
    found, pending = [], list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


@contextlib.contextmanager
def traced(ledger: Ledger):
    """Install every wrapper for the duration of the block, then put
    the original attributes back (also when the block raises)."""
    saved = []
    try:
        for owner, attribute, factory in _wrappers(ledger):
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield ledger
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
