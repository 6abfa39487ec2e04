"""Hash join stage: stop-&-go build, pipelined probe (Section 5.3.3).

Child 0 is the build side, child 1 the probe side. The build phase
drains its input into a hash table keyed on ``build_key``; the probe
phase then streams, emitting per ``join_type``:

* ``inner`` — one output row per (probe, build) match:
  probe columns ++ build columns;
* ``left``  — like inner, plus unmatched probe rows padded with NULL
  build columns (TPC-H Q13's customer-orders join);
* ``semi``  — probe rows with at least one match, probe columns only
  (TPC-H Q4's EXISTS);
* ``anti``  — probe rows with no match, probe columns only.

The join key column is pulled out of each batch once (the batch is
columnar, so this is a single list reference) and the build/probe
loops walk ``zip(keys, rows)`` instead of indexing into every row
tuple.

Without memory governance (``ctx.memory is None``) the stage holds its
entire build side, exactly as the seed did. With a
:class:`~repro.engine.memory.MemoryBroker` attached it becomes a
**spilling hybrid hash join** in the style of Jahangiri, Carey &
Freytag (2021): the build side is split into ``fanout`` partitions;
while the resident partitions fit the operator's memory grant they
stay in memory as ready-to-probe hash tables, and when the grant is
exceeded the largest resident partition is spilled — written page by
page through the buffer pool (``spill_page`` per page), with later
build rows for it appended to its spill file. Probe rows for resident
partitions stream through pipelined as usual; probe rows for spilled
partitions are spilled alongside. A cleanup phase then joins each
spilled partition pair, recursing with a fresh hash salt when a
partition alone still exceeds the grant; at the recursion floor the
partition is processed in memory regardless (the broker records an
overcommit), so shrinking ``work_mem`` degrades cost smoothly and can
never fail the query.
"""

from __future__ import annotations

import zlib

from repro.engine.operators.api import BatchOperator, drive
from repro.sim.events import Compute
from repro.storage.spill_cursor import SpillCursor

__all__ = ["HashJoinOperator", "task", "build_table", "probe_rows"]

# Build-side partitions at every level of the hybrid join. The actual
# fanout is clamped to the memory grant (more partitions than budget
# pages just forces spills of near-empty partitions).
DEFAULT_FANOUT = 8
# Beyond this partitioning depth a partition is joined in memory even
# if over budget: repeated splitting has failed (heavy key skew), and
# overcommitting is better than recursing forever.
MAX_RECURSION_DEPTH = 3


def build_table(build_rows, key_index):
    """Pure function: the join hash table key -> list of build rows."""
    table: dict = {}
    for row in build_rows:
        table.setdefault(row[key_index], []).append(row)
    return table


def probe_rows(rows, table, key_index, join_type, build_width):
    """Pure function: join output for a batch of probe rows."""
    return _probe_keyed(
        rows, [row[key_index] for row in rows], table, join_type, build_width
    )


def _probe_keyed(rows, keys, table, join_type, build_width):
    """Join output for probe rows whose keys are already extracted."""
    output = []
    if join_type == "inner":
        get = table.get
        for key, row in zip(keys, rows):
            for match in get(key, ()):
                output.append(row + match)
    elif join_type == "left":
        nulls = (None,) * build_width
        get = table.get
        for key, row in zip(keys, rows):
            matches = get(key)
            if matches:
                for match in matches:
                    output.append(row + match)
            else:
                output.append(row + nulls)
    elif join_type == "semi":
        for key, row in zip(keys, rows):
            if key in table:
                output.append(row)
    elif join_type == "anti":
        for key, row in zip(keys, rows):
            if key not in table:
                output.append(row)
    else:  # pragma: no cover - plan constructor validates
        raise AssertionError(f"unknown join type {join_type!r}")
    return output


# Key types whose repr is the same for every pair of equal keys.
_CANONICAL_KEY_TYPES = frozenset((int, str, type(None)))


def _canonical(value):
    """``value`` with equal numbers spelled alike: a bool or an
    integral float becomes the int it equals."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, int):
        return int(value)
    return value


def _partition_of(key, salt: int, fanout: int) -> int:
    """Deterministic partition number, independent of PYTHONHASHSEED.

    ``salt`` varies per recursion level so that a partition which does
    not fit is re-split along a different boundary. Keys that are equal
    (and so meet in a hash table) share a partition: numeric key parts
    are canonicalized before hashing, so ``True``, ``1`` and ``1.0``
    land together while int and str keys keep their partitions.
    """
    if type(key) not in _CANONICAL_KEY_TYPES:
        if type(key) is tuple:
            key = tuple(map(_canonical, key))
        else:
            key = _canonical(key)
    return zlib.crc32(f"{salt}|{key!r}".encode()) % fanout


class _Partition:
    """One build-side partition: resident hash table or spill files."""

    __slots__ = ("table", "rows", "build_file", "probe_file")

    def __init__(self) -> None:
        self.table: dict | None = {}
        self.rows = 0
        self.build_file = None
        self.probe_file = None

    @property
    def spilled(self) -> bool:
        return self.table is None


def _resident_pages(parts, page_rows: int) -> int:
    """Pages held by resident partitions (each holds its own pages)."""
    return sum(
        -(-p.rows // page_rows) for p in parts if not p.spilled and p.rows
    )


class HashJoinOperator(BatchOperator):
    ports = 2

    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        build_schema, probe_schema = (child.schema for child in node.children)
        self.build_index = build_schema.index_of(node.params["build_key"])
        self.probe_index = probe_schema.index_of(node.params["probe_key"])
        self.join_type = node.params["join_type"]
        self.build_width = len(build_schema)
        self.table: dict = {}
        self.grant = None
        self.make_emitter(len(node.schema))

    # -- protocol --------------------------------------------------------

    def open(self):
        ctx = self.ctx
        if ctx.memory is not None:
            self.grant = ctx.memory.grant(
                self.node.op_id, self.node.params.get("mem_pages")
            )
            self.fanout = max(
                2,
                min(self.node.params.get("fanout", DEFAULT_FANOUT),
                    self.grant.pages),
            )
            self.parts = [_Partition() for _ in range(self.fanout)]
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        if port == 0:
            if self.grant is not None:
                yield from self._governed_build(batch)
            else:
                yield Compute(self.ctx.costs.hash_build * len(batch))
                table = self.table
                keys = batch.column(self.build_index)
                for key, row in zip(keys, batch.rows):
                    table.setdefault(key, []).append(row)
            return
        if self.grant is not None:
            yield from self._governed_probe(batch)
            return
        yield Compute(self.ctx.costs.hash_probe * len(batch))
        joined = _probe_keyed(
            batch.rows, batch.column(self.probe_index),
            self.table, self.join_type, self.build_width,
        )
        if joined:
            yield Compute(self.ctx.costs.join_emit * len(joined))
            yield from self.emitter.emit_rows(joined)

    def close_port(self, port):
        if port == 0 and self.grant is not None:
            # Seal spilled build files (a partial trailing page still
            # costs a write when it goes out).
            seal_cost = sum(
                self.ctx.costs.spill_page * p.build_file.flush()
                for p in self.parts if p.spilled
            )
            if seal_cost:
                yield Compute(seal_cost)

    def finish(self):
        if self.grant is None:
            yield from self.emitter.close()
            return
        # Resident partitions are fully probed; release their memory
        # before the cleanup phase claims pages for re-reading runs.
        for p in self.parts:
            if not p.spilled:
                p.table = None
                p.rows = 0
        self.grant.resize_used(0)
        # Cleanup phase: join every spilled partition pair, recursively.
        costs = self.ctx.costs
        for p in self.parts:
            if p.build_file is None:
                continue
            if p.probe_file is not None:
                seal = costs.spill_page * p.probe_file.flush()
                if seal:
                    yield Compute(seal)
            yield from _join_spilled(
                p.build_file, p.probe_file, 1, self.ctx, self.grant,
                self.emitter, self.build_index, self.probe_index,
                self.join_type, self.build_width, self.fanout,
            )
        yield from self.emitter.close()
        self.grant.close()

    # -- memory-governed hybrid phases -----------------------------------

    def _spill_largest(self) -> int:
        """Evict the largest resident partition; returns pages written."""
        victim = max(
            (p for p in self.parts if not p.spilled and p.rows),
            key=lambda p: p.rows,
        )
        rows = [row for bucket in victim.table.values() for row in bucket]
        victim.build_file = self.ctx.pool.spill_file(self.ctx.page_rows)
        written = victim.build_file.append_rows(rows)
        victim.table = None
        victim.rows = 0
        return written

    def _governed_build(self, batch):
        """Partition one build batch into resident hash tables, spilling
        the largest partition whenever the grant is exceeded."""
        costs = self.ctx.costs
        page_rows = self.ctx.page_rows
        parts = self.parts
        fanout = self.fanout
        grant = self.grant
        cost = costs.hash_build * len(batch)
        keys = batch.column(self.build_index)
        for key, row in zip(keys, batch.rows):
            p = parts[_partition_of(key, 0, fanout)]
            if p.spilled:
                cost += costs.spill_page * p.build_file.append_rows((row,))
            else:
                p.table.setdefault(key, []).append(row)
                p.rows += 1
        while _resident_pages(parts, page_rows) > grant.pages:
            cost += costs.spill_page * self._spill_largest()
        grant.resize_used(_resident_pages(parts, page_rows))
        yield Compute(cost)

    def _governed_probe(self, batch):
        """Probe resident partitions pipelined; buffer probe rows of
        spilled partitions in spill files."""
        ctx = self.ctx
        costs = ctx.costs
        parts = self.parts
        fanout = self.fanout
        cost = costs.hash_probe * len(batch)
        joined = []
        keys = batch.column(self.probe_index)
        for key, row in zip(keys, batch.rows):
            p = parts[_partition_of(key, 0, fanout)]
            if p.spilled:
                if p.probe_file is None:
                    p.probe_file = ctx.pool.spill_file(ctx.page_rows)
                cost += costs.spill_page * p.probe_file.append_rows((row,))
            else:
                joined.extend(
                    _probe_keyed((row,), (key,), p.table, self.join_type,
                                 self.build_width)
                )
        yield Compute(cost)
        if joined:
            yield Compute(costs.join_emit * len(joined))
            yield from self.emitter.emit_rows(joined)


def _join_spilled(build_file, probe_file, depth, ctx, grant, emitter,
                  build_index, probe_index, join_type, build_width, fanout):
    """Join one spilled (build, probe) partition pair."""
    costs = ctx.costs
    pool = ctx.pool
    page_rows = ctx.page_rows

    if probe_file is None or probe_file.row_count == 0:
        # No probe rows landed here: every join type emits per probe
        # row, so there is nothing to produce.
        build_file.drop()
        if probe_file is not None:
            probe_file.drop()
        return

    fits = build_file.page_count <= grant.pages
    if fits or depth >= MAX_RECURSION_DEPTH or build_file.page_count <= 1:
        # Re-read the build run page by page through a prefetched
        # cursor — hashing this page drains the next pages' reads —
        # rebuild the hash table, then stream the probe run the same
        # way. At the recursion floor this may exceed the grant; the
        # broker records the overcommit.
        grant.resize_used(build_file.page_count)
        table: dict = {}
        reader = SpillCursor(build_file, costs.io_page, ctx.spill_prefetch)
        credit = 0.0
        while not reader.exhausted:
            page, stall = reader.next_page(credit)
            credit = costs.hash_build * len(page)
            yield Compute(credit + stall, io=stall)
            for row in page.rows:
                table.setdefault(row[build_index], []).append(row)
        reader = SpillCursor(probe_file, costs.io_page, ctx.spill_prefetch)
        credit = 0.0
        while not reader.exhausted:
            page, stall = reader.next_page(credit)
            credit = costs.hash_probe * len(page)
            yield Compute(credit + stall, io=stall)
            joined = probe_rows(page.rows, table, probe_index, join_type,
                                build_width)
            if joined:
                emit_cost = costs.join_emit * len(joined)
                credit += emit_cost
                yield Compute(emit_cost)
                yield from emitter.emit_rows(joined)
        grant.resize_used(0)
        build_file.drop()
        probe_file.drop()
        return

    # The partition alone exceeds the grant: re-partition both runs
    # with this level's hash salt and recurse (Grace-style).
    sub_build = [pool.spill_file(page_rows) for _ in range(fanout)]
    sub_probe = [pool.spill_file(page_rows) for _ in range(fanout)]
    for files, source, key_index in (
        (sub_build, build_file, build_index),
        (sub_probe, probe_file, probe_index),
    ):
        reader = SpillCursor(source, costs.io_page, ctx.spill_prefetch)
        while not reader.exhausted:
            # No drain credit: the per-page work here is spill-write
            # disk cost, not CPU — the sequential disk cannot read
            # ahead while it is busy writing the partitions.
            page, stall = reader.next_page(0.0)
            cost = 0.0
            for row in page.rows:
                target = files[_partition_of(row[key_index], depth, fanout)]
                cost += costs.spill_page * target.append_rows((row,))
            yield Compute(cost + stall, io=stall)
        seal = sum(costs.spill_page * f.flush() for f in files)
        if seal:
            yield Compute(seal)
        source.drop()
    for sub_b, sub_p in zip(sub_build, sub_probe):
        yield from _join_spilled(
            sub_b, sub_p, depth + 1, ctx, grant, emitter,
            build_index, probe_index, join_type, build_width, fanout,
        )


def task(node, in_queues, out_queues, ctx):
    return drive(HashJoinOperator(node, ctx, out_queues), in_queues)
