"""Hash aggregation stage (stop-&-go), with graceful spilling.

Consumes its entire input, folding rows into per-group accumulators,
then emits one output row per group. Output groups are ordered by
group key so results are deterministic regardless of scheduling.

NULL semantics: aggregate inputs that evaluate to ``None`` are skipped
(``count(expr)`` counts non-NULL values; ``count(*)`` counts rows) —
TPC-H Q13's ``count(o_orderkey)`` over a left join depends on this.

The group keys and aggregate inputs of a whole batch are extracted
column-at-a-time (one ``zip`` over the key columns, one batch-compiled
evaluation per aggregate expression) before the fold loop runs; a
global aggregate (no group-by) folds each input column in one tight
loop per accumulator. Float accumulation order is preserved exactly —
sums still add value by value in row order — so results stay
bit-identical to the reference executor's row fold
(:func:`aggregate_rows`).

Without memory governance (``ctx.memory is None``) the stage buffers
every group unconditionally, exactly as the seed did. With a
:class:`~repro.engine.memory.MemoryBroker` attached it takes a
working-memory grant and becomes a **partitioned spilling aggregate**:
groups are hashed into partitions, and when the resident group state
exceeds the grant the largest partition is spilled — its accumulator
*states* (which merge: sums add, counts add, min/max combine) are
written through a :class:`~repro.storage.buffer.SpillFile`, and later
input rows for a spilled partition are folded into singleton states
and appended. A finalize phase re-reads each spilled partition,
merges its states (the broker records an overcommit if a single
partition still exceeds the grant — the recursion floor), and emits
all groups in global key order, so the answer is identical to the
unbounded aggregate's at every budget.
"""

from __future__ import annotations

from repro.engine.expressions import compile_batch
from repro.engine.operators.api import BatchOperator, drive
from repro.errors import PlanError
from repro.sim.events import Compute
from repro.storage.spill_cursor import SpillCursor

__all__ = ["AggregateOperator", "task", "aggregate_rows", "Accumulator"]

# Group-state partitions of the governed aggregate; clamped to the
# memory grant like the hybrid hash join's fanout.
DEFAULT_FANOUT = 8


class Accumulator:
    """Streaming accumulator for one (group, aggregate) pair."""

    __slots__ = ("func", "total", "count", "best")

    def __init__(self, func: str) -> None:
        self.func = func
        self.total = 0.0
        self.count = 0
        self.best = None

    def update(self, value) -> None:
        if self.func == "count":
            # value is a sentinel for count(*) rows; None means a NULL
            # expression input, which count(expr) skips.
            if value is not None:
                self.count += 1
            return
        if value is None:
            return
        if self.func in ("sum", "avg"):
            self.total += value
            self.count += 1
        elif self.func == "min":
            self.best = value if self.best is None else min(self.best, value)
        elif self.func == "max":
            self.best = value if self.best is None else max(self.best, value)
        else:  # pragma: no cover - constructor validates
            raise PlanError(f"unknown aggregate {self.func!r}")

    def update_column(self, values) -> None:
        """Fold a whole value column, preserving row-order arithmetic."""
        func = self.func
        if func == "count":
            self.count += sum(1 for v in values if v is not None)
            return
        if func in ("sum", "avg"):
            total = self.total
            count = self.count
            for v in values:
                if v is not None:
                    total += v
                    count += 1
            self.total = total
            self.count = count
            return
        if func == "min":
            kept = [v for v in values if v is not None]
            if kept:
                low = min(kept)
                self.best = low if self.best is None else min(self.best, low)
        elif func == "max":
            kept = [v for v in values if v is not None]
            if kept:
                high = max(kept)
                self.best = high if self.best is None else max(self.best, high)
        else:  # pragma: no cover - constructor validates
            raise PlanError(f"unknown aggregate {func!r}")

    def state(self) -> tuple:
        """Serializable partial state, mergeable via :meth:`absorb`."""
        return (self.total, self.count, self.best)

    def absorb(self, state: tuple) -> None:
        """Merge another accumulator's partial state into this one.

        Every supported aggregate is decomposable: sums and counts
        add, min/max combine — which is what makes spilling partial
        group state (rather than raw input rows) correct.
        """
        total, count, best = state
        self.total += total
        self.count += count
        if best is not None:
            if self.best is None:
                self.best = best
            elif self.func == "min":
                self.best = min(self.best, best)
            elif self.func == "max":
                self.best = max(self.best, best)

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total if self.count else None
        if self.func == "avg":
            return self.total / self.count if self.count else None
        return self.best


def _sort_key(key: tuple) -> tuple:
    """Order group keys deterministically, tolerating None values."""
    return tuple((value is None, value) for value in key)


def aggregate_rows(rows, schema, group_by, aggs):
    """Pure function: grouped aggregation over materialized rows."""
    group_idx = [schema.index_of(name) for name in group_by]
    value_fns = [
        (spec.expr.compile(schema) if spec.expr is not None else (lambda row: True))
        for spec in aggs
    ]
    groups: dict[tuple, list[Accumulator]] = {}
    for row in rows:
        key = tuple(row[i] for i in group_idx)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [Accumulator(spec.func) for spec in aggs]
            groups[key] = accumulators
        for accumulator, fn in zip(accumulators, value_fns):
            accumulator.update(fn(row))
    output = []
    for key in sorted(groups, key=_sort_key):
        output.append(key + tuple(a.result() for a in groups[key]))
    return output


class AggregateOperator(BatchOperator):
    def __init__(self, node, ctx, out_queues):
        super().__init__(node, ctx, out_queues)
        schema = node.children[0].schema
        self.aggs = node.params["aggs"]
        self.group_idx = [schema.index_of(n) for n in node.params["group_by"]]
        # Batch value extractors; None stands for count(*)'s constant.
        self.batch_fns = [
            (compile_batch(spec.expr, schema)
             if spec.expr is not None else None)
            for spec in self.aggs
        ]
        self.make_emitter(len(node.schema))
        self.groups: dict[tuple, list[Accumulator]] = {}
        self.grant = None

    # -- batch-wise extraction -------------------------------------------

    def _batch_keys_values(self, batch):
        """Key tuples and per-aggregate value columns for one batch."""
        n = len(batch)
        cols = batch.columns
        if self.group_idx:
            keys = list(zip(*[cols[i] for i in self.group_idx]))
        else:
            keys = None
        values = [
            ([True] * n if bf is None else bf(cols, n))
            for bf in self.batch_fns
        ]
        return keys, values

    def _fresh_accumulators(self):
        return [Accumulator(spec.func) for spec in self.aggs]

    def _fold_ungoverned(self, batch):
        keys, values = self._batch_keys_values(batch)
        groups = self.groups
        if keys is None:
            accumulators = groups.get(())
            if accumulators is None:
                accumulators = self._fresh_accumulators()
                groups[()] = accumulators
            for accumulator, column in zip(accumulators, values):
                accumulator.update_column(column)
            return
        make = self._fresh_accumulators
        if len(values) == 1:
            column = values[0]
            for i, key in enumerate(keys):
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = make()
                    groups[key] = accumulators
                accumulators[0].update(column[i])
            return
        for i, key in enumerate(keys):
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = make()
                groups[key] = accumulators
            for accumulator, column in zip(accumulators, values):
                accumulator.update(column[i])

    # -- protocol --------------------------------------------------------

    def open(self):
        ctx = self.ctx
        if ctx.memory is not None:
            # Grant acquisition stays at task start (not construction)
            # so broker bookkeeping keeps its spawn-order timeline.
            self.grant = ctx.memory.grant(
                self.node.op_id, self.node.params.get("mem_pages")
            )
            self.fanout = max(
                2,
                min(self.node.params.get("fanout", DEFAULT_FANOUT),
                    self.grant.pages),
            )
            self.parts = [_AggPartition() for _ in range(self.fanout)]
        return
        yield  # pragma: no cover

    def next_batch(self, batch, port):
        if self.grant is not None:
            yield from self._governed_fold(batch)
            return
        yield Compute(self.ctx.costs.agg_update * len(batch))
        self._fold_ungoverned(batch)

    def finish(self):
        if self.grant is not None:
            yield from self._governed_finish()
            return
        emitter = self.emitter
        groups = self.groups
        ordered_keys = sorted(groups, key=_sort_key)
        if ordered_keys:
            yield Compute(self.ctx.costs.agg_emit * len(ordered_keys))
        output = [
            key + tuple(a.result() for a in groups[key])
            for key in ordered_keys
        ]
        yield from emitter.emit_rows(output)
        yield from emitter.close()

    # -- memory-governed partitioned aggregate ---------------------------

    def _spill_largest(self) -> int:
        """Spill the largest resident partition's state; pages written."""
        victim = max(
            (p for p in self.parts if not p.spilled and p.groups),
            key=lambda p: len(p.groups),
        )
        if victim.file is None:
            victim.file = self.ctx.pool.spill_file(self.ctx.page_rows)
        written = victim.file.append_rows(
            _state_row(key, accumulators)
            for key, accumulators in victim.groups.items()
        )
        victim.groups = None
        return written

    def _governed_fold(self, batch):
        """Fold one batch into partitioned group state, spilling the
        largest partition whenever the grant is exceeded."""
        from repro.engine.operators.hash_join import _partition_of

        costs = self.ctx.costs
        page_rows = self.ctx.page_rows
        parts = self.parts
        fanout = self.fanout
        grant = self.grant
        cost = costs.agg_update * len(batch)
        keys, values = self._batch_keys_values(batch)
        if keys is None:
            keys = [()] * len(batch)
        for key, *row_values in zip(keys, *values):
            p = parts[_partition_of(key, 0, fanout)]
            if p.spilled:
                fresh = self._fresh_accumulators()
                for accumulator, value in zip(fresh, row_values):
                    accumulator.update(value)
                cost += costs.spill_page * p.file.append_rows(
                    (_state_row(key, fresh),)
                )
            else:
                accumulators = p.groups.get(key)
                if accumulators is None:
                    accumulators = self._fresh_accumulators()
                    p.groups[key] = accumulators
                for accumulator, value in zip(accumulators, row_values):
                    accumulator.update(value)
        while _group_pages(parts, page_rows) > grant.pages:
            cost += costs.spill_page * self._spill_largest()
        grant.resize_used(_group_pages(parts, page_rows))
        yield Compute(cost)

    def _governed_finish(self):
        """Resident partitions emit directly; spilled partitions re-read
        and merge their state runs (overcommitting at the floor if a
        single partition still exceeds the grant)."""
        ctx = self.ctx
        costs = ctx.costs
        grant = self.grant
        key_width = len(self.group_idx)
        output = []
        for p in self.parts:
            if not p.spilled:
                output.extend(
                    key + tuple(a.result() for a in p.groups[key])
                    for key in p.groups
                )
                p.groups = None
                continue
            seal = costs.spill_page * p.file.flush()
            if seal:
                yield Compute(seal)
            grant.resize_used(p.file.page_count)
            merged: dict = {}
            # Stream the state run back through a prefetched cursor: the
            # absorb CPU of this page drains the next pages' reads.
            reader = SpillCursor(p.file, costs.io_page, ctx.spill_prefetch)
            credit = 0.0
            while not reader.exhausted:
                spill_page, stall = reader.next_page(credit)
                for row in spill_page.rows:
                    _absorb_state_row(merged, row, key_width, self.aggs)
                credit = costs.agg_update * len(spill_page)
                yield Compute(credit + stall, io=stall)
            output.extend(
                key + tuple(a.result() for a in merged[key])
                for key in merged
            )
            p.file.drop()
        grant.resize_used(0)

        emitter = self.emitter
        output.sort(key=lambda row: _sort_key(row[:key_width]))
        if output:
            yield Compute(costs.agg_emit * len(output))
        yield from emitter.emit_rows(output)
        yield from emitter.close()
        grant.close()


class _AggPartition:
    """One partition: resident group map or a spill file of states."""

    __slots__ = ("groups", "file")

    def __init__(self) -> None:
        self.groups: dict | None = {}
        self.file = None

    @property
    def spilled(self) -> bool:
        return self.groups is None


def _group_pages(parts, page_rows: int) -> int:
    """Pages of resident group state (one group ~ one state row)."""
    return sum(
        -(-len(p.groups) // page_rows)
        for p in parts if not p.spilled and p.groups
    )


def _state_row(key: tuple, accumulators) -> tuple:
    """Flatten one group's accumulators into a spillable row."""
    row = list(key)
    for accumulator in accumulators:
        row.extend(accumulator.state())
    return tuple(row)


def _absorb_state_row(groups, row, key_width, aggs) -> None:
    """Merge one spilled state row into a partition's group map."""
    key = row[:key_width]
    accumulators = groups.get(key)
    if accumulators is None:
        accumulators = [Accumulator(spec.func) for spec in aggs]
        groups[key] = accumulators
    offset = key_width
    for accumulator in accumulators:
        accumulator.absorb(tuple(row[offset:offset + 3]))
        offset += 3


def task(node, in_queues, out_queues, ctx):
    return drive(AggregateOperator(node, ctx, out_queues), in_queues)
