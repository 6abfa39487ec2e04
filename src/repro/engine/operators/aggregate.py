"""Hash aggregation stage (stop-&-go), with graceful spilling.

Consumes its entire input, folding rows into per-group accumulators,
then emits one output row per group. Output groups are ordered by
group key so results are deterministic regardless of scheduling.

NULL semantics: aggregate inputs that evaluate to ``None`` are skipped
(``count(expr)`` counts non-NULL values; ``count(*)`` counts rows) —
TPC-H Q13's ``count(o_orderkey)`` over a left join depends on this.

Each batch is folded column-at-a-time, one group at a time — gather,
then fold:

* **Inputs are resolved once**, at construction. A bare column
  reference reads the batch column in place; any other expression is
  batch-compiled. Identical inputs (Q1's ``sum`` and ``avg`` of
  ``l_quantity``) are evaluated once per batch, and ``count(*)`` adds
  the group's row count instead of folding a column.
* **One dict pass** over the batch's key tuples maps each distinct key
  to its row positions, in first-appearance order. A batch holding a
  single group — every batch of a global aggregate — skips the
  gather and folds whole columns.
* **Per (group, distinct input)** the group's values are gathered
  once (``operator.itemgetter``) and every aggregate over that input
  folds the slice (:meth:`Accumulator.update_column`). A ``sum`` and
  an ``avg`` of one input hold identical (total, count) state, so the
  second copies the first's state instead of folding the slice again.

Float accumulation order is preserved exactly: a group's sum still
adds its values one by one in row order — a left fold, never the
builtin ``sum`` (compensated on CPython 3.12), ``math.fsum`` or a
pairwise numpy reduction — so results stay bit-identical to the
reference executor's row fold (:func:`aggregate_rows`). Costs are
charged per input row as before, so simulated time does not move.

Without memory governance (``ctx.memory is None``) the stage buffers
every group unconditionally, exactly as the seed did. With a
:class:`~repro.engine.memory.MemoryBroker` attached it takes a
working-memory grant and becomes a **partitioned spilling aggregate**:
groups are hashed into partitions (one partition lookup per distinct
key per batch), resident partitions fold gathered slices as above, and
when the resident group state exceeds the grant the largest partition
is spilled — its accumulator *states* (which merge: sums add, counts
add, min/max combine) are written through a
:class:`~repro.storage.buffer.SpillFile`. Later input rows for a
spilled partition are folded into singleton states and appended one
row at a time, in row order, so spill files and page counts match a
row-at-a-time fold. A finalize phase re-reads each spilled partition,
merges its states (the broker records an overcommit if a single
partition still exceeds the grant — the recursion floor), and emits
all groups in global key order, so the answer is identical to the
unbounded aggregate's at every budget.
"""

from __future__ import annotations

from collections import defaultdict, deque
from operator import itemgetter

from repro.engine.expressions import ColumnRef, compile_batch
from repro.engine.operators.api import BatchOperator, drive
from repro.engine.operators.hash_join import _partition_of
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
        """Fold a slice of values; the state equals :meth:`update` called
        value by value.

        Sums add value by value from the running total — never the
        builtin ``sum``, which compensates float sums on CPython 3.12 —
        and min/max keep the row fold's first-wins rule on ties.
        """
        func = self.func
        if func == "sum" or func == "avg":
            total = self.total
            count = self.count
            for v in values:
                if v is not None:
                    total += v
                    count += 1
            self.total = total
            self.count = count
            return
        if func == "count":
            self.count += len(values) - values.count(None)
            return
        if None in values:
            values = [v for v in values if v is not None]
        if not values:
            return
        best = self.best
        if func == "min":
            self.best = min(values) if best is None else min(best, *values)
        elif func == "max":
            self.best = max(values) if best is None else max(best, *values)
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


def _input_slot(exprs, expr) -> int:
    """Position of an identical earlier input in ``exprs``, else its length.

    Inputs must agree in signature *and* equality: ``lit(1)`` and
    ``lit(1.0)`` compare equal but evaluate to different types.
    """
    for j, seen in enumerate(exprs):
        if seen.signature() == expr.signature() and seen == expr:
            return j
    return len(exprs)


def _gather(columns, rows):
    """Each column's values at ``rows`` (ascending row positions)."""
    if len(rows) == 1:
        i = rows[0]
        return [(col[i],) for col in columns]
    get = itemgetter(*rows)
    return [get(col) for col in columns]


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
        # Distinct aggregate inputs, resolved once: a column index (the
        # batch column is read in place) or a batch-compiled expression.
        exprs: list = []
        self.inputs: list = []
        # (aggregate position, input position) of each fold; count(*)
        # positions in ``star`` add slice lengths instead.
        self.folds: list[tuple[int, int]] = []
        self.star: list[int] = []
        # (twin position, lead position): a sum and an avg of one input
        # hold identical (total, count) state at all times, so the
        # second copies the first's state instead of folding again.
        self.twins: list[tuple[int, int]] = []
        leads: dict[int, int] = {}
        for k, spec in enumerate(self.aggs):
            expr = spec.expr
            if expr is None:
                self.star.append(k)
                continue
            j = _input_slot(exprs, expr)
            if j == len(exprs):
                exprs.append(expr)
                self.inputs.append(
                    schema.index_of(expr.name) if type(expr) is ColumnRef
                    else compile_batch(expr, schema)
                )
            if spec.func in ("sum", "avg"):
                if j in leads:
                    self.twins.append((k, leads[j]))
                    continue
                leads[j] = k
            self.folds.append((k, j))
        self.make_emitter(len(node.schema))
        self.groups: dict[tuple, list[Accumulator]] = {}
        self.grant = None

    # -- gather, then fold -----------------------------------------------

    def _input_columns(self, batch):
        """One value column per distinct aggregate input."""
        cols = batch.columns
        n = len(batch)
        return [
            cols[src] if type(src) is int else src(cols, n)
            for src in self.inputs
        ]

    def _group_rows(self, batch):
        """Row positions per distinct group key, plus the key column.

        Keys appear in first-appearance order. A batch holding a
        single group maps it to ``None`` (every row), which lets the
        fold use whole columns; a global aggregate has no key column.
        """
        if not self.group_idx:
            return {(): None}, None
        cols = batch.columns
        keys = list(zip(*[cols[i] for i in self.group_idx]))
        positions = defaultdict(list)
        # positions[key].append(i) for every row, without a Python loop.
        deque(map(list.append, map(positions.__getitem__, keys),
                  range(len(keys))), maxlen=0)
        if len(positions) == 1:
            return {keys[0]: None}, keys
        return positions, keys

    def _fold_group(self, accumulators, columns, rows, n):
        """Fold one group's rows of a batch (``rows=None``: all ``n``)."""
        if rows is not None:
            n = len(rows)
            columns = _gather(columns, rows)
        for k in self.star:
            accumulators[k].count += n
        for k, j in self.folds:
            accumulators[k].update_column(columns[j])
        for k, lead in self.twins:
            twin = accumulators[k]
            twin.total = accumulators[lead].total
            twin.count = accumulators[lead].count

    def _fresh_accumulators(self):
        return [Accumulator(spec.func) for spec in self.aggs]

    def _fold_ungoverned(self, batch):
        groups = self.groups
        columns = self._input_columns(batch)
        n = len(batch)
        positions, _ = self._group_rows(batch)
        for key, rows in positions.items():
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = self._fresh_accumulators()
                groups[key] = accumulators
            self._fold_group(accumulators, columns, rows, n)

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
        costs = self.ctx.costs
        page_rows = self.ctx.page_rows
        parts = self.parts
        fanout = self.fanout
        grant = self.grant
        n = len(batch)
        cost = costs.agg_update * n
        columns = self._input_columns(batch)
        positions, keys = self._group_rows(batch)
        # Row position -> spilled partition it is bound for.
        to_spill = {}
        for key, rows in positions.items():
            p = parts[_partition_of(key, 0, fanout)]
            if p.spilled:
                to_spill.update(dict.fromkeys(
                    range(n) if rows is None else rows, p))
                continue
            accumulators = p.groups.get(key)
            if accumulators is None:
                accumulators = self._fresh_accumulators()
                p.groups[key] = accumulators
            self._fold_group(accumulators, columns, rows, n)
        # A spilled partition takes one singleton state per row, appended
        # in row order, so its spill file and page count match a row fold.
        for i in sorted(to_spill):
            fresh = self._fresh_accumulators()
            self._fold_group(fresh, columns, (i,), n)
            key = () if keys is None else keys[i]
            cost += costs.spill_page * to_spill[i].file.append_rows(
                (_state_row(key, fresh),)
            )
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
