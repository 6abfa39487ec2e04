"""Stage plumbing: batch streams in, multiplexed batch streams out.

Every engine operator runs as one simulator task: a generator yielding
:mod:`repro.sim.events` requests. Input is consumed with the idiom::

    while True:
        batch = yield Get(in_q)
        if batch is CLOSED:
            break
        ...

Output goes through :class:`BatchEmitter`, which accumulates rows into
full batches and delivers each batch to *every* consumer queue,
charging the cost model's per-consumer output costs. With one consumer
this is plain pipelining; with M consumers it is the pivot's
multiplexing — the serialization the paper identifies as the hidden
cost of sharing.

Producers hand the emitter row tuples (:meth:`~BatchEmitter.emit_rows`
— joins, sorts, aggregates) or whole
:class:`~repro.engine.packet.RowBatch` objects
(:meth:`~BatchEmitter.emit_batch` — scan, filter, project). A batch
that is already exactly ``batch_rows`` long passes straight through
without copying, in whichever representation it holds — the common
case for a saturated scan; anything else is buffered as row tuples.

"""

from __future__ import annotations

from typing import Generator, Sequence

from repro.engine.costs import CostModel
from repro.engine.packet import RowBatch
from repro.errors import EngineError
from repro.sim.events import Close, Compute, Put
from repro.sim.queues import SimQueue

__all__ = ["BatchEmitter"]


class BatchEmitter:
    """Accumulates rows and multiplexes full batches to all consumers.

    Driven from inside an operator generator::

        emitter = BatchEmitter(out_queues, batch_rows, costs)
        ...
        yield from emitter.emit_batch(batch)   # may flush batches
        yield from emitter.emit_rows(rows)     # ditto, row tuples
        ...
        yield from emitter.close()             # flush tail + Close

    Per batch flushed, each consumer costs
    ``output_page + output_value * len(batch) * width`` compute units
    before the Put — a pivot with M consumers spends M times the output
    work of an unshared operator, exactly the model's ``s * M`` term.
    ``width`` is the emitted tuple width in columns (copy cost scales
    with tuple bytes). Flush boundaries depend only on the cumulative
    row count, so any split of the same row stream into emit calls
    yields the identical event sequence — an operator may emit rows or
    whole batches without moving the simulated timeline.

    ``op``/``perf`` are the wall-clock profiling hook (see
    :mod:`repro.obs.perf`): with a profiler attached, every batch flush
    reports its row count against the operator id, giving the profiler
    a measured rows/s per operator. One pointer test per flush;
    ``perf=None`` (the default) costs nothing.
    """

    def __init__(
        self,
        out_queues: Sequence[SimQueue],
        batch_rows: int,
        costs: CostModel,
        width: int = 1,
        op: str = "",
        perf=None,
    ) -> None:
        if not out_queues:
            raise EngineError("operator needs at least one output queue")
        if batch_rows < 1:
            raise EngineError(f"batch_rows must be >= 1, got {batch_rows}")
        if width < 1:
            raise EngineError(f"width must be >= 1, got {width}")
        self.out_queues = list(out_queues)
        self.batch_rows = batch_rows
        self.costs = costs
        self.width = width
        self.op = op
        self.perf = perf
        self._rows: list[tuple] = []
        self._count = 0
        self.pages_emitted = 0
        self.rows_emitted = 0
        # A full batch always costs the same, and Compute requests are
        # immutable — deliver one shared instance instead of allocating
        # per flush (the steady-state case for a saturated producer).
        self._full_compute = Compute(
            costs.page_output_cost(batch_rows, width, consumers=1)
        )

    @property
    def consumers(self) -> int:
        return len(self.out_queues)

    @property
    def page_rows(self) -> int:
        """Legacy alias for :attr:`batch_rows`."""
        return self.batch_rows

    # -- producing -------------------------------------------------------

    def emit_rows(self, rows: Sequence[tuple]) -> Generator:
        """Buffer a sequence of row tuples."""
        n = len(rows)
        if n == 0:
            return
        if self._count == 0 and n == self.batch_rows:
            yield from self._deliver(RowBatch.from_rows(rows, self.width))
            return
        self._rows.extend(rows)
        self._count += n
        while self._count >= self.batch_rows:
            yield from self._flush_rows()

    def emit_batch(self, batch: RowBatch) -> Generator:
        """Buffer a whole batch, passing it through unsplit if aligned."""
        n = batch._n
        if n == 0:
            return
        if self._count == 0 and n == self.batch_rows:
            yield from self._deliver(batch)
            return
        yield from self.emit_rows(batch.rows)

    def close(self) -> Generator:
        """Flush the partial batch and close every consumer queue."""
        if self._count:
            yield from self._flush_rows()
        for queue in self.out_queues:
            yield Close(queue)

    # -- internals -------------------------------------------------------

    def _flush_rows(self) -> Generator:
        take = min(self._count, self.batch_rows)
        batch = RowBatch.from_rows(self._rows[:take], self.width)
        del self._rows[:take]
        self._count -= take
        yield from self._deliver(batch)

    def _deliver(self, batch: RowBatch) -> Generator:
        n = batch._n
        self.pages_emitted += 1
        self.rows_emitted += n
        if self.perf is not None:
            self.perf.add_rows(self.op, n)
        if n == self.batch_rows:
            compute = self._full_compute
        else:
            compute = Compute(
                self.costs.page_output_cost(n, self.width, consumers=1)
            )
        for queue in self.out_queues:
            yield compute
            yield Put(queue, batch)
