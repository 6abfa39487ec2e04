"""Property-based tests: the gather-then-fold aggregate == reference.

The staged aggregate folds each batch one group at a time over
gathered column slices; the reference executor folds row by row. Every
aggregate function, NULL keys and inputs, keys and inputs that mix
ints with equal floats, batch sizes and spilling under a small memory
grant must leave the two answers identical down to ``repr`` — float
bits, int-vs-float result types and which spelling of an equal key
survives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggSpec,
    Engine,
    MemoryBroker,
    aggregate,
    execute_reference,
    project,
    scan,
)
from repro.engine.expressions import col, udf
from repro.engine.operators.aggregate import Accumulator
from repro.sim import Simulator
from repro.storage import BufferPool, Catalog, DataType, Schema

AGGS = [
    AggSpec("count", "n"),
    AggSpec("count", "n_v", col("v")),
    AggSpec("sum", "sum_v", col("v")),
    AggSpec("avg", "avg_v", col("v")),
    AggSpec("min", "min_v", col("v")),
    AggSpec("max", "max_v", col("v")),
    AggSpec("sum", "sum_w", col("w")),
    AggSpec("avg", "avg_w", col("w")),
    AggSpec("min", "min_k2", col("k2")),
    AggSpec("max", "max_w", col("w")),
]


def _mixed(value, flag):
    """``value``, or the float equal to it when ``flag`` is set."""
    return float(value) if value is not None and flag else value


row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),  # k1
    st.sampled_from([None, "a", "b"]),  # k2
    # Few distinct values, so min/max see ties between 1 and 1.0.
    st.one_of(st.none(), st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-10**6, max_value=10**6)),
    st.booleans(),  # the int input (and key) arrives as a float
    st.one_of(
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(min_value=-1e3, max_value=1e3),
    ),
)


def make_catalog(rows):
    cat = Catalog()
    cat.create("t", Schema([
        ("k1", DataType.INT), ("k2", DataType.STR), ("x", DataType.INT),
        ("isf", DataType.INT), ("w", DataType.FLOAT),
    ])).insert_many(
        [(k1, k2, x, int(isf), w) for k1, k2, x, isf, w in rows]
    )
    return cat


def make_plan(cat, group_by):
    # Keys and the ``v`` input mix ints with equal floats row by row.
    mixed = project(
        scan(cat, "t"),
        [("k1", udf("mixed_k1", _mixed, col("k1"), col("isf")), DataType.INT),
         ("k2", col("k2"), DataType.STR),
         ("v", udf("mixed_x", _mixed, col("x"), col("isf")), DataType.FLOAT),
         ("w", col("w"), DataType.FLOAT)],
    )
    return aggregate(mixed, group_by, AGGS)


def staged(cat, plan, batch_rows, work_mem):
    sim = Simulator(processors=2)
    if work_mem is None:
        engine = Engine(cat, sim, page_rows=batch_rows)
    else:
        engine = Engine(cat, sim, page_rows=batch_rows,
                        buffer_pool=BufferPool(64),
                        memory=MemoryBroker(work_mem))
    handle = engine.execute(plan, "agg")
    sim.run()
    return handle.rows


@given(
    st.lists(row_strategy, max_size=150),
    st.sampled_from([["k1"], ["k1", "k2"], ["k2", "k1"]]),
    st.sampled_from([1, 7, 64]),
    st.sampled_from([None, 1, 2]),
)
@settings(max_examples=100, deadline=None)
def test_grouped_fold_matches_reference(rows, group_by, batch_rows, work_mem):
    cat = make_catalog(rows)
    plan = make_plan(cat, group_by)
    got = staged(cat, plan, batch_rows, work_mem)
    assert repr(got) == repr(execute_reference(plan, cat))


@given(
    st.lists(row_strategy, min_size=1, max_size=150),
    st.sampled_from([1, 7, 64]),
    st.sampled_from([None, 1]),
)
@settings(max_examples=50, deadline=None)
def test_global_fold_matches_reference(rows, batch_rows, work_mem):
    cat = make_catalog(rows)
    plan = make_plan(cat, [])
    got = staged(cat, plan, batch_rows, work_mem)
    assert repr(got) == repr(execute_reference(plan, cat))


value_strategy = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(),  # NaN and infinities included
)


@given(
    st.sampled_from(["count", "sum", "avg", "min", "max"]),
    st.lists(st.lists(value_strategy, max_size=12), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_update_column_equals_row_updates(func, slices):
    by_slice, by_row = Accumulator(func), Accumulator(func)
    for values in slices:
        by_slice.update_column(tuple(values))
        for value in values:
            by_row.update(value)
    assert repr(by_slice.state()) == repr(by_row.state())
    assert repr(by_slice.result()) == repr(by_row.result())
