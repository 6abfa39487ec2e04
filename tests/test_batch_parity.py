"""Staged-vs-reference parity: the staged engine's correctness invariant.

The staged engine has one implementation per operator; its oracle is
:func:`~repro.engine.reference.execute_reference`, the naive bottom-up
executor built on the same pure row functions. Every shape here runs
staged under every preset (including ``laptop``'s elevator scans, I/O
charges and spilling operators) at every batch size (aligned, ragged,
degenerate 1, inherited) and must return the reference's rows bit for
bit — compared by ``repr``, so 0.0 vs -0.0 and exact mantissas count.

One case is compared as a multiset: the memory-governed hash join
(``laptop``) probes partition by partition, so it emits the
reference's rows in partition order. There the sorted ``repr``
multisets must match and two fresh staged runs must agree exactly.

The simulated clock has no oracle, so it is pinned: on fixed seeded
data every (shape, preset, batch size) cell must reproduce a recorded
``sim.now``. Hypothesis drives the data of the row checks.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, QueryBuilder, RuntimeConfig
from repro.engine import execute_reference
from repro.engine.plan import AggSpec
from repro.engine.expressions import add, col, ge, lt, mul
from repro.storage import Catalog, DataType, Schema

PRESETS = ("unbounded", "cmp32", "laptop")

# Aligned (64 = every preset's page_rows), ragged, degenerate, and
# "inherit" (None): the geometries the emitter's flush logic branches
# on.
BATCH_SIZES = (None, 1, 7, 64)

ROWS = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=150,
)

SIDE_ROWS = st.lists(
    st.tuples(
        st.integers(-20, 20),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=60,
)

SHAPES = {
    "fused_scan": lambda c: (
        QueryBuilder(c, "t")
        .where(lt(col("k"), 10))
        .select(("kv", mul(col("v"), add(col("k"), 1)), DataType.FLOAT))
    ),
    "filter_project_limit": lambda c: (
        QueryBuilder(c, "t")
        .filter(ge(col("k"), 0))
        .project([("w", add(col("v"), col("k")), DataType.FLOAT)])
        .limit(17)
    ),
    "aggregate": lambda c: (
        QueryBuilder(c, "t")
        .agg(
            AggSpec("sum", "total", col("v")),
            AggSpec("count", "n"),
            AggSpec("avg", "mean", col("v")),
            by=("k",),
        )
    ),
    "sort": lambda c: QueryBuilder(c, "t").order_by(("v", False), "k"),
    "hash_join": lambda c: (
        QueryBuilder(c, "t")
        .hash_join(QueryBuilder(c, "s"), build_key="sk", probe_key="k")
    ),
    "merge_join": lambda c: (
        QueryBuilder(c, "t")
        .order_by("k")
        .merge_join(
            QueryBuilder(c, "s").order_by("sk"),
            left_key="k", right_key="sk",
        )
    ),
    "nested_loop_join": lambda c: (
        QueryBuilder(c, "t")
        .nl_join(QueryBuilder(c, "s"), lt(col("k"), col("sk")))
    ),
}


def _catalog(rows, side_rows=()):
    catalog = Catalog()
    table = catalog.create(
        "t", Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    )
    table.insert_many(rows)
    side = catalog.create(
        "s", Schema([("sk", DataType.INT), ("sv", DataType.FLOAT)])
    )
    side.insert_many(side_rows)
    return catalog


def _staged(catalog, build, preset, batch_size):
    config = RuntimeConfig.preset(preset).with_(batch_size=batch_size)
    session = Database.open(catalog, config)
    result = session.run(build(catalog))
    return result.rows, session.now


def assert_parity(shape, rows, preset, batch_size, side_rows=()):
    build = SHAPES[shape]
    catalog = _catalog(rows, side_rows)
    staged, _ = _staged(catalog, build, preset, batch_size)
    reference = execute_reference(build(catalog).plan(), catalog)
    if shape == "hash_join" and preset == "laptop":
        # Partition-order output: same multiset, stable across runs.
        again, _ = _staged(
            _catalog(rows, side_rows), build, preset, batch_size
        )
        assert repr(again) == repr(staged)
        assert sorted(map(repr, staged)) == sorted(map(repr, reference))
    else:
        assert repr(staged) == repr(reference)


def _geometry(preset_and_batch):
    preset, batch = preset_and_batch
    return pytest.param(preset, batch, id=f"{preset}-b{batch}")


GEOMETRIES = [
    _geometry((preset, batch)) for preset in PRESETS for batch in BATCH_SIZES
]


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_fused_scan_parity(preset, batch, rows):
    assert_parity("fused_scan", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_filter_project_limit_parity(preset, batch, rows):
    assert_parity("filter_project_limit", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_aggregate_parity(preset, batch, rows):
    assert_parity("aggregate", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=8, deadline=None)
@given(rows=ROWS)
def test_sort_parity(preset, batch, rows):
    assert_parity("sort", rows, preset, batch)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=6, deadline=None)
@given(rows=ROWS, side=SIDE_ROWS)
def test_hash_join_parity(preset, batch, rows, side):
    assert_parity("hash_join", rows, preset, batch, side_rows=side)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=6, deadline=None)
@given(rows=ROWS, side=SIDE_ROWS)
def test_merge_join_parity(preset, batch, rows, side):
    assert_parity("merge_join", rows, preset, batch, side_rows=side)


@pytest.mark.parametrize("preset,batch", GEOMETRIES)
@settings(max_examples=4, deadline=None)
@given(rows=ROWS, side=SIDE_ROWS)
def test_nested_loop_join_parity(preset, batch, rows, side):
    assert_parity("nested_loop_join", rows, preset, batch, side_rows=side)


def _run_shared_group(rows, preset, members):
    """A forced sharing group: one pivot multiplexing to ``members``."""
    catalog = _catalog(rows)
    session = Database.open(catalog, RuntimeConfig.preset(preset))
    for i in range(members):
        session.submit(
            session.table("t").where(ge(col("k"), -10)),
            label=f"m{i}",
            share=True,
        )
    results = session.run_all()
    reference = execute_reference(
        QueryBuilder(catalog, "t").where(ge(col("k"), -10)).plan(), catalog
    )
    return [r.rows for r in results], reference, session.now


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=6, deadline=None)
@given(rows=ROWS, members=st.integers(2, 4))
def test_shared_group_parity(preset, rows, members):
    """Parity must hold through the pivot's multi-consumer emitter."""
    staged, reference, _ = _run_shared_group(rows, preset, members)
    assert repr(staged) == repr([reference] * members)


# -- pinned simulated clock ----------------------------------------------

_rng = random.Random(2007)
FIXED_ROWS = [
    (_rng.randint(-50, 50), _rng.uniform(-1e6, 1e6)) for _ in range(150)
]
FIXED_SIDE = [(_rng.randint(-20, 20), _rng.uniform(-1e3, 1e3)) for _ in range(60)]
FIXED_MEMBERS = 3

# sim.now of every cell on FIXED_ROWS / FIXED_SIDE, recorded when the
# engine still had a second (row-at-a-time) staged path and both paths
# produced exactly these values.
SIM_NOW = {
    ("aggregate", "unbounded", None): 605.6,
    ("aggregate", "unbounded", 1): 2369.900000000011,
    ("aggregate", "unbounded", 7): 819.4999999999993,
    ("aggregate", "unbounded", 64): 605.6,
    ("aggregate", "cmp32", None): 605.6,
    ("aggregate", "cmp32", 1): 2369.900000000011,
    ("aggregate", "cmp32", 7): 819.4999999999993,
    ("aggregate", "cmp32", 64): 605.6,
    ("aggregate", "laptop", None): 957.6,
    ("aggregate", "laptop", 1): 31150.90000000016,
    ("aggregate", "laptop", 7): 4192.500000000003,
    ("aggregate", "laptop", 64): 957.6,
    ("filter_project_limit", "unbounded", None): 535.7,
    ("filter_project_limit", "unbounded", 1): 1548.2000000000041,
    ("filter_project_limit", "unbounded", 7): 540.6499999999997,
    ("filter_project_limit", "unbounded", 64): 535.7,
    ("filter_project_limit", "cmp32", None): 535.7,
    ("filter_project_limit", "cmp32", 1): 1548.2000000000041,
    ("filter_project_limit", "cmp32", 7): 540.6499999999997,
    ("filter_project_limit", "cmp32", 64): 535.7,
    ("filter_project_limit", "laptop", None): 1015.6999999999999,
    ("filter_project_limit", "laptop", 1): 25548.20000000007,
    ("filter_project_limit", "laptop", 7): 4060.650000000002,
    ("filter_project_limit", "laptop", 64): 1015.6999999999999,
    ("fused_scan", "unbounded", None): 274.45,
    ("fused_scan", "unbounded", 1): 983.85,
    ("fused_scan", "unbounded", 7): 360.4499999999999,
    ("fused_scan", "unbounded", 64): 274.45,
    ("fused_scan", "cmp32", None): 274.45,
    ("fused_scan", "cmp32", 1): 983.85,
    ("fused_scan", "cmp32", 7): 360.4499999999999,
    ("fused_scan", "cmp32", 64): 274.45,
    ("fused_scan", "laptop", None): 582.45,
    ("fused_scan", "laptop", 1): 24784.099999999977,
    ("fused_scan", "laptop", 7): 3683.349999999999,
    ("fused_scan", "laptop", 64): 582.45,
    ("hash_join", "unbounded", None): 604.5,
    ("hash_join", "unbounded", 1): 2098.900000000006,
    ("hash_join", "unbounded", 7): 660.4999999999995,
    ("hash_join", "unbounded", 64): 604.5,
    ("hash_join", "cmp32", None): 604.5,
    ("hash_join", "cmp32", 1): 2098.900000000006,
    ("hash_join", "cmp32", 7): 660.4999999999995,
    ("hash_join", "cmp32", 64): 604.5,
    ("hash_join", "laptop", None): 860.4999999999999,
    ("hash_join", "laptop", 1): 39665.79999999994,
    ("hash_join", "laptop", 7): 4599.200000000002,
    ("hash_join", "laptop", 64): 860.4999999999999,
    ("merge_join", "unbounded", None): 1289.0999999999997,
    ("merge_join", "unbounded", 1): 4729.799999999956,
    ("merge_join", "unbounded", 7): 1650.4999999999993,
    ("merge_join", "unbounded", 64): 1289.0999999999997,
    ("merge_join", "cmp32", None): 1289.0999999999997,
    ("merge_join", "cmp32", 1): 4810.799999999952,
    ("merge_join", "cmp32", 7): 1683.4999999999993,
    ("merge_join", "cmp32", 64): 1289.0999999999997,
    ("merge_join", "laptop", None): 1630.2999999999997,
    ("merge_join", "laptop", 1): 76575.79999999936,
    ("merge_join", "laptop", 7): 8084.500000000001,
    ("merge_join", "laptop", 64): 1630.2999999999997,
    ("nested_loop_join", "unbounded", None): 12876.300000000016,
    ("nested_loop_join", "unbounded", 1): 46368.20000000362,
    ("nested_loop_join", "unbounded", 7): 17200.599999999802,
    ("nested_loop_join", "unbounded", 64): 12876.300000000016,
    ("nested_loop_join", "cmp32", None): 12876.300000000016,
    ("nested_loop_join", "cmp32", 1): 46368.20000000362,
    ("nested_loop_join", "cmp32", 7): 17200.599999999802,
    ("nested_loop_join", "cmp32", 64): 12876.300000000016,
    ("nested_loop_join", "laptop", None): 13036.300000000016,
    ("nested_loop_join", "laptop", 1): 56733.70000000289,
    ("nested_loop_join", "laptop", 7): 18596.69999999977,
    ("nested_loop_join", "laptop", 64): 13036.300000000016,
    ("sort", "unbounded", None): 857.8,
    ("sort", "unbounded", 1): 3136.599999999984,
    ("sort", "unbounded", 7): 1091.7999999999995,
    ("sort", "unbounded", 64): 857.8,
    ("sort", "cmp32", None): 857.8,
    ("sort", "cmp32", 1): 3136.599999999984,
    ("sort", "cmp32", 7): 1091.7999999999995,
    ("sort", "cmp32", 64): 857.8,
    ("sort", "laptop", None): 1170.2,
    ("sort", "laptop", 1): 39151.19999999956,
    ("sort", "laptop", 7): 4464.799999999995,
    ("sort", "laptop", 64): 1170.2,
}

SHARED_GROUP_SIM_NOW = {
    "unbounded": 565.8000000000001,
    "cmp32": 565.8000000000001,
    "laptop": 885.8,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("preset,batch", GEOMETRIES)
def test_pinned_sim_now(shape, preset, batch):
    catalog = _catalog(FIXED_ROWS, FIXED_SIDE)
    _, now = _staged(catalog, SHAPES[shape], preset, batch)
    assert repr(now) == repr(SIM_NOW[shape, preset, batch])


@pytest.mark.parametrize("preset", PRESETS)
def test_pinned_shared_group_sim_now(preset):
    staged, reference, now = _run_shared_group(
        FIXED_ROWS, preset, FIXED_MEMBERS
    )
    assert repr(staged) == repr([reference] * FIXED_MEMBERS)
    assert repr(now) == repr(SHARED_GROUP_SIM_NOW[preset])
