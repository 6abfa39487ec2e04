"""Expression nodes outside the built-in tree run on the staged path.

A custom :class:`~repro.engine.expressions.Expr` subclass that only
implements the row-wise ``compile()`` must still work everywhere the
staged operators evaluate expressions: batch compilation adapts its
row closure to the generated column loop. Each site below nests such a
node inside ``and_()`` and checks rows against ``execute_reference``
and the simulated clock against a value pinned when the engine still
ran these plans on a dedicated row-at-a-time path.
"""

import random
from dataclasses import dataclass

import pytest

from repro.db import Database, QueryBuilder, RuntimeConfig
from repro.engine import execute_reference
from repro.engine.expressions import Expr, and_, col, ge, lt
from repro.engine.plan import AggSpec
from repro.storage import Catalog, DataType, Schema


@dataclass(frozen=True)
class IsOdd(Expr):
    """``operand % 2 == 1``, NULL-safe; deliberately row-compile only."""

    operand: Expr

    def compile(self, schema):
        fn = self.operand.compile(schema)

        def run(row):
            value = fn(row)
            return value is not None and value % 2 == 1

        return run

    def signature(self):
        return f"is_odd({self.operand.signature()})"


ODD_K = IsOdd(col("k"))

SITES = {
    "fused_scan": lambda c: (
        QueryBuilder(c, "t").where(and_(ODD_K, lt(col("k"), 30)))
    ),
    "filter": lambda c: (
        QueryBuilder(c, "t").filter(and_(ge(col("v"), 0.0), ODD_K))
    ),
    "project": lambda c: (
        QueryBuilder(c, "t").project(
            [("k", col("k"), DataType.INT),
             ("odd_pos", and_(ODD_K, ge(col("v"), 0.0)), DataType.INT)]
        )
    ),
    "aggregate": lambda c: (
        QueryBuilder(c, "t").agg(
            AggSpec("sum", "odd_pos", and_(ODD_K, ge(col("v"), 0.0))),
            AggSpec("count", "n"),
            by=("k",),
        )
    ),
}

PRESETS = ("unbounded", "cmp32", "laptop")

_rng = random.Random(7)
ROWS = [
    (_rng.randint(-40, 40) if _rng.random() > 0.05 else None,
     _rng.uniform(-1e3, 1e3))
    for _ in range(200)
]

# sim.now of each (site, preset) cell, recorded from the former
# row-at-a-time staged path on ROWS.
SIM_NOW = {
    ("aggregate", "unbounded"): 672.0000000000001,
    ("aggregate", "cmp32"): 672.0000000000001,
    ("aggregate", "laptop"): 1113.6,
    ("filter", "unbounded"): 548.3000000000001,
    ("filter", "cmp32"): 548.3000000000001,
    ("filter", "laptop"): 996.3000000000001,
    ("fused_scan", "unbounded"): 380.5,
    ("fused_scan", "cmp32"): 380.5,
    ("fused_scan", "laptop"): 780.4999999999999,
    ("project", "unbounded"): 571.1999999999999,
    ("project", "cmp32"): 571.1999999999999,
    ("project", "laptop"): 940.8,
}


def _catalog():
    catalog = Catalog()
    table = catalog.create(
        "t", Schema([("k", DataType.INT), ("v", DataType.FLOAT)])
    )
    table.insert_many(ROWS)
    return catalog


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("site", sorted(SITES))
def test_custom_expr_runs_staged(site, preset):
    catalog = _catalog()
    build = SITES[site]
    session = Database.open(catalog, RuntimeConfig.preset(preset))
    rows = session.run(build(catalog)).rows
    assert repr(rows) == repr(execute_reference(build(catalog).plan(), catalog))
    assert repr(session.now) == repr(SIM_NOW[site, preset])
