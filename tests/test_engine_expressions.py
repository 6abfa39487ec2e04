"""Unit tests for the expression language (repro.engine.expressions)."""

import pytest

from repro.db import Database
from repro.engine import execute_reference
from repro.engine.expressions import (
    add,
    and_,
    between,
    col,
    compile_batch,
    eq,
    ge,
    gt,
    in_,
    le,
    lit,
    lt,
    mul,
    ne,
    not_,
    or_,
    sub,
    udf,
)
from repro.errors import PlanError, SchemaError
from repro.storage import Catalog, DataType, Schema


@pytest.fixture
def schema():
    return Schema([
        ("a", DataType.INT),
        ("b", DataType.FLOAT),
        ("s", DataType.STR),
    ])


ROW = (3, 2.5, "hello")


class TestBasics:
    def test_column_ref(self, schema):
        assert col("a").compile(schema)(ROW) == 3

    def test_unknown_column_fails_at_compile(self, schema):
        with pytest.raises(SchemaError):
            col("ghost").compile(schema)

    def test_literal(self, schema):
        assert lit(42).compile(schema)(ROW) == 42

    def test_arithmetic(self, schema):
        assert add(col("a"), 1).compile(schema)(ROW) == 4
        assert sub(col("a"), 1).compile(schema)(ROW) == 2
        assert mul(col("a"), col("b")).compile(schema)(ROW) == 7.5

    def test_arithmetic_with_null_yields_null(self, schema):
        fn = add(col("a"), col("b")).compile(schema)
        assert fn((None, 2.5, "x")) is None
        assert fn((3, None, "x")) is None


class TestComparisons:
    def test_ordering_ops(self, schema):
        assert lt(col("a"), 4).compile(schema)(ROW)
        assert not lt(col("a"), 3).compile(schema)(ROW)
        assert le(col("a"), 3).compile(schema)(ROW)
        assert gt(col("a"), 2).compile(schema)(ROW)
        assert ge(col("a"), 3).compile(schema)(ROW)
        assert eq(col("s"), "hello").compile(schema)(ROW)
        assert ne(col("a"), 5).compile(schema)(ROW)

    def test_null_comparisons_false(self, schema):
        row = (None, 2.5, "x")
        for expr in (lt(col("a"), 4), eq(col("a"), 3), ge(col("a"), 0),
                     ne(col("a"), 3)):
            assert expr.compile(schema)(row) is False

    def test_between_inclusive(self, schema):
        fn = between(col("a"), 3, 5).compile(schema)
        assert fn(ROW)
        assert fn((5, 0.0, ""))
        assert not fn((6, 0.0, ""))
        assert not fn((None, 0.0, ""))

    def test_in_set(self, schema):
        fn = in_(col("s"), ["hello", "world"]).compile(schema)
        assert fn(ROW)
        assert not fn((1, 1.0, "nope"))


class TestBoolean:
    def test_and(self, schema):
        fn = and_(lt(col("a"), 4), gt(col("b"), 2.0)).compile(schema)
        assert fn(ROW)
        assert not fn((5, 2.5, ""))

    def test_or(self, schema):
        fn = or_(lt(col("a"), 0), gt(col("b"), 2.0)).compile(schema)
        assert fn(ROW)
        assert not fn((5, 1.0, ""))

    def test_not(self, schema):
        assert not_(lt(col("a"), 0)).compile(schema)(ROW)

    def test_empty_conjunction_rejected(self):
        with pytest.raises(PlanError):
            and_()
        with pytest.raises(PlanError):
            or_()


class TestUdf:
    def test_udf_evaluates(self, schema):
        fn = udf("upper", str.upper, col("s")).compile(schema)
        assert fn(ROW) == "HELLO"

    def test_udf_signature_uses_name(self):
        expr = udf("upper", str.upper, col("s"))
        assert "udf:upper" in expr.signature()


class TestSignatures:
    def test_equal_expressions_equal_signatures(self):
        a = and_(lt(col("x"), 5), between(col("y"), 1, 2))
        b = and_(lt(col("x"), 5), between(col("y"), 1, 2))
        assert a.signature() == b.signature()

    def test_different_constants_different_signatures(self):
        assert lt(col("x"), 5).signature() != lt(col("x"), 6).signature()

    def test_operand_order_matters(self):
        assert lt(col("x"), col("y")).signature() != (
            lt(col("y"), col("x")).signature()
        )


class TestBatchCache:
    """The batch-compile memo must never hand one node's code to another
    node that compares equal but has a different signature."""

    @pytest.mark.parametrize("first,second", [(1.0, 1), (1, 1.0)])
    def test_literal_types_do_not_share_code(self, first, second):
        catalog = Catalog()
        catalog.create("t", Schema([("k", DataType.INT)])).insert_many(
            [(i,) for i in range(5)]
        )
        session = Database.open(catalog, "unbounded")
        for value in (first, second):
            query = session.table("t").project(
                [("x", mul(col("k"), lit(value)), DataType.FLOAT)]
            )
            rows = session.run(query).rows
            assert repr(rows) == repr(
                execute_reference(query.plan(), catalog)
            )
            assert type(rows[1][0]) is type(value)

    def test_udf_identity_includes_fn(self, schema):
        cols = [[3], [2.5], ["hello"]]
        upper = compile_batch(udf("f", str.upper, col("s")), schema)
        title = compile_batch(udf("f", str.title, col("s")), schema)
        assert upper(cols, 1) == ["HELLO"]
        assert title(cols, 1) == ["Hello"]
