"""The routing core shared by ``Session.run_all`` and the arrival drivers.

``Session`` owns the four routing steps (group key, decide, launch,
audit); ``SharingCoordinator`` — behind ``Server`` and the closed loop
— drives the same steps on arrivals. These tests pin that a query
routed either way is launched the same way, including at ``dop > 1``
and with a widened exchange batch.
"""

import pytest

from repro.core.decision import ShareDecision
from repro.db import Database, RuntimeConfig
from repro.db.builder import Query
from repro.policies import AlwaysShare, NeverShare
from repro.server import Arrival, Server
from repro.tpch.generator import generate
from repro.tpch.queries import build

QUERIES = ("q1", "q6", "q4", "q13")


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.0005, seed=1)


@pytest.fixture(scope="module")
def queries(catalog):
    """Facade queries, so the Session side needs no normalization."""
    return {
        name: Query(plan=q.plan, pivot_op_id=q.pivot, name=name)
        for name, q in ((name, build(name, catalog)) for name in QUERIES)
    }


@pytest.mark.parametrize("batch_size", [None, 256])
@pytest.mark.parametrize("dop", [1, 4])
@pytest.mark.parametrize("preset", ["laptop", "cmp32", "unbounded"])
def test_session_and_server_launch_a_lone_query_identically(
    catalog, queries, preset, dop, batch_size
):
    config = RuntimeConfig.preset(preset).with_(dop=dop, batch_size=batch_size)
    for name, query in queries.items():
        ran = Database(catalog, config).session().run(query)
        server = Server(Database(catalog, config).session())
        report = server.serve_trace([Arrival(at=0.0, query=query)], drain=1e12)
        served = report.records[0]
        assert served.outcome == "completed", name
        assert served.finished_at == ran.finished_at, name
        assert list(served.rows) == list(ran.rows), name


class TestCore:
    def test_tpch_queries_normalize_to_facade_queries(self, catalog):
        q6 = build("q6", catalog)
        query = Database.open(catalog)._as_query(q6)
        assert isinstance(query, Query)
        assert (query.plan, query.pivot_op_id, query.name) == (
            q6.plan, q6.pivot, "q6"
        )

    def test_group_keys_separate_the_served_queries(self, catalog, queries):
        session = Database.open(catalog)
        keys = {session.group_key(q) for q in queries.values()}
        assert len(keys) == len(queries)

    def test_group_key_follows_effective_batch_and_dop(self, catalog, queries):
        q1 = queries["q1"]
        keys = {
            Database.open(catalog, RuntimeConfig(dop=d, batch_size=b))
            .group_key(q1)
            for d in (1, 4)
            for b in (None, 256)
        }
        assert len(keys) == 4

    def test_pivotless_query_has_no_key(self, catalog, queries):
        session = Database.open(catalog)
        query = Query(plan=queries["q6"].plan, pivot_op_id=None, name="solo")
        assert session.group_key(query) is None

    def test_lone_query_never_consults_the_advisor(self, catalog, queries):
        session = Database.open(catalog)
        q6 = queries["q6"]
        assert session.decide(q6, 1, 8, None) is False
        assert len(session.audit_log()) == 0
        assert isinstance(session.decide(q6, 4, 8, None), ShareDecision)
        assert [r.source for r in session.audit_log()] == ["advisor"]


class TestExplicitPolicyAtDop:
    """A policy with only ``should_share`` decides at ``dop > 1`` too."""

    def run_q6_batch(self, catalog, queries, policy, dop):
        config = RuntimeConfig(processors=2, dop=dop)
        session = Database(catalog, config).session(policy=policy)
        for i in range(4):
            session.submit(queries["q6"], label=f"q6#{i}")
        results = session.run_all()
        audit = [(r.source, r.outcome) for r in session.audit_log()]
        return [(r.shared, r.group_size) for r in results], audit

    def test_never_share_runs_each_member_at_its_dop(self, catalog, queries):
        shape, audit = self.run_q6_batch(catalog, queries, NeverShare(), 4)
        assert shape == [(False, 1)] * 4
        assert audit == [("policy", "parallel")]

    def test_always_share_launches_one_serial_group(self, catalog, queries):
        shape, audit = self.run_q6_batch(catalog, queries, AlwaysShare(), 4)
        assert shape == [(True, 4)] * 4
        assert audit == [("policy", "share")]

    def test_serial_sessions_keep_their_routing(self, catalog, queries):
        never, _ = self.run_q6_batch(catalog, queries, NeverShare(), 1)
        always, _ = self.run_q6_batch(catalog, queries, AlwaysShare(), 1)
        assert never == [(False, 1)] * 4
        assert always == [(True, 4)] * 4


def test_delayed_submission_audits_the_launch_it_makes(catalog, queries):
    finished = {}
    for dop in (1, 4):
        session = Database(catalog, RuntimeConfig(dop=dop)).session()
        session.submit(queries["q1"], label="late", delay=10.0)
        result = session.run_all()[0]
        finished[dop] = result.finished_at
        record = session.audit_log().records[0]
        assert (record.source, record.outcome) == (
            "solo", "parallel" if dop > 1 else "solo"
        )
        assert result.submitted_at == 10.0
    assert finished[4] < finished[1]
