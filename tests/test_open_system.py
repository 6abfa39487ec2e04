"""Open-system (Poisson arrival) behaviour, served by ``Server.serve``."""

import pytest

from repro.db import Database, RuntimeConfig
from repro.errors import EngineError
from repro.policies import AlwaysShare, NeverShare
from repro.server import AdmitAll, Server
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix


@pytest.fixture(scope="module")
def catalog():
    return generate(scale_factor=0.0005, seed=61)


def serve(catalog, policy, processors, session=None, **kwargs):
    """Serve a Q6-only Poisson stream with no admission shedding, so
    an overloaded run keeps its backlog instead of shedding it."""
    if session is None:
        session = Database(catalog, RuntimeConfig(processors=processors)).session()
    server = Server(session, policy=policy, admission=AdmitAll())
    return server.serve(
        WorkloadMix.single("q6"), {"q6": build("q6", catalog)}, **kwargs
    )


def stable(report):
    """Nearly everything that arrived has completed."""
    return report.completed >= 0.95 * report.submitted


class TestOpenSystem:
    def test_light_load_is_stable(self, catalog):
        report = serve(
            catalog, NeverShare(), 8, arrival_rate=1.0 / 50_000.0,
            horizon=600_000.0, drain=100_000.0, seed=1,
        )
        assert report.submitted > 3
        assert stable(report)
        assert report.latency.p50 > 0
        assert report.latency.max >= report.latency.p50

    def test_overload_builds_backlog(self, catalog):
        """Arrivals far above service capacity leave a backlog."""
        report = serve(
            catalog, NeverShare(), 1, arrival_rate=1.0 / 500.0,
            horizon=100_000.0, drain=0.0, seed=1,
        )
        assert report.shed == 0
        assert report.backlog > 0
        assert not stable(report)

    def test_sharing_raises_sustainable_load_on_small_machine(self, catalog):
        """On one processor, sharing eliminates work, so the same
        arrival rate produces a smaller backlog under always-share."""
        kwargs = dict(
            arrival_rate=1.0 / 4_000.0, horizon=400_000.0, drain=0.0, seed=2
        )
        shared = serve(catalog, AlwaysShare(), 1, **kwargs)
        unshared = serve(catalog, NeverShare(), 1, **kwargs)
        assert shared.completed > unshared.completed
        assert shared.backlog < unshared.backlog

    def test_throughput_tracks_arrivals_when_stable(self, catalog):
        """Open-system property: response time does not set throughput;
        the arrival process does."""
        rate, horizon = 1.0 / 40_000.0, 800_000.0
        report = serve(
            catalog, NeverShare(), 8, arrival_rate=rate, horizon=horizon,
            drain=200_000.0, seed=3,
        )
        assert report.submitted == pytest.approx(horizon * rate, rel=0.5)
        assert report.completed == report.submitted

    def test_deterministic(self, catalog):
        kwargs = dict(
            arrival_rate=1.0 / 20_000.0, horizon=300_000.0,
            drain=100_000.0, seed=7,
        )
        a = serve(catalog, NeverShare(), 4, **kwargs)
        b = serve(catalog, NeverShare(), 4, **kwargs)
        assert (a.submitted, a.completed, a.latency.mean) == (
            b.submitted, b.completed, b.latency.mean
        )

    def test_invalid_parameters(self, catalog):
        with pytest.raises(EngineError):
            serve(catalog, NeverShare(), 1, arrival_rate=0.0, horizon=1.0)
        with pytest.raises(EngineError):
            serve(catalog, NeverShare(), 1, arrival_rate=1.0, horizon=0.0)
        with pytest.raises(EngineError):
            serve(catalog, NeverShare(), 1, arrival_rate=1.0, horizon=1.0,
                  drain=-1.0)


class TestFacadePort:
    def test_session_first_argument(self, catalog):
        """A server over an existing session runs on that session: the
        same report as a fresh one, on the session's clock and audit."""
        kwargs = dict(
            arrival_rate=1.0 / 20_000.0, horizon=300_000.0,
            drain=100_000.0, seed=7,
        )
        session = Database(catalog, RuntimeConfig(processors=4)).session()
        result = serve(catalog, NeverShare(), 4, session=session, **kwargs)
        baseline = serve(catalog, NeverShare(), 4, **kwargs)
        assert [r.finished_at for r in result.records] == [
            r.finished_at for r in baseline.records
        ]
        assert session.now > 0
        assert any(r.source == "coordinator" for r in session.audit_log())
