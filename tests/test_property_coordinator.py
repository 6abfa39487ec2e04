"""Property-based tests for the sharing coordinator.

Whatever the policy and arrival pattern, the coordinator must never
lose a query, never corrupt a result, and account for every submission
exactly once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, RuntimeConfig
from repro.engine import execute_reference
from repro.policies import AlwaysShare, NeverShare, SharingCoordinator
from repro.policies.base import SharingPolicy
from repro.tpch.generator import generate
from repro.tpch.queries import build

_CATALOG = generate(scale_factor=0.0003, seed=77)
_QUERIES = {name: build(name, _CATALOG) for name in ("q6", "q4")}
_REFERENCE = {
    name: execute_reference(q.plan, _CATALOG) for name, q in _QUERIES.items()
}


class ArbitraryPolicy(SharingPolicy):
    """A deterministic but arbitrary share/don't-share rule."""

    name = "arbitrary"

    def __init__(self, bits):
        self.bits = bits
        self._i = 0

    def should_share(self, query_name, prospective_size, processors):
        if prospective_size < 2:
            return False
        decision = self.bits[self._i % len(self.bits)]
        self._i += 1
        return decision


submission_lists = st.lists(
    st.tuples(st.sampled_from(["q6", "q4"]),
              st.floats(min_value=0.0, max_value=30_000.0)),
    min_size=1, max_size=12,
)


@given(
    submission_lists,
    st.lists(st.booleans(), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=25, deadline=None)
def test_no_query_lost_and_all_results_correct(submissions, bits, processors):
    session = Database(_CATALOG, RuntimeConfig(processors=processors)).session()
    sim = session.sim
    coordinator = SharingCoordinator(session, ArbitraryPolicy(bits))
    done = []

    # Stagger submissions at arbitrary times via a driver task.
    ordered = sorted(submissions, key=lambda s: s[1])

    from repro.sim.events import Sleep

    def driver():
        t = 0.0
        for i, (name, at) in enumerate(ordered):
            if at > t:
                yield Sleep(at - t)
                t = at
            coordinator.submit(
                _QUERIES[name], f"{name}#{i}",
                on_complete=lambda h: done.append(h),
            )

    sim.spawn(driver(), name="driver")
    sim.run()

    assert len(done) == len(submissions)
    for handle in done:
        name = handle.label.split("#")[0]
        assert handle.rows == _REFERENCE[name]
    total = coordinator.shared_submissions + coordinator.solo_submissions
    assert total == len(submissions)
    assert coordinator.pending_count() == 0


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_group_sizes_partition_submissions(n_submissions, processors):
    session = Database(_CATALOG, RuntimeConfig(processors=processors)).session()
    sim = session.sim
    coordinator = SharingCoordinator(session, AlwaysShare())
    for i in range(n_submissions):
        coordinator.submit(_QUERIES["q6"], f"q6#{i}")
    sim.run()
    assert sum(coordinator.launched_group_sizes) == n_submissions


@given(st.integers(min_value=2, max_value=10),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_max_group_size_respected(n_submissions, cap):
    session = Database(_CATALOG, RuntimeConfig(processors=4)).session()
    sim = session.sim
    coordinator = SharingCoordinator(session, AlwaysShare(),
                                     max_group_size=cap)
    for i in range(n_submissions):
        coordinator.submit(_QUERIES["q6"], f"q6#{i}")
    sim.run()
    assert max(coordinator.launched_group_sizes) <= cap
    assert sum(coordinator.launched_group_sizes) == n_submissions


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=15, deadline=None)
def test_never_share_launches_exactly_n_singletons(n_submissions):
    session = Database(_CATALOG, RuntimeConfig(processors=4)).session()
    sim = session.sim
    coordinator = SharingCoordinator(session, NeverShare())
    for i in range(n_submissions):
        coordinator.submit(_QUERIES["q4"], f"q4#{i}")
    sim.run()
    assert coordinator.launched_group_sizes == [1] * n_submissions
