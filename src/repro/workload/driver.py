"""Closed-system workload driver (Sections 1.2 and 8.2).

"We assume a closed system where every query that completes is
replaced by a new one, as is typical for a system under heavy load."
The driver realizes that: ``n_clients`` clients each keep exactly one
query outstanding, drawing the next query type from a
:class:`~repro.workload.mixes.WorkloadMix` the moment the previous one
completes (zero think time). Queries route through a
:class:`~repro.policies.coordinator.SharingCoordinator` under the
chosen policy.

Throughput is measured with the standard warmup-then-window protocol;
per-query-type completion counts and client response times are
collected for the experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.db.config import RuntimeConfig
from repro.db.session import Database
from repro.errors import WorkloadError
from repro.policies.base import SharingPolicy
from repro.policies.coordinator import SharingCoordinator
from repro.storage.catalog import Catalog
from repro.tpch.queries import TpchQuery, build
from repro.workload.mixes import WorkloadMix

__all__ = ["ClosedSystemResult", "run_closed_system"]


@dataclass(frozen=True)
class ClosedSystemResult:
    """Measurements from one closed-system run.

    ``throughput`` is completions per simulated time unit over the
    measurement window (multiply by any constant to taste — the
    figures report queries/min by scaling simulated time).
    """

    policy: str
    processors: int
    n_clients: int
    window: float
    completions: int
    throughput: float
    utilization: float
    completions_by_query: Mapping[str, int]
    mean_response_time: float
    shared_submissions: int
    solo_submissions: int


@dataclass
class _Client:
    """One closed-loop client: resubmits on every completion."""

    client_id: int
    coordinator: SharingCoordinator
    queries: Mapping[str, TpchQuery]
    stream: object
    stats: "_Stats"
    submissions: int = 0

    def start(self) -> None:
        self._submit_next()

    def _submit_next(self) -> None:
        name = next(self.stream)
        self.submissions += 1
        submitted_at = self.coordinator.sim.now
        label = f"c{self.client_id}/{name}#{self.submissions}"

        def done(handle) -> None:
            now = self.coordinator.sim.now
            self.stats.record(name, now - submitted_at)
            self._submit_next()

        self.coordinator.submit(self.queries[name], label, on_complete=done)


@dataclass
class _Stats:
    completions: int = 0
    by_query: dict = field(default_factory=dict)
    total_response: float = 0.0

    def record(self, name: str, response_time: float) -> None:
        self.completions += 1
        self.by_query[name] = self.by_query.get(name, 0) + 1
        self.total_response += response_time

    def snapshot(self) -> tuple[int, dict, float]:
        return self.completions, dict(self.by_query), self.total_response


def run_closed_system(
    catalog: Catalog,
    policy: SharingPolicy,
    mix: WorkloadMix,
    n_clients: int,
    processors: int,
    warmup: float,
    window: float,
    max_group_size: Optional[int] = None,
) -> ClosedSystemResult:
    """Run one closed-system experiment cell and measure throughput.

    The machine is a fresh :class:`~repro.db.session.Session` over
    ``catalog`` with ``processors`` hardware contexts; its routing
    core merges and launches what the clients submit.

    Examples
    --------
    Four clients of Q6 on one processor, always sharing: every
    submission routes through a shared group.

    >>> from repro.policies import AlwaysShare
    >>> from repro.tpch.generator import generate
    >>> from repro.workload import WorkloadMix, run_closed_system
    >>> catalog = generate(scale_factor=0.0002, seed=3)
    >>> result = run_closed_system(
    ...     catalog, AlwaysShare(), WorkloadMix.single("q6"),
    ...     n_clients=4, processors=1, warmup=0.0, window=50_000.0)
    >>> result.completions > 0, result.solo_submissions
    (True, 0)
    """
    if n_clients < 1:
        raise WorkloadError(f"n_clients must be >= 1, got {n_clients}")
    if warmup < 0 or window <= 0:
        raise WorkloadError(
            f"invalid warmup/window: {warmup!r}/{window!r}"
        )

    session = Database(catalog, RuntimeConfig(processors=processors)).session()
    sim = session.sim
    coordinator = SharingCoordinator(session, policy,
                                     max_group_size=max_group_size)

    queries = {name: build(name, catalog) for name in mix.weights}
    stats = _Stats()
    for client_id in range(n_clients):
        client = _Client(
            client_id=client_id,
            coordinator=coordinator,
            queries=queries,
            stream=mix.stream(client_id),
            stats=stats,
        )
        client.start()

    sim.run(until=warmup)
    count0, by_query0, response0 = stats.snapshot()
    busy0 = sim.total_busy_time
    start = sim.now

    sim.run(until=start + window)
    count1, by_query1, response1 = stats.snapshot()
    elapsed = sim.now - start
    completions = count1 - count0
    by_query = {
        name: by_query1.get(name, 0) - by_query0.get(name, 0)
        for name in mix.weights
    }
    mean_response = (
        (response1 - response0) / completions if completions else float("inf")
    )
    return ClosedSystemResult(
        policy=policy.name,
        processors=processors,
        n_clients=n_clients,
        window=elapsed,
        completions=completions,
        throughput=completions / elapsed,
        utilization=(sim.total_busy_time - busy0) / (processors * elapsed),
        completions_by_query=by_query,
        mean_response_time=mean_response,
        shared_submissions=coordinator.shared_submissions,
        solo_submissions=coordinator.solo_submissions,
    )
