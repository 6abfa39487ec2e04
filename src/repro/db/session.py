"""The Database/Session facade: submit queries, let the system decide.

The paper's end state is an engine that decides *for itself* when to
share. :class:`Session` is that loop packaged behind one object:

* :meth:`Session.table` starts a fluent
  :class:`~repro.db.builder.QueryBuilder` lowering to the engine's
  plan IR;
* :meth:`Session.submit` buffers queries; :meth:`Session.run_all`
  groups the batch by **pivot signature** (two queries with equal
  pivot subtrees request the same operation — the engine's merge
  test), consults the sharing policy per group, launches shared groups
  or solo queries accordingly, runs the simulator, and returns one
  :class:`~repro.db.result.QueryResult` per submission;
* the default policy is the Section-4 :class:`ShareAdvisor` fed by an
  on-demand CPU profile of each new operation (cached per signature)
  and adjusted per decision by a live
  :class:`~repro.policies.resource_outlook.ResourceOutlook` over the
  session's pool/broker/manager — so the fig_mem Part B flip (share
  against a cold cache, decline warm) happens with zero manual
  wiring. Pass any :class:`~repro.policies.base.SharingPolicy`
  (``ModelGuided``, ``OnlineModelGuided``, ``AlwaysShare``, ...) to
  override.

Sessions are cheap: one simulator, one engine, one storage-component
set built from the :class:`~repro.db.config.RuntimeConfig`. Simulated
time and cache state persist across ``run_all`` batches — a second
batch of the same queries sees a warm pool, which is exactly what
makes its sharing decision flip.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from repro.core.decision import ShareAdvisor, ShareDecision
from repro.core.spec import QuerySpec
from repro.db.builder import Query, QueryBuilder
from repro.db.config import RuntimeConfig
from repro.db.result import QueryResult
from repro.engine.engine import Engine
from repro.engine.packet import QueryHandle
from repro.engine.parallel import find_region
from repro.engine.plan import PlanNode
from repro.engine.stats import ResourceReport, resource_report, stage_report
from repro.errors import EngineError
from repro.obs import (
    AuditLog,
    AuditRecord,
    MetricsRegistry,
    Tracer,
    WallProfiler,
    attach_profiler,
    attach_tracer,
)
from repro.policies.base import SharingPolicy
from repro.policies.resource_outlook import ResourceOutlook, ResourceProfile
from repro.policies.workset import estimate_work_pages
from repro.profiling.profiler import QueryProfiler
from repro.sim.events import Sleep
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog

__all__ = ["Database", "Session"]

Submittable = Union[Query, QueryBuilder, PlanNode]


@dataclass
class _Submission:
    """One buffered query awaiting ``run_all``."""

    query: Query
    label: str
    share: Optional[bool]
    delay: float = 0.0
    handle: Optional[QueryHandle] = None
    decision: Optional[ShareDecision] = None
    group_size: int = 1
    shared: bool = False


class Database:
    """A catalog plus the runtime configuration to query it with.

    Examples
    --------
    :meth:`Database.open` is the one-call entry point — a catalog and
    a config (object, preset name, or nothing for the ungoverned
    default) yield a live :class:`Session`:

    >>> from repro.db import Database
    >>> from repro.storage import Catalog, DataType, Schema
    >>> catalog = Catalog()
    >>> table = catalog.create("t", Schema([("k", DataType.INT)]))
    >>> table.insert_many([(i,) for i in range(4)])
    >>> session = Database.open(catalog, "unbounded")
    >>> session.run(session.table("t", columns=["k"])).rows
    [(0,), (1,), (2,), (3,)]
    """

    def __init__(
        self,
        catalog: Catalog,
        config: Union[RuntimeConfig, str, None] = None,
    ) -> None:
        if config is None:
            config = RuntimeConfig()
        elif isinstance(config, str):
            config = RuntimeConfig.preset(config)
        self.catalog = catalog
        self.config = config

    @classmethod
    def open(
        cls,
        catalog: Catalog,
        config: Union[RuntimeConfig, str, None] = None,
        policy: Optional[SharingPolicy] = None,
        threshold: float = 1.0,
    ) -> "Session":
        """Open a fresh :class:`Session` — the one-call entry point."""
        return cls(catalog, config).session(policy=policy, threshold=threshold)

    def session(
        self,
        policy: Optional[SharingPolicy] = None,
        threshold: float = 1.0,
    ) -> "Session":
        """Mint a session: fresh simulator, engine, and storage set."""
        return Session(self, policy=policy, threshold=threshold)

    def serve(self, policy: Optional[SharingPolicy] = None, **server_kwargs):
        """Open a fresh session and stand a long-running open-system
        :class:`~repro.server.server.Server` on it. ``policy`` is the
        *sharing* policy (``None`` = the session's outlook-driven
        advisor); admission control, in-flight caps, and mid-flight
        attach are forwarded via ``server_kwargs``."""
        from repro.server.server import Server

        return Server(self.session(), policy=policy, **server_kwargs)

    def __repr__(self) -> str:
        return f"Database({len(self.catalog)} tables, {self.config!r})"


class Session:
    """One simulated machine executing queries under one policy.

    Parameters
    ----------
    database:
        The :class:`Database` (catalog + config) this session queries.
    policy:
        Optional :class:`~repro.policies.base.SharingPolicy` deciding
        share-vs-solo per prospective group. ``None`` (default) uses
        the built-in advisor: an on-demand CPU profile per operation,
        adjusted by the live resource outlook, evaluated by the
        Section-4 model.
    threshold:
        Minimum predicted ``Z`` for the built-in advisor to share.

    Examples
    --------
    Buffer queries with :meth:`submit`, run the batch with
    :meth:`run_all`; same-operation submissions group by pivot
    signature and the session decides (or you force) the routing:

    >>> from repro.db import Database
    >>> from repro.storage import Catalog, DataType, Schema
    >>> catalog = Catalog()
    >>> table = catalog.create("t", Schema([("k", DataType.INT)]))
    >>> table.insert_many([(i,) for i in range(64)])
    >>> session = Database.open(catalog, "cmp32")
    >>> for i in range(3):
    ...     session.submit(session.table("t", columns=["k"]),
    ...                    label=f"client{i}", share=True)
    >>> [(r.label, r.shared, r.group_size, len(r.rows))
    ...  for r in session.run_all()]
    [('client0', True, 3, 64), ('client1', True, 3, 64), \
('client2', True, 3, 64)]

    The session clock and cache state persist across batches — that
    warm state is exactly what can flip the next sharing decision.

    >>> session.now > 0
    True
    """

    def __init__(
        self,
        database: Database,
        policy: Optional[SharingPolicy] = None,
        threshold: float = 1.0,
    ) -> None:
        config = database.config
        self.database = database
        self.catalog = database.catalog
        self.config = config
        self.sim = Simulator(
            processors=config.processors, contention=config.contention
        )
        pool, memory, scans, spill_depth = config.build_storage()
        self.engine = Engine(
            self.catalog,
            self.sim,
            costs=config.cost_model,
            page_rows=config.page_rows,
            queue_capacity=config.queue_capacity,
            buffer_pool=pool,
            memory=memory,
            scan_manager=scans,
            spill_prefetch_depth=spill_depth,
        )
        self.policy = policy
        self.threshold = threshold
        self.results: list[QueryResult] = []
        self._pending: list[_Submission] = []
        self._live_groups: list[tuple[str, int, int]] = []
        self._specs: dict[str, tuple[QuerySpec, str]] = {}
        self._outlook = ResourceOutlook(
            {},
            costs=config.cost_model,
            pool=self.engine.pool,
            scans=self.engine.scan_manager,
            memory=self.engine.memory,
        )
        # Observability: flight recorder (opt-in via config.trace),
        # the unified metric surface, and the decision audit trail.
        self.tracer: Optional[Tracer] = None
        if config.trace:
            self.tracer = attach_tracer(
                self.sim,
                pool=self.engine.pool,
                memory=self.engine.memory,
                scans=self.engine.scan_manager,
            )
        # Wall-clock profiler (opt-in via config.perf): the host-time
        # counterpart of the tracer — attached before any plan is
        # built so every stage's emitter reports rows to it.
        self._perf: Optional[WallProfiler] = None
        if config.perf:
            self._perf = attach_profiler(self.sim, self.engine)
        self._metrics = MetricsRegistry.for_engine(self.engine, self.sim)
        self._audit = AuditLog()
        self._batch_records: list[tuple[AuditRecord, list[_Submission]]] = []

    # -- introspection ---------------------------------------------------

    @property
    def pool(self):
        return self.engine.pool

    @property
    def memory(self):
        return self.engine.memory

    @property
    def scans(self):
        return self.engine.scan_manager

    @property
    def now(self) -> float:
        """Current simulated time — the session clock, cumulative
        across every batch run so far (a fresh session's first batch
        therefore finishes at its makespan)."""
        return self.sim.now

    def resources(self) -> ResourceReport:
        """Merged buffer/memory counters of this session so far."""
        return resource_report(self.engine)

    def metrics(self) -> MetricsRegistry:
        """The session's unified metric surface — every storage, sim,
        and stage counter behind one ``snapshot()``/``delta()``."""
        return self._metrics

    def audit_log(self) -> AuditLog:
        """Every routing decision this session has made, with its
        projections and (after the run) the measured outcome."""
        return self._audit

    def perf(self) -> WallProfiler:
        """The session's wall-clock operator profiler — per-operator
        host time, rows/s, and the work-vs-harness decomposition
        (:class:`~repro.obs.perf.WallProfiler`). Requires
        ``RuntimeConfig(perf=True)``."""
        if self._perf is None:
            raise EngineError(
                "session has no wall-clock profiler; open it with "
                "RuntimeConfig(perf=True) (or .with_(perf=True))"
            )
        return self._perf

    def stages(self, **kwargs):
        """Per-operator busy-time breakdown of this session so far."""
        return stage_report(self.sim, **kwargs)

    def prewarm(self, *tables: str) -> int:
        """Load the given tables' pages into the pool (a warm cache)."""
        if self.engine.pool is None:
            raise EngineError("session has no buffer pool to prewarm")
        loaded = 0
        for name in tables:
            loaded += self.engine.pool.prewarm_table(
                self.catalog.table(name), self.config.page_rows
            )
        return loaded

    # -- building and submitting -----------------------------------------

    def table(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
    ) -> QueryBuilder:
        """Start a fluent query over one base table."""
        return QueryBuilder(self.catalog, name, columns=columns)

    @staticmethod
    def _as_query(query: Submittable) -> Query:
        if isinstance(query, QueryBuilder):
            return query.build()
        if isinstance(query, PlanNode):
            return Query(plan=query, pivot_op_id=None, name=query.op_id)
        if isinstance(query, Query):
            return query
        raise EngineError(
            f"cannot submit {type(query).__name__}; expected a "
            "QueryBuilder, Query, or PlanNode"
        )

    def submit(
        self,
        query: Submittable,
        label: Optional[str] = None,
        share: Optional[bool] = None,
        delay: float = 0.0,
    ) -> None:
        """Buffer one query for the next :meth:`run_all`.

        ``share`` overrides the policy for this submission (``True``
        forces it into a group with same-signature submissions,
        ``False`` forces solo); ``None`` lets the policy decide.
        ``delay`` postpones the launch by that much simulated time
        (the query then always runs solo — it arrives after the
        batch's grouping decision).
        """
        if delay < 0:
            raise EngineError(f"delay must be >= 0, got {delay}")
        built = self._as_query(query)
        self._pending.append(
            _Submission(
                query=built,
                label=label or f"{built.name}#{len(self._pending)}",
                share=share,
                delay=delay,
            )
        )

    def run(
        self,
        query: Submittable,
        label: Optional[str] = None,
        share: Optional[bool] = None,
    ) -> QueryResult:
        """Submit one query, run the pending batch, return its result.

        Equivalent to ``submit(...)`` followed by ``run_all()``: any
        queries already buffered by earlier ``submit`` calls run in
        the same batch (and may group with this one); their results
        land in :attr:`results` as usual.
        """
        self.submit(query, label=label, share=share)
        return self.run_all()[-1]

    # -- the decision loop -----------------------------------------------

    def run_all(self) -> list[QueryResult]:
        """Route the buffered batch, execute it, and collect results.

        Submissions are grouped by pivot signature; each group of two
        or more consults the policy once (unless forced via
        ``submit(share=...)``). Returns results in submission order
        and appends them to :attr:`results`.
        """
        batch, self._pending = self._pending, []
        if not batch:
            return []
        self._batch_records = []
        reads_before = self._physical_reads()
        self._route(batch)
        self.sim.run()
        self._notify_policy()
        self._join_audit(reads_before)
        report = self.resources()
        snapshot = self._metrics.snapshot()
        wall_profile = (
            tuple(self._perf.profile()) if self._perf is not None else None
        )
        makespan = self.sim.now
        results = []
        for entry in batch:
            handle = entry.handle
            if handle is None or not handle.done:
                raise EngineError(
                    f"query {entry.label!r} did not complete; the "
                    "simulation deadlocked or was stopped early"
                )
            results.append(
                QueryResult(
                    label=entry.label,
                    name=entry.query.name,
                    schema=handle.schema,
                    rows=handle.rows,
                    submitted_at=handle.submitted_at,
                    finished_at=handle.finished_at,
                    shared=entry.shared,
                    group_size=entry.group_size,
                    decision=entry.decision,
                    resources=report,
                    makespan=makespan,
                    metrics=snapshot,
                    audit=tuple(
                        record
                        for record, members in self._batch_records
                        if any(member is entry for member in members)
                    ),
                    perf=wall_profile,
                )
            )
        self.results.extend(results)
        return results

    def _route(self, batch: Sequence[_Submission]) -> None:
        # Merge candidates must agree on the pivot's *signature* (the
        # engine's merge test), its *op_id* (execute_group addresses
        # the pivot by id in every member), the query *name* (policies
        # key their specs on it), the effective *batch size* (a merged
        # group shares one stage pipeline, so its members must agree
        # on the exchange batching), and the effective *dop* (the
        # share-vs-parallelize choice is made once per group).
        groups: dict[tuple, list[_Submission]] = {}
        for entry in batch:
            if entry.delay > 0:
                self._audit_route("solo", "solo", [entry])
                self._launch_delayed(entry)
                continue
            signature = entry.query.pivot_signature
            if entry.share is False or signature is None:
                source = "forced" if entry.share is False else "solo"
                self._launch_solo_entry(entry, source)
                continue
            key = (
                signature,
                entry.query.pivot_op_id,
                entry.query.name,
                self._batch_rows(entry.query),
                self._effective_dop(entry.query),
            )
            groups.setdefault(key, []).append(entry)
        for members in groups.values():
            forced = [m for m in members if m.share is True]
            undecided = [m for m in members if m.share is None]
            dop = self._effective_dop(members[0].query)
            if len(members) < 2:
                self._launch_solo_entry(members[0], "solo")
                continue
            if forced and not undecided:
                self._audit_route("forced", "share", forced)
                self._launch_group(forced)
                continue
            if dop > 1 and not forced:
                # The four-way choice: share, parallelize, both, or
                # neither — priced by the outlook's projection. Any
                # forced share=True member pins the group back to the
                # binary share path below.
                self._route_modes(members, dop)
                continue
            decision, record = self._decide(members)
            share = decision.share if isinstance(decision, ShareDecision) else decision
            for entry in undecided:
                entry.decision = decision if isinstance(decision, ShareDecision) else None
            if share or (forced and len(forced) >= 2):
                chosen = members if share else forced
                solo = [] if share else undecided
                if share:
                    self._batch_records.append((record, list(chosen)))
                else:
                    # The model declined, but enough submitters pinned
                    # share=True to launch a forced group anyway; the
                    # decision record measures the solo remainder.
                    self._audit_route("forced", "share", chosen)
                    self._batch_records.append((record, list(solo)))
                self._launch_group(chosen)
                for entry in solo:
                    self._launch(None, [entry])
            else:
                self._batch_records.append((record, list(members)))
                for entry in members:
                    self._launch(None, [entry])

    def _batch_rows(self, query: Query) -> Optional[int]:
        """The exchange batch size in force for one query: its own
        override, else the session config's (``None`` = engine
        default, i.e. the page geometry)."""
        if query.batch_size is not None:
            return query.batch_size
        return self.config.batch_size

    def _effective_dop(self, query: Query) -> int:
        """The intra-query parallelism actually available to ``query``:
        its own override, else the session default — and 1 whenever the
        plan has no parallelizable region (the engine would fall back
        to serial anyway; resolving it here keeps routing and audit
        honest)."""
        dop = query.dop if query.dop is not None else self.config.dop
        if dop > 1 and find_region(query.plan) is None:
            return 1
        return dop

    def _launch_solo_entry(self, entry: _Submission, source: str) -> None:
        """Launch one entry outside any sharing group — parallelized
        when its effective dop asks for it, serial otherwise."""
        dop = self._effective_dop(entry.query)
        if dop > 1:
            self._audit_route(source, "parallel", [entry])
            self._launch_parallel(entry, dop)
        else:
            self._audit_route(source, "solo", [entry])
            self._launch(None, [entry])

    def _route_modes(self, members: list[_Submission], dop: int) -> None:
        """Route one same-signature group through the four-way
        share / parallelize / both / solo projection."""
        projection, decision = self._choose_mode(members, dop)
        for entry in members:
            entry.decision = decision
        if projection.mode == "share":
            self._launch_group(members)
        elif projection.mode == "both":
            size = max(2, projection.partition_group_size)
            for start in range(0, len(members), size):
                chunk = members[start:start + size]
                if len(chunk) >= 2:
                    self._launch_group(chunk)
                else:
                    self._launch(None, chunk)
        elif projection.mode == "parallel":
            for entry in members:
                self._launch_parallel(entry, dop)
        else:
            for entry in members:
                self._launch(None, [entry])

    def _choose_mode(self, members: list[_Submission], dop: int):
        """Price all four execution arms for one prospective group.

        An attached policy with a ``choose_mode`` method (e.g.
        :class:`~repro.policies.model_guided.ModelGuidedPolicy`) is
        consulted directly; otherwise the built-in advisor's rates
        feed the outlook's projection. Either way one audit record
        with ``outcome = mode`` binds to the launched members.
        """
        query = members[0].query
        m = len(members)
        chooser = getattr(self.policy, "choose_mode", None)
        if chooser is not None:
            projection = chooser(
                query.name, m, self.config.processors, dop
            )
            self._audit_route("policy", projection.mode, members)
            return projection, None
        decision = self.advise(query, m)
        signature = query.pivot_signature
        spec, pivot_id = self._specs[signature]
        adjusted = self._outlook.adjusted_spec(signature, spec, pivot_id, m)
        projection = self._outlook.share_vs_parallelize(
            query.name,
            m,
            self.config.processors,
            dop,
            shared_rate=decision.shared_rate,
            unshared_rate=decision.unshared_rate,
            contention=self.config.contention,
            spec=adjusted,
            pivot_name=pivot_id,
        )
        self._audit_route("advisor", projection.mode, members, decision)
        return projection, decision

    def _launch_parallel(self, entry: _Submission, dop: int) -> None:
        handle = self.engine.execute(
            entry.query.plan,
            entry.label,
            batch_rows=self._batch_rows(entry.query),
            dop=dop,
        )
        entry.handle = handle
        entry.group_size = 1
        entry.shared = False
        group = self.engine.groups[-1]
        self._live_groups.append((entry.query.name, group.size, group.group_id))

    def _launch(self, pivot: Optional[str], members: list[_Submission]) -> None:
        group = self.engine.execute_group(
            [entry.query.plan for entry in members],
            pivot_op_id=pivot,
            labels=[entry.label for entry in members],
            batch_rows=self._batch_rows(members[0].query),
        )
        for entry, handle in zip(members, group.handles):
            entry.handle = handle
            entry.group_size = group.size
            entry.shared = group.shared
        self._live_groups.append((members[0].query.name, group.size, group.group_id))

    def _launch_group(self, members: list[_Submission]) -> None:
        self._launch(members[0].query.pivot_op_id, members)

    def _launch_delayed(self, entry: _Submission) -> None:
        engine = self.engine
        batch_rows = self._batch_rows(entry.query)
        dop = self._effective_dop(entry.query)

        def submitter():
            yield Sleep(entry.delay)
            entry.handle = engine.execute(
                entry.query.plan, entry.label, batch_rows=batch_rows, dop=dop
            )

        self.sim.spawn(submitter(), name=f"submit/{entry.label}")

    def _notify_policy(self) -> None:
        """Feed each drained group's stage tasks back to the policy —
        the learning hook ``OnlineModelGuidedPolicy`` depends on."""
        launched, self._live_groups = self._live_groups, []
        if self.policy is None:
            return
        for name, size, group_id in launched:
            tasks = self.engine.group_tasks.get(group_id)
            if tasks:
                self.policy.observe_group(name, size, tasks)

    # -- the audit trail -------------------------------------------------

    def _physical_reads(self) -> Optional[float]:
        """Session-cumulative physical page reads right now.

        Pool misses already count elevator reads (the manager reads
        through ``pool.access``), so the pool is the single source of
        truth when present; without one, the per-table scan stats are
        the only read counter; without either, ``None`` (ungoverned
        sessions measure no I/O)."""
        pool = self.engine.pool
        if pool is not None:
            return float(pool.stats.misses)
        scans = self.engine.scan_manager
        if scans is not None:
            return float(sum(s.physical_reads for s in scans.snapshot()))
        return None

    def _projection_fields(self, signature: Optional[str], m: int) -> dict:
        """The outlook's projections for one prospective group — the
        audit record's decision-time inputs."""
        if signature is None:
            return {}
        fields: dict = {
            "projected_io_extra": self._outlook.pivot_extra_work(signature, m)
        }
        profile = self._outlook.profiles.get(signature)
        if profile is None:
            return fields
        memory = self.engine.memory
        if memory is not None and profile.work_pages:
            fields["projected_spill_pages"] = memory.projected_spill(
                profile.work_pages, operators=m
            )
        scans = self.engine.scan_manager
        if scans is not None:
            fields["projected_drift_share"] = scans.projected_drift_share(
                profile.table, profile.pages, m, cpu_skew=profile.cpu_skew
            )
        return fields

    def _audit_decision(
        self,
        source: str,
        outcome: str,
        query: Query,
        group_size: int,
        decision: Optional[ShareDecision] = None,
    ) -> AuditRecord:
        """Append one decision record (projections at decision time)."""
        signature = query.pivot_signature
        fields = self._projection_fields(signature, group_size)
        if decision is not None:
            fields.update(
                projected_z=decision.benefit,
                projected_shared_rate=decision.shared_rate,
                projected_unshared_rate=decision.unshared_rate,
            )
        return self._audit.append(
            query=query.name,
            signature=signature or "",
            group_size=group_size,
            source=source,
            outcome=outcome,
            decided_at=self.sim.now,
            **fields,
        )

    def _audit_route(
        self,
        source: str,
        outcome: str,
        members: list[_Submission],
        decision: Optional[ShareDecision] = None,
    ) -> AuditRecord:
        """Append one routing record and bind it to its submissions."""
        record = self._audit_decision(
            source, outcome, members[0].query, len(members), decision
        )
        self._batch_records.append((record, list(members)))
        return record

    def _join_audit(self, reads_before: Optional[float]) -> None:
        """Join each of this batch's records with what was measured:
        group wall (first submit to last finish) and the batch's
        physical-read delta (exact for a single decision, apportioned
        evenly otherwise)."""
        reads_after = self._physical_reads()
        reads_delta: Optional[float] = None
        if reads_before is not None and reads_after is not None:
            reads_delta = reads_after - reads_before
        joinable = []
        for record, members in self._batch_records:
            handles = [
                m.handle for m in members if m.handle is not None and m.handle.done
            ]
            if handles:
                joinable.append((record, handles))
        share = (
            reads_delta / len(joinable)
            if reads_delta is not None and joinable
            else None
        )
        for record, handles in joinable:
            latency = max(h.finished_at for h in handles) - min(
                h.submitted_at for h in handles
            )
            record.join(latency, physical_reads=share)

    # -- the built-in advisor --------------------------------------------

    def _decide(
        self, members: list[_Submission]
    ) -> tuple[Union[ShareDecision, bool], AuditRecord]:
        query = members[0].query
        m = len(members)
        if self.policy is not None:
            verdict = self.policy.should_share(query.name, m, self.config.processors)
            decision = verdict if isinstance(verdict, ShareDecision) else None
            share = verdict.share if decision is not None else bool(verdict)
            record = self._audit_decision(
                "policy",
                "share" if share else "solo",
                query,
                m,
                decision=decision,
            )
            return verdict, record
        verdict = self.advise(query, m)
        # advise() appended its own "advisor" record; it is the one
        # _route binds to the launched members.
        record = self._audit.records[-1]
        return verdict, record

    def advise(
        self,
        query: Submittable,
        group_size: int,
        cpu_skew: Optional[float] = None,
    ) -> ShareDecision:
        """The built-in verdict: would sharing ``group_size`` copies of
        ``query`` beat running them independently *right now*?

        Uses a cached CPU profile of the operation and the live
        resource outlook (cold pages, spill pressure) — re-evaluated
        per call, so the same query can share against a cold cache and
        decline once the cache warms.

        ``cpu_skew`` (slowest consumer's per-page CPU over the
        fastest's, 1.0 = uniform) projects consumer-speed skew onto
        the decision: the outlook discounts the cooperative-scan
        attach benefit by the drift the configured manager would let
        such a convoy accumulate, so advice to skewed convoys stops
        assuming they share one physical pass. A declared skew sticks
        to the operation — later ``advise`` calls and ``run_all``'s
        routing reuse it until a new value is declared (``None``, the
        default, keeps the stored projection).
        """
        built = self._as_query(query)
        if built.pivot_op_id is None:
            raise EngineError(f"query {built.name!r} has no sharing pivot to advise on")
        if cpu_skew is not None and cpu_skew < 1:
            raise EngineError(f"cpu_skew must be >= 1, got {cpu_skew}")
        signature = built.pivot_signature
        spec, pivot_id = self._profile(signature, built)
        profile = self._outlook.profiles.get(signature)
        if (cpu_skew is not None and profile is not None
                and profile.cpu_skew != cpu_skew):
            self._outlook.profiles[signature] = replace(profile, cpu_skew=cpu_skew)
        adjusted = self._outlook.adjusted_spec(signature, spec, pivot_id, group_size)
        advisor = ShareAdvisor(processors=self.config.processors, threshold=self.threshold)
        group = [adjusted.relabeled(f"{built.name}#{i}") for i in range(group_size)]
        decision = advisor.evaluate(group, pivot_id)
        self._audit_decision(
            "advisor",
            "share" if decision.share else "solo",
            built,
            group_size,
            decision=decision,
        )
        return decision

    def _profile(self, signature: str, query: Query) -> tuple[QuerySpec, str]:
        """CPU-profile one operation (cached by pivot signature).

        Profiling runs on dedicated simulators with *no* resource
        layer, so the fitted ``(w, s)`` are warm/CPU parameters; the
        outlook layers projected I/O and spill terms on top per
        decision — the PR-2 recipe, now automatic.
        """
        cached = self._specs.get(signature)
        if cached is not None:
            return cached
        profiler = QueryProfiler(
            self.catalog,
            costs=self.config.cost_model,
            page_rows=self.config.page_rows,
            queue_capacity=self.config.queue_capacity,
        )
        profile = profiler.profile(query.plan, query.pivot_op_id, label=query.name)
        spec = profile.to_query_spec()
        self._specs[signature] = (spec, query.pivot_op_id)
        pivot_node = query.plan.find(query.pivot_op_id)
        # Resource profile: the pivot subtree's dominant base scan
        # feeds the I/O projection; the *whole plan's* estimated
        # stateful working set feeds the spill projection (a sort
        # above the pivot still competes for this query's work_mem).
        scans_below = [n for n in pivot_node.walk() if n.kind == "scan"]
        if scans_below:
            table = max(
                scans_below,
                key=lambda n: len(self.catalog.table(n.params["table"])),
            ).params["table"]
            pages = self.catalog.table(table).page_count(self.config.page_rows)
        else:
            table, pages = "", 0
        self._outlook.profiles[signature] = ResourceProfile(
            table=table,
            pages=pages,
            work_pages=estimate_work_pages(
                query.plan, self.catalog, self.config.page_rows
            ),
        )
        return self._specs[signature]

    def __repr__(self) -> str:
        return (
            f"Session({len(self.catalog)} tables, "
            f"{self.config.processors} processors, now={self.now:.6g})"
        )
