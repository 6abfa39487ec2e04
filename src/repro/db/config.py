"""Runtime configuration: one frozen value object wires the engine.

Before the facade, every caller hand-assembled ``Simulator`` +
``BufferPool`` + ``MemoryBroker`` + ``ScanShareManager`` +
``spill_prefetch_depth`` and had to re-learn the invariants the engine
enforces (manager's pool is the engine's pool, broker sizing, prefetch
inheritance). :class:`RuntimeConfig` replaces that with a declarative
description — *what resources exist* — and derives the component
graph deterministically through the same
:func:`~repro.engine.wiring.resolve_storage` rules the engine applies,
so the invariants hold by construction.

Presets name the three machine shapes the experiments care about:

``laptop``
    A small cold-storage box: 2 processors, a 256-page pool with the
    scan-aware eviction policy, 32 pages of ``work_mem``, cooperative
    scans with prefetch and a 16-page drift bound (auto group
    windows), and the I/O-aware cost calibration.
``cmp32``
    The paper's 32-way CMP with a memory-resident working set: a large
    pool, ample ``work_mem``, no I/O charges (the seed calibration).
``unbounded``
    The seed configuration: 8 processors, no storage governance at
    all. The engine behaves exactly as in PR 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from repro.engine.costs import DEFAULT_COST_MODEL, IO_AWARE_COST_MODEL, CostModel
from repro.engine.memory import MemoryBroker
from repro.engine.wiring import resolve_storage
from repro.errors import EngineError
from repro.storage.buffer import BufferPool
from repro.storage.page import DEFAULT_PAGE_ROWS
from repro.storage.shared_scan import ScanShareManager
from repro.storage.tenant_pool import TenantPartitionedPool, TenantShare

__all__ = ["RuntimeConfig", "PRESETS"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Declarative description of one engine runtime.

    Attributes
    ----------
    work_mem:
        Operator working-memory budget in pages (``None`` = ungoverned:
        no :class:`~repro.engine.memory.MemoryBroker`, nothing spills).
    pool_pages:
        Buffer-pool capacity in pages (``None`` = no pool unless
        ``work_mem`` forces one into existence for spill files).
    pool_policy:
        Eviction policy name (``lru`` / ``clock`` / ``mru`` / ``scan``).
    prefetch_depth:
        Cooperative-scan read-ahead. ``None`` disables cooperative
        scans entirely (no :class:`ScanShareManager`); an int >= 0
        attaches a manager with that elevator prefetch depth.
    drift_bound:
        Maximum pages any consumer of a shared elevator scan may lag
        behind its group's head (``None`` = unbounded: a straggler
        silently falls behind and degrades to private reads).
        Requires cooperative scans (``prefetch_depth``).
    group_windows:
        How a drift violation is answered: ``False`` throttles the
        head (pause physical reads until the convoy closes up),
        ``True`` splits the convoy into two elevator groups, and
        ``"auto"`` chooses per violation by the manager's
        split-vs-throttle cost rule. Requires ``drift_bound``.
    spill_prefetch_depth:
        Read-ahead for spill read-back; ``None`` inherits the scan
        manager's depth (the engine's own inheritance rule).
    page_rows:
        Tuples per *storage* page — the scan/pool/spill granularity.
    batch_size:
        Tuples per exchanged :class:`~repro.engine.packet.RowBatch`
        between stages. ``None`` (default) inherits ``page_rows``, the
        classic one-batch-per-page pipeline; a larger batch amortizes
        per-batch host overhead, a smaller one tightens pipelining.
        Changing it changes flush boundaries and therefore the
        simulated timeline — it is a *modeled* knob, not a host-only
        one.
    processors:
        Simulated hardware contexts of the session's machine.
    contention:
        Optional power-law contention exponent ``kappa`` for the
        session's simulator (Section 4.1.4): busying ``b`` contexts
        yields only ``b ** kappa`` contexts' worth of effective
        compute. ``None`` (default) keeps the contention-free model.
        The same exponent feeds the session's share-vs-parallelize
        projections, so the policy prices the slowdown the simulator
        will actually apply.
    dop:
        Default intra-query degree of parallelism for this session's
        queries (``1`` = serial, the default). A query-level
        ``QueryBuilder.parallel(n)`` overrides it per query; the
        session's routing only parallelizes when the projection says
        it beats sharing (see ``Session.run_all``). Plans with no
        parallelizable region fall back to serial execution.
    cost_model:
        Per-tuple/per-page cost calibration.
    queue_capacity:
        Bounded-buffer depth between stages.
    tenants:
        Optional per-tenant buffer-pool partitioning: a tuple of
        :class:`~repro.storage.tenant_pool.TenantShare` dividing
        ``pool_pages`` into hard per-tenant quotas (the open-system
        service tier's isolation knob). Requires ``pool_pages`` and
        the ``lru`` pool policy; shares must sum to at most
        ``pool_pages`` — the remainder becomes the implicit shared
        partition for spill pages and unowned tables.
    trace:
        Attach a :class:`~repro.obs.trace.Tracer` flight recorder to
        the session's simulator and storage components. Off by
        default: a detached tracer costs one pointer check per emit
        site and records nothing; enabled, every task lifecycle edge
        and storage event is recorded in deterministic order
        (``Session.tracer``), without changing any simulated outcome.
    perf:
        Attach a :class:`~repro.obs.perf.WallProfiler` to the
        session's simulator and engine — the *wall-clock* counterpart
        of ``trace``: per-operator host time and rows/s, plus the
        simulated-work vs harness-overhead decomposition
        (``Session.perf()``). Same cost discipline (one pointer test
        per hook site when off) and, like the tracer, it never
        changes a simulated outcome — only host time is observed.

    Examples
    --------
    Configs are frozen values: start from a preset, refine with
    :meth:`with_`, and let :meth:`build_storage` derive a coherent
    component set (the same wiring rules the engine enforces):

    >>> from repro.db import RuntimeConfig
    >>> config = RuntimeConfig.preset("laptop").with_(processors=4)
    >>> (config.processors, config.pool_pages, config.drift_bound)
    (4, 256, 16)
    >>> pool, memory, scans, spill_depth = config.build_storage()
    >>> scans.pool is pool and memory.pool is pool
    True
    >>> spill_depth == config.prefetch_depth
    True

    Incoherent combinations fail at construction, not at run time:

    >>> RuntimeConfig(prefetch_depth=2)  # cooperative scans, no pool
    Traceback (most recent call last):
        ...
    repro.errors.EngineError: cooperative scans (prefetch_depth) \
require pool_pages: elevator cursors read through a buffer pool

    The exchange batch size defaults to the storage page geometry and
    can be widened independently of it:

    >>> RuntimeConfig().effective_batch_size  # inherits page_rows
    64
    >>> RuntimeConfig.preset("cmp32").with_(batch_size=256).effective_batch_size
    256
    >>> RuntimeConfig(batch_size=0)
    Traceback (most recent call last):
        ...
    repro.errors.EngineError: batch_size must be >= 1, got 0
    """

    work_mem: Optional[int] = None
    pool_pages: Optional[int] = None
    pool_policy: str = "lru"
    prefetch_depth: Optional[int] = None
    drift_bound: Optional[int] = None
    group_windows: Union[bool, str] = False
    spill_prefetch_depth: Optional[int] = None
    page_rows: int = DEFAULT_PAGE_ROWS
    batch_size: Optional[int] = None
    processors: int = 8
    contention: Optional[float] = None
    dop: int = 1
    cost_model: CostModel = DEFAULT_COST_MODEL
    queue_capacity: int = 4
    tenants: Optional[Tuple[TenantShare, ...]] = None
    trace: bool = False
    perf: bool = False

    def __post_init__(self) -> None:
        if self.tenants is not None and not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.work_mem is not None and self.work_mem < 1:
            raise EngineError(f"work_mem must be >= 1 page, got {self.work_mem}")
        if self.pool_pages is not None and self.pool_pages < 1:
            raise EngineError(f"pool_pages must be >= 1, got {self.pool_pages}")
        if self.prefetch_depth is not None and self.prefetch_depth < 0:
            raise EngineError(f"prefetch_depth must be >= 0, got {self.prefetch_depth}")
        if self.batch_size is not None and self.batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.processors < 1:
            raise EngineError(f"processors must be >= 1, got {self.processors}")
        if self.dop < 1:
            raise EngineError(f"dop must be >= 1, got {self.dop}")
        if self.contention is not None and not (0.0 < self.contention <= 1.0):
            raise EngineError(
                f"contention (kappa) must be in (0, 1], got {self.contention}"
            )
        if self.prefetch_depth is not None and self.pool_pages is None:
            raise EngineError(
                "cooperative scans (prefetch_depth) require pool_pages: "
                "elevator cursors read through a buffer pool"
            )
        if self.drift_bound is not None and self.drift_bound < 1:
            raise EngineError(f"drift_bound must be >= 1 page, got {self.drift_bound}")
        if self.drift_bound is not None and self.prefetch_depth is None:
            raise EngineError(
                "drift_bound governs cooperative scans: set prefetch_depth "
                "(>= 0) to attach a scan-share manager first"
            )
        if self.group_windows not in (False, True, "auto"):
            raise EngineError(
                f"group_windows must be False, True, or 'auto', "
                f"got {self.group_windows!r}"
            )
        if self.group_windows and self.drift_bound is None:
            raise EngineError(
                "group_windows needs a drift_bound: windows open when a "
                "consumer's lag crosses the bound"
            )
        if self.tenants is not None:
            if not self.tenants:
                raise EngineError("tenants must name at least one TenantShare")
            if self.pool_pages is None:
                raise EngineError(
                    "tenants partition the buffer pool: set pool_pages"
                )
            if self.pool_policy != "lru":
                raise EngineError(
                    "tenant partitions keep per-partition LRU order; "
                    f"pool_policy must be 'lru', got {self.pool_policy!r}"
                )
            total = sum(share.pages for share in self.tenants)
            if total > self.pool_pages:
                raise EngineError(
                    f"tenant shares sum to {total} pages but pool_pages "
                    f"is {self.pool_pages}"
                )

    @property
    def effective_batch_size(self) -> int:
        """The exchange batch size actually in force: ``batch_size``
        when set, otherwise the storage page geometry."""
        return self.batch_size if self.batch_size is not None else self.page_rows

    @classmethod
    def preset(cls, name: str) -> "RuntimeConfig":
        """Look up a named preset (``laptop`` / ``cmp32`` / ``unbounded``)."""
        try:
            return PRESETS[name]
        except KeyError:
            raise EngineError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields replaced (presets as bases)."""
        return replace(self, **changes)

    def build_storage(
        self,
    ) -> Tuple[
        Optional[BufferPool],
        Optional[MemoryBroker],
        Optional[ScanShareManager],
        int,
    ]:
        """Materialize one fresh, coherent storage-component set.

        Components are created in dependency order (pool, then broker
        bound to it, then manager over it) and passed through
        :func:`~repro.engine.wiring.resolve_storage` — the same
        normalization the engine applies — so a config can never
        produce a component set the engine would reject.
        """
        pool: Optional[BufferPool]
        if self.tenants is not None:
            pool = TenantPartitionedPool(
                self.pool_pages, self.tenants, policy=self.pool_policy
            )
        elif self.pool_pages is not None:
            pool = BufferPool(self.pool_pages, self.pool_policy)
        else:
            pool = None
        memory = MemoryBroker(self.work_mem) if self.work_mem is not None else None
        scans = (
            ScanShareManager(
                pool,
                prefetch_depth=self.prefetch_depth,
                drift_bound=self.drift_bound,
                group_windows=self.group_windows,
            )
            if self.prefetch_depth is not None
            else None
        )
        return resolve_storage(pool, memory, scans, self.spill_prefetch_depth)


PRESETS = {
    "laptop": RuntimeConfig(
        work_mem=32,
        pool_pages=256,
        pool_policy="scan",
        prefetch_depth=2,
        drift_bound=16,
        group_windows="auto",
        processors=2,
        cost_model=IO_AWARE_COST_MODEL,
    ),
    "cmp32": RuntimeConfig(
        work_mem=512,
        pool_pages=4096,
        pool_policy="lru",
        processors=32,
        cost_model=DEFAULT_COST_MODEL,
    ),
    "unbounded": RuntimeConfig(),
}
