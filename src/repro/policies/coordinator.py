"""Runtime sharing coordination (Sections 3.2 and 8.1).

Cordoba detects sharing at run time: "when a new packet arrives at a
stage's queue, the stage thread searches the queue for other packets
that request the same operation" and merges them. The
:class:`SharingCoordinator` reproduces that behaviour at query
granularity:

* **Same-instant arrivals merge.** Submissions are buffered and routed
  once per simulated instant, so a burst of identical queries (e.g.
  the members of a just-completed group resubmitting in a closed
  system) is evaluated as one prospective group — just as packets
  arriving together in a stage queue are merged together.
* **Busy signatures batch.** While groups of a signature are active,
  approved arrivals accumulate in a pending batch (the analogue of
  packets queueing at a busy stage). The batch launches as soon as any
  active group of the signature completes — pending work never waits
  for the whole signature to drain, which keeps multiple groups in
  flight concurrently (the Section 8.1 grouping optimization).
* **Policy-declined queries run solo** immediately, "though [they] may
  be joined later on by other queries" — their activity keeps the
  signature busy so a batch can form behind them.

The prospective group size offered to the policy counts active sharers
plus the waiting batch plus the simultaneous arrivals, approximating
Cordoba's ability to attach to in-flight queries via simultaneous
pipelining; the processors offered are those not claimed by active
queries of *other* signatures ("the model-guided policy dynamically
evaluates conditions at runtime", Section 8.2).

``max_group_size`` caps launched batches, splitting oversized pending
sets into multiple concurrent groups — trading sharing for parallelism
exactly as Section 8.1 proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.decision import ShareDecision
from repro.db.builder import Query
from repro.engine.packet import QueryHandle
from repro.errors import PolicyError
from repro.policies.base import SharingPolicy

if TYPE_CHECKING:
    from repro.db.session import Session

__all__ = ["SharingCoordinator"]


@dataclass
class _Pending:
    query: Query
    label: str
    on_complete: Optional[Callable[[QueryHandle], None]]


@dataclass
class _Slot:
    """State for one group key."""

    active_groups: set = field(default_factory=set)
    pending: list = field(default_factory=list)
    flush_scheduled: bool = False


class SharingCoordinator:
    """Routes arriving queries into sharing groups on one session.

    Grouping, the share decision, the launch and its audit record are
    the session's routing core (:meth:`Session.group_key`,
    :meth:`Session.decide`, :meth:`Session.launch`,
    :meth:`Session.audit_decision`); the coordinator adds only the
    arrival-time state: same-instant batching, busy slots, pending
    batches, and the processors offered net of other keys' members.
    ``policy=None`` asks the session's built-in advisor.
    """

    def __init__(
        self,
        session: Session,
        policy: Optional[SharingPolicy] = None,
        max_group_size: Optional[int] = None,
        attach_inflight: bool = False,
    ) -> None:
        if max_group_size is not None and max_group_size < 1:
            raise PolicyError(
                f"max_group_size must be >= 1, got {max_group_size}"
            )
        self.session = session
        self.sim = session.sim
        self.policy = policy
        self.max_group_size = max_group_size
        # Simultaneous pipelining (Section 3.2): with ``attach_inflight``
        # an approved arrival at a *busy* key launches immediately
        # instead of waiting in the pending batch — its scan attaches to
        # the in-flight elevator group mid-revolution through the
        # ScanShareManager (requires cooperative scans to actually share
        # work; without them it degrades to a concurrent solo run).
        self.attach_inflight = attach_inflight
        self._slots: dict[tuple, _Slot] = {}
        self._active_members: dict[int, int] = {}
        self._group_names: dict[int, str] = {}
        self._group_sizes: dict[int, int] = {}
        self._arrivals: list[_Pending] = []
        self._route_scheduled = False
        # Decision accounting for experiments.
        self.shared_submissions = 0
        self.solo_submissions = 0
        self.launched_group_sizes: list[int] = []

    # ------------------------------------------------------------------

    def submit(
        self,
        query,
        label: str,
        on_complete: Optional[Callable[[QueryHandle], None]] = None,
    ) -> None:
        """Accept one arriving query; routed at the end of the instant."""
        query = self.session._as_query(query)
        self._arrivals.append(_Pending(query, label, on_complete))
        if not self._route_scheduled:
            self._route_scheduled = True
            self.sim.call_soon(self._route_arrivals)

    def pending_count(self) -> int:
        return sum(len(slot.pending) for slot in self._slots.values())

    def inflight_count(self) -> int:
        """Members of launched groups that have not yet completed."""
        return sum(self._active_members.values())

    def queued_count(self) -> int:
        """Arrivals accepted but not yet running: the same-instant
        buffer plus every busy key's pending batch."""
        return len(self._arrivals) + self.pending_count()

    def drain(self) -> None:
        """Route buffered arrivals immediately (for non-simulated use)."""
        if self._route_scheduled or self._arrivals:
            self._route_scheduled = False
            self._route_arrivals()

    # ------------------------------------------------------------------

    def _route_arrivals(self) -> None:
        self._route_scheduled = False
        arrivals, self._arrivals = self._arrivals, []
        by_key: dict[tuple, list[_Pending]] = {}
        for entry in arrivals:
            key = self.session.group_key(entry.query)
            if key is None:
                # No pivot — nothing to merge on; run solo under a
                # per-name slot so completion bookkeeping still works.
                slot = self._slots.setdefault(("solo", entry.query.name), _Slot())
                self.solo_submissions += 1
                self._launch(slot, [entry])
                continue
            by_key.setdefault(key, []).append(entry)
        for key, batch in by_key.items():
            self._route_batch(self._slots.setdefault(key, _Slot()), batch)

    def _route_batch(self, slot: _Slot, batch: list[_Pending]) -> None:
        query = batch[0].query
        slot_active = sum(
            self._active_members.get(gid, 0) for gid in slot.active_groups
        )
        total_active = sum(self._active_members.values())
        effective_n = max(
            1, self.sim.n_processors - (total_active - slot_active)
        )
        prospective = slot_active + len(slot.pending) + len(batch)
        busy = bool(slot.active_groups or slot.pending)

        verdict = self.session.decide(query, prospective, effective_n, self.policy)
        # One source="coordinator" record per routed batch: "attach"
        # when it joins a busy key, "share"/"solo" otherwise.
        self.session.audit_decision(
            "coordinator",
            ("attach" if busy else "share") if verdict else "solo",
            query,
            prospective,
            decision=verdict if isinstance(verdict, ShareDecision) else None,
        )
        if verdict:
            self.shared_submissions += len(batch)
            if busy and self.attach_inflight:
                # Launch now; the new scans attach to the in-flight
                # elevator group at its current page (mid-flight
                # simultaneous pipelining) instead of waiting for the
                # active group to drain.
                self._launch_capped(slot, batch)
            elif busy:
                slot.pending.extend(batch)
            else:
                self._launch_capped(slot, batch)
            return

        self.solo_submissions += len(batch)
        for entry in batch:
            self._launch(slot, [entry])

    # ------------------------------------------------------------------

    def _launch_capped(self, slot: _Slot, batch: list[_Pending]) -> None:
        cap = self.max_group_size or len(batch)
        for start in range(0, len(batch), cap):
            self._launch(slot, batch[start:start + cap])

    def _launch(self, slot: _Slot, batch: list[_Pending]) -> None:
        group = self.session.launch(
            [entry.query for entry in batch],
            [entry.label for entry in batch],
            on_complete=[
                self._wrap(slot, entry.on_complete) for entry in batch
            ],
        )
        slot.active_groups.add(group.group_id)
        self._active_members[group.group_id] = group.size
        self._group_names[group.group_id] = batch[0].query.name
        self._group_sizes[group.group_id] = group.size
        self.launched_group_sizes.append(group.size)

    def _wrap(
        self,
        slot: _Slot,
        client_callback: Optional[Callable[[QueryHandle], None]],
    ) -> Callable[[QueryHandle], None]:
        def on_query_done(handle: QueryHandle) -> None:
            remaining = self._active_members.get(handle.group_id, 0) - 1
            group_drained = remaining <= 0
            if group_drained:
                self._active_members.pop(handle.group_id, None)
                slot.active_groups.discard(handle.group_id)
                self._notify_policy(handle)
            else:
                self._active_members[handle.group_id] = remaining
            # The client's callback typically resubmits (closed system);
            # run it before scheduling the flush so same-instant
            # resubmissions can still join the departing batch.
            if client_callback is not None:
                client_callback(handle)
            if group_drained and not slot.flush_scheduled:
                slot.flush_scheduled = True
                self.sim.call_soon(lambda: self._flush(slot))

        return on_query_done

    def _flush(self, slot: _Slot) -> None:
        slot.flush_scheduled = False
        if not slot.pending:
            return
        pending, slot.pending = slot.pending, []
        self._launch_capped(slot, pending)

    def _notify_policy(self, handle: QueryHandle) -> None:
        """Feed the completed group back to learning policies."""
        tasks = self.session.engine.group_tasks.get(handle.group_id)
        query_name = self._group_names.pop(handle.group_id, None)
        group_size = self._group_sizes.pop(handle.group_id, 0)
        if tasks is None or query_name is None or self.policy is None:
            return
        self.policy.observe_group(query_name, group_size, tasks)
