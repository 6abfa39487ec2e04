"""The perf trajectory: versioned bench checkpoints and their diffs.

PR 6 started writing ``BENCH_6.json`` — one performance entry per
smoke bench — but a trajectory nobody can *compare* is a log, not a
gate. This module is the toolchain around those checkpoint files:

* :class:`BenchTrajectory` — the recording side (the benchmark
  suite's ``trajectory`` fixture builds one), writing a **versioned
  schema** (``repro-bench/1``): a host fingerprint (python version,
  implementation, platform — so diffs can warn when two checkpoints
  came from different machines) over per-bench entries
  ``{sim_time, wall_s, rows_per_s, counters}``;
* the **median-of-k rule**: a bench may record several wall-clock
  samples (pytest-benchmark rounds, or explicit re-runs); the entry's
  ``wall_s`` is their *median*, so one noisy round cannot fake a
  regression or an improvement;
* :func:`diff_trajectories` — the comparing side, driving the
  ``repro perf diff OLD NEW`` CLI: per-bench wall deltas judged
  against **per-bench noise tolerances** (recorded at bench time;
  small-wall benches are noisier and say so), simulated-time deltas
  flagged on *any* change (the simulator is deterministic — a sim
  delta is a behavior change, not noise), missing benches and schema
  mismatches as hard errors.

Exit-status contract of :meth:`DiffReport.exit_status` (what CI
scripts): ``0`` clean or report-only, ``1`` a regression past the
``--fail-over`` threshold, ``2`` structural errors (schema mismatch,
bench missing from the new checkpoint). The CI ``perf`` job runs the
diff report-only — report always, fail only past threshold.

Legacy note: PR 6's ``BENCH_6.json`` predates the envelope (a flat
``{bench: entry}`` object). The loader accepts it as schema version
``repro-bench/0`` with no host fingerprint, so the first cross-PR
diff works against the existing checkpoint.
"""

from __future__ import annotations

import json
import platform
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

__all__ = [
    "SCHEMA",
    "LEGACY_SCHEMA",
    "BenchEntry",
    "BenchTrajectory",
    "BenchSchemaError",
    "BenchDelta",
    "DiffReport",
    "diff_trajectories",
    "host_fingerprint",
    "latest_checkpoint",
]

SCHEMA = "repro-bench/1"
LEGACY_SCHEMA = "repro-bench/0"

# A bench that records no tolerance of its own is judged against this:
# generous enough for sub-100ms smoke benches on shared CI runners.
DEFAULT_TOLERANCE_PCT = 10.0

# Relative sim-time difference below which two floats are "the same
# simulation" (the simulator is deterministic; this only absorbs
# serialization round-off).
_SIM_RTOL = 1e-9


class BenchSchemaError(ValueError):
    """A checkpoint file is not a bench trajectory this tool knows."""


def host_fingerprint() -> dict:
    """The recording host, as much as a diff needs to warn about."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


@dataclass(frozen=True)
class BenchEntry:
    """One bench's checkpoint entry.

    ``wall_s`` is the median of ``wall_samples`` when samples were
    recorded (the median-of-k rule), else the single measured wall.
    ``rows_per_s`` is present only for benches that declare a row
    count. ``tolerance_pct`` is this bench's own noise band.
    """

    sim_time: float
    wall_s: float
    counters: dict = field(default_factory=dict)
    rows_per_s: Optional[float] = None
    wall_samples: tuple = ()
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT

    def to_dict(self) -> dict:
        entry: dict = {
            "sim_time": self.sim_time,
            "wall_s": round(self.wall_s, 6),
            "counters": dict(self.counters),
            "tolerance_pct": self.tolerance_pct,
        }
        if self.rows_per_s is not None:
            entry["rows_per_s"] = round(self.rows_per_s, 3)
        if self.wall_samples:
            entry["wall_samples"] = [round(s, 6) for s in self.wall_samples]
        return entry

    @classmethod
    def from_dict(cls, raw: Mapping) -> "BenchEntry":
        if "sim_time" not in raw or "wall_s" not in raw:
            raise BenchSchemaError(
                f"bench entry missing sim_time/wall_s: {sorted(raw)}"
            )
        return cls(
            sim_time=float(raw["sim_time"]),
            wall_s=float(raw["wall_s"]),
            counters=dict(raw.get("counters", {})),
            rows_per_s=(
                float(raw["rows_per_s"]) if raw.get("rows_per_s") is not None
                else None
            ),
            wall_samples=tuple(raw.get("wall_samples", ())),
            tolerance_pct=float(raw.get("tolerance_pct", DEFAULT_TOLERANCE_PCT)),
        )


# Default sentinel for BenchTrajectory(host=...): "fingerprint this
# host". Distinct from None, which means "no fingerprint recorded"
# (legacy checkpoints) and must survive a load round-trip.
_THIS_HOST = object()


class BenchTrajectory:
    """Collects per-bench entries and round-trips checkpoint files."""

    def __init__(
        self,
        schema: str = SCHEMA,
        host=_THIS_HOST,
    ) -> None:
        self.schema = schema
        self.host: Optional[dict] = (
            host_fingerprint() if host is _THIS_HOST else host
        )
        self.entries: dict[str, BenchEntry] = {}

    def record(
        self,
        name: str,
        sim_time: float,
        wall_s: Optional[float] = None,
        counters: Optional[Mapping] = None,
        rows: Optional[int] = None,
        wall_samples: Optional[Sequence[float]] = None,
        tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
    ) -> BenchEntry:
        """Store one bench's entry (last write per name wins).

        Pass either ``wall_s`` (one measurement) or ``wall_samples``
        (k measurements; the entry's wall becomes their median —
        the re-run rule the diff relies on). ``rows`` derives the
        entry's throughput as ``rows / wall_s``.
        """
        samples = tuple(wall_samples or ())
        if samples:
            wall = statistics.median(samples)
        elif wall_s is not None:
            wall = wall_s
        else:
            raise ValueError(f"bench {name!r}: need wall_s or wall_samples")
        entry = BenchEntry(
            sim_time=sim_time,
            wall_s=wall,
            counters=dict(counters or {}),
            rows_per_s=(rows / wall) if rows and wall > 0 else None,
            wall_samples=samples,
            tolerance_pct=tolerance_pct,
        )
        self.entries[name] = entry
        return entry

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "host": self.host,
            "benches": {
                name: entry.to_dict()
                for name, entry in sorted(self.entries.items())
            },
        }

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "BenchTrajectory":
        """Parse a checkpoint object (current or legacy schema)."""
        if not isinstance(raw, Mapping):
            raise BenchSchemaError(
                f"trajectory must be a JSON object, got {type(raw).__name__}"
            )
        if "schema" in raw:
            if raw["schema"] != SCHEMA:
                raise BenchSchemaError(
                    f"unknown bench schema {raw['schema']!r}; this tool "
                    f"reads {SCHEMA!r} (and legacy flat files as "
                    f"{LEGACY_SCHEMA!r})"
                )
            benches = raw.get("benches")
            if not isinstance(benches, Mapping):
                raise BenchSchemaError("trajectory has no 'benches' object")
            trajectory = cls(schema=SCHEMA, host=raw.get("host"))
        elif raw and all(
            isinstance(entry, Mapping) and "sim_time" in entry
            for entry in raw.values()
        ):
            # PR 6's envelope-less flat file: {bench: entry}.
            benches = raw
            trajectory = cls(schema=LEGACY_SCHEMA, host=None)
        else:
            raise BenchSchemaError(
                "not a bench trajectory: expected a 'schema' envelope or "
                "a legacy flat {bench: {sim_time, ...}} object"
            )
        for name, entry in benches.items():
            trajectory.entries[name] = BenchEntry.from_dict(entry)
        return trajectory

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchTrajectory":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise BenchSchemaError(f"{path}: not JSON ({exc})") from exc
        return cls.from_dict(raw)


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchDelta:
    """One bench's old-vs-new comparison."""

    name: str
    old_wall_s: float
    new_wall_s: float
    wall_delta_pct: float
    tolerance_pct: float
    sim_changed: bool
    sim_delta_pct: float

    @property
    def regressed(self) -> bool:
        """Slower by more than this bench's noise band."""
        return self.wall_delta_pct > self.tolerance_pct

    @property
    def improved(self) -> bool:
        """Faster by more than this bench's noise band."""
        return self.wall_delta_pct < -self.tolerance_pct

    @property
    def verdict(self) -> str:
        if self.regressed:
            return "REGRESSED"
        if self.improved:
            return "improved"
        return "ok"


@dataclass(frozen=True)
class DiffReport:
    """Everything ``repro perf diff`` has to say about two checkpoints.

    ``fail_over_pct`` is the gate threshold (``None`` = report-only).
    A bench *fails the gate* when its wall regression exceeds both its
    own noise tolerance and the threshold — per-bench noise bands can
    only widen the gate, never tighten it below ``--fail-over``.
    """

    deltas: tuple
    missing: tuple
    added: tuple
    warnings: tuple
    fail_over_pct: Optional[float] = None

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def failures(self) -> list[BenchDelta]:
        """Regressions past the ``--fail-over`` gate (empty when
        report-only)."""
        if self.fail_over_pct is None:
            return []
        return [
            d
            for d in self.regressions
            if d.wall_delta_pct > self.fail_over_pct
        ]

    @property
    def sim_changes(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.sim_changed]

    def exit_status(self) -> int:
        """``2`` structural errors, ``1`` gate failures, else ``0``.

        Under a gate (``fail_over_pct`` set) a simulated-time change
        also fails: the simulator is deterministic, so a sim delta is
        a behavior change, not noise — no wall tolerance excuses it.
        """
        if self.missing:
            return 2
        if self.failures:
            return 1
        if self.fail_over_pct is not None and self.sim_changes:
            return 1
        return 0

    def render(self) -> str:
        lines = []
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        lines.append(
            f"{'bench':<24} {'old wall':>10} {'new wall':>10} "
            f"{'delta':>8} {'tol':>6}  verdict"
        )
        for d in sorted(self.deltas, key=lambda d: d.name):
            verdict = d.verdict
            if d.sim_changed:
                verdict += f" [sim {d.sim_delta_pct:+.2f}%]"
            lines.append(
                f"{d.name:<24} {d.old_wall_s * 1e3:>8.2f}ms "
                f"{d.new_wall_s * 1e3:>8.2f}ms {d.wall_delta_pct:>+7.1f}% "
                f"{d.tolerance_pct:>5.0f}%  {verdict}"
            )
        for name in self.added:
            lines.append(f"{name:<24} {'-':>10} {'-':>10} {'-':>8} {'-':>6}  new bench")
        for name in self.missing:
            lines.append(
                f"{name:<24} {'-':>10} {'-':>10} {'-':>8} {'-':>6}  "
                "MISSING from new checkpoint"
            )
        gate = (
            "report-only"
            if self.fail_over_pct is None
            else f"fail over +{self.fail_over_pct:g}%"
        )
        lines.append(
            f"{len(self.deltas)} compared, {len(self.regressions)} regressed, "
            f"{len(self.failures)} past gate ({gate}), "
            f"{len(self.sim_changes)} sim-changed, {len(self.added)} added, "
            f"{len(self.missing)} missing"
        )
        return "\n".join(lines)


def latest_checkpoint(directory: Union[str, Path] = ".") -> Path:
    """The checkpoint ``BENCH_<n>.json`` in ``directory`` with the
    highest ``n`` — the perf gate's baseline, so no script has to name
    a fixed file when a newer checkpoint is committed."""
    numbered = []
    for path in Path(directory).glob("BENCH_*.json"):
        number = path.stem.removeprefix("BENCH_")
        if number.isdigit():
            numbered.append((int(number), path))
    if not numbered:
        raise FileNotFoundError(f"no BENCH_<n>.json checkpoint in {directory}")
    return max(numbered)[1]


def _median_wall(entry: BenchEntry) -> float:
    """The wall the diff judges: median of the recorded samples when
    present (defensive re-derivation of the record-time rule), else
    the stored wall."""
    if entry.wall_samples:
        return statistics.median(entry.wall_samples)
    return entry.wall_s


def diff_trajectories(
    old: BenchTrajectory,
    new: BenchTrajectory,
    fail_over_pct: Optional[float] = None,
) -> DiffReport:
    """Compare two checkpoints bench by bench.

    Wall-clock deltas are judged against the *wider* of the two
    entries' recorded noise tolerances; simulated-time deltas are
    flagged on any change at all (determinism makes them meaningful).
    Benches present only in ``new`` are reported as added; benches
    that *disappeared* are structural errors (exit status 2) — a
    renamed bench silently breaks the trajectory otherwise.
    """
    deltas = []
    for name, old_entry in sorted(old.entries.items()):
        new_entry = new.entries.get(name)
        if new_entry is None:
            continue
        old_wall = _median_wall(old_entry)
        new_wall = _median_wall(new_entry)
        wall_delta = (
            (new_wall - old_wall) / old_wall * 100.0 if old_wall > 0 else 0.0
        )
        sim_ref = max(abs(old_entry.sim_time), abs(new_entry.sim_time), 1e-12)
        sim_delta = (new_entry.sim_time - old_entry.sim_time) / sim_ref
        deltas.append(
            BenchDelta(
                name=name,
                old_wall_s=old_wall,
                new_wall_s=new_wall,
                wall_delta_pct=wall_delta,
                tolerance_pct=max(
                    old_entry.tolerance_pct, new_entry.tolerance_pct
                ),
                sim_changed=abs(sim_delta) > _SIM_RTOL,
                sim_delta_pct=sim_delta * 100.0,
            )
        )
    missing = tuple(sorted(set(old.entries) - set(new.entries)))
    added = tuple(sorted(set(new.entries) - set(old.entries)))
    warnings = []
    if old.schema != new.schema:
        warnings.append(
            f"schema versions differ ({old.schema} vs {new.schema})"
        )
    if old.host is not None and new.host is not None and old.host != new.host:
        changed = sorted(
            key
            for key in set(old.host) | set(new.host)
            if old.host.get(key) != new.host.get(key)
        )
        warnings.append(
            "cross-host comparison — wall-clock deltas are not "
            f"apples-to-apples (differs: {', '.join(changed)})"
        )
    elif old.host is None or new.host is None:
        warnings.append(
            "one checkpoint has no host fingerprint (legacy file); "
            "cannot rule out a cross-host comparison"
        )
    return DiffReport(
        deltas=tuple(deltas),
        missing=missing,
        added=added,
        warnings=tuple(warnings),
        fail_over_pct=fail_over_pct,
    )
