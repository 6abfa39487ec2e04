"""Shared fixtures for the benchmark suite.

Every bench regenerates (a reduced-scale version of) one paper table
or figure and asserts its qualitative shape, so the benchmark suite
doubles as an end-to-end reproduction check. Heavy experiment benches
use ``benchmark.pedantic(rounds=1)`` — the interesting number is the
experiment's output, not micro-timing stability.

The session-scoped :func:`trajectory` fixture is the perf-trajectory
harness: every smoke bench records one named entry (simulated time,
wall seconds, and whatever counters characterize the run), and at
session end the collected entries are written to
``.bench/trajectory.json`` (git-ignored) under the versioned
``repro-bench/1`` schema (:mod:`repro.obs.bench`) — host fingerprint
plus per-bench ``{sim_time, wall_s, rows_per_s, counters,
wall_samples, tolerance_pct}``. A fresh run never overwrites a
committed ``BENCH_<n>.json`` checkpoint; CI's perf job uploads the
file as an artifact and diffs it against the highest-numbered
committed checkpoint (:func:`repro.obs.bench.latest_checkpoint`) with
a blocking ``repro perf diff --fail-over`` gate. To commit a new
checkpoint, copy the run to ``BENCH_<n+1>.json``.
"""

from pathlib import Path

import pytest

from repro.obs.bench import BenchTrajectory
from repro.tpch.generator import generate

BENCH_SCALE_FACTOR = 0.0005
BENCH_SEED = 2007

TRAJECTORY_FILE = Path(__file__).resolve().parent.parent / ".bench" / "trajectory.json"


@pytest.fixture(scope="session")
def catalog():
    """One small TPC-H database shared by every bench."""
    return generate(scale_factor=BENCH_SCALE_FACTOR, seed=BENCH_SEED)


def wall_samples(benchmark):
    """Per-round wall-clock samples out of a pytest-benchmark fixture.

    Feeds the trajectory's median-of-k rule: every timed round becomes
    one sample, so a single noisy round cannot fake a regression.
    Returns ``None`` when the fixture recorded no stats (``--benchmark-
    disable`` runs) — callers then fall back to their own timing.
    """
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return None
    data = getattr(getattr(stats, "stats", None), "data", None)
    if not data:
        return None
    return list(data)


@pytest.fixture(scope="session")
def trajectory():
    """The session-wide trajectory sink; written at session end."""
    sink = BenchTrajectory()
    yield sink
    if sink.entries:
        TRAJECTORY_FILE.parent.mkdir(exist_ok=True)
        sink.write(TRAJECTORY_FILE)
