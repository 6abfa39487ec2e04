"""The repository benchmark: figure regeneration and open-system serving.

Run from the repository root:

    python3 perfbench/run.py --workload fig2_batch --seed 0 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
it runs as many (fresh catalog, measured pass) rounds as fit in
``--seconds`` of measured time, at least one, and reports medians.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics; the traced pass's spans are written to
``.perfbench/``. ``--record`` stores one pass's simulated outputs for
the seed in ``expected.json``; a change that moves simulated outputs
on purpose re-records them.

Every pass's simulated outputs are checked: against the values in
``expected.json`` when it holds the seed, against the run's first
pass, against seed-independent invariants, and sampled result rows
against ``execute_reference``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit status is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench"
# Set-up is timed this many times per run at least, for its median.
MIN_SETUPS = 3
# The host-calibration probe: the shape of the event-loop microbench.
CALIB_TASKS = 64
CALIB_STEPS = 50
CALIB_REPEATS = 7


class Checks:
    """Every output comparison of a run; each one is an operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def expect_all(self, checks) -> None:
        for name, ok in checks:
            self.expect(name, ok)

    def expect_equal(self, label: str, got, want) -> None:
        """One check per leaf of ``want``; a missing leaf fails too."""
        if isinstance(want, dict):
            got = got if isinstance(got, dict) else {}
            for key, value in want.items():
                self.expect_equal(f"{label}.{key}", got.get(key), value)
            for key in got.keys() - want.keys():
                self.expect(f"{label}.{key} unexpected", False)
        elif isinstance(want, list):
            got = got if isinstance(got, list) else []
            self.expect(f"{label} length", len(got) == len(want))
            for i, value in enumerate(want):
                self.expect_equal(f"{label}[{i}]", got[i] if i < len(got)
                                  else None, value)
        else:
            self.expect(label, got == want)


def calibrate_us_per_event() -> float:
    """Median host microseconds per simulator event over a fixed probe
    of 64 tasks x 50 compute steps, so a reader can tell a slow host
    from a slow change."""
    from repro.sim.events import Compute
    from repro.sim.simulator import Simulator

    def worker():
        for _ in range(CALIB_STEPS):
            yield Compute(1.0)

    samples = []
    for _ in range(CALIB_REPEATS):
        sim = Simulator(processors=8)
        start = time.perf_counter()
        for i in range(CALIB_TASKS):
            sim.spawn(worker(), name=f"w{i}")
        sim.run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / (CALIB_TASKS * CALIB_STEPS) * 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed: int, scale: float, timings: dict):
    gc.collect()
    start = time.perf_counter()
    inputs = workload.setup(seed, scale, timings)
    timings.setdefault("setup_s", []).append(time.perf_counter() - start)
    return inputs


def timed_pass(workload, inputs):
    gc.collect()
    start = time.perf_counter()
    result = workload.measure(inputs)
    return result, time.perf_counter() - start


def check_pass(checks: Checks, workload, result, first) -> None:
    checks.expect_all(workload.invariants(result.outputs))
    if first is not None:
        checks.expect_equal("same as the run's first pass", result.outputs,
                            first.outputs)


def check_rows(checks: Checks, workload, inputs, results) -> None:
    from workloads import reference_rows, rows_match, shared_group_rows

    reference = reference_rows(inputs.catalog, inputs.queries)
    samples = [sample for result in results for sample in result.rows]
    if not workload.own_rows:
        samples = shared_group_rows(inputs.catalog, inputs.queries)
    for name, rows in samples:
        checks.expect(f"{name} rows match execute_reference",
                      rows_match(rows, reference[name]))


def check_recorded(checks: Checks, workload_name: str, seed: int,
                   scale: float, outputs: dict, expected: dict) -> None:
    from workloads import SCALE_FACTOR

    if scale != SCALE_FACTOR:
        return
    recorded = expected.get(workload_name, {}).get(str(seed))
    if recorded is not None:
        checks.expect_equal(f"recorded seed {seed}", outputs, recorded)


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    with open(EXPECTED) as handle:
        return json.load(handle)


def run_untraced(workload, seed, scale, seconds, checks, expected):
    """As many passes as fit in ``seconds`` of measured time (at least
    one); end-to-end metrics."""
    timings: dict = {}
    results, walls = [], []
    inputs = None
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        inputs = timed_setup(workload, seed, scale, timings)
        result, wall = timed_pass(workload, inputs)
        check_pass(checks, workload, result, results[0] if results else None)
        if not results:
            # Set-up plus one pass: later passes only add allocator
            # fragmentation, and how many run depends on host speed.
            rss = peak_rss_mb()
        results.append(result)
        walls.append(wall)
    while len(timings["setup_s"]) < MIN_SETUPS:
        timed_setup(workload, seed, scale, timings)
    check_recorded(checks, workload.name, seed, scale, results[0].outputs,
                   expected)
    check_rows(checks, workload, inputs, results)
    # Per-pass rates, so one pass slowed by the host moves the median
    # no more than it moves wall_s.
    rates = [r.queries / wall for r, wall in zip(results, walls)]
    metrics = {
        "setup_s": (statistics.median(timings["setup_s"]), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "queries_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, walls


def run_traced(workload, seed, scale, checks, expected, trace_path):
    """One untraced and one traced pass; per-layer metrics."""
    from tracing import Ledger, traced

    calib = calibrate_us_per_event()
    timings: dict = {}
    inputs = timed_setup(workload, seed, scale, timings)
    untraced, untraced_wall = timed_pass(workload, inputs)
    check_pass(checks, workload, untraced, None)
    check_recorded(checks, workload.name, seed, scale, untraced.outputs,
                   expected)

    inputs = timed_setup(workload, seed, scale, timings)
    ledger = Ledger()
    with traced(ledger):
        result, traced_wall = timed_pass(workload, inputs)
    check_pass(checks, workload, result, None)
    checks.expect_equal("traced equals untraced", result.outputs,
                        untraced.outputs)
    checks.expect("profiler saw every slice",
                  ledger.profiler.totals()["slices"] == ledger.slices)
    check_rows(checks, workload, inputs, [untraced, result])
    ledger.write(trace_path)
    return layer_metrics(ledger, calib, timings, traced_wall, untraced_wall)


def layer_metrics(ledger, calib, timings, traced_wall, untraced_wall):
    calls, self_s = ledger.calls, ledger.self_s
    rows = {p.op: p.rows for p in ledger.profiler.profile()}

    def input_rows(kind: str) -> int:
        """Rows fed into operators of ``kind``: what their children
        emitted (an aggregate emits a handful of groups)."""
        consumed = 0
        for op, op_kind in ledger.op_kinds.items():
            if op_kind == kind:
                consumed += sum(rows.get(child, 0)
                                for child in ledger.children.get(op, ()))
        return consumed

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    n_slices = ledger.slices
    accesses = calls["storage.pool.access"]
    harness = self_s["sim.run"]
    return {
        "sim.harness_s": (harness, "s"),
        "sim.slices": (n_slices, "count"),
        "sim.ns_per_slice": (rate(harness * 1e9, n_slices), "ns"),
        "sim.calib_us_per_event": (calib, "us"),
        "engine.aggregate.host_s": (self_s["engine.aggregate"], "s"),
        "engine.aggregate.rows_per_s": (
            rate(input_rows("aggregate"), self_s["engine.aggregate"]),
            "rows/s"),
        "engine.hash_join.host_s": (self_s["engine.hash_join"], "s"),
        "engine.hash_join.rows_per_s": (
            rate(input_rows("hash_join"), self_s["engine.hash_join"]),
            "rows/s"),
        "engine.scan.host_s": (self_s["engine.scan"], "s"),
        "engine.other.host_s": (self_s["engine.other"], "s"),
        "engine.launches": (calls["engine.launch"], "count"),
        "engine.launch_s": (self_s["engine.launch"], "s"),
        "storage.pool.accesses": (accesses, "count"),
        "storage.pool.hit_rate": (rate(ledger.pool_hits, accesses), "ratio"),
        "storage.pool.access_s": (self_s["storage.pool.access"], "s"),
        "storage.scan.acquires": (calls["storage.scan.acquire"], "count"),
        "storage.scan.acquire_s": (self_s["storage.scan.acquire"], "s"),
        "storage.spill.pages_written": (ledger.spill_pages_written, "count"),
        "storage.spill.s": (self_s["storage.spill"], "s"),
        "storage.memo_decodes": (calls["storage.memo_decode"], "count"),
        "db.advise_calls": (calls["db.advise"], "count"),
        "db.advise_s": (self_s["db.advise"], "s"),
        "profiling.profile_s": (self_s["profiling.profile"], "s"),
        "profiling.profile_total_s": (ledger.total_s["profiling.profile"],
                                      "s"),
        "policies.decide_calls": (calls["policies.decide"], "count"),
        "policies.decide_s": (self_s["policies.decide"], "s"),
        "policies.coordinator_s": (self_s["policies.coordinator"], "s"),
        "workload.shared_frac": (
            rate(ledger.share_verdicts, ledger.decisions), "ratio"),
        "server.admit_calls": (calls["server.admit"], "count"),
        "server.admit_s": (self_s["server.admit"], "s"),
        "tpch.generate_s": (statistics.median(timings["generate_s"]), "s"),
        "trace.overhead_pct": (
            (traced_wall - untraced_wall) / untraced_wall * 100.0, "%"),
    }


def render(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(
        f"  {name:<{width}}  {value:>14.6g} {unit}"
        for name, (value, unit) in metrics.items()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="TPC-H scale factor (default 0.005)")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in expected.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    from workloads import SCALE_FACTOR, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = SCALE_FACTOR if args.scale is None else args.scale
    expected = load_expected()
    checks = Checks()

    if args.record:
        if scale != SCALE_FACTOR:
            print("perfbench: --record stores outputs at the default scale "
                  "only", file=sys.stderr)
            return 2
        timings: dict = {}
        result, _ = timed_pass(workload,
                               workload.setup(args.seed, scale, timings))
        expected.setdefault(workload.name, {})[str(args.seed)] = result.outputs
        with open(EXPECTED, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {workload.name} seed {args.seed}")
        return 0

    if args.trace:
        trace_path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        metrics = run_traced(workload, args.seed, scale, checks, expected,
                             trace_path)
        print(f"{workload.name} seed {args.seed}: traced run, spans in "
              f"{trace_path.relative_to(ROOT)}")
    else:
        metrics, walls = run_untraced(
            workload, args.seed, scale, args.seconds, checks, expected)
        print(f"{workload.name} seed {args.seed}: {len(walls)} passes, "
              f"walls {', '.join(f'{w:.3f}' for w in walls)} s; "
              f"sim.calib_us_per_event {calibrate_us_per_event():.4f}")
    print(render(metrics))
    error_rate = len(checks.failures) / checks.attempted
    print(f"  checks {checks.attempted}, failed {len(checks.failures)}, "
          f"error_rate {error_rate:g}")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
