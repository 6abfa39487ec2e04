"""The benchmark's own self-test, at a tiny scale (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* every workload's run prints, as its last line, a result whose metric
  names and units are exactly BENCHMARK.json's (end-to-end with
  ``--trace 0``, per-layer with ``--trace 1``), and exits 0 with
  ``correct`` true;
* the traced run's per-layer counts repeat exactly in a second run;
* BENCHMARK.json lists only workloads the runner has, and design.json
  describes every one of them and every metric;
* a corrupted expected output, a broken invariant and a wrong result
  row are each counted as a failure, not silently passed;
* without the program's sources next to it, the runner exits non-zero
  and prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_SCALE = 0.0005
RUN_TIMEOUT_S = 180


class Report:
    def __init__(self) -> None:
        self.failures = 0

    def check(self, name: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        self.failures += not ok


def run_bench(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace),
         "--scale", str(TINY_SCALE)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


# Per-layer counts that must repeat exactly for one seed.
EXACT_COUNTS = ("sim.slices", "storage.pool.accesses",
                "storage.spill.pages_written", "policies.decide_calls",
                "storage.memo_decodes", "engine.launches")


def check_runs(report: Report, spec: dict, workloads) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads:
        for trace in (0, 1):
            code, result = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            report.check(f"{label} exits 0", code == 0)
            if result is None:
                report.check(f"{label} prints a result", False)
                continue
            report.check(f"{label} result keys",
                         set(result) == {"correct", "attempted", "failed",
                                         "metrics"})
            report.check(f"{label} correct",
                         result["correct"] and result["failed"] == 0
                         and result["attempted"] >= 1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            report.check(f"{label} metric names and units match "
                         "BENCHMARK.json", got == wanted[trace])
            if trace == 1:
                _, again = run_bench(ROOT, workload, trace)
                report.check(
                    f"{label} per-layer counts repeat exactly",
                    again is not None and all(
                        again["metrics"][name]["value"]
                        == result["metrics"][name]["value"]
                        for name in EXACT_COUNTS
                    ),
                )


def check_design(report: Report, spec: dict, workloads) -> None:
    with open(HERE / "design.json") as handle:
        design = json.load(handle)
    report.check("BENCHMARK.json lists only workloads the runner knows",
                 {w["name"] for w in spec["workloads"]} <= set(workloads))
    report.check("design.json describes every workload of the runner",
                 set(design["workloads"]) == set(workloads))
    report.check("design.json defines BENCHMARK.json's per-layer metrics",
                 set(design["per_layer"])
                 == {m["name"] for m in spec["per_layer"]})
    report.check("design.json defines every end-to-end metric",
                 {m["name"] for m in spec["end_to_end"]}
                 <= set(design["end_to_end"]))
    predicted = {name for p in design["predictions"] for name in p["layer"]}
    report.check("every per-layer metric has a prediction",
                 predicted == set(design["per_layer"]))


def check_corruption(report: Report) -> None:
    """Outputs of real tiny passes, compared against corrupted copies."""
    from run import Checks, check_recorded
    from workloads import SCALE_FACTOR, WORKLOADS, reference_rows, rows_match

    serve = WORKLOADS["serve_open"]
    inputs = serve.setup(0, TINY_SCALE, {})
    result = serve.measure(inputs)
    outputs = result.outputs

    def failures(expected_outputs) -> int:
        checks = Checks()
        check_recorded(checks, serve.name, 0, SCALE_FACTOR, outputs,
                       {serve.name: {"0": expected_outputs}})
        return len(checks.failures)

    report.check("uncorrupted expected output passes", failures(outputs) == 0)
    corrupted = copy.deepcopy(outputs)
    corrupted["goodput"] *= 1.0 + 1e-12
    report.check("a corrupted goodput counts one failure",
                 failures(corrupted) == 1)
    corrupted = copy.deepcopy(outputs)
    corrupted["tenants"]["scan"]["completed"] += 1
    report.check("a corrupted tenant count counts one failure",
                 failures(corrupted) == 1)
    corrupted = copy.deepcopy(outputs)
    del corrupted["p99"]
    report.check("an output missing from the record counts a failure",
                 failures(corrupted) == 1)

    broken = copy.deepcopy(outputs)
    broken["backlog"] += 1
    report.check("broken conservation fails an invariant",
                 not all(ok for _, ok in serve.invariants(broken)))

    reference = reference_rows(inputs.catalog, inputs.queries)
    name, rows = result.rows[0]
    report.check("result rows match the reference",
                 rows_match(rows, reference[name]))
    wrong = [tuple(v + 1 if isinstance(v, (int, float))
                   and not isinstance(v, bool) else v for v in row)
             for row in rows]
    report.check("a wrong result row fails the reference check",
                 not rows_match(wrong, reference[name]))
    report.check("a missing result row fails the reference check",
                 not rows_match(list(rows)[1:], reference[name])
                 or len(reference[name]) == 0)


def check_without_sources(report: Report) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result = run_bench(bare, "fig2_batch", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report.check("without the sources: non-zero exit, no result",
                 code != 0 and result is None)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    report = Report()
    check_design(report, spec, WORKLOADS)
    check_corruption(report)
    check_without_sources(report)
    check_runs(report, spec, WORKLOADS)
    print(f"self-test: {report.failures} failure(s)")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
