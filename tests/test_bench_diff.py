"""The bench-trajectory checkpoint format and its regression diff.

Synthetic old/new trajectory pairs with injected regressions and
improvements drive the whole ``repro perf diff`` contract: per-bench
noise tolerances, the median-of-k wall rule, sim-time change flags,
exit statuses (0 clean / 1 past gate / 2 structural), legacy flat
files, and schema errors.
"""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    LEGACY_SCHEMA,
    SCHEMA,
    BenchSchemaError,
    BenchTrajectory,
    diff_trajectories,
    latest_checkpoint,
)


def _pair(old_wall=1.0, new_wall=1.0, sim=100.0, new_sim=None, **record):
    """One-bench old/new trajectory pair with the same fingerprint."""
    host = {"python": "3.11", "implementation": "CPython", "platform": "x"}
    old = BenchTrajectory(host=host)
    old.record("bench", sim_time=sim, wall_s=old_wall, **record)
    new = BenchTrajectory(host=host)
    new.record(
        "bench", sim_time=sim if new_sim is None else new_sim,
        wall_s=new_wall, **record,
    )
    return old, new


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------


def test_record_median_of_k_rule():
    trajectory = BenchTrajectory()
    entry = trajectory.record(
        "b", sim_time=1.0, wall_samples=[0.010, 0.500, 0.011]
    )
    assert entry.wall_s == 0.011  # the noisy 0.5 round cannot win
    assert entry.wall_samples == (0.010, 0.500, 0.011)


def test_record_needs_some_wall_measurement():
    with pytest.raises(ValueError, match="wall_s or wall_samples"):
        BenchTrajectory().record("b", sim_time=1.0)


def test_record_derives_throughput():
    entry = BenchTrajectory().record("b", sim_time=1.0, wall_s=0.5, rows=100)
    assert entry.rows_per_s == 200.0


def test_roundtrip_through_file(tmp_path):
    trajectory = BenchTrajectory()
    trajectory.record("b", sim_time=2.0, wall_s=0.25,
                      counters={"reads": 7}, rows=50)
    path = tmp_path / "BENCH.json"
    trajectory.write(path)
    loaded = BenchTrajectory.load(path)
    assert loaded.schema == SCHEMA
    assert loaded.host == trajectory.host
    assert loaded.entries["b"].counters == {"reads": 7}
    assert loaded.entries["b"].rows_per_s == 200.0


def test_legacy_flat_file_loads_as_schema_zero(tmp_path):
    path = tmp_path / "BENCH_6.json"
    path.write_text(json.dumps({
        "old_bench": {"sim_time": 6777.85, "wall_s": 0.02,
                      "counters": {"stall.cpu": 1.0}},
    }))
    loaded = BenchTrajectory.load(path)
    assert loaded.schema == LEGACY_SCHEMA
    assert loaded.host is None
    assert loaded.entries["old_bench"].wall_s == 0.02


# ----------------------------------------------------------------------
# diff verdicts
# ----------------------------------------------------------------------


def test_injected_regression_flagged_and_gated():
    old, new = _pair(old_wall=1.0, new_wall=1.25)  # +25%
    report = diff_trajectories(old, new, fail_over_pct=20.0)
    (delta,) = report.deltas
    assert delta.regressed and delta.verdict == "REGRESSED"
    assert delta.wall_delta_pct == pytest.approx(25.0)
    assert report.failures == [delta]
    assert report.exit_status() == 1
    assert "REGRESSED" in report.render()


def test_injected_improvement_is_not_a_failure():
    old, new = _pair(old_wall=1.0, new_wall=0.75)  # -25%
    report = diff_trajectories(old, new, fail_over_pct=20.0)
    (delta,) = report.deltas
    assert delta.improved and delta.verdict == "improved"
    assert report.exit_status() == 0


def test_noise_within_tolerance_is_ok():
    old, new = _pair(old_wall=1.0, new_wall=1.05)  # +5% < 10% default
    (delta,) = diff_trajectories(old, new).deltas
    assert delta.verdict == "ok"


def test_per_bench_tolerance_widens_the_gate():
    old, new = _pair(old_wall=1.0, new_wall=1.25, tolerance_pct=30.0)
    report = diff_trajectories(old, new, fail_over_pct=20.0)
    (delta,) = report.deltas
    assert not delta.regressed  # 25% < this bench's own 30% band
    assert report.exit_status() == 0


def test_report_only_never_fails_the_gate():
    old, new = _pair(old_wall=1.0, new_wall=3.0)
    report = diff_trajectories(old, new)  # no --fail-over
    assert report.regressions and not report.failures
    assert report.exit_status() == 0
    assert "report-only" in report.render()


def test_diff_judges_median_not_stored_wall():
    host = {"python": "3.11"}
    old = BenchTrajectory(host=host)
    old.record("b", sim_time=1.0, wall_s=1.0)
    new = BenchTrajectory(host=host)
    new.record("b", sim_time=1.0, wall_samples=[1.01, 9.0, 0.99])
    (delta,) = diff_trajectories(old, new).deltas
    assert delta.new_wall_s == 1.01
    assert delta.verdict == "ok"


def test_any_sim_time_change_is_flagged():
    old, new = _pair(sim=100.0, new_sim=100.001)
    (delta,) = diff_trajectories(old, new).deltas
    assert delta.sim_changed
    assert "[sim" in diff_trajectories(old, new).render()
    same_old, same_new = _pair(sim=100.0)
    assert not diff_trajectories(same_old, same_new).deltas[0].sim_changed


def test_sim_time_change_fails_a_gated_diff():
    # Report-only: flagged but exit 0. Gated: the simulator is
    # deterministic, so any sim delta is a behavior change and fails
    # regardless of wall tolerance.
    old, new = _pair(sim=100.0, new_sim=100.001)
    assert diff_trajectories(old, new).exit_status() == 0
    report = diff_trajectories(old, new, fail_over_pct=50.0)
    assert report.sim_changes and not report.failures
    assert report.exit_status() == 1


# ----------------------------------------------------------------------
# structural problems
# ----------------------------------------------------------------------


def test_missing_bench_is_structural_error():
    old = BenchTrajectory()
    old.record("kept", sim_time=1.0, wall_s=1.0)
    old.record("renamed", sim_time=1.0, wall_s=1.0)
    new = BenchTrajectory()
    new.record("kept", sim_time=1.0, wall_s=1.0)
    new.record("brand_new", sim_time=1.0, wall_s=1.0)
    report = diff_trajectories(old, new)
    assert report.missing == ("renamed",)
    assert report.added == ("brand_new",)
    assert report.exit_status() == 2
    assert "MISSING" in report.render()


def test_cross_host_and_legacy_warnings():
    old, new = _pair()
    report = diff_trajectories(old, new)
    assert report.warnings == ()

    other = BenchTrajectory(host={"python": "3.12", "platform": "y"})
    other.record("bench", sim_time=100.0, wall_s=1.0)
    (warning,) = diff_trajectories(old, other).warnings
    assert "cross-host" in warning

    legacy = BenchTrajectory(schema=LEGACY_SCHEMA, host=None)
    legacy.record("bench", sim_time=100.0, wall_s=1.0)
    warnings = diff_trajectories(legacy, new).warnings
    assert any("schema versions differ" in w for w in warnings)
    assert any("no host fingerprint" in w for w in warnings)


@pytest.mark.parametrize("raw", [
    [],                                     # not an object
    {"schema": "repro-bench/99", "benches": {}},  # unknown version
    {"schema": SCHEMA},                     # no benches object
    {"b": {"wall_s": 1.0}},                 # entry missing sim_time
    {},                                     # empty flat object
])
def test_schema_mismatches_raise(raw):
    with pytest.raises(BenchSchemaError):
        BenchTrajectory.from_dict(raw)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "BENCH.json"
    path.write_text("not json {")
    with pytest.raises(BenchSchemaError, match="not JSON"):
        BenchTrajectory.load(path)


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------


def _write_pair(tmp_path, new_wall):
    old, new = _pair(old_wall=1.0, new_wall=new_wall)
    old_path, new_path = tmp_path / "OLD.json", tmp_path / "NEW.json"
    old.write(old_path)
    new.write(new_path)
    return str(old_path), str(new_path)


def test_cli_diff_exit_statuses(tmp_path, capsys):
    old_path, new_path = _write_pair(tmp_path, new_wall=1.25)
    assert main(["perf", "diff", old_path, new_path]) == 0  # report-only
    assert main(["perf", "diff", old_path, new_path,
                 "--fail-over", "20"]) == 1
    out = capsys.readouterr().out
    assert "past gate" in out

    clean_old, clean_new = _write_pair(tmp_path, new_wall=1.0)
    assert main(["perf", "diff", clean_old, clean_new,
                 "--fail-over", "20"]) == 0


def test_cli_diff_structural_errors(tmp_path, capsys):
    old_path, _ = _write_pair(tmp_path, new_wall=1.0)
    assert main(["perf", "diff", old_path,
                 str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["perf", "diff", old_path, str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_latest_checkpoint_is_the_highest_numbered(tmp_path):
    for name in ("BENCH_9.json", "BENCH_10.json", "BENCH_6.json",
                 "BENCH_run.json", "trajectory.json"):
        (tmp_path / name).write_text("{}")
    assert latest_checkpoint(tmp_path) == tmp_path / "BENCH_10.json"


def test_latest_checkpoint_needs_one(tmp_path):
    (tmp_path / "BENCH_x.json").write_text("{}")
    with pytest.raises(FileNotFoundError):
        latest_checkpoint(tmp_path)
