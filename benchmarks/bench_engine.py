"""Micro-benchmarks of the staged engine and simulator substrate.

Tracks the host-side cost of the reproduction's building blocks: a
single staged query, a shared group, and the raw simulator event loop.
"""

from conftest import wall_samples

from repro.engine import Engine, execute_reference
from repro.sim import Compute, Simulator
from repro.tpch.queries import build


def test_single_query_q6(benchmark, catalog, trajectory):
    query = build("q6", catalog)
    scanned = sum(1 for _ in catalog.table("lineitem").rows())

    def run():
        sim = Simulator(processors=8)
        engine = Engine(catalog, sim)
        handle = engine.execute(query.plan, "q6")
        sim.run()
        return handle, sim

    handle, sim = benchmark(run)
    assert handle.done
    assert len(handle.rows) == 1
    trajectory.record(
        "engine_q6",
        sim_time=sim.now,
        wall_samples=wall_samples(benchmark),
        rows=scanned,
        counters={"completions": len(sim.completions)},
        tolerance_pct=15.0,
    )


def test_single_query_q1(benchmark, catalog, trajectory):
    """Grouped aggregation: q1 folds eight aggregates per group."""
    query = build("q1", catalog)
    scanned = sum(1 for _ in catalog.table("lineitem").rows())

    def run():
        sim = Simulator(processors=8)
        engine = Engine(catalog, sim)
        handle = engine.execute(query.plan, "q1")
        sim.run()
        return handle, sim

    handle, sim = benchmark(run)
    assert handle.done
    assert len(query.plan.children[0].params["aggs"]) == 8
    assert handle.rows == execute_reference(query.plan, catalog)
    trajectory.record(
        "engine_q1",
        sim_time=sim.now,
        wall_samples=wall_samples(benchmark),
        rows=scanned,
        counters={"groups": len(handle.rows),
                  "completions": len(sim.completions)},
        tolerance_pct=15.0,
    )


def test_shared_group_q6(benchmark, catalog):
    query = build("q6", catalog)

    def run():
        sim = Simulator(processors=8)
        engine = Engine(catalog, sim)
        group = engine.execute_group(
            [query.plan] * 8, pivot_op_id=query.pivot,
            labels=[f"q6#{i}" for i in range(8)],
        )
        sim.run()
        return group

    group = benchmark(run)
    assert group.done


def test_join_query_q4(benchmark, catalog):
    query = build("q4", catalog)

    def run():
        sim = Simulator(processors=8)
        engine = Engine(catalog, sim)
        handle = engine.execute(query.plan, "q4")
        sim.run()
        return handle

    handle = benchmark(run)
    assert handle.done


def test_simulator_event_loop(benchmark):
    """Raw scheduler throughput: 64 tasks x 50 compute chunks."""

    def run():
        sim = Simulator(processors=8)

        def worker():
            for _ in range(50):
                yield Compute(1.0)

        for i in range(64):
            sim.spawn(worker(), name=f"w{i}")
        sim.run()
        return sim

    sim = benchmark(run)
    assert sim.now > 0
