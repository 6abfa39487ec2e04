"""The benchmark's workloads: inputs from a seed, one measured pass, checks.

Each workload has three parts:

* ``setup(seed, scale, timings)`` generates everything the program receives —
  a fresh TPC-H catalog (so every pass starts with a cold fused-page
  memo) and the seeded inputs (mix streams, arrival trace). This is
  the ``setup_s`` of the benchmark.
* ``measure(inputs)`` is one measured pass through the layer's public
  entry point. It returns the pass's simulated outputs (deterministic
  for a seed, so every pass of a run must produce the same ones), the
  number of simulated query executions it completed, and result rows
  to compare with ``execute_reference``.
* ``invariants(outputs)`` lists seed-independent checks on the outputs.

The catalog for workload seed ``s`` is generated with TPC-H seed
``2007 + s``: seed 0 is the database every figure driver uses.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.db import Database, RuntimeConfig
from repro.engine import Engine, execute_reference
from repro.experiments import common
from repro.policies import AlwaysShare, ModelGuidedPolicy, NeverShare
from repro.profiling import QueryProfiler
from repro.server import Arrival, QueueDepthBound, Server
from repro.sim.simulator import Simulator
from repro.storage.tenant_pool import TenantShare
from repro.tpch.generator import generate
from repro.tpch.queries import build
from repro.workload import WorkloadMix, run_closed_system

SCALE_FACTOR = 0.005
CATALOG_SEED = 2007
DEFAULT_SEED = 0


@dataclass
class Inputs:
    catalog: object
    queries: dict
    extra: dict = field(default_factory=dict)


@dataclass
class PassResult:
    outputs: dict
    queries: int
    # (query name, result rows) samples checked against the reference.
    rows: list = field(default_factory=list)


def _catalog(seed: int, scale: float, timings: dict):
    start = time.perf_counter()
    catalog = generate(scale_factor=scale, seed=CATALOG_SEED + seed)
    timings.setdefault("generate_s", []).append(time.perf_counter() - start)
    return catalog


def reference_rows(catalog, queries: dict) -> dict:
    """The oracle's answer for every query of the workload."""
    return {
        name: execute_reference(query.plan, catalog)
        for name, query in queries.items()
    }


def rows_match(got, want) -> bool:
    """Same row multiset, floats equal to 1e-9 relative.

    Elevator scans start at their attach offset, so rows reach an
    aggregate in another order and float sums may differ in the last
    bits; the comparison sorts and allows for that.
    """
    if list(got) == list(want):
        return True
    if len(got) != len(want):
        return False

    def order_key(row):
        return repr(tuple(f"{v:.6g}" if isinstance(v, float) else v
                          for v in row))

    for a, b in zip(sorted(got, key=order_key), sorted(want, key=order_key)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif x != y:
                return False
    return True


def shared_group_rows(catalog, queries: dict, members: int = 4) -> list:
    """Result rows of each query run as one shared group of ``members``
    on one processor: the engine path the batch protocol measures."""
    samples = []
    for name, query in queries.items():
        sim = Simulator(processors=1)
        engine = Engine(catalog, sim)
        group = engine.execute_group(
            [query.plan] * members, pivot_op_id=query.pivot,
            labels=[f"{name}#{i}" for i in range(members)],
        )
        sim.run()
        samples.extend((name, handle.rows) for handle in group.handles)
    return samples


# -- fig2_batch ---------------------------------------------------------

FIG2_QUERIES = ("q1", "q6", "q4", "q13")
FIG2_PROCESSORS = (1, 32)
FIG2_CLIENTS = (1, 4, 16)


def fig2_setup(seed: int, scale: float, timings: dict) -> Inputs:
    catalog = _catalog(seed, scale, timings)
    return Inputs(catalog, {name: build(name, catalog) for name in FIG2_QUERIES})


def fig2_measure(inputs: Inputs) -> PassResult:
    makespans: dict[str, float] = {}
    executions = [0]
    original = common.batch_makespan

    def recording(catalog, query, m, processors, shared, **kwargs):
        result = original(catalog, query, m, processors, shared, **kwargs)
        key = f"{query.name}@{processors}x{m}/{'shared' if shared else 'solo'}"
        makespans[key] = result
        executions[0] += m
        return result

    # speedup_series calls batch_makespan through the module global.
    common.batch_makespan = recording
    try:
        speedups = {
            f"{name}@{n}": list(
                common.speedup_series(inputs.catalog, name, n, FIG2_CLIENTS)
                .speedups
            )
            for name in FIG2_QUERIES
            for n in FIG2_PROCESSORS
        }
    finally:
        common.batch_makespan = original
    return PassResult({"makespans": makespans, "speedups": speedups},
                      executions[0])


def fig2_invariants(outputs: dict) -> list:
    makespans = outputs["makespans"]
    checks = [
        ("every cell measured",
         len(makespans) == 2 * len(FIG2_QUERIES) * len(FIG2_PROCESSORS)
         * len(FIG2_CLIENTS)),
        ("makespans positive", all(v > 0 for v in makespans.values())),
    ]
    for line, speedups in outputs["speedups"].items():
        for m, z in zip(FIG2_CLIENTS, speedups):
            unshared = makespans[f"{line}x{m}/solo"]
            shared = makespans[f"{line}x{m}/shared"]
            checks.append((f"{line}x{m} speedup is solo/shared",
                           z == unshared / shared))
            if m == 1:
                checks.append((f"{line} speedup of one client is 1", z == 1.0))
    return checks


# -- fig6_closed --------------------------------------------------------

FIG6_CLIENTS = 20
FIG6_PROCESSORS = 2
FIG6_STREAM_LENGTH = 512
# fig6's steady-state protocol at scale 0.001, stretched with the
# database like experiments.fig6 does.
FIG6_WARMUP = 200_000.0
FIG6_WINDOW = 800_000.0


class StreamMix(WorkloadMix):
    """A q1/q4 mix whose per-client streams are generated inputs.

    Each client's stream is a sequence of shuffled (q1, q4) pairs, so
    the mix is exactly 50/50 over every pair of submissions and the
    seed only changes the order; ``submitted`` counts every query the
    driver drew.
    """

    def __init__(self, streams: dict) -> None:
        super().__init__({"q1": 0.5, "q4": 0.5})
        self.streams = streams
        self.submitted = 0

    def stream(self, client_id: int):
        for name in self.streams[client_id]:
            self.submitted += 1
            yield name


def fig6_setup(seed: int, scale: float, timings: dict) -> Inputs:
    catalog = _catalog(seed, scale, timings)
    rng = random.Random(f"fig6_closed/{seed}")
    streams = {}
    for client in range(FIG6_CLIENTS):
        names = []
        for _ in range(FIG6_STREAM_LENGTH // 2):
            pair = ["q1", "q4"]
            rng.shuffle(pair)
            names.extend(pair)
        streams[client] = names
    stretch = scale / 0.001
    return Inputs(
        catalog,
        {name: build(name, catalog) for name in ("q1", "q4")},
        {"streams": streams, "warmup": FIG6_WARMUP * stretch,
         "window": FIG6_WINDOW * stretch},
    )


def fig6_measure(inputs: Inputs) -> PassResult:
    catalog = inputs.catalog
    profiler = QueryProfiler(catalog)
    specs = {}
    for name, query in inputs.queries.items():
        profile = profiler.profile(query.plan, query.pivot, label=name)
        specs[name] = (profile.to_query_spec(), query.pivot)
    outputs = {}
    completed = 0
    for policy in (AlwaysShare(), ModelGuidedPolicy(specs), NeverShare()):
        mix = StreamMix(inputs.extra["streams"])
        result = run_closed_system(
            catalog, policy, mix,
            n_clients=FIG6_CLIENTS, processors=FIG6_PROCESSORS,
            warmup=inputs.extra["warmup"], window=inputs.extra["window"],
        )
        # Every client keeps exactly one query outstanding at the end.
        completed += mix.submitted - FIG6_CLIENTS
        outputs[policy.name] = {
            "completions": result.completions,
            "by_query": dict(sorted(result.completions_by_query.items())),
            "throughput": result.throughput,
            "mean_response_time": result.mean_response_time,
            "shared_submissions": result.shared_submissions,
            "solo_submissions": result.solo_submissions,
            "submitted": mix.submitted,
        }
    return PassResult(outputs, completed)


def fig6_invariants(outputs: dict) -> list:
    checks = []
    for policy, cell in outputs.items():
        checks.append((f"{policy}: per-query completions add up",
                       sum(cell["by_query"].values()) == cell["completions"]))
        checks.append((f"{policy}: completions in the window",
                       cell["completions"] > 0))
        checks.append((f"{policy}: every submission routed",
                       cell["shared_submissions"] + cell["solo_submissions"]
                       == cell["submitted"]))
    checks.append(("never-share shares nothing",
                   outputs["never"]["shared_submissions"] == 0))
    return checks


# -- serve_open ---------------------------------------------------------

SERVE_MIX = {"q1": 10, "q6": 20, "q4": 10, "q13": 10}  # 0.2/0.4/0.2/0.2
SERVE_TENANTS = {"q1": "scan", "q6": "scan", "q4": "join", "q13": "join"}
# Simulated arrival horizon at scale 0.005: the mix's mean solo service
# time on the laptop stack is about 1.65e5, so 50 arrivals over 5.5e6
# offer about 0.75 of two processors' solo capacity.
SERVE_HORIZON = 5.5e6
SERVE_QUEUE_BOUND = 16
SERVE_CONFIG = RuntimeConfig.preset("laptop").with_(
    # Tenant partitions keep per-partition LRU order.
    pool_policy="lru",
    tenants=(
        TenantShare("scan", 160, ("lineitem",)),
        TenantShare("join", 64, ("orders", "customer")),
    ),
)


def serve_setup(seed: int, scale: float, timings: dict) -> Inputs:
    catalog = _catalog(seed, scale, timings)
    queries = {name: build(name, catalog) for name in SERVE_MIX}
    rng = random.Random(f"serve_open/{seed}")
    names = [name for name, count in SERVE_MIX.items() for _ in range(count)]
    rng.shuffle(names)
    horizon = SERVE_HORIZON * scale / SCALE_FACTOR
    # A Poisson stream conditioned on its count: the arrival instants
    # are sorted uniform draws over the horizon.
    instants = sorted(rng.uniform(0.0, horizon) for _ in names)
    arrivals = [
        Arrival(at=at, query=queries[name], tenant=SERVE_TENANTS[name])
        for at, name in zip(instants, names)
    ]
    return Inputs(catalog, queries,
                  {"arrivals": arrivals, "horizon": horizon})


def serve_measure(inputs: Inputs) -> PassResult:
    horizon = inputs.extra["horizon"]
    session = Database(inputs.catalog, SERVE_CONFIG).session()
    server = Server(session, admission=QueueDepthBound(SERVE_QUEUE_BOUND))
    report = server.serve_trace(inputs.extra["arrivals"], horizon=horizon,
                                drain=horizon)
    outputs = {
        "submitted": report.submitted,
        "admitted": report.admitted,
        "shed": report.shed,
        "completed": report.completed,
        "backlog": report.backlog,
        "goodput": report.goodput,
        "p50": report.latency.p50,
        "p99": report.latency.p99,
        "shared_submissions": report.shared_submissions,
        "solo_submissions": report.solo_submissions,
        "max_group_size": report.max_group_size,
        "sim_time": session.now,
        "tenants": {
            name: {
                "submitted": t.submitted,
                "completed": t.completed,
                "shed": t.shed,
                "backlog": t.backlog,
                "p99": t.latency.p99,
            }
            for name, t in sorted(report.tenants.items())
        },
    }
    rows = [(r.name, r.rows) for r in report.records
            if r.outcome == "completed"]
    return PassResult(outputs, report.completed, rows)


def serve_invariants(outputs: dict) -> list:
    tenants = outputs["tenants"].values()
    checks = [
        ("every arrival submitted",
         outputs["submitted"] == sum(SERVE_MIX.values())),
        ("conservation: submitted == completed + shed + backlog",
         outputs["submitted"]
         == outputs["completed"] + outputs["shed"] + outputs["backlog"]),
        ("tenants add up to the total",
         sum(t["submitted"] for t in tenants) == outputs["submitted"]
         and sum(t["completed"] for t in tenants) == outputs["completed"]
         and sum(t["shed"] for t in tenants) == outputs["shed"]),
    ]
    for name, t in outputs["tenants"].items():
        checks.append((
            f"tenant {name} conservation",
            t["submitted"] == t["completed"] + t["shed"] + t["backlog"],
        ))
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    measure: Callable
    invariants: Callable
    # Whether a pass returns its own result rows; otherwise the check
    # runs a shared group per query (shared_group_rows).
    own_rows: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2_batch", fig2_setup, fig2_measure, fig2_invariants),
        Workload("fig6_closed", fig6_setup, fig6_measure, fig6_invariants),
        Workload("serve_open", serve_setup, serve_measure, serve_invariants,
                 own_rows=True),
    )
}
