"""The four benchmark workloads, their seeded inputs and their oracles.

Every input is generated from ``--seed``.  Every answer the program gives
is checked against the benchmark's own computation: numpy brute force
over the benchmark's own copy of the vectors (:class:`Mirror`), with
predicates evaluated on the benchmark's own attribute arrays.  Nothing
here calls ``repro.bench`` or uses a ``repro`` index as ground truth.

A run is: a warm-up, ``Spec.setups`` timed set-ups (the last one is
kept), then whole read rounds and write rounds (see :class:`Spec`) until
``--seconds`` have passed.  Operations that an end-to-end metric rests
on (batch calls, rebuilds, checkpoints, front-door runs) happen many
times per run and the metric is their median.
"""

from __future__ import annotations

import contextlib
import gc
import math
import pathlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import Field, Observability, VectorDatabase
from repro.serving import ServingFrontDoor, ServingRequest, TenantSpec
from repro.storage import persist

from layers import LayerTracer, install, per_layer_metrics

K = 10
DIM = 32
ALLOCATOR_WARM_UP_BYTES = 16 * 2**20
#: Exact plans must equal the exact top-k; index plans meet a recall floor.
EXACT_STRATEGIES = frozenset({"brute_force", "pre_filter"})
#: Distance agreement between the program and the float64 oracle.
RTOL, ATOL = 1e-3, 1e-4

_clock = time.perf_counter

#: The fixed predicate mix of ``hybrid_filtered`` and ``churn``: label ->
#: (program predicate, the benchmark's own evaluation on its arrays).
#: Selectivities are over the attribute distributions in :func:`attributes`.
PREDICATES: dict[str, tuple[Any, Any]] = {
    "none": (None, None),
    "price<5": (Field("price") < 5.0, lambda a: a["price"] < 5.0),  # ~0.5%
    "category==7": (Field("category") == 7, lambda a: a["category"] == 7),  # ~2%
    "100<=price<200": (
        (Field("price") >= 100.0) & (Field("price") < 200.0),
        lambda a: (a["price"] >= 100.0) & (a["price"] < 200.0),
    ),  # ~10%
    "rating>=4": (Field("rating") >= 4, lambda a: a["rating"] >= 4),  # ~30%
    "price<800": (Field("price") < 800.0, lambda a: a["price"] < 800.0),  # ~80%
}
#: Query i uses MIX[i % 7].  Each label has its own latency, so with six
#: equal shares the median of a run's latencies would sit exactly on the
#: border between the third and fourth slowest label and jump between
#: them from run to run; with seven shares it falls inside one of them.
MIX = ("none", "price<5", "category==7", "100<=price<200", "rating>=4", "price<800", "none")


@dataclass(frozen=True)
class Spec:
    """One workload's make-up.

    Every workload runs the same two kinds of round, so that every
    end-to-end metric is measured on every workload: read rounds (single
    queries, a batch pass, front-door passes) for ``read_share`` of
    ``--seconds``, then write rounds (single-row writes, a rebuild, fresh
    queries, checkpoints) for the rest, at least ``min_write_rounds``.
    """

    name: str
    rows: int
    clusters: int
    index: str
    index_kwargs: dict[str, Any]
    queries: int
    attributes: bool
    recall_floor: float
    read_share: float
    min_write_rounds: int
    #: Timed set-ups per run: cheap set-ups get a median over many.
    setups: int
    #: query_p50/p90 time the queries between single-row writes instead
    #: of the read rounds' queries (churn: they are that workload's reads).
    write_latency: bool = False
    #: Reload checkpoints and check them against the mirror (cheap only
    #: where the index rebuilt at load is cheap).
    recover: bool = False


SPECS = {
    "graph_ann": Spec(
        "graph_ann", rows=1200, clusters=16, index="hnsw",
        index_kwargs=dict(m=12, ef_construction=48, ef_search=16),
        queries=1000, attributes=False, recall_floor=0.9,
        read_share=0.6, min_write_rounds=5, setups=3,
    ),
    "hybrid_filtered": Spec(
        "hybrid_filtered", rows=10000, clusters=40, index="ivf_adc",
        index_kwargs=dict(nlist=64, nprobe=12, m=8, ks=16, rerank=128,
                          layout="blocked"),
        queries=480, attributes=True, recall_floor=0.75,
        read_share=0.6, min_write_rounds=5, setups=5,
    ),
    "churn": Spec(
        "churn", rows=4000, clusters=20, index="ivf_flat",
        index_kwargs=dict(nlist=32, nprobe=6),
        queries=240, attributes=True, recall_floor=0.85,
        read_share=0.35, min_write_rounds=9, setups=15, write_latency=True,
        recover=True,
    ),
    "serving": Spec(
        "serving", rows=1500, clusters=16, index="hnsw",
        index_kwargs=dict(m=8, ef_construction=48, ef_search=16),
        queries=600, attributes=False, recall_floor=0.85,
        read_share=0.7, min_write_rounds=3, setups=3,
    ),
}

UNITS = {
    "setup_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
    "batch_qps": "queries/s", "recall_at_10": "fraction", "peak_rss_mb": "MB",
    "write_ops_per_s": "ops/s", "rebuild_s": "s", "checkpoint_s": "s",
    "served_rps": "requests/s",
}
#: Every workload reports every one of these (BENCHMARK.json's end_to_end).
METRICS = tuple(UNITS)

# Write round: WRITE_PAIRS x (insert, query, delete, query), a rebuild,
# FRESH_QUERIES on the fresh index, CHECKPOINTS successive save_database
# calls; with Spec.recover, every RECOVER_EVERY rounds a recovery.
WRITE_PAIRS = 60
WRITE_CHUNK = 10
#: Single queries per speed-scaled block of a read round, and queries
#: per batch_search call.
QUERY_CHUNK = 200
BATCH_CHUNK = 100
FRESH_QUERIES = 24
CHECKPOINTS = 6
PROBES = 8
RECOVER_EVERY = 3
#: Single queries per run that p90 needs (100 beyond it).
MIN_QUERIES = 1000

# serving: the open-loop trace and the tenants' contracts.
TRACE_SIZE = 240
SERVE_PASSES = 6
HOT_QUERIES = 24
HOT_SHARE = 0.4
BASE_RATE, BURST_RATE = 800.0, 6000.0
BURST = range(60, 180)
TENANTS = ("gold", "silver", "bronze")


class Speedometer:
    """A fixed numpy + interpreter loop that measures the machine's speed.

    The benchmark times it right before and right after every timed
    block -- a set-up, a chunk of QUERY_CHUNK queries or WRITE_CHUNK write
    pairs, a batch call, a front-door pass, a rebuild, a checkpoint --
    and scales the times taken in between by ``REFERENCE_S / mean(the two
    loop times)`` (rates by its inverse).  On a shared machine whose
    speed swings by up to 2x within seconds, the scaled times stay
    comparable between runs.  A change to the program cannot move the
    loop, which uses only numpy and the interpreter.
    """

    ITERATIONS = 100
    REFERENCE_S = 0.00107
    TIMES = ("setup_s", "query_s", "insert_s", "delete_s", "rebuild_s", "checkpoint_s")
    RATES = ("batch_qps", "served_rps")

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.block = rng.standard_normal((64, DIM)).astype(np.float32)
        self.factors: list[float] = []

    def loop_time(self) -> float:
        block, query = self.block, self.block[0]
        start = _clock()
        total = 0.0
        for _ in range(self.ITERATIONS):
            diff = block - query
            dist = np.einsum("ij,ij->i", diff, diff)
            order = np.argsort(dist, kind="stable")[:K]
            total += sum(sorted({int(i): float(dist[i]) for i in order}.values()))
        return _clock() - start

    def loop_median(self, loops: int) -> float:
        return statistics.median(self.loop_time() for _ in range(loops))

    @contextlib.contextmanager
    def scaled(self, samples: "Samples", loops: int = 1):
        """Scale the time and rate samples taken inside the block.

        Long blocks (set-ups, rebuilds) take the median of ``loops``
        loop times on each side, so one disturbed loop cannot skew them.
        """
        marks = {name: len(getattr(samples, name)) for name in self.TIMES + self.RATES}
        before = self.loop_median(loops)
        yield
        factor = self.REFERENCE_S / ((before + self.loop_median(loops)) / 2)
        self.factors.append(factor)
        for name, mark in marks.items():
            series = getattr(samples, name)
            scale = factor if name in self.TIMES else 1.0 / factor
            series[mark:] = [value * scale for value in series[mark:]]


class Violation(Exception):
    """The program's output disagrees with the benchmark's oracle."""


# ----------------------------------------------------------------- inputs


def clustered(rng: np.random.Generator, centers: np.ndarray, n: int) -> np.ndarray:
    """Gaussian-mixture rows around ``centers`` (unit-variance centers,
    0.35 spread), the shape on which graph and IVF indexes are usually
    benchmarked."""
    labels = rng.integers(0, centers.shape[0], n)
    noise = rng.standard_normal((n, centers.shape[1]))
    return (centers[labels] + 0.35 * noise).astype(np.float32)


def attributes(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """category uniform over 50 values, price uniform in [0, 1000) with
    cents, rating 1..5 with weights 0.1/0.2/0.4/0.2/0.1."""
    return {
        "category": rng.integers(0, 50, n),
        "price": np.round(rng.uniform(0.0, 1000.0, n), 2),
        "rating": rng.choice(np.arange(1, 6), n, p=[0.1, 0.2, 0.4, 0.2, 0.1]),
    }


def rows_of(attrs: dict[str, np.ndarray] | None, n: int) -> list[dict] | None:
    if attrs is None:
        return None
    cat, price, rating = attrs["category"], attrs["price"], attrs["rating"]
    return [
        {"category": int(cat[i]), "price": float(price[i]), "rating": int(rating[i])}
        for i in range(n)
    ]


# ----------------------------------------------------------------- oracle


class Mirror:
    """The benchmark's own copy of every row, tombstone and attribute."""

    def __init__(self, vectors: np.ndarray, attrs: dict[str, np.ndarray] | None):
        self.n = vectors.shape[0]
        capacity = self.n * 2
        self.vectors = np.zeros((capacity, vectors.shape[1]), dtype=np.float32)
        self.vectors[: self.n] = vectors
        self.alive = np.zeros(capacity, dtype=bool)
        self.alive[: self.n] = True
        self.attrs = None
        if attrs is not None:
            self.attrs = {}
            for name, column in attrs.items():
                grown = np.zeros(capacity, dtype=column.dtype)
                grown[: self.n] = column
                self.attrs[name] = grown
        self.version = 0

    def _grow(self) -> None:
        capacity = self.vectors.shape[0] * 2
        self.vectors = np.resize(self.vectors, (capacity, self.vectors.shape[1]))
        self.alive = np.concatenate([self.alive, np.zeros_like(self.alive)])
        if self.attrs is not None:
            for name, column in self.attrs.items():
                self.attrs[name] = np.concatenate([column, np.zeros_like(column)])

    def insert(self, vector: np.ndarray, row: dict | None) -> int:
        if self.n == self.vectors.shape[0]:
            self._grow()
        item = self.n
        self.vectors[item] = vector
        self.alive[item] = True
        if row is not None:
            for name, value in row.items():
                self.attrs[name][item] = value
        self.n += 1
        self.version += 1
        return item

    def delete(self, item: int) -> None:
        self.alive[item] = False
        self.version += 1

    def mask(self, label: str) -> np.ndarray:
        alive = self.alive[: self.n]
        fn = PREDICATES[label][1]
        if fn is None:
            return alive.copy()
        view = {name: col[: self.n] for name, col in self.attrs.items()}
        return alive & fn(view)

    def exact(self, query: np.ndarray, label: str) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k ids and float64 L2 distances under the predicate."""
        candidates = np.flatnonzero(self.mask(label))
        diff = self.vectors[candidates].astype(np.float64) - query
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.argsort(dist, kind="stable")[:K]
        return candidates[order], dist[order]

    def check(
        self,
        hits: list,
        query: np.ndarray,
        label: str,
        truth: tuple[np.ndarray, np.ndarray],
        exact: bool,
        where: str,
    ) -> float:
        """Check one answer; returns its tie-aware recall@k."""
        ids = np.fromiter((h.id for h in hits), dtype=np.int64, count=len(hits))
        dists = np.fromiter((h.distance for h in hits), dtype=np.float64, count=len(hits))
        if len(hits) > K:
            raise Violation(f"{where}: {len(hits)} hits for k={K}")
        if np.unique(ids).size != ids.size:
            raise Violation(f"{where}: duplicate ids {ids.tolist()}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise Violation(f"{where}: id out of range {ids.tolist()}")
        if not self.alive[ids].all():
            raise Violation(f"{where}: deleted id returned {ids[~self.alive[ids]].tolist()}")
        if not self.mask(label)[ids].all():
            raise Violation(f"{where}: id violates predicate {label!r}")
        if np.any(np.diff(dists) < -ATOL):
            raise Violation(f"{where}: hits not sorted by distance")
        diff = self.vectors[ids].astype(np.float64) - query
        true = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if not np.allclose(dists, true, rtol=RTOL, atol=ATOL):
            raise Violation(f"{where}: reported distances differ from recomputed L2")
        truth_ids, truth_d = truth
        want = truth_d.size
        if exact and (ids.size != want or not np.allclose(dists, truth_d, rtol=RTOL, atol=ATOL)):
            raise Violation(f"{where}: exact plan answer is not the exact top-{K}")
        if want == 0:
            return 1.0
        within = np.count_nonzero(true <= truth_d[-1] * (1 + RTOL) + ATOL)
        return min(int(within), want) / want


def strategy_of(plan_name: str) -> str:
    return plan_name.removeprefix("batch:").split()[0]


def quantiles(values: list[float]) -> tuple[float, float]:
    """Median and p90 (at least MIN_QUERIES samples: 100 beyond p90)."""
    ordered = np.sort(np.asarray(values))
    return float(np.median(ordered)), float(np.quantile(ordered, 0.9))


# ----------------------------------------------------------------- the run


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    batch_qps: list[float] = field(default_factory=list)
    recall: list[float] = field(default_factory=list)
    insert_s: list[float] = field(default_factory=list)
    delete_s: list[float] = field(default_factory=list)
    rebuild_s: list[float] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    served_rps: list[float] = field(default_factory=list)


class Run:
    """One workload run in this process."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool,
                 work_dir: pathlib.Path):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.checkpoint_dir = work_dir / "checkpoint"
        self.s = Samples()
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # seconds inside timed program calls
        self.tracer = LayerTracer() if trace else None
        self.serving_passes: list[dict[str, float]] = []
        self.speed = Speedometer()
        self.cursor = 0
        self.probes: list[tuple[int, list]] = []
        self.unrecovered = False
        self._generate()

    # ---------------------------------------------------------- inputs

    def _generate(self) -> None:
        spec = self.spec
        rng = np.random.default_rng([self.seed, 0])
        self.centers = rng.standard_normal((spec.clusters, DIM))
        self.base = clustered(rng, self.centers, spec.rows)
        attrs = attributes(rng, spec.rows) if spec.attributes else None
        self.base_rows = rows_of(attrs, spec.rows)
        self.mirror = Mirror(self.base, attrs)
        self.queries = clustered(rng, self.centers, spec.queries)
        self.labels = [MIX[i % len(MIX)] if spec.attributes else "none"
                       for i in range(spec.queries)]
        # Streams for the writes and the serving trace.
        self.write_rng = np.random.default_rng([self.seed, 1])
        self.trace_plan = self.make_trace(np.random.default_rng([self.seed, 2]))
        self._truth: dict[tuple[int, str], tuple] = {}
        self._truth_version = -1

    def truth(self, qi: int, label: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        label = self.labels[qi] if label is None else label
        if self._truth_version != self.mirror.version:
            self._truth = {}
            self._truth_version = self.mirror.version
        found = self._truth.get((qi, label))
        if found is None:
            found = self._truth[qi, label] = self.mirror.exact(self.queries[qi], label)
        return found

    def predicate(self, qi: int):
        return PREDICATES[self.labels[qi]][0]

    def make_trace(self, rng: np.random.Generator) -> list[tuple[str, int, float]]:
        """(tenant, query index, arrival seconds) for the open-loop trace."""
        now, cold, trace = 0.0, HOT_QUERIES, []
        for i in range(TRACE_SIZE):
            now += rng.exponential(1.0 / (BURST_RATE if i in BURST else BASE_RATE))
            tenant = TENANTS[int(rng.integers(len(TENANTS)))]
            if rng.random() < HOT_SHARE or cold >= len(self.labels):
                qi = int(rng.integers(HOT_QUERIES))
            else:
                qi, cold = cold, cold + 1
            trace.append((tenant, qi, now))
        return trace

    # ---------------------------------------------------------- set-up

    def build(self, rows: int | None = None, shift: int = 0) -> VectorDatabase:
        """A fresh database over the first ``rows`` base rows, inserted
        starting from row ``shift`` and wrapping around."""
        rows = self.spec.rows if rows is None else rows
        order = np.roll(np.arange(rows), -shift)
        db = VectorDatabase(dim=DIM)
        db.insert_many(
            self.base[order],
            None if self.base_rows is None else [self.base_rows[i] for i in order],
        )
        db.create_index("main", self.spec.index, **self.spec.index_kwargs)
        return db

    def setup(self) -> None:
        # glibc serves large blocks with mmap until a large free raises its
        # adaptive threshold; a long-running process gets there early.
        # Doing it here, untimed, keeps the per-row insert cost (a fresh
        # O(n) row-store copy per call) from depending on this process's
        # allocation history: without it, the insert times moved by 30%
        # between runs depending on which regime a run happened to be in.
        # The block is never touched, so it adds nothing to peak_rss_mb.
        np.empty(ALLOCATOR_WARM_UP_BYTES, dtype=np.uint8)
        self.build(rows=max(256, self.spec.rows // 10))  # warm-up, untimed
        # Each set-up inserts the same rows from another starting point:
        # k-means converges in a number of iterations that depends on the
        # order (12 to 23 on churn), so the median over the run's set-ups
        # does not hang on one order.  The last set-up, which the run
        # keeps, inserts in base order, so ids match the mirror.
        setups = 1 if self.trace else self.spec.setups
        for i in range(setups):
            self.db = None
            gc.collect()
            if self.trace:
                self.tracer.on = True
            with self.speed.scaled(self.s, loops=3):
                start = _clock()
                self.db = self.build(shift=(setups - 1 - i) * self.spec.rows // setups)
                self.s.setup_s.append(_clock() - start)
            self.attempted += 1
        if self.trace:
            self.tracer.on = False

    # ---------------------------------------------------------- timed calls

    def timed(self, fn, *args, **kwargs):
        start = _clock()
        result = fn(*args, **kwargs)
        elapsed = _clock() - start
        self.busy += elapsed
        self.attempted += 1
        return result, elapsed

    def search(self, qi: int, where: str, sample: bool = True):
        """One timed ``db.search``; checked; returns (hits, strategy)."""
        if self.tracer is not None:
            self.tracer.request += 1
        result, elapsed = self.timed(
            self.db.search, self.queries[qi], k=K, predicate=self.predicate(qi)
        )
        if sample:
            self.s.query_s.append(elapsed)
        strategy = strategy_of(result.stats.plan_name)
        recall = self.mirror.check(
            result.hits, self.queries[qi], self.labels[qi], self.truth(qi),
            exact=strategy in EXACT_STRATEGIES, where=f"{where} query {qi} ({strategy})",
        )
        if strategy not in EXACT_STRATEGIES:
            self.s.recall.append(recall)
        return result.hits, strategy

    def _next(self) -> int:
        qi = self.cursor % len(self.labels)
        self.cursor += 1
        return qi

    # ---------------------------------------------------------- read round

    def read_round(self, r: int) -> None:
        """Every query singly, all of them in a batch pass, SERVE_PASSES front-door passes."""
        singles = {}
        for chunk in range(0, len(self.labels), QUERY_CHUNK):
            with self.speed.scaled(self.s, loops=2):
                for qi in range(chunk, min(chunk + QUERY_CHUNK, len(self.labels))):
                    singles[qi] = self.search(
                        qi, f"read round {r}", sample=not self.spec.write_latency
                    )
        self.batch_pass(singles)
        for _ in range(SERVE_PASSES):
            with self.speed.scaled(self.s):
                self.serve_pass(self.trace_plan)

    def batch_pass(self, singles: dict[int, tuple[list, str]]) -> None:
        """Every query through ``db.batch_search``: one call per predicate
        and BATCH_CHUNK queries, each call its own speed-scaled block."""
        groups: dict[str, list[int]] = {}
        for qi, label in enumerate(self.labels):
            groups.setdefault(label, []).append(qi)
        calls = [
            (label, members[i:i + BATCH_CHUNK])
            for label, members in groups.items()
            for i in range(0, len(members), BATCH_CHUNK)
        ]
        for label, members in calls:
            if self.tracer is not None:
                self.tracer.request += 1
            with self.speed.scaled(self.s):
                start = _clock()
                results = self.db.batch_search(
                    self.queries[members], k=K, predicate=PREDICATES[label][0]
                )
                elapsed = _clock() - start
                self.s.batch_qps.append(len(members) / elapsed)
            self.busy += elapsed
            self.attempted += len(members)
            for qi, result in zip(members, results):
                strategy = strategy_of(result.stats.plan_name)
                where = f"batch query {qi} ({strategy})"
                recall = self.mirror.check(
                    result.hits, self.queries[qi], label, self.truth(qi),
                    exact=strategy in EXACT_STRATEGIES, where=where,
                )
                if strategy in EXACT_STRATEGIES:
                    continue
                self.s.recall.append(recall)
                single_hits, single_strategy = singles[qi]
                if single_strategy == strategy and [h.id for h in result.hits] != [
                    h.id for h in single_hits
                ]:
                    raise Violation(f"{where}: batch answer differs from the single-query answer")

    def serve_pass(self, plan: list[tuple[str, int, float]], sample: bool = True) -> None:
        """One fresh front door serving the trace ``plan``; checked."""
        tenants = [
            TenantSpec(name, qps=1e6, burst=1e6, max_inflight=64, max_queue=100_000,
                       priority=p, cache_capacity=256)
            for p, name in enumerate(TENANTS)
        ]
        requests = [
            ServingRequest(tenant, self.queries[qi], k=K, arrival_seconds=t)
            for tenant, qi, t in plan
        ]
        self.db.set_observability(Observability())
        door = ServingFrontDoor(self.db, tenants, workers=2, coalesce_max=16,
                                telemetry=True, window_seconds=0.02)
        gc.collect()
        t = self.tracer
        if t is not None:
            t.request += 1
            obs_before, spans_before = t.layer_self("observability"), t.counters["obs.spans"]
        start = _clock()
        responses = door.run(requests)
        elapsed = _clock() - start
        self.db.set_observability(None)
        self.busy += elapsed
        self.attempted += len(requests)
        if sample:
            self.s.served_rps.append(len(requests) / elapsed)
        report = door.report().totals
        if t is not None and t.on:
            duration, own, children = t.kept["serving.run"][-1]
            self.serving_passes.append({
                "self_s": own,
                "db_s": children.get("core", 0.0) + children.get("index", 0.0),
                "observability_s": t.layer_self("observability") - obs_before,
                "spans": t.counters["obs.spans"] - spans_before,
                **{key: report[key] for key in
                   ("mean_batch_size", "coalesced_fraction", "cache_hits", "requests")},
            })
        self.check_served(plan, requests, responses, report)

    def check_served(self, plan, requests, responses, report) -> None:
        if len(responses) != len(requests) or {id(r.request) for r in responses} != {
            id(r) for r in requests
        }:
            raise Violation("serving: not exactly one response per request")
        position = {id(r): i for i, r in enumerate(requests)}
        executed: dict[tuple[str, int], list] = {}
        for response in sorted(responses, key=lambda r: position[id(r.request)]):
            tenant, qi, _ = plan[position[id(response.request)]]
            where = f"serving request {tenant}/{qi} ({response.status})"
            if response.status not in ("ok", "cache_hit"):
                self.failed += 1
                continue
            self.s.recall.append(self.mirror.check(
                response.hits, self.queries[qi], "none", self.truth(qi, "none"),
                exact=False, where=where,
            ))
            answer = [(h.id, h.distance) for h in response.hits]
            # The cache holds the latest completed execution of the query;
            # executions of one query in different coalesced batches may
            # differ (approximate search), so a hit must equal one of them.
            if response.status == "ok":
                executed.setdefault((tenant, qi), []).append(answer)
            elif answer not in executed.get((tenant, qi), []):
                raise Violation(f"{where}: cache hit equals no execution of that query")
        if not (report["mean_batch_size"] > 1 and report["cache_hits"] > 0):
            raise Violation("serving: trace did not coalesce or hit the caches")

    # ---------------------------------------------------------- write round

    def write_round(self, r: int) -> None:
        """Single-row writes, a rebuild, fresh queries, checkpoints."""
        for _ in range(WRITE_PAIRS // WRITE_CHUNK):
            with self.speed.scaled(self.s):
                for _ in range(WRITE_CHUNK):
                    self._write_pair()
        gc.collect()
        with self.speed.scaled(self.s, loops=3):
            _, elapsed = self.timed(self.db.rebuild_indexes)
            self.s.rebuild_s.append(elapsed)
        self.probes = []
        with self.speed.scaled(self.s):
            for j in range(FRESH_QUERIES):
                qi = self._next()
                hits, _ = self.search(qi, f"fresh round {r}", sample=False)
                if j < PROBES:
                    self.probes.append((qi, hits))
        gc.collect()
        for _ in range(CHECKPOINTS):
            with self.speed.scaled(self.s):
                _, elapsed = self.timed(persist.save_database, self.db, self.checkpoint_dir)
                self.s.checkpoint_s.append(elapsed)
        self.unrecovered = True
        if self.spec.recover and r % RECOVER_EVERY == RECOVER_EVERY - 1:
            self.recover()

    def _write_pair(self) -> None:
        """One single-row insert and one delete, each followed by a query."""
        sample = self.spec.write_latency
        vector = clustered(self.write_rng, self.centers, 1)[0]
        row = None
        if self.spec.attributes:
            row = rows_of(attributes(self.write_rng, 1), 1)[0]
        item, elapsed = self.timed(self.db.insert, vector, row)
        self.s.insert_s.append(elapsed)
        if item != self.mirror.insert(vector, row):
            raise Violation(f"insert returned id {item}, expected {self.mirror.n - 1}")
        self.search(self._next(), "stale", sample)
        live = np.flatnonzero(self.mirror.alive[: self.mirror.n])
        victim = int(live[self.write_rng.integers(live.size)])
        _, elapsed = self.timed(self.db.delete, victim)
        self.s.delete_s.append(elapsed)
        self.mirror.delete(victim)
        self.search(self._next(), "stale", sample)

    def recover(self) -> None:
        """Reload the last checkpoint and check it against the mirror."""
        gc.collect()
        db, _ = self.timed(persist.load_database, self.checkpoint_dir)
        m, n = self.mirror, self.mirror.n
        col = db.collection
        if col.capacity != n or not np.array_equal(col.alive, m.alive[:n]):
            raise Violation("recovered live ids differ from the mirror")
        if not np.array_equal(col.vectors, m.vectors[:n]):
            raise Violation("recovered vectors differ from the mirror")
        for name, column in col.columns.items():
            if not np.array_equal(column, m.attrs[name][:n]):
                raise Violation(f"recovered attribute {name!r} differs from the mirror")
        for qi, expected in self.probes:
            got = db.search(self.queries[qi], k=K, predicate=self.predicate(qi)).hits
            if [(h.id, h.distance) for h in got] != [(h.id, h.distance) for h in expected]:
                raise Violation(f"probe {qi} after recovery differs from the checkpointed database")
        self.db = db
        self.unrecovered = False

    # ---------------------------------------------------------- running

    def warm_up(self) -> None:
        for qi in range(min(len(self.labels), 2 * len(MIX))):
            self.db.search(self.queries[qi], k=K, predicate=self.predicate(qi))
        self.db.batch_search(self.queries[:8], k=K)
        self.serve_pass(self.trace_plan, sample=False)

    def rounds(self, kind, seconds: float, at_least: int) -> int:
        """Whole rounds of ``kind`` until ``seconds`` have passed."""
        deadline = _clock() + seconds
        done = 0
        while done < at_least or _clock() < deadline:
            self.repeat(kind, 1)
            done += 1
        return done

    def repeat(self, kind, times: int) -> None:
        for _ in range(times):
            kind(self.next_round)
            self.next_round += 1

    def measure(self) -> float:
        """Run the rounds; returns the tracing overhead in percent (traced runs)."""
        spec = self.spec
        self.next_round = 0
        self.warm_up()
        gc.collect()
        min_reads = 1 if spec.write_latency else math.ceil(MIN_QUERIES / spec.queries)
        read_s = self.seconds * spec.read_share
        write_s = self.seconds - read_s
        if not self.trace:
            self.rounds(self.read_round, read_s, min_reads)
            self.rounds(self.write_round, write_s, spec.min_write_rounds)
            overhead = math.nan
        else:
            # Each kind of round untraced, then as many again traced, so
            # both halves see the same database state (reads come before
            # the first delete, as in an untraced run).
            untraced = traced = 0.0
            for kind, seconds, at_least in ((self.read_round, read_s / 2, 1),
                                            (self.write_round, write_s / 2, 1)):
                busy = self.busy
                done = self.rounds(kind, seconds, at_least)
                untraced += self.busy - busy
                self.tracer.on = True
                busy = self.busy
                self.repeat(kind, done)
                traced += self.busy - busy
                self.tracer.on = False
            overhead = (traced / untraced - 1.0) * 100.0
        if spec.recover and self.unrecovered:
            # The last checkpoint is reloaded and checked too (traced).
            if self.trace:
                self.tracer.on = True
            self.recover()
        if self.trace:
            self.tracer.on = False
        self.validate_floors()
        return overhead

    def validate_floors(self) -> None:
        recall = statistics.fmean(self.s.recall)
        if recall < self.spec.recall_floor:
            raise Violation(
                f"mean recall@{K} {recall:.3f} is below the floor {self.spec.recall_floor}"
            )
        if len(self.s.query_s) < MIN_QUERIES and not self.trace:
            raise Violation(f"only {len(self.s.query_s)} queries: p90 needs {MIN_QUERIES}")

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        s = self.s
        p50, p90 = quantiles(s.query_s)
        values = {
            "setup_s": statistics.median(s.setup_s),
            "query_p50_ms": p50 * 1e3,
            "query_p90_ms": p90 * 1e3,
            "batch_qps": statistics.median(s.batch_qps),
            "recall_at_10": statistics.fmean(s.recall),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # Medians of single-call times: one context switch inside a
            # 50-microsecond call cannot move them.
            "write_ops_per_s": 2.0 / (statistics.median(s.insert_s)
                                      + statistics.median(s.delete_s)),
            "rebuild_s": statistics.median(s.rebuild_s),
            "checkpoint_s": statistics.median(s.checkpoint_s),
            "served_rps": statistics.median(s.served_rps),
        }
        return {name: (values[name], UNITS[name]) for name in METRICS}

    def per_layer(self, overhead: float) -> dict[str, tuple[float, str]]:
        passes = self.serving_passes
        last = passes[-1]
        serving = {
            "self_s": statistics.median(p["self_s"] for p in passes),
            "db_s": statistics.median(p["db_s"] for p in passes),
            "observability_s": statistics.median(p["observability_s"] for p in passes),
            "spans_per_request": last["spans"] / last["requests"],
            "mean_batch_size": last["mean_batch_size"],
            "coalesced_fraction": last["coalesced_fraction"],
            "cache_hit_ratio": last["cache_hits"] / last["requests"],
        }
        size = sum(p.stat().st_size for p in self.checkpoint_dir.iterdir() if p.is_file())
        memory = sum(index.memory_bytes() for index in self.db.indexes.values())
        return per_layer_metrics(
            self.tracer, index_memory_bytes=memory,
            snapshot_bytes_per_row=size / self.db.collection.capacity,
            serving=serving, overhead_pct=overhead,
        )

    def execute(self) -> dict[str, Any]:
        if self.trace:
            install(self.tracer, type(VectorDatabase(dim=DIM).score))
        self.setup()
        overhead = self.measure()
        metrics = self.per_layer(overhead) if self.trace else self.end_to_end()
        print(f"{self.spec.name:16s} machine speed factor"
              f" {statistics.median(self.speed.factors):.4f} over {len(self.speed.factors)} blocks")
        if self.trace:
            self.tracer.write_spans(
                self.work_dir.parent / f"spans-{self.spec.name}-seed{self.seed}.jsonl"
            )
        return {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: pathlib.Path) -> dict[str, Any]:
    work_dir = work_root / f"run-{name}-{seed}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        return Run(SPECS[name], seed, seconds, trace, work_dir).execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
