"""Experiment harness: the runnable reproductions of §5's evaluation.

Each ``run_*`` function regenerates one table or figure at a
configurable scale and returns a structured result that both the pytest
benchmarks and the EXPERIMENTS.md record are produced from.  The scale
parameter trades fidelity for runtime; shapes (who wins, rough factors,
crossover locations) are stable across scales.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..apps.newp import NewpApp
from ..apps.social_graph import SocialGraph, generate_graph
from ..apps.twip import PequodTwipBackend, TIMELINE_JOIN, format_time
from ..apps.workload import (
    NewpWorkload,
    OP_POST,
    TwipWorkload,
    checks_and_posts_workload,
)
from ..baselines import (
    ClientPequodBackend,
    MemcacheLikeBackend,
    RedisLikeBackend,
    SqlViewBackend,
    TwipBackend,
)
from ..client import PequodClient, make_client
from ..core.server import PequodServer
from ..distrib.cluster import Cluster
from ..store.keys import prefix_upper_bound
from .costmodel import CostModel, DEFAULT_MODEL


class SystemRun:
    """One system's measurements for a comparison experiment."""

    def __init__(
        self,
        name: str,
        modeled_us: float,
        wall_s: float,
        counters: Dict[str, float],
    ) -> None:
        self.name = name
        self.modeled_us = modeled_us
        self.wall_s = wall_s
        self.counters = counters

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SystemRun {self.name}: {self.modeled_us:.0f}us>"


def _wall(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ======================================================================
# Figure 7: system comparison
# ======================================================================
def figure7_backends() -> Dict[str, Callable[[], TwipBackend]]:
    return {
        "pequod": lambda: PequodTwipBackend(),
        "redis": lambda: RedisLikeBackend(),
        "client pequod": lambda: ClientPequodBackend(),
        "memcached": lambda: MemcacheLikeBackend(),
        "postgresql": lambda: SqlViewBackend(),
    }


def run_figure7(
    n_users: int = 500,
    mean_follows: float = 15.0,
    total_ops: int = 12000,
    prepopulated_posts: Optional[int] = None,
    seed: int = 42,
    model: CostModel = DEFAULT_MODEL,
) -> List[SystemRun]:
    """Run the same Twip workload to completion on all five systems.

    Before measurement each backend is loaded with the social graph and
    a body of existing posts (log-follower weighted, §5.1) through its
    normal write path — logins must return "a list of many recent
    tweets", which is where architectures that re-ship whole timelines
    pay.

    Scale note: the paper ran 1.8M users and ~73M operations; at very
    small scales (a few hundred users) Pequod's fixed join-engine
    bookkeeping is not yet amortized and Redis can edge ahead.  From
    roughly 500 users / 12k operations upward the paper's ordering is
    stable (and widens with scale).
    """
    import random as _random

    graph = generate_graph(n_users, mean_follows, seed=seed)
    workload = TwipWorkload(graph, total_ops, seed=seed)
    ops = workload.generate()
    if prepopulated_posts is None:
        prepopulated_posts = n_users
    rng = _random.Random(seed + 1)
    weights = [graph.post_weight(u) for u in graph.users]
    pre_posts = [
        (rng.choices(graph.users, weights)[0], i)
        for i in range(prepopulated_posts)
    ]
    runs: List[SystemRun] = []
    for name, factory in figure7_backends().items():
        backend = factory()
        backend.load_graph(graph.edges)
        for poster, i in pre_posts:
            backend.post(poster, format_time(i), f"old tweet {i} from {poster}")
        backend.reset_meter()
        wall = _wall(lambda: workload.run(backend, ops=ops, load_graph=False))
        counters = backend.meter.snapshot()
        runs.append(SystemRun(name, model.runtime_us(counters), wall, counters))
    runs.sort(key=lambda r: r.modeled_us)
    return runs


# ======================================================================
# Figure 8: materialization strategies
# ======================================================================
def _twip_server(strategy: str) -> PequodServer:
    server = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
    if strategy == "none":
        # No materialization: recompute on every read, cache nothing.
        server.add_join(
            "t|<user>|<time>|<poster> = pull "
            "check s|<user>|<poster> copy p|<poster>|<time>"
        )
    else:
        server.add_join(TIMELINE_JOIN)
    return server


def run_figure8_point(
    graph: SocialGraph,
    strategy: str,
    active_pct: int,
    posts: int,
    seed: int = 7,
    model: CostModel = DEFAULT_MODEL,
) -> SystemRun:
    """One (strategy, %active) cell of Figure 8."""
    server = _twip_server(strategy)
    for follower, followee in graph.edges:
        server.put(f"s|{follower}|{followee}", "1")
    if strategy == "full":
        # Full materialization: every timeline computed and maintained
        # up front, active or not.
        for user in graph.users:
            server.scan(f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
    server.stats.reset()
    ops = checks_and_posts_workload(graph, active_pct, posts, seed=seed)
    tick = 0

    def drive() -> None:
        nonlocal tick
        for op in ops:
            tick += 1
            if op.kind == OP_POST:
                server.put(f"p|{op.user}|{format_time(tick)}", f"tweet {tick}")
            else:
                server.scan(f"t|{op.user}|", prefix_upper_bound(f"t|{op.user}|"))

    wall = _wall(drive)
    counters = server.stats.snapshot()
    return SystemRun(strategy, model.runtime_us(counters), wall, counters)


def run_figure8(
    n_users: int = 300,
    mean_follows: float = 10.0,
    posts: int = 600,
    active_pcts: Sequence[int] = (1, 10, 30, 50, 70, 90, 100),
    seed: int = 7,
    model: CostModel = DEFAULT_MODEL,
) -> Dict[str, List[SystemRun]]:
    graph = generate_graph(n_users, mean_follows, seed=seed)
    out: Dict[str, List[SystemRun]] = {"none": [], "full": [], "dynamic": []}
    for strategy in out:
        for pct in active_pcts:
            out[strategy].append(
                run_figure8_point(graph, strategy, pct, posts, seed=seed, model=model)
            )
    return out


# ======================================================================
# Figure 9: Newp interleaved vs non-interleaved joins
# ======================================================================
def run_figure9_point(
    interleaved: bool,
    vote_rate: float,
    scale: float = 1.0,
    seed: int = 9,
    model: CostModel = DEFAULT_MODEL,
) -> SystemRun:
    workload = NewpWorkload(
        n_articles=int(200 * scale),
        n_users=int(100 * scale),
        n_comments=int(2000 * scale),
        n_votes=int(4000 * scale),
        n_sessions=int(2000 * scale),
        vote_rate=vote_rate,
        seed=seed,
    )
    app = NewpApp(interleaved=interleaved)
    workload.prepopulate(app)
    wall = _wall(lambda: workload.run(app))
    counters = app.meter.snapshot()
    name = "interleaved" if interleaved else "non-interleaved"
    return SystemRun(name, model.runtime_us(counters), wall, counters)


def run_figure9(
    vote_rates: Sequence[float] = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
    scale: float = 1.0,
    seed: int = 9,
    model: CostModel = DEFAULT_MODEL,
) -> Dict[str, List[SystemRun]]:
    return {
        "interleaved": [
            run_figure9_point(True, rate, scale, seed, model) for rate in vote_rates
        ],
        "non-interleaved": [
            run_figure9_point(False, rate, scale, seed, model) for rate in vote_rates
        ],
    }


# ======================================================================
# Figure 10: distributed scalability
# ======================================================================
class ScalabilityPoint:
    """One cluster size's measurements (§5.5)."""

    def __init__(
        self,
        compute_servers: int,
        throughput_qps: float,
        base_memory: int,
        compute_memory: int,
        subscription_fraction: float,
    ) -> None:
        self.compute_servers = compute_servers
        self.throughput_qps = throughput_qps
        self.base_memory = base_memory
        self.compute_memory = compute_memory
        self.subscription_fraction = subscription_fraction


def run_figure10_point(
    compute_servers: int,
    n_users: int = 300,
    mean_follows: float = 10.0,
    total_ops: int = 6000,
    base_servers: int = 4,
    seed: int = 10,
    model: CostModel = DEFAULT_MODEL,
) -> ScalabilityPoint:
    """Run the fixed Twip workload on a cluster of the given size.

    Mirrors §5.5: base servers absorb writes, compute servers execute
    the timeline join, every user's reads go to one compute server, and
    caches are warmed by logging every user in before measurement.  The
    workload uses the §5.1 mix (timeline checks dominate; 9% new
    subscriptions; 1% posts, log-follower weighted) with incremental
    checks.  The measured bottleneck is compute-server CPU, so modeled
    runtime is the busiest compute server's modeled time and throughput
    is ops / that time.

    Sublinear scaling has the paper's cause: a popular poster's tweets
    are mirrored on — and applied by — every compute server with a
    subscribed reader, so total maintenance work grows with the server
    count while scan work divides across it.
    """
    graph = generate_graph(n_users, mean_follows, seed=seed)
    cluster = Cluster(base_servers, compute_servers, ("p", "s"), joins=TIMELINE_JOIN)
    for follower, followee in graph.edges:
        cluster.put(f"s|{follower}|{followee}", "1")
    # Warm: log every user in (§5.5 warms caches before measuring).
    for user in graph.users:
        cluster.scan(user, f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
    cluster.settle()
    for node in cluster.nodes:
        node.server.stats.reset()
    cluster.net.kind_bytes.clear()

    workload = TwipWorkload(graph, total_ops, active_fraction=1.0, seed=seed)
    ops = workload.generate()
    drive_twip_ops(
        ops,
        put=cluster.put,
        scan_timeline=lambda user, since: cluster.scan(
            user, f"t|{user}|{since}", prefix_upper_bound(f"t|{user}|")
        ),
        settle=cluster.settle,
    )

    busiest_us = max(
        model.runtime_us(node.server.stats.snapshot())
        for node in cluster.compute_nodes
    )
    runtime_s = max(busiest_us / 1e6, 1e-9)
    return ScalabilityPoint(
        compute_servers=compute_servers,
        throughput_qps=len(ops) / runtime_s,
        base_memory=cluster.base_memory_bytes(),
        compute_memory=cluster.compute_memory_bytes(),
        subscription_fraction=cluster.subscription_traffic_fraction(),
    )


def run_figure10(
    server_counts: Sequence[int] = (3, 6, 9, 12),
    **kwargs,
) -> List[ScalabilityPoint]:
    return [run_figure10_point(count, **kwargs) for count in server_counts]


# ======================================================================
# The shared Twip op-dispatch loop (used by the figure-10 runner and
# the backend matrix, so the two experiments drive one workload)
# ======================================================================
def drive_twip_ops(
    ops,
    put: Callable[[str, str], object],
    scan_timeline: Callable[[str, str], object],
    settle: Optional[Callable[[], object]] = None,
    settle_every: int = 100,
) -> None:
    """Dispatch a generated Twip op stream onto write/read callables.

    Posts and new subscriptions become puts; logins scan the whole
    timeline and incremental checks scan from the user's last seen
    time (§5.1).  ``settle``, when given, runs every ``settle_every``
    ticks and once at the end — bounding staleness on deployments
    with asynchronous propagation.
    """
    last_seen: Dict[str, str] = {}
    tick = 0
    for op in ops:
        tick += 1
        now = format_time(tick)
        if op.kind == OP_POST:
            put(f"p|{op.user}|{now}", f"tweet {tick} from {op.user}")
        elif op.kind == "subscribe":
            put(f"s|{op.user}|{op.target}", "1")
        else:  # login or incremental check
            since = (
                format_time(0) if op.kind == "login"
                else last_seen.get(op.user, format_time(0))
            )
            scan_timeline(op.user, since)
            last_seen[op.user] = now
        if settle is not None and tick % settle_every == 0:
            settle()
    if settle is not None:
        settle()


# ======================================================================
# Backend matrix: one workload, every deployment shape
# ======================================================================
def run_twip_backend(
    client: PequodClient,
    graph: SocialGraph,
    ops,
    settle_every: int = 50,
) -> Dict[str, object]:
    """Drive the Twip workload through ONE unified client.

    This is the point of the client API: the driver contains no
    backend-specific code — the same puts and scans run in-process,
    over TCP RPC, or against a simulated cluster.  ``settle_every``
    bounds cluster staleness during the run (a no-op elsewhere); a
    final settle plus full rescan yields the comparable output state.
    """
    client.add_join(TIMELINE_JOIN)
    graph.load_into(client)
    client.settle()
    start = time.perf_counter()
    drive_twip_ops(
        ops,
        put=client.put,
        scan_timeline=lambda user, since: client.scan(
            f"t|{user}|{since}", prefix_upper_bound(f"t|{user}|")
        ),
        settle=client.settle,
        settle_every=settle_every,
    )
    wall = time.perf_counter() - start
    # The observable output state: every timeline plus the base data,
    # all read back through the same unified API.
    state: List[Tuple[str, str]] = []
    for user in graph.users:
        state.extend(client.scan_prefix(f"t|{user}|"))
    state.extend(client.scan_prefix("p|"))
    state.extend(client.scan_prefix("s|"))
    return {"wall_s": wall, "ops_per_sec": len(ops) / max(wall, 1e-9),
            "state": state}


def run_twip_matrix(
    backends: Sequence[str] = ("local", "rpc", "cluster"),
    n_users: int = 60,
    mean_follows: float = 6.0,
    total_ops: int = 800,
    settle_every: int = 50,
    seed: int = 42,
) -> Dict[str, object]:
    """The acceptance experiment for the unified client API: the same
    deterministic Twip workload on every requested backend, asserting
    the final output state is identical everywhere.

    Absolute rates are not comparable across backends — "rpc" pays
    real TCP round trips per operation and "cluster" simulates several
    servers — which is exactly the deployment truth the paper's single
    abstraction hides from application code.
    """
    import hashlib

    graph = generate_graph(n_users, mean_follows, seed=seed)
    ops = TwipWorkload(graph, total_ops, seed=seed).generate()
    results: Dict[str, Dict[str, object]] = {}
    baseline_state: Optional[List[Tuple[str, str]]] = None
    state_identical = True
    for backend in backends:
        with make_client(
            backend,
            subtable_config={"t": 2, "p": 2, "s": 2},
            base_tables=("p", "s"),
        ) as client:
            run = run_twip_backend(client, graph, ops, settle_every)
        state = run.pop("state")
        digest = hashlib.sha256(repr(state).encode()).hexdigest()
        if baseline_state is None:
            baseline_state = state
        elif state != baseline_state:
            state_identical = False
        run["state_sha256"] = digest
        run["keys"] = len(state)
        results[backend] = run
    return {
        "workload": {
            "n_users": n_users,
            "mean_follows": mean_follows,
            "total_ops": total_ops,
            "settle_every": settle_every,
            "seed": seed,
        },
        "backends": results,
        "state_identical": state_identical,
    }


# ======================================================================
# Read path: the §4 lookup-path overhaul, layer by layer
# ======================================================================
#: Read-heavy §5.1-style mix: timeline scans carry the run — 12% full
#: logins (the "list of many recent tweets"), 85.5% incremental checks,
#: and only 2.5% writes, so the lookup path is what is measured.
READ_HEAVY_MIX = (
    ("login", 0.12),
    ("subscribe", 0.005),
    ("check", 0.855),
    (OP_POST, 0.02),
)

#: The cumulative optimization layers of the read-path overhaul, applied
#: in the order they stack: compiled patterns (match/expand without
#: regex or split), the engine's validation memo (§4.2's hint idea
#: applied to status-range validation), the batched scan loop, and the
#: blocked sorted-array store.  ``baseline`` reproduces the pre-overhaul
#: read path faithfully (rbtree store, uncompiled patterns, no memo,
#: legacy per-item scan loop).
READ_PATH_CONFIGS = (
    ("baseline", {}),
    ("+compiled-patterns", {"compiled": True}),
    ("+validation-memo", {"compiled": True, "memo": True}),
    ("+batched-scan", {"compiled": True, "memo": True, "fast_scan": True}),
    (
        "+sortedarray-store",
        {
            "compiled": True,
            "memo": True,
            "fast_scan": True,
            "store_impl": "sortedarray",
        },
    ),
)


def run_pattern_micro(rounds: int = 200) -> Dict[str, object]:
    """Compiled vs reference pattern operations, in matches/second.

    The compiled paths pay off on the *compute* side of reads (login
    materialization, pending application, updater fires) where the
    macro benchmark mixes them with scan work; this isolates them.
    """
    from ..core.pattern import Pattern

    variable = Pattern("t|<user>|<time>|<poster>")
    fixed = Pattern("p|<poster>|<time:8>")
    var_keys = [f"t|user{i % 97:03d}|{i:08d}|poster{i % 13}" for i in range(1000)]
    fix_keys = [f"p|poster{i % 13}|{i:08d}" for i in range(1000)]

    def rate(fn, keys) -> float:
        start = time.process_time()
        for _ in range(rounds):
            for key in keys:
                fn(key)
        return rounds * len(keys) / max(time.process_time() - start, 1e-9)

    out: Dict[str, object] = {}
    for name, pattern, keys in (
        ("variable_width", variable, var_keys),
        ("fixed_width", fixed, fix_keys),
    ):
        compiled = rate(pattern.match, keys)
        reference = rate(pattern.match_reference, keys)
        out[name] = {
            "compiled_per_sec": compiled,
            "reference_per_sec": reference,
            "speedup": compiled / reference,
        }
    return out


def run_read_path(
    n_users: int = 400,
    mean_follows: float = 12.0,
    total_ops: int = 20000,
    prepopulated_posts: Optional[int] = None,
    seed: int = 13,
    repeats: int = 2,
    model: CostModel = DEFAULT_MODEL,
    configs: Sequence[Tuple[str, Dict[str, object]]] = READ_PATH_CONFIGS,
) -> Dict[str, object]:
    """The read-heavy Twip scan workload across the overhaul's layers.

    Before measurement every server is loaded with the social graph and
    a body of existing posts (log-follower weighted, as in Figure 7) and
    every timeline is materialized, so logins return "a list of many
    recent tweets" and incremental checks — the 85.5% case — exercise
    the warm lookup path the paper's §4 engineers.  CPU time is measured
    (the read path is pure computation; wall clock would mostly measure
    machine load), and the final observable state — every timeline plus
    the base tables — is asserted byte-identical across all
    configurations: the benchmark doubles as an equivalence check for
    the compiled pattern paths and both store implementations.
    """
    import gc as _gc
    import random as _random

    from ..core.pattern import set_pattern_compilation

    graph = generate_graph(n_users, mean_follows, seed=seed)
    ops = TwipWorkload(graph, total_ops, mix=READ_HEAVY_MIX, seed=seed).generate()
    if prepopulated_posts is None:
        prepopulated_posts = 12 * n_users
    rng = _random.Random(seed + 1)
    weights = [graph.post_weight(u) for u in graph.users]
    pre_posts = [
        (rng.choices(graph.users, weights)[0], i)
        for i in range(prepopulated_posts)
    ]
    #: Per-user timeline bounds, precomputed once — client-side caching
    #: the driver applies identically to every configuration.
    timeline_lo = {u: f"t|{u}|" for u in graph.users}
    timeline_hi = {u: prefix_upper_bound(f"t|{u}|") for u in graph.users}

    def build_server(cfg: Dict[str, object]) -> PequodServer:
        server = PequodServer(
            subtable_config={"t": 2, "p": 2, "s": 2},
            store_impl=cfg.get("store_impl", "rbtree"),
        )
        server.engine.enable_validation_memo = bool(cfg.get("memo", False))
        server.store.legacy_read_path = not cfg.get("fast_scan", False)
        server.add_join(TIMELINE_JOIN)
        for follower, followee in graph.edges:
            server.put(f"s|{follower}|{followee}", "1")
        for poster, i in pre_posts:
            server.put(f"p|{poster}|{format_time(i)}",
                       f"old tweet {i} from {poster}")
        for user in graph.users:
            server.scan(timeline_lo[user], timeline_hi[user])
        server.stats.reset()
        return server

    def snapshot(server: PequodServer) -> List[Tuple[str, str]]:
        state: List[Tuple[str, str]] = []
        for user in graph.users:
            state.extend(server.scan(timeline_lo[user], timeline_hi[user]))
        state.extend(server.scan("p|", "p}"))
        state.extend(server.scan("s|", "s}"))
        return state

    points: List[Dict[str, float]] = []
    baseline_state: Optional[List[Tuple[str, str]]] = None
    baseline_rate: Optional[float] = None
    state_identical = True
    for name, cfg in configs:
        previous = set_pattern_compilation(bool(cfg.get("compiled", False)))
        try:
            # Best of ``repeats`` fresh runs: CPU time is steady, but
            # best-of damps scheduler and cache noise that would
            # otherwise dominate the between-layer deltas.
            cpu = None
            for _ in range(max(1, repeats)):
                server = build_server(cfg)
                scan = server.scan
                _gc.collect()
                cpu_start = time.process_time()
                drive_twip_ops(
                    ops,
                    put=server.put,
                    scan_timeline=lambda user, since: scan(
                        f"t|{user}|{since}", timeline_hi[user]
                    ),
                )
                elapsed = time.process_time() - cpu_start
                cpu = elapsed if cpu is None else min(cpu, elapsed)
            # Counters describe the measured op stream only — captured
            # before the verification snapshot re-scans everything.
            counters = server.stats.snapshot()
            state = snapshot(server)
        finally:
            set_pattern_compilation(previous)
        if baseline_state is None:
            baseline_state = state
        elif state != baseline_state:
            state_identical = False
        rate = len(ops) / max(cpu, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        points.append(
            {
                "config": name,
                "cpu_s": cpu,
                "ops_per_sec": rate,
                "speedup": rate / baseline_rate,
                "modeled_us": model.runtime_us(counters),
                "scanned_items": counters.get("scanned_items", 0.0),
                "validation_memo_hits": counters.get("validation_memo_hits", 0.0),
            }
        )
    return {
        "workload": {
            "n_users": n_users,
            "mean_follows": mean_follows,
            "total_ops": total_ops,
            "prepopulated_posts": prepopulated_posts,
            "mix": {kind: weight for kind, weight in READ_HEAVY_MIX},
            "repeats": repeats,
            "seed": seed,
        },
        "points": points,
        "pattern_micro": run_pattern_micro(),
        "state_identical": state_identical,
        "speedup_full": points[-1]["speedup"] if points else 0.0,
    }


# ======================================================================
# Write batching: throughput at high write rates
# ======================================================================
def run_write_batching(
    n_users: int = 400,
    mean_follows: float = 12.0,
    posts: int = 4096,
    batch_sizes: Sequence[int] = (1, 8, 32, 128),
    edit_fraction: float = 0.35,
    edit_window: int = 8,
    seed: int = 11,
    model: CostModel = DEFAULT_MODEL,
) -> Dict[str, object]:
    """Per-key writes vs ``WriteBatch`` on the high-write Twip workload.

    Every fully-warmed timeline makes each post fan out to its
    followers, so the write path dominates: this is the regime where
    update cost eats the freshness budget and grouping writes pays.
    The stream is log-follower-weighted posts with ``edit_fraction``
    of writes rewriting one of the last ``edit_window`` posts — the
    edit/metadata-update bursts of a write-heavy feed.  Batching wins
    two ways: per-write overheads (interval-tree stab, status-range
    resolution per updater firing) amortize across the group, and a
    post superseded within its batch coalesces away, skipping its
    per-follower fan-out entirely.  The same stream is applied once
    per batch size; batch size 1 is the per-key baseline.  Output
    state is asserted identical across batch sizes — the benchmark
    doubles as an end-to-end coalescing-correctness check.
    """
    import gc as _gc
    import random as _random

    graph = generate_graph(n_users, mean_follows, seed=seed)
    rng = _random.Random(seed + 1)
    weights = [graph.post_weight(u) for u in graph.users]
    stream: List[Tuple[str, str]] = []
    recent: List[str] = []
    for tick in range(posts):
        if recent and rng.random() < edit_fraction:
            key = rng.choice(recent[-edit_window:])
            stream.append((key, f"edited at {tick}"))
        else:
            poster = rng.choices(graph.users, weights)[0]
            key = f"p|{poster}|{format_time(tick)}"
            stream.append((key, f"tweet {tick} from {poster}"))
            recent.append(key)

    def build_server() -> PequodServer:
        server = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
        server.add_join(TIMELINE_JOIN)
        for follower, followee in graph.edges:
            server.put(f"s|{follower}|{followee}", "1")
        for user in graph.users:
            server.scan(f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
        server.stats.reset()
        return server

    def snapshot(server: PequodServer) -> List[Tuple[str, str]]:
        return server.scan("t|", "t}") + server.scan("p|", "p}")

    points: List[Dict[str, float]] = []
    baseline_state: Optional[List[Tuple[str, str]]] = None
    baseline_rate: Optional[float] = None
    state_identical = True
    for size in batch_sizes:
        server = build_server()
        coalesced = 0

        def drive() -> None:
            nonlocal coalesced
            if size <= 1:
                for key, value in stream:
                    server.put(key, value)
                return
            for start in range(0, len(stream), size):
                batch = server.write_batch()
                batch.update(stream[start : start + size])
                batch.apply()
                coalesced += batch.coalesced_ops

        # CPU time, not wall: the write path is pure computation, and
        # process time is robust to machine load, which would otherwise
        # dominate the few-percent-to-2x differences measured here.
        _gc.collect()
        cpu_start = time.process_time()
        drive()
        cpu = time.process_time() - cpu_start
        state = snapshot(server)
        if baseline_state is None:
            baseline_state = state
        elif state != baseline_state:
            state_identical = False
        rate = len(stream) / max(cpu, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        counters = server.stats.snapshot()
        points.append(
            {
                "batch_size": size,
                "cpu_s": cpu,
                "ops_per_sec": rate,
                "speedup": rate / baseline_rate,
                "modeled_us": model.runtime_us(counters),
                "coalesced_ops": float(coalesced),
                "updater_groups_fired": counters.get("updater_groups_fired", 0.0),
                "updaters_fired": counters.get("updaters_fired", 0.0),
            }
        )
    return {
        "workload": {
            "n_users": n_users,
            "mean_follows": mean_follows,
            "posts": posts,
            "edit_fraction": edit_fraction,
            "edit_window": edit_window,
            "seed": seed,
        },
        "points": points,
        "state_identical": state_identical,
    }


# ======================================================================
# Write path: compiled execution plans at celebrity fan-out
# ======================================================================
WRITE_PATH_CONFIGS = (
    ("reference", {}),
    ("+exec-plans", {"plans": True}),
    ("+whole-table-validity", {"plans": True, "fastpath": True}),
)


def run_write_path(
    fan_out: int = 10000,
    rounds: int = 8,
    batch_size: int = 8,
    pre_posts: int = 4,
    repeats: int = 2,
    seed: int = 17,
    model: CostModel = DEFAULT_MODEL,
    configs: Sequence[Tuple[str, Dict[str, object]]] = WRITE_PATH_CONFIGS,
) -> Dict[str, object]:
    """The celebrity problem: write-side maintenance at high fan-out.

    One celebrity with ``fan_out`` followers, every follower timeline
    materialized, so each celebrity post fires one eager updater per
    follower — the per-fire interpretation cost the compiled write path
    (``core.plan``) removes.  Each measured round writes one single
    post (the per-key fire path), one ``batch_size`` post batch (the
    grouped fire path with batched ``install_many`` output runs), and
    two cross-timeline scans over a ~100-timeline window (the
    validation cost the whole-table fast path removes once the cover
    is quiescent).

    Configurations layer the tentpole: the interpreted reference
    (``set_plan_compilation(False)``), compiled execution plans, and
    plans plus the whole-table validity fast path.  CPU time is
    measured best-of-``repeats`` on fresh servers; the final store
    state (every timeline plus base tables) must be byte-identical —
    the benchmark doubles as the plan-vs-interpreter equivalence
    oracle, and the JSON records the sha256 of the state each config
    produced.
    """
    import gc as _gc
    import hashlib as _hashlib

    from ..core.plan import set_plan_compilation

    celebrity = "celeb"
    followers = [f"u{i:05d}" for i in range(fan_out)]
    scan_lo = "t|u000"
    scan_hi = prefix_upper_bound(scan_lo)
    posts_per_round = 1 + batch_size
    total_posts = rounds * posts_per_round

    def build_server() -> PequodServer:
        server = PequodServer(subtable_config={"t": 2, "p": 2, "s": 2})
        server.add_join(TIMELINE_JOIN)
        for follower in followers:
            server.put(f"s|{follower}|{celebrity}", "1")
        for i in range(pre_posts):
            server.put(
                f"p|{celebrity}|{format_time(i)}", f"warm tweet {i}"
            )
        for follower in followers:
            server.scan(f"t|{follower}|", prefix_upper_bound(f"t|{follower}|"))
        # One warm cross-timeline scan tiles the gaps between follower
        # timelines, so the timed scans see a contiguous cover (the
        # precondition for whole-table validity) in every config.
        server.scan("t|", "t}")
        server.stats.reset()
        return server

    def drive(server: PequodServer) -> None:
        tick = pre_posts
        for _ in range(rounds):
            server.put(
                f"p|{celebrity}|{format_time(tick)}", f"tweet {tick}"
            )
            tick += 1
            batch = server.write_batch()
            batch.update(
                [
                    (f"p|{celebrity}|{format_time(tick + j)}", f"tweet {tick + j}")
                    for j in range(batch_size)
                ]
            )
            batch.apply()
            tick += batch_size
            server.scan(scan_lo, scan_hi)
            server.scan(scan_lo, scan_hi)

    def snapshot(server: PequodServer) -> str:
        state = (
            server.scan("t|", "t}")
            + server.scan("p|", "p}")
            + server.scan("s|", "s}")
        )
        return _hashlib.sha256(repr(state).encode()).hexdigest()

    points: List[Dict[str, object]] = []
    baseline_digest: Optional[str] = None
    baseline_rate: Optional[float] = None
    state_identical = True
    for name, cfg in configs:
        previous = set_plan_compilation(bool(cfg.get("plans", False)))
        try:
            cpu = None
            for _ in range(max(1, repeats)):
                server = build_server()
                server.engine.enable_whole_table_fastpath = bool(
                    cfg.get("fastpath", False)
                )
                _gc.collect()
                cpu_start = time.process_time()
                drive(server)
                elapsed = time.process_time() - cpu_start
                cpu = elapsed if cpu is None else min(cpu, elapsed)
            counters = server.stats.snapshot()
            digest = snapshot(server)
        finally:
            set_plan_compilation(previous)
        if baseline_digest is None:
            baseline_digest = digest
        elif digest != baseline_digest:
            state_identical = False
        rate = total_posts / max(cpu, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        points.append(
            {
                "config": name,
                "cpu_s": cpu,
                "ops_per_sec": rate,
                "speedup": rate / baseline_rate,
                "modeled_us": model.runtime_us(counters),
                "state_sha256": digest,
                "updaters_fired": counters.get("updaters_fired", 0.0),
                "write_plan_fires": counters.get("write_plan_fires", 0.0),
                "write_batched_installs": counters.get(
                    "write_batched_installs", 0.0
                ),
                "write_whole_table_fastpath_hits": counters.get(
                    "write_whole_table_fastpath_hits", 0.0
                ),
                "hint_hits": counters.get("hint_hits", 0.0),
            }
        )
    return {
        "workload": {
            "fan_out": fan_out,
            "rounds": rounds,
            "batch_size": batch_size,
            "pre_posts": pre_posts,
            "total_posts": total_posts,
            "repeats": repeats,
            "seed": seed,
        },
        "points": points,
        "state_identical": state_identical,
        "speedup_plans": points[1]["speedup"] if len(points) > 1 else 0.0,
        "speedup_full": points[-1]["speedup"] if points else 0.0,
        "whole_table_fastpath_hits": (
            points[-1]["write_whole_table_fastpath_hits"] if points else 0.0
        ),
    }


# ======================================================================
# Concurrency: pipelined async client vs one-outstanding-request sync
# ======================================================================
def run_concurrency(
    total_ops: int = 2000,
    depths: Sequence[int] = (1, 4, 8, 32),
    n_keys: int = 256,
    value_size: int = 32,
    repeats: int = 3,
) -> Dict[str, object]:
    """Throughput vs. number of outstanding pipelined requests (§5.1).

    The paper's clients "are event-driven processes that keep many
    RPCs outstanding"; this experiment measures why.  A real RPC
    server runs on its own thread (its own event loop, genuine TCP).
    The *baseline* drives it the way a strictly synchronous client
    must — one blocking call at a time, one request outstanding —
    while the async client keeps windows of ``depth`` requests in
    flight on one pipelined connection (every frame written before any
    response is awaited, one drain per window).  Deeper windows
    amortize syscalls, thread wakeups, and framing across the batch
    the server reads at once.

    Returns per-depth throughput plus the speedup over the sync
    baseline, best-of-``repeats`` per configuration.  Correctness is
    asserted inside the run: after every configuration the store must
    hold exactly the workload's final state.
    """
    import asyncio

    from ..net.rpc_client import RpcClient, SyncRpcClient
    from ..net.rpc_server import ThreadedRpcService

    value = "v" * value_size
    calls: List[Tuple[str, List[object]]] = []
    for i in range(total_ops):
        key = f"p|u{i % n_keys:04d}|{(i // n_keys) % 4:04d}"
        if i % 8 == 0:
            calls.append(("put", [key, f"{value}{i % n_keys}"]))
        else:
            calls.append(("get", [key]))
    expected_keys = len({args[0] for method, args in calls if method == "put"})

    def check_state(count: int, label: str) -> None:
        assert count == expected_keys, (
            f"{label}: {count} keys stored, expected {expected_keys}"
        )

    def run_sync_baseline() -> float:
        service = ThreadedRpcService(PequodServer())
        try:
            client = SyncRpcClient("127.0.0.1", service.port)
            try:
                start = time.perf_counter()
                for method, args in calls:
                    client.call(method, *args)
                elapsed = time.perf_counter() - start
                check_state(client.count("p|", "p}"), "sync baseline")
                return elapsed
            finally:
                client.close()
        finally:
            service.stop()

    async def drive(port: int, depth: int) -> float:
        client = RpcClient("127.0.0.1", port)
        await client.connect()
        try:
            start = time.perf_counter()
            await client.call_windowed(calls, depth)
            elapsed = time.perf_counter() - start
            check_state(
                await client.call("count", "p|", "p}"), f"depth {depth}"
            )
            return elapsed
        finally:
            await client.close()

    def run_pipelined(depth: int) -> float:
        service = ThreadedRpcService(PequodServer())
        try:
            loop = asyncio.new_event_loop()
            try:
                return loop.run_until_complete(drive(service.port, depth))
            finally:
                loop.close()
        finally:
            service.stop()

    baseline_s = min(run_sync_baseline() for _ in range(repeats))
    baseline_rate = total_ops / max(baseline_s, 1e-9)
    points: List[Dict[str, float]] = []
    for depth in depths:
        best = min(run_pipelined(depth) for _ in range(repeats))
        rate = total_ops / max(best, 1e-9)
        points.append(
            {
                "depth": depth,
                "wall_s": best,
                "ops_per_sec": rate,
                "speedup": rate / baseline_rate,
            }
        )
    return {
        "workload": {
            "total_ops": total_ops,
            "n_keys": n_keys,
            "value_size": value_size,
            "repeats": repeats,
            "op_mix": "1:7 put:get",
        },
        "baseline": {"wall_s": baseline_s, "ops_per_sec": baseline_rate},
        "points": points,
        "max_speedup": max(p["speedup"] for p in points),
    }


# ======================================================================
# Overload: shed vs bounded-staleness degrade under a forced burst
# ======================================================================
def run_overload(
    n_users: int = 300,
    mean_follows: float = 10.0,
    ops: int = 6000,
    write_fraction: float = 0.2,
    follow_fraction: float = 0.1,
    max_staleness: float = 5.0,
    seed: int = 23,
    model: CostModel = DEFAULT_MODEL,
) -> Dict[str, object]:
    """Admission-control modes under a synthetic overload burst.

    The same post + timeline-read stream runs three times — no policy,
    ``shed``, and ``degrade`` with a ``max_staleness`` bound — with the
    admission controller force-overloaded in pulses across the middle
    half of the stream (overload arrives in waves, not one long
    plateau).  Shedding turns pulsed operations into immediate
    ``OverloadError``s (the client sees fast failure instead of an
    unbounded queue); degrade keeps serving reads from status ranges
    younger than the bound, skipping revalidation, while still
    shedding writes.  Writes that land *between* pulses invalidate
    timelines, so the next pulse has genuinely stale ranges to serve —
    the regime the policy exists for.  The run reports what each mode
    did with the burst (served / shed / served-stale) and the
    throughput effect, and asserts the degrade mode's observed
    staleness never exceeded the configured bound — the same invariant
    the chaos tests enforce.
    """
    import random as _random

    from ..core.load import OverloadError, OverloadPolicy

    graph = generate_graph(n_users, mean_follows, seed=seed)
    rng = _random.Random(seed + 1)
    weights = [graph.post_weight(u) for u in graph.users]
    # Posts are eager (the copy source fans out immediately); follow
    # churn hits the lazy check source, leaving pending-log entries the
    # next read must resolve — the staleness degrade mode trades on.
    stream: List[Tuple[str, str]] = []
    for _ in range(ops):
        r = rng.random()
        if r < write_fraction:
            stream.append(("post", rng.choices(graph.users, weights)[0]))
        elif r < write_fraction + follow_fraction:
            a, b = rng.sample(graph.users, 2)
            stream.append(("follow", f"s|{a}|{b}"))
        else:
            stream.append(("read", rng.choice(graph.users)))
    burst_lo, burst_hi = ops // 4, (3 * ops) // 4
    pulse = max(8, ops // 24)

    def in_burst(tick: int) -> bool:
        if not burst_lo <= tick < burst_hi:
            return False
        return ((tick - burst_lo) // pulse) % 2 == 0

    def build_server(policy: Optional[OverloadPolicy]) -> PequodServer:
        server = PequodServer(
            subtable_config={"t": 2, "p": 2, "s": 2},
            overload_policy=policy,
        )
        server.add_join(TIMELINE_JOIN)
        for follower, followee in graph.edges:
            server.put(f"s|{follower}|{followee}", "1")
        for user in graph.users:
            server.scan(f"t|{user}|", prefix_upper_bound(f"t|{user}|"))
        server.stats.reset()
        return server

    modes: List[Tuple[str, Optional[OverloadPolicy]]] = [
        ("baseline", None),
        ("shed", OverloadPolicy(mode="shed")),
        ("degrade", OverloadPolicy(mode="degrade", max_staleness=max_staleness)),
    ]
    points: List[Dict[str, float]] = []
    baseline_rate: Optional[float] = None
    staleness_bounded = True
    for mode, policy in modes:
        server = build_server(policy)
        served = shed = 0

        def drive() -> None:
            nonlocal served, shed
            forced = False
            for tick, (op, user) in enumerate(stream):
                if server.load is not None:
                    want = in_burst(tick)
                    if want != forced:
                        server.load.force("bench burst" if want else None)
                        forced = want
                try:
                    if op == "post":
                        server.put(f"p|{user}|{format_time(tick)}", f"t{tick}")
                    elif op == "follow":
                        server.put(user, "1")
                    else:
                        server.scan(
                            f"t|{user}|", prefix_upper_bound(f"t|{user}|")
                        )
                    served += 1
                except OverloadError:
                    shed += 1

        cpu_start = time.process_time()
        drive()
        cpu = time.process_time() - cpu_start
        counters = server.stats.snapshot()
        stale_age = max(
            (tm.stale_age_max for tm in server.engine.table_metrics.values()),
            default=0.0,
        )
        if mode == "degrade" and stale_age > max_staleness:
            staleness_bounded = False
        rate = ops / max(cpu, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        points.append(
            {
                "mode": mode,
                "cpu_s": cpu,
                "ops_per_sec": rate,
                "speedup": rate / baseline_rate,
                "served": float(served),
                "shed": float(shed),
                "degraded_reads": counters.get("overload_degraded_reads", 0.0),
                "stale_reads_served": counters.get("stale_reads_served", 0.0),
                "shed_writes": counters.get("overload_shed_writes", 0.0),
                "stale_age_max_s": stale_age,
                "modeled_us": model.runtime_us(counters),
            }
        )
    return {
        "workload": {
            "n_users": n_users,
            "mean_follows": mean_follows,
            "ops": ops,
            "write_fraction": write_fraction,
            "follow_fraction": follow_fraction,
            "max_staleness": max_staleness,
            "seed": seed,
            "burst": [burst_lo, burst_hi],
        },
        "points": points,
        "staleness_bounded": staleness_bounded,
    }


# ======================================================================
# Persistence: recovery throughput, spilled-read cost, bloom skip rate
# ======================================================================
def run_persistence(
    n_keys: int = 100_000,
    value_size: int = 64,
    waves: int = 6,
    read_ops: int = 4000,
    seed: int = 7,
) -> Dict[str, object]:
    """The durability tier's three costs, as machine-stable ratios.

    1. **Recovery** — ingest ``n_keys`` writes through a durable server
       (WAL, ``fsync="batch"``), close it cleanly, and reopen: recovery
       replay throughput relative to live ingest throughput (replay
       skips join maintenance and journaling, so it should not be
       slower than ingest was).  The recovered state must be
       byte-identical to the pre-shutdown state.
    2. **Spilled reads** — random gets against the recovered server
       with everything resident, then again after ``spill_all`` moved
       every value to segment files: the disk/RAM throughput ratio is
       the price of exceeding RAM.
    3. **Bloom skip rate** — ``waves`` spill segments, each holding an
       interleaved 1/waves slice of the key space, so every segment's
       key *range* overlaps every probe and only the bloom filters can
       rule segments out.  Point reads of every key count how many
       negative segment probes the blooms answered without touching
       the file.

    Each point's ``speedup`` is a ratio of two rates measured on the
    same machine in the same process, so ``scripts/bench_compare.py``
    can trend them across commits without normalizing for hardware.
    """
    import hashlib
    import os
    import random
    import tempfile

    from ..persist.manager import SegmentStack
    from ..store.stats import StoreStats

    value = "x" * value_size
    keys = [f"p|u{i % 997:04d}|{i:08d}" for i in range(n_keys)]
    rng = random.Random(seed)

    def state_digest(server: PequodServer) -> str:
        digest = hashlib.sha256()
        for key, val in server.scan("p|", "p}"):
            digest.update(key.encode())
            digest.update(b"=")
            digest.update(val.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    with tempfile.TemporaryDirectory(prefix="pequod-bench-") as tmp:
        data_dir = os.path.join(tmp, "data")

        # --- 1. ingest, shut down cleanly, recover -------------------
        server = PequodServer(data_dir=data_dir, wal_fsync="batch")
        start = time.perf_counter()
        for lo in range(0, n_keys, 1000):
            server.put_many(
                [(key, f"{value}{i}") for i, key in
                 enumerate(keys[lo:lo + 1000], lo)]
            )
        ingest_s = time.perf_counter() - start
        digest_before = state_digest(server)
        server.close()

        start = time.perf_counter()
        recovered = PequodServer(data_dir=data_dir, store_impl="disk")
        recovery_s = time.perf_counter() - start
        state_identical = state_digest(recovered) == digest_before
        recovery_ms = recovered.stats.get("persist_recovery_ms")

        # --- 2. resident vs spilled random gets ----------------------
        probe_keys = [keys[rng.randrange(n_keys)] for _ in range(read_ops)]
        start = time.perf_counter()
        for key in probe_keys:
            recovered.get(key)
        ram_s = time.perf_counter() - start

        spill_freed = recovered.store.spill_all()
        start = time.perf_counter()
        for key in probe_keys:
            recovered.get(key)
        disk_s = time.perf_counter() - start
        recovered.close()

        # --- 3. bloom filters on interleaved spill waves -------------
        bloom_stats = StoreStats()
        stack = SegmentStack(os.path.join(tmp, "waves"), stats=bloom_stats)
        for wave in range(waves):
            stack.push(
                [(key, value) for i, key in enumerate(keys) if i % waves == wave]
            )
        for i in range(0, n_keys, max(1, n_keys // 20_000)):
            stack.read(keys[i])
        stack.close()
        probes = bloom_stats.get("persist_segment_probes")
        negatives = bloom_stats.get("persist_bloom_negatives")
        false_pos = bloom_stats.get("persist_bloom_false_positives")
        negative_probes = negatives + false_pos
        bloom_skip = negatives / max(negative_probes, 1.0)

    ingest_rate = n_keys / max(ingest_s, 1e-9)
    recovery_rate = n_keys / max(recovery_s, 1e-9)
    ram_rate = read_ops / max(ram_s, 1e-9)
    disk_rate = read_ops / max(disk_s, 1e-9)
    points = [
        {
            "config": "ram_reads",
            "wall_s": ram_s,
            "ops_per_sec": ram_rate,
            "speedup": 1.0,
        },
        {
            "config": "disk_reads",
            "wall_s": disk_s,
            "ops_per_sec": disk_rate,
            "speedup": disk_rate / ram_rate,
        },
        {
            "config": "recovery",
            "wall_s": recovery_s,
            "ops_per_sec": recovery_rate,
            "speedup": recovery_rate / ingest_rate,
        },
        {
            "config": "bloom_skip",
            "speedup": bloom_skip,
        },
    ]
    return {
        "workload": {
            "n_keys": n_keys,
            "value_size": value_size,
            "waves": waves,
            "read_ops": read_ops,
            "seed": seed,
        },
        "ingest": {"wall_s": ingest_s, "ops_per_sec": ingest_rate},
        "recovery": {
            "wall_s": recovery_s,
            "ops_per_sec": recovery_rate,
            "recovery_ms": recovery_ms,
        },
        "spill": {"freed_bytes": spill_freed},
        "bloom": {
            "probes": probes,
            "negatives": negatives,
            "false_positives": false_pos,
            "skip_ratio": bloom_skip,
        },
        "points": points,
        "state_identical": state_identical,
    }


# ======================================================================
# Cluster scale-out: real processes, real TCP, partitioned ownership
# ======================================================================
def _percentiles_us(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {"p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0}
    ordered = sorted(samples)

    def at(q: float) -> float:
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return round(ordered[index], 1)

    return {"p50_us": at(0.50), "p95_us": at(0.95), "p99_us": at(0.99)}


def run_cluster_scaleout(
    proc_counts: Sequence[int] = (1, 2, 4, 8),
    total_ops: int = 4000,
    depth: int = 32,
    drivers: int = 2,
    n_keys: int = 256,
    value_size: int = 32,
    replication: int = 1,
    in_process: bool = False,
) -> Dict[str, object]:
    """Aggregate throughput and latency of the multi-process cluster
    as nodes are added (the scale-out claim behind Figure 10, run on
    real processes instead of the simulator).

    For each process count a fresh :class:`ProcCluster` is started
    with the base table range-partitioned evenly across the nodes,
    and ``drivers`` separate load-driver *processes* (see
    :mod:`repro.bench.cluster_driver`) split ``total_ops`` between
    them — so neither the nodes nor the drivers ever share a GIL.
    Each point reports aggregate ops/s, per-op p50/p95/p99, and the
    speedup over the single-process point.

    Honesty contract: ``cpu_cores`` is recorded in the result, and
    scaling beyond the core count is *not* expected — on a 1-core
    machine every extra process multiplies coordination cost while
    adding no compute, so the committed artifact documents whatever
    the hardware actually did.
    """
    import json as _json
    import os
    import subprocess
    import sys

    from ..distrib.procs import ProcCluster

    user_width = 4

    def splits_for(count: int) -> List[str]:
        return [
            f"u{int(i * n_keys / count):0{user_width}d}"
            for i in range(1, count)
        ]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    ops_per_driver = max(1, total_ops // drivers)
    points: List[Dict[str, object]] = []
    baseline_rate: Optional[float] = None
    for count in proc_counts:
        with ProcCluster(
            count,
            tables=("p",),
            splits=splits_for(count),
            replication=min(replication, count),
            in_process=in_process,
        ) as cluster:
            endpoints = ",".join(
                f"{host}:{port}" for host, port in cluster.client_addresses()
            )
            procs = [
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.bench.cluster_driver",
                        "--endpoints", endpoints,
                        "--ops", str(ops_per_driver),
                        "--depth", str(depth),
                        "--n-keys", str(n_keys),
                        "--value-size", str(value_size),
                        "--seed", str(seed),
                    ],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
                for seed in range(drivers)
            ]
            results = []
            for proc in procs:
                out, err = proc.communicate(timeout=600)
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"cluster driver failed ({proc.returncode}): {err}"
                    )
                results.append(_json.loads(out))
            # Sanity: the partitioned writes actually landed.
            total = cluster.info()
            stored = sum(node["keys"] for node in total.values())
            assert stored >= n_keys, (
                f"{stored} keys stored across {count} nodes"
            )
        ops_done = sum(r["ops"] for r in results)
        wall = max(r["wall_s"] for r in results)
        rate = ops_done / max(wall, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        merged = [l for r in results for l in r["latencies_us"]]
        point: Dict[str, object] = {
            "config": f"procs={count}",
            "processes": count,
            "ops": ops_done,
            "wall_s": round(wall, 4),
            "ops_per_sec": round(rate, 1),
            "speedup": round(rate / baseline_rate, 3),
        }
        point.update(_percentiles_us(merged))
        points.append(point)
    return {
        "workload": {
            "total_ops": total_ops,
            "depth": depth,
            "drivers": drivers,
            "n_keys": n_keys,
            "value_size": value_size,
            "replication": replication,
            "in_process": in_process,
            "op_mix": "1:1 put:scan_prefix",
        },
        "cpu_cores": os.cpu_count(),
        "points": points,
        "max_speedup": max(p["speedup"] for p in points),
    }


# ======================================================================
# CDC write-around: ingest rate and propagation lag
# ======================================================================
def run_cdc(
    n_users: int = 60,
    mean_follows: float = 6.0,
    total_ops: int = 2000,
    settle_every: int = 100,
    burst_posts: int = 1000,
    seed: int = 42,
) -> Dict[str, object]:
    """Write-around vs write-through on the §2 Twip workload.

    Two deployments of the same local server run the identical
    deterministic workload:

    * **write-through** (baseline) — every put runs incremental join
      maintenance synchronously before returning;
    * **write-around** — puts land in the backing database, whose
      change feed drives maintenance asynchronously (:mod:`repro.cdc`);
      ``settle_cdc`` is the convergence barrier before reads that need
      a fresh view.

    Each mode first drives the mixed Twip stream (with a barrier every
    ``settle_every`` ticks), materializing the timelines, then absorbs
    a pure-write **ingest burst** against the warm cache with no
    barrier until the end — the measured ingest ops/s is where
    write-around earns its keep: fan-out to materialized timelines is
    deferred off the write path and applied in coalesced batches.  The
    ingest time includes that final ``settle_cdc()``, so the deferred
    maintenance is charged to the burst that caused it.  The
    write-around run also reports propagation-lag percentiles (write
    commit → cache apply) from the pump's histogram.  Both modes must
    converge to byte-identical output state after the final barrier.
    """
    import hashlib
    import random as _random

    graph = generate_graph(n_users, mean_follows, seed=seed)
    ops = TwipWorkload(graph, total_ops, seed=seed).generate()
    rng = _random.Random(seed + 7)
    burst = [
        (f"p|{rng.choice(graph.users)}|9{i:07d}", f"burst {i}")
        for i in range(burst_posts)
    ]

    points: List[Dict[str, object]] = []
    states: Dict[str, List[Tuple[str, str]]] = {}
    baseline_rate: Optional[float] = None
    for mode in ("write-through", "write-around"):
        with make_client(
            "local",
            subtable_config={"t": 2, "p": 2, "s": 2},
            mode=mode,
        ) as client:
            client.add_join(TIMELINE_JOIN)
            graph.load_into(client)
            client.settle_cdc()
            # Mixed workload with a bounded-staleness barrier cadence;
            # this also materializes the users' timelines.
            drive_twip_ops(
                ops,
                put=client.put,
                scan_timeline=lambda user, since: client.scan(
                    f"t|{user}|{since}", prefix_upper_bound(f"t|{user}|")
                ),
                settle=client.settle_cdc,
                settle_every=settle_every,
            )
            # Ingest burst against the warm cache: pure writes, barrier
            # only at the end.  The timer runs through that barrier, so
            # write-around pays for the maintenance it deferred.
            start = time.perf_counter()
            for key, value in burst:
                client.put(key, value)
            client.settle_cdc()
            ingest_wall = time.perf_counter() - start
            state: List[Tuple[str, str]] = []
            for user in graph.users:
                state.extend(client.scan_prefix(f"t|{user}|"))
            state.extend(client.scan_prefix("p|"))
            state.extend(client.scan_prefix("s|"))
            states[mode] = state
            server = client._async.server  # noqa: SLF001 - harness introspection
            cdc = server.cdc
        rate = len(burst) / max(ingest_wall, 1e-9)
        if baseline_rate is None:
            baseline_rate = rate
        point: Dict[str, object] = {
            "mode": mode,
            "ingest_posts": len(burst),
            "ingest_wall_s": round(ingest_wall, 4),
            "ops_per_sec": round(rate, 1),
            "speedup": round(rate / baseline_rate, 3),
            "state_sha256": hashlib.sha256(
                repr(state).encode()
            ).hexdigest(),
            "lag_p50_ms": None,
            "lag_p95_ms": None,
            "lag_p99_ms": None,
        }
        if cdc is not None:
            point["lag_p50_ms"] = round(cdc.lag.percentile(50) * 1000, 4)
            point["lag_p95_ms"] = round(cdc.lag.percentile(95) * 1000, 4)
            point["lag_p99_ms"] = round(cdc.lag.percentile(99) * 1000, 4)
            point["records_applied"] = cdc.records_applied
            point["feed_high_water"] = cdc.feed.high_water
        points.append(point)
    return {
        "workload": {
            "n_users": n_users,
            "mean_follows": mean_follows,
            "total_ops": total_ops,
            "settle_every": settle_every,
            "burst_posts": burst_posts,
            "seed": seed,
        },
        "points": points,
        "state_identical": states["write-around"] == states["write-through"],
    }
