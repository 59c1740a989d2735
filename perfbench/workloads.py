"""Workload definitions and their seeded inputs.

Every workload runs the Twip timeline join over a preferential-attachment
follow graph from :func:`repro.apps.social_graph.generate_graph`.  The
graph and the posts loaded at set-up are fixed data, drawn from
:data:`GRAPH_SEED`; ``--seed`` draws only the operation stream.  The same
seed therefore gives the same inputs, and every seed starts from the
same warm cache.

Keys follow the Twip schema: ``s|<user>|<poster>`` subscriptions,
``p|<poster>|<time>`` posts, ``t|<user>|<time>|<poster>`` timelines.
Times are logical ticks, zero-padded so key order is time order.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apps.social_graph import SocialGraph, generate_graph
from repro.apps.workload import DEFAULT_MIX, OP_CHECK, OP_LOGIN, OP_POST, OP_SUBSCRIBE

TIMELINE_JOIN = (
    "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"
)
SUBTABLES = {"t": 2, "p": 2, "s": 2}
TIME_WIDTH = 10
#: Follows per user in the generated graph.
MEAN_FOLLOWS = 6.0
#: Seed of the follow graph and the initial posts, the same for every run.
GRAPH_SEED = 1
#: Operations between ``settle_cdc()`` barriers in write-around mode.
SETTLE_EVERY = 16
#: Writes per ``put_many`` batch.
BATCH_SIZE = 8
#: Posters per deck the stream deals them from (see :meth:`OpStream.poster`).
DECK = 1024
#: Batch operation kinds; the others are the Twip kinds of
#: :mod:`repro.apps.workload`.  A post batch is one poster's queued
#: posts; a subscribe batch is one user following several others at
#: once.
POST_BATCH = "post_batch"
SUBSCRIBE_BATCH = "subscribe_batch"

#: The section 5.1 mix (:data:`DEFAULT_MIX`: 5% login, 9% subscribe,
#: 85% check, 1% post), with two points of checks given to batches so
#: every workload sends every operation type the benchmark reports.
#: Nine in ten of the mix's writes are subscribes, so its batches are
#: subscribe batches.
TWIP_MIX = tuple(
    (kind, weight - 0.02 if kind == OP_CHECK else weight) for kind, weight in DEFAULT_MIX
) + ((SUBSCRIBE_BATCH, 0.02),)
#: Post-heavy, after the paper's Figure 8 at 1% active users, where
#: there is one timeline check per post: half the operations are post
#: calls (a fifth of them post batches) and half are reads (a
#: twenty-fifth of them logins, so login latency is reported too).
FANOUT_MIX = ((OP_POST, 0.40), (POST_BATCH, 0.10), (OP_CHECK, 0.48), (OP_LOGIN, 0.02))

Op = Tuple  # ("read", kind, lo, hi) | ("write", kind, key, value) | ("batch", pairs)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "rpc" (in-loop RpcServer over loopback TCP) or "local"
    #: Size of the fixed operation budget: a run of ``--seconds S`` sends
    #: ``ops_per_second * S`` operations, about S seconds of load on the
    #: development host.  Fixed, so a faster program does the same work.
    ops_per_second: int
    mode: str = "write-through"
    durable: bool = False  # data_dir with the default wal_fsync="batch"
    memory_limit: Optional[int] = None  # bytes
    users: int = 2000
    posts_per_user: float = 1.5
    mix: Tuple[Tuple[str, float], ...] = TWIP_MIX

    @property
    def settle_every(self) -> Optional[int]:
        return SETTLE_EVERY if self.mode == "write-around" else None


_FANOUT_WRITE = Workload(
    "fanout_write",
    "post-heavy celebrity fan-out, write-through, durable WAL "
    "(fsync=batch): join execution, output install, WAL append",
    backend="local",
    ops_per_second=2800,
    durable=True,
    users=3000,
    posts_per_user=1.0,
    mix=FANOUT_MIX,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "twip_rpc",
            "section 5.1 Twip mix over loopback RPC, write-through, fits in "
            "memory: codec, transport and memo-hit validation dominate",
            backend="rpc",
            ops_per_second=4500,
        ),
        _FANOUT_WRITE,
        replace(
            _FANOUT_WRITE,
            name="write_around",
            why="fanout_write's stream in write-around mode with a settle_cdc "
            "barrier every 16 ops: maintenance moves into the CDC pump",
            mode="write-around",
        ),
        Workload(
            "twip_evict",
            "section 5.1 Twip mix with memory_limit 2700000 bytes, about a "
            "third of the warm footprint: eviction and recomputation",
            backend="local",
            ops_per_second=2300,
            memory_limit=2_700_000,
        ),
    )
}


def fmt_time(tick: int) -> str:
    return f"{tick:0{TIME_WIDTH}d}"


def upper(prefix: str) -> str:
    """The smallest key above every key starting with ``prefix``."""
    return prefix[:-1] + chr(ord(prefix[-1]) + 1)


def post_value(poster: str, tick: int) -> str:
    return f"post {tick} by {poster}"


class OpStream:
    """The seeded, endless operation stream of one workload.

    Posters are drawn by :meth:`SocialGraph.post_weight` (the log of
    their follower count, section 5.1), readers and subscribers
    uniformly.  Reads carry their scan bounds: a login scans the user's
    whole timeline, a check scans from the user's previous read onward.
    Every user has read their timeline at ``start_tick`` (the warm-up).
    """

    def __init__(self, w: Workload, graph: SocialGraph, seed: str, start_tick: int) -> None:
        self.users = graph.users
        self.post_cum = post_weights(graph)
        self._decks: Dict[str, List[str]] = {OP_POST: [], POST_BATCH: []}
        self.rng = random.Random(seed)
        self.kinds = [k for k, _ in w.mix]
        self.cum = list(itertools.accumulate(weight for _, weight in w.mix))
        self.tick = start_tick
        self.start_tick = start_tick
        self.last_seen: Dict[str, int] = {}

    def __iter__(self) -> Iterator[Op]:
        return self

    def poster(self, kind: str) -> str:
        """The poster of the next ``kind`` operation (a post or a post
        batch), dealt from that kind's shuffled deck of :data:`DECK`, in
        which every user appears in proportion to their posting weight:
        systematic sampling along the cumulative weights, from a random
        offset.  Drawn one by one, the most-followed user's posts in a
        run varied by a fifth between seeds, and with them the fan-out
        work of the post-heavy workloads; dealt from decks, each user
        posts within one of their expected share per deck.  Batches have
        their own deck because a batch is eight posts."""
        deck = self._decks[kind]
        if not deck:
            cum = self.post_cum
            step = cum[-1] / DECK
            start = self.rng.random() * step
            deck += [self.users[bisect.bisect_right(cum, start + i * step)]
                     for i in range(DECK)]
            self.rng.shuffle(deck)
        return deck.pop()

    def __next__(self) -> Op:
        rng = self.rng
        kind = rng.choices(self.kinds, cum_weights=self.cum)[0]
        self.tick += 1
        if kind == OP_LOGIN or kind == OP_CHECK:
            user = rng.choice(self.users)
            prefix = f"t|{user}|"
            if kind == OP_LOGIN:
                lo = prefix
            else:
                lo = prefix + fmt_time(self.last_seen.get(user, self.start_tick))
            self.last_seen[user] = self.tick
            return ("read", kind, lo, upper(prefix))
        if kind == OP_SUBSCRIBE:
            users = self.users
            ui, pi = rng.randrange(len(users)), rng.randrange(len(users))
            if pi == ui:
                pi = (ui + 1) % len(users)
            return ("write", OP_SUBSCRIBE, f"s|{users[ui]}|{users[pi]}", "1")
        if kind == OP_POST:
            poster = self.poster(OP_POST)
            return ("write", OP_POST, f"p|{poster}|{fmt_time(self.tick)}",
                    post_value(poster, self.tick))
        if kind == SUBSCRIBE_BATCH:
            user = rng.choice(self.users)
            others = [u for u in rng.sample(self.users, BATCH_SIZE + 1) if u != user]
            return ("batch", [(f"s|{user}|{poster}", "1") for poster in others[:BATCH_SIZE]])
        poster = self.poster(POST_BATCH)
        pairs = []
        for i in range(BATCH_SIZE):
            if i:
                self.tick += 1
            pairs.append((f"p|{poster}|{fmt_time(self.tick)}",
                          post_value(poster, self.tick)))
        return ("batch", pairs)


def post_weights(graph: SocialGraph) -> List[float]:
    """Cumulative posting weights of ``graph.users``."""
    return list(itertools.accumulate(graph.post_weight(u) for u in graph.users))


def initial_posts(w: Workload, graph: SocialGraph) -> List[Tuple[str, str]]:
    """Posts present before the timed phase, at ticks 1..P."""
    rng = random.Random(GRAPH_SEED)
    cum = post_weights(graph)
    out = []
    for tick in range(1, int(w.users * w.posts_per_user) + 1):
        poster = rng.choices(graph.users, cum_weights=cum)[0]
        out.append((f"p|{poster}|{fmt_time(tick)}", post_value(poster, tick)))
    return out


@dataclass
class Inputs:
    workload: Workload
    seed: int
    graph: SocialGraph
    posts: List[Tuple[str, str]]

    def stream(self, part: int = 0) -> OpStream:
        """A fresh copy of the run's ``part``-th operation stream, from
        its first op.  Each part is drawn from its own seed."""
        return OpStream(self.workload, self.graph, f"{self.seed}.{part}",
                        len(self.posts) + 1)


def make_inputs(w: Workload, seed: int) -> Inputs:
    graph = generate_graph(w.users, MEAN_FOLLOWS, seed=GRAPH_SEED)
    return Inputs(w, seed, graph, initial_posts(w, graph))
