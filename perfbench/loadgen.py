"""Deploy a workload, drive its timed closed loop, and check the result.

All load comes from one coroutine on one event loop over one client:
each operation is sent only after the previous one returned, as the
paper's application servers wait on each reply.  The client is the
public async API -- :class:`AsyncRemoteClient` against an
:class:`RpcServer` on the same loop (real loopback TCP), or
:class:`AsyncLocalClient` for the in-process workloads.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.client import AsyncLocalClient, AsyncRemoteClient, ClientError
from repro.core.server import PequodServer
from repro.net.rpc_server import RpcServer

from .probe import HostProbe, Stopwatch
from .workloads import SUBTABLES, TIMELINE_JOIN, Inputs, OpStream, upper

LOAD_CHUNK = 256
#: Set-up reads the host probe every this many load chunks, and every
#: 32 times as many warm-up scans.
SETUP_LAP = 8
#: Latency sample series, all in nanoseconds.
SERIES = ("check", "login", "write", "batch", "visible")
#: Operations per timing window; a multiple of every ``settle_every``,
#: so each write-around barrier and the writes it makes visible fall in
#: the same window.
WINDOW_OPS = 256


class Model:
    """Every base row the benchmark wrote, for the naive recomputation."""

    def __init__(self) -> None:
        self.rows: Dict[str, str] = {}
        self.user_bytes = 0

    def put(self, key: str, value: str) -> None:
        self.rows[key] = value
        self.user_bytes += len(key) + len(value)

    def table(self, name: str) -> List[Tuple[str, str]]:
        prefix = name + "|"
        return sorted((k, v) for k, v in self.rows.items() if k.startswith(prefix))

    def timelines(self) -> Dict[str, List[Tuple[str, str]]]:
        """``t|<user>|<time>|<poster>`` recomputed from base rows: one
        row per (subscription, post by the followed user)."""
        posts = defaultdict(list)
        subs = []
        for key, value in self.rows.items():
            table, a, b = key.split("|", 2)
            if table == "p":
                posts[a].append((b, value))
            elif table == "s":
                subs.append((a, b))
        out: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
        for user, poster in subs:
            rows = out[user]
            for tm, value in posts.get(poster, ()):
                rows.append((f"t|{user}|{tm}|{poster}", value))
        for rows in out.values():
            rows.sort()
        return out


class Deployment:
    """One server plus the client the benchmark drives it through."""

    def __init__(self, server: PequodServer, client, rpc: Optional[RpcServer],
                 data_dir: Optional[str]) -> None:
        self.server = server
        self.client = client
        self.rpc = rpc
        self.data_dir = data_dir

    async def close(self) -> None:
        try:
            await self.client.aclose()
            if self.rpc is not None:
                await self.rpc.stop()
            self.server.close()
        finally:
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir, ignore_errors=True)


async def deploy(inputs: Inputs, workdir: str,
                 probe: Optional[HostProbe] = None) -> Tuple[Deployment, Stopwatch, Model]:
    """Build the server and client, install the join, load the graph and
    initial posts, and warm every timeline.  Returns the deployment, the
    stopwatch that timed the set-up (reading ``probe`` every
    :data:`SETUP_LAP` chunks or scans), and the model of what was
    written."""
    w = inputs.workload
    data_dir = tempfile.mkdtemp(dir=workdir) if w.durable else None
    watch = Stopwatch(probe)
    await watch.start()
    server = PequodServer(
        subtable_config=dict(SUBTABLES),
        memory_limit=w.memory_limit,
        data_dir=data_dir,
        mode=w.mode,
    )
    rpc = None
    if w.backend == "rpc":
        rpc = RpcServer(server, "127.0.0.1", 0)
        await rpc.start()
        client = await AsyncRemoteClient.open("127.0.0.1", rpc.port)
    else:
        client = AsyncLocalClient(server)
    dep = Deployment(server, client, rpc, data_dir)
    model = Model()
    await client.add_join(TIMELINE_JOIN)
    subs = [(f"s|{a}|{b}", "1") for a, b in inputs.graph.edges]
    for rows in (subs, inputs.posts):
        for n, i in enumerate(range(0, len(rows), LOAD_CHUNK), 1):
            chunk = rows[i:i + LOAD_CHUNK]
            await client.put_many(chunk)
            for key, value in chunk:
                model.put(key, value)
            if n % SETUP_LAP == 0:
                await watch.lap()
    await client.settle_cdc()
    await watch.lap()
    for n, user in enumerate(inputs.graph.users, 1):
        prefix = f"t|{user}|"
        await client.scan(prefix, upper(prefix))
        if n % (SETUP_LAP * 32) == 0:
            await watch.lap()
    await watch.lap()
    return dep, watch, model


@dataclass
class Phase:
    """What one timed phase did and how long each operation took.

    The phase is cut into windows of :data:`WINDOW_OPS` operations:
    ``windows`` holds each window's elapsed time, ``cuts[series][i]``
    the number of samples of ``series`` taken by the end of window
    ``i``, and ``probes`` the host probe's reading before the first
    window and after each one (empty when the phase ran without one).
    ``elapsed_ns`` is the sum of the windows, so probe time is not in it.
    """

    ops: int = 0
    barriers: int = 0
    failed: int = 0
    reads: int = 0
    writes: int = 0
    rows_returned: int = 0
    user_bytes: int = 0
    elapsed_ns: int = 0
    samples: Dict[str, List[int]] = field(
        default_factory=lambda: {name: [] for name in SERIES}
    )
    windows: List[int] = field(default_factory=list)
    cuts: Dict[str, List[int]] = field(
        default_factory=lambda: {name: [] for name in SERIES}
    )
    probes: List[int] = field(default_factory=list)

    def window_samples(self, series: str, i: int) -> List[int]:
        """The samples of ``series`` taken in window ``i``."""
        cuts = self.cuts[series]
        return self.samples[series][cuts[i - 1] if i else 0:cuts[i]]

    @property
    def attempted(self) -> int:
        return self.ops + self.barriers

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.elapsed_ns / 1e9)


ROOT_OP = "client.op"
ROOT_BARRIER = "client.settle_cdc"


class Runner:
    """Drives one deployment's operation stream closed-loop, in one go
    or in slices (the traced run alternates two deployments).

    Under write-through a write is visible when its call returns; under
    write-around, when the first ``settle_cdc()`` after it returns, so
    the deferred maintenance is inside the measurement.  A failed or
    refused operation is counted, and its write is not added to the
    model.  With a ``probe``, the host probe runs between windows.
    """

    def __init__(self, dep: Deployment, stream: OpStream, model: Model,
                 settle_every: Optional[int], probe: Optional[HostProbe] = None) -> None:
        self.client = dep.client
        self.stream = stream
        self.model = model
        self.settle_every = settle_every
        self.probe = probe
        self.phase = Phase()
        self._pending: List[int] = []
        self._bytes_before = model.user_bytes
        self._window_ns = 0  # time spent in the open window so far

    async def _close_window(self, mark: int) -> int:
        """End the open window at ``mark`` (a clock reading taken when
        it was last resumed), probe the host, and return the clock for
        the next window."""
        now = time.perf_counter_ns()
        phase = self.phase
        phase.windows.append(self._window_ns + now - mark)
        self._window_ns = 0
        for name in SERIES:
            phase.cuts[name].append(len(phase.samples[name]))
        if self.probe is None:
            return now
        phase.probes.append(await self.probe.measure())
        return time.perf_counter_ns()

    async def _barrier(self, recorder) -> None:
        phase = self.phase
        span = recorder.open_root(ROOT_BARRIER, -1) if recorder is not None else -1
        phase.barriers += 1
        try:
            await self.client.settle_cdc()
            done = time.perf_counter_ns()
        except ClientError:
            phase.failed += 1
            return
        finally:
            if recorder is not None:
                recorder.close(span)
        phase.samples["visible"].extend(done - t for t in self._pending)
        self._pending.clear()

    async def run(self, count: int, recorder=None) -> None:
        """Send the stream's next ``count`` operations."""
        client = self.client
        stream = self.stream
        model = self.model
        phase = self.phase
        lat = phase.samples
        visible = lat["visible"]
        pending = self._pending
        settle_every = self.settle_every
        around = settle_every is not None
        clock = time.perf_counter_ns
        if self.probe is not None and not phase.probes:
            phase.probes.append(await self.probe.measure())
        mark = clock()
        for op in itertools.islice(stream, count):
            kind = op[0]
            span = recorder.open_root(ROOT_OP, phase.ops) if recorder is not None else -1
            t0 = clock()
            try:
                if kind == "read":
                    rows = await client.scan(op[2], op[3])
                elif kind == "write":
                    await client.put(op[2], op[3])
                else:
                    await client.put_many(op[1])
            except ClientError:
                phase.failed += 1
                ok = False
            else:
                ok = True
            t1 = clock()
            if recorder is not None:
                recorder.close(span)
            phase.ops += 1
            if kind == "read":
                phase.reads += 1
                if ok:
                    lat[op[1]].append(t1 - t0)
                    phase.rows_returned += len(rows)
            else:
                phase.writes += 1
                if ok:
                    if kind == "write":
                        lat["write"].append(t1 - t0)
                        model.put(op[2], op[3])
                    else:
                        lat["batch"].append(t1 - t0)
                        for key, value in op[1]:
                            model.put(key, value)
                    if around:
                        pending.append(t0)
                    else:
                        visible.append(t1 - t0)
            if around and phase.ops % settle_every == 0:
                await self._barrier(recorder)
            if phase.ops % WINDOW_OPS == 0:
                mark = await self._close_window(mark)
        self._window_ns += clock() - mark

    async def finish(self, recorder=None) -> Phase:
        """The final barrier (write-around), so every write's visibility
        is timed; returns the phase totals."""
        phase = self.phase
        start = time.perf_counter_ns()
        if self.settle_every is not None:
            await self._barrier(recorder)
        if phase.ops % WINDOW_OPS or self.settle_every is not None:
            await self._close_window(start)
        phase.elapsed_ns = sum(phase.windows)
        phase.user_bytes = self.model.user_bytes - self._bytes_before
        return phase


async def timed_phase(dep: Deployment, stream: OpStream, model: Model,
                      count: int, settle_every: Optional[int],
                      probe: Optional[HostProbe] = None) -> Phase:
    """Run the first ``count`` operations of ``stream`` closed-loop,
    then the final barrier."""
    runner = Runner(dep, stream, model, settle_every, probe)
    await runner.run(count)
    return await runner.finish()


async def verify(client, model: Model, users: List[str]) -> List[str]:
    """Read the base tables and every timeline back through ``client``
    and compare them with a naive recomputation from the base rows.
    Returns one line per mismatch (empty when the cache is right)."""
    problems: List[str] = []

    def compare(what: str, got, want) -> None:
        got = [tuple(pair) for pair in got]
        if got == want:
            return
        extra = sorted(set(got) - set(want))
        missing = sorted(set(want) - set(got))
        problems.append(
            f"{what}: {len(got)} rows, expected {len(want)}; "
            f"unexpected {extra[:3]}, missing {missing[:3]}"
        )

    await client.settle_cdc()
    for table in ("s", "p"):
        compare(f"table {table}", await client.scan(table + "|", table + "}"),
                model.table(table))
    expected = model.timelines()
    for user in users:
        prefix = f"t|{user}|"
        compare(f"timeline {user}", await client.scan(prefix, upper(prefix)),
                expected.get(user, []))
    return problems
