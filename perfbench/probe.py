"""A fixed reference workload that reads how fast the host is right now.

The development host is shared: for seconds or minutes at a time all
work on it runs up to 1.7x slower, and a change of that state in the
middle of a series of runs moves every timing more than any bound a
benchmark could hold.  So the timed phase is interleaved with this
probe, which is the same work on every run and on every version of the
program: loopback TCP round trips through the event loop (the system
calls and scheduling that dominate a request over RPC) and a random
walk over an array larger than a core's cache (the memory traffic that
dominates the in-process workloads).  Timings are then reported at the
probe's nominal speed (see :func:`scale`).  Over two minutes of repeated
identical work on the development host, the raw time of ten consecutive
blocks ranged 1.5-1.7x, and the probe-scaled time 1.04-1.05x.

The probe touches none of the program's code, and it does not allocate
objects the cyclic collector tracks beyond a few event-loop handles, so
a change to the program cannot change what the probe reads except
through the host.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import time
from array import array
from typing import Optional

#: Round trips of :data:`MESSAGE` bytes per probe.
ROUND_TRIPS = 20
MESSAGE = 64
#: Steps of the random walk per probe, over a 16 MiB array.
WALK_STEPS = 8000
WALK_MASK = (1 << 21) - 1
#: The probe's time on the development host when it is not disturbed,
#: in nanoseconds.  Reported timings are what they would be on a host
#: where the probe takes exactly this long.
NOMINAL_NS = 2_500_000


def scale(value: float, probe_ns: float) -> float:
    """``value``, a time measured while the probe read ``probe_ns``, at
    the probe's nominal speed."""
    return value * NOMINAL_NS / probe_ns


async def _echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            writer.write(await reader.readexactly(MESSAGE))
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


class HostProbe:
    """The probe, with its own echo server on the caller's event loop."""

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._walk = array("q", range(WALK_MASK + 1))
        self._payload = b"x" * MESSAGE

    @classmethod
    async def open(cls) -> "HostProbe":
        probe = cls()
        probe._server = await asyncio.start_server(_echo, "127.0.0.1", 0)
        port = probe._server.sockets[0].getsockname()[1]
        probe._reader, probe._writer = await asyncio.open_connection("127.0.0.1", port)
        probe._writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        await probe.measure()  # first use: connection and array warm-up
        return probe

    async def measure(self) -> int:
        """Run the probe once; returns its time in nanoseconds.  The
        collector is held off while it runs, so a collection the program
        is due never lands in the probe."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            reader, writer, payload = self._reader, self._writer, self._payload
            start = time.perf_counter_ns()
            for _ in range(ROUND_TRIPS):
                writer.write(payload)
                await reader.readexactly(MESSAGE)
            walk, j, acc = self._walk, 1, 0
            for _ in range(WALK_STEPS):
                j = (j * 1103515245 + 12345) & WALK_MASK
                acc += walk[j]
            return time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class Stopwatch:
    """Times a stretch of work in pieces, reading the probe between
    them; each piece is scaled by the mean of the readings before and
    after it.  Without a probe it is a plain stopwatch."""

    def __init__(self, probe: Optional[HostProbe]) -> None:
        self.probe = probe
        self.raw_ns = 0
        self.scaled_ns = 0.0
        self._reading = 0
        self._mark = 0

    async def start(self) -> None:
        if self.probe is not None:
            self._reading = await self.probe.measure()
        self._mark = time.perf_counter_ns()

    async def lap(self) -> None:
        """End the current piece and start the next."""
        piece = time.perf_counter_ns() - self._mark
        self.raw_ns += piece
        if self.probe is None:
            self.scaled_ns += piece
        else:
            reading = await self.probe.measure()
            self.scaled_ns += scale(piece, (self._reading + reading) / 2)
            self._reading = reading
        self._mark = time.perf_counter_ns()
