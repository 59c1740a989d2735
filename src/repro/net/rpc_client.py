"""Asyncio RPC client with pipelining and server-push routing.

The paper's clients "are event-driven processes that keep many RPCs
outstanding" (§5.1).  :class:`RpcClient` assigns each request an id,
writes frames without waiting, and resolves per-request futures as
responses arrive — so a single connection can have hundreds of
operations in flight.  The connection is an :class:`asyncio.Protocol`:
responses are decoded and their futures resolved inside the
transport's ``data_received`` callback, with no reader task between
the socket and the caller.  Requests use ids >= 0; frames with
*negative* ids are server pushes carrying watch-subscription changes
(§2.4) and are routed to per-subscription sinks, so one connection
interleaves pipelined responses and pushed updates.
:class:`SyncRpcClient` wraps it all in a private event loop for
synchronous callers (examples, tests).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.hub import ChangeEvent
from ..store.batch import PUT, WriteBatch, as_ops
from . import protocol

#: A subscription's delivery callback: a list of pushed events, or
#: None when the connection is lost and the stream can never resume.
PushSink = Callable[[Optional[List[ChangeEvent]]], None]

#: Anything acceptable as a batch: a WriteBatch or (key, value) pairs
#: with None values meaning removes.
BatchLike = Union[WriteBatch, Iterable[Tuple[str, Optional[str]]]]


def _batch_pairs(batch: BatchLike) -> List[Tuple[str, Optional[str]]]:
    return [
        (op.key, op.value if op.kind == PUT else None) for op in as_ops(batch)
    ]


class RpcError(RuntimeError):
    """An error reported by the server for one request.

    ``code`` is the protocol error code (:data:`repro.net.protocol.ERR_CODES`)
    the server attached, letting callers — in particular the unified
    client layer — distinguish bad requests and join-validation failures
    from genuine server faults.
    """

    def __init__(self, message: str, code: str = protocol.ERR_CODE_SERVER):
        super().__init__(message)
        self.code = code


class _ClientProtocol(asyncio.Protocol):
    """Transport callbacks of one :class:`RpcClient` connection."""

    def __init__(self, client: "RpcClient") -> None:
        self.client = client

    def data_received(self, data: bytes) -> None:
        self.client._on_data(data)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.client._on_lost(exc)

    def pause_writing(self) -> None:
        self.client._write_paused = True

    def resume_writing(self) -> None:
        self.client._resume_writing()


class RpcClient:
    """Pipelined asyncio client for a Pequod RPC server.

    Responses are handled in the transport's ``data_received``
    callback: each frame is decoded and its request's future resolved
    right there, so the awaiting caller is the next thing the event
    loop runs.  Callers wait for the write buffer to drain only while
    the transport reports it over its high-water mark.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = protocol.FrameBuffer()
        self._pending: Dict[int, asyncio.Future] = {}
        self._push_sinks: Dict[int, PushSink] = {}
        self._next_id = 0
        self._lost = False
        self._closed: Optional[asyncio.Future] = None
        self._write_paused = False
        self._drain_waiters: List[asyncio.Future] = []
        #: Encoded frames awaiting one coalesced transport write.
        #: Windowed calls buffer here and a flush runs at the end of
        #: the current loop tick, so a burst of requests (a pipeline
        #: window refilling as responses arrive) costs ONE send
        #: syscall instead of one per request.
        self._out_frames: List[bytes] = []
        self._flush_scheduled = False
        self.requests_sent = 0
        self.pushes_received = 0

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        self._closed = loop.create_future()
        self._transport, _ = await loop.create_connection(
            lambda: _ClientProtocol(self), self.host, self.port
        )

    async def close(self) -> None:
        self._fail_push_sinks()
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            assert self._closed is not None
            await self._closed

    # ------------------------------------------------------------------
    def _on_data(self, data: bytes) -> None:
        try:
            for payload in self._buffer.feed(data):
                message = protocol.decode_message(payload)
                request_id, status, body = protocol.parse_response(message)
                if request_id < 0:
                    # Reserved negative id: a server push for one of
                    # our watch subscriptions.
                    sub_id, events = protocol.parse_push(message)
                    self.pushes_received += len(events)
                    sink = self._push_sinks.get(sub_id)
                    if sink is not None:
                        sink(events)
                    continue
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue
                if status == protocol.OK:
                    future.set_result(body)
                else:
                    code, detail = protocol.parse_error(body)
                    future.set_exception(RpcError(detail, code))
        except Exception as exc:  # noqa: BLE001 - fail all outstanding
            # A frame we cannot read ends this connection; every
            # outstanding request fails with the reason.
            self._lost = True
            self._fail_pending(exc)
            self._fail_push_sinks()
            if self._transport is not None:
                self._transport.abort()

    def _on_lost(self, exc: Optional[Exception]) -> None:
        # Clean EOF is still a dead connection: every outstanding
        # request must fail, not hang, and later calls must refuse to
        # start (the peer may have been killed — cluster clients retry
        # through a refreshed partition map on this error).
        self._lost = True
        self._fail_pending(ConnectionResetError("connection closed by server"))
        self._fail_push_sinks()
        self._resume_writing()
        if self._closed is not None and not self._closed.done():
            self._closed.set_result(None)

    def _resume_writing(self) -> None:
        self._write_paused = False
        waiters, self._drain_waiters = self._drain_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _drain(self) -> None:
        """Wait while the transport's write buffer is over its
        high-water mark."""
        while self._write_paused and not self._lost:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    def _fail_push_sinks(self) -> None:
        """The connection is gone: tell every watch stream it ended."""
        sinks, self._push_sinks = list(self._push_sinks.values()), {}
        for sink in sinks:
            sink(None)

    # -- watch subscriptions -----------------------------------------------------
    def set_push_sink(self, sub_id: int, sink: PushSink) -> None:
        """Route push frames for ``sub_id`` to ``sink``."""
        self._push_sinks[sub_id] = sink

    def drop_push_sink(self, sub_id: int) -> None:
        self._push_sinks.pop(sub_id, None)

    async def subscribe(self, lo: str, hi: str) -> int:
        """Install a watch subscription; returns its id.  Register a
        sink with :meth:`set_push_sink` before awaiting changes."""
        return await self.call("subscribe", lo, hi)

    async def unsubscribe(self, sub_id: int) -> bool:
        self.drop_push_sink(sub_id)
        return await self.call("unsubscribe", sub_id)

    def _start_call(self, method: str, args: List[Any]) -> asyncio.Future:
        """Register a request and buffer its frame; the caller flushes."""
        assert self._transport is not None, "client is not connected"
        if self._lost:
            raise ConnectionResetError("connection lost")
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._out_frames.append(protocol.encode_request(request_id, method, args))
        self.requests_sent += 1
        return future

    def _flush(self) -> None:
        """Hand buffered frames to the transport in one write."""
        self._flush_scheduled = False
        if self._out_frames and self._transport is not None:
            if len(self._out_frames) == 1:
                data = self._out_frames[0]
            else:
                data = b"".join(self._out_frames)
            self._out_frames.clear()
            self._transport.write(data)

    async def call(self, method: str, *args: Any) -> Any:
        """One RPC; awaits the response."""
        future = self._start_call(method, list(args))
        self._flush()
        if self._write_paused:
            await self._drain()
        return await future

    async def call_many(self, calls: List[Tuple[str, List[Any]]]) -> List[Any]:
        """Pipeline a batch of RPCs; results come back in call order."""
        futures = [self._start_call(method, args) for method, args in calls]
        self._flush()
        await self._drain()
        return list(await asyncio.gather(*futures))

    async def call_windowed(
        self, calls: List[Tuple[str, List[Any]]], depth: int
    ) -> List[Any]:
        """Run ``calls`` keeping up to ``depth`` requests outstanding.

        The §5.1 client model as a driver: a continuous sliding
        window — each completion immediately launches the next call,
        so the connection never drains between windows — with results
        returned in call order.  Frames launched within one loop tick
        coalesce into a single transport write.
        """
        if depth < 1:
            raise ValueError(f"window depth must be >= 1, got {depth}")
        total = len(calls)
        if total == 0:
            return []
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()
        results: List[Any] = [None] * total
        state = {"next": 0, "completed": 0}

        def launch() -> None:
            index = state["next"]
            if index >= total:
                return
            state["next"] += 1
            method, args = calls[index]
            future = self._start_call(method, list(args))
            future.add_done_callback(
                lambda fut, index=index: on_done(index, fut)
            )
            if not self._flush_scheduled:
                self._flush_scheduled = True
                loop.call_soon(self._flush)

        def on_done(index: int, future: asyncio.Future) -> None:
            state["completed"] += 1
            if future.cancelled():
                if not done.done():
                    done.cancel()
                return
            exc = future.exception()
            if exc is not None:
                if not done.done():
                    done.set_exception(exc)
            else:
                results[index] = future.result()
                if not done.done():
                    # A failed window stops issuing further calls: the
                    # caller has already seen the exception, so late
                    # completions must not keep feeding the server.
                    launch()
            if state["completed"] == total and not done.done():
                done.set_result(None)

        for _ in range(min(depth, total)):
            launch()
        self._flush()
        await self._drain()
        await done
        return results

    # -- convenience wrappers ----------------------------------------------------
    async def get(self, key: str) -> Optional[str]:
        return await self.call("get", key)

    async def put(self, key: str, value: str) -> None:
        await self.call("put", key, value)

    async def remove(self, key: str) -> bool:
        return await self.call("remove", key)

    async def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return [tuple(pair) for pair in await self.call("scan", first, last)]

    async def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        return [
            tuple(pair) for pair in await self.call("scan_prefix", prefix)
        ]

    async def count(self, first: str, last: str) -> int:
        return await self.call("count", first, last)

    async def add_join(self, text: str) -> List[str]:
        return await self.call("add_join", text)

    async def stats(self) -> Dict[str, float]:
        return await self.call("stats")

    async def ping(self) -> str:
        return await self.call("ping")

    async def apply_batch(self, batch: BatchLike) -> int:
        """Ship a write batch as ONE coalesced RPC; returns changes
        applied server-side.  Compare :meth:`call_many`, which
        pipelines N requests — a batch is a single request, a single
        server dispatch, and a single maintenance pass."""
        pairs = _batch_pairs(batch)
        if not pairs:
            return 0
        return await self.call("batch", *protocol.encode_batch_args(pairs))


class SyncRpcClient:
    """Blocking facade over :class:`RpcClient` for synchronous code."""

    def __init__(self, host: str, port: int) -> None:
        self._loop = asyncio.new_event_loop()
        self._client = RpcClient(host, port)
        try:
            self._loop.run_until_complete(self._client.connect())
        except BaseException:
            self._loop.close()
            raise

    def close(self) -> None:
        self._loop.run_until_complete(self._client.close())
        self._loop.close()

    def call(self, method: str, *args: Any) -> Any:
        return self._loop.run_until_complete(self._client.call(method, *args))

    def get(self, key: str) -> Optional[str]:
        return self.call("get", key)

    def put(self, key: str, value: str) -> None:
        self.call("put", key, value)

    def remove(self, key: str) -> bool:
        return self.call("remove", key)

    def scan(self, first: str, last: str) -> List[Tuple[str, str]]:
        return [tuple(p) for p in self.call("scan", first, last)]

    def scan_prefix(self, prefix: str) -> List[Tuple[str, str]]:
        return [tuple(p) for p in self.call("scan_prefix", prefix)]

    def count(self, first: str, last: str) -> int:
        return self.call("count", first, last)

    def add_join(self, text: str) -> List[str]:
        return self.call("add_join", text)

    def stats(self) -> Dict[str, float]:
        return self.call("stats")

    def ping(self) -> str:
        return self.call("ping")

    def write_batch(self) -> WriteBatch:
        """A write batch that flushes through this client on apply."""
        return WriteBatch(sink=self)

    def apply_batch(self, batch: BatchLike) -> int:
        pairs = _batch_pairs(batch)
        if not pairs:
            return 0
        return self.call("batch", *protocol.encode_batch_args(pairs))

    def put_many(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Batch-write ``(key, value)`` pairs as one coalesced RPC."""
        return self.apply_batch(pairs)
