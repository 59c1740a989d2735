"""The callback RPC transport: request order across awaitable handler
results, flow control, teardown and fault injection on one connection."""

import asyncio

from repro import PequodServer
from repro.chaos import RpcChaos
from repro.net import protocol
from repro.net.rpc_client import RpcClient
from repro.net.rpc_server import RpcServer


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class SlowRpcServer(RpcServer):
    """Adds ``slow``: a coroutine-valued handler, the shape of a
    cluster node's migration driver."""

    def _invoke(self, conn, method, args):
        if method == "slow":
            (delay,) = args

            async def finish():
                await asyncio.sleep(delay)
                return "slow"

            return finish()
        return super()._invoke(conn, method, args)


async def read_responses(reader, count):
    """``count`` response frames as ``(id, status, payload)``."""
    out = []
    for _ in range(count):
        head = await reader.readexactly(4)
        body = await reader.readexactly(int.from_bytes(head, "big"))
        out.append(protocol.parse_response(protocol.decode_message(body)))
    return out


async def raw_connection(server):
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    return reader, writer


async def close_raw(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass


class TestRequestOrder:
    def test_async_handler_in_a_pipelined_chunk_keeps_request_order(self):
        async def body():
            server = SlowRpcServer(PequodServer())
            await server.start()
            reader, writer = await raw_connection(server)
            try:
                # One write, so the server reads one chunk: sync, async,
                # sync, sync.
                writer.write(
                    protocol.encode_request(0, "put", ["k|1", "a"])
                    + protocol.encode_request(1, "slow", [0.05])
                    + protocol.encode_request(2, "get", ["k|1"])
                    + protocol.encode_request(3, "ping", [])
                )
                await writer.drain()
                got = await read_responses(reader, 4)
                assert [r[0] for r in got] == [0, 1, 2, 3]
                assert [r[2] for r in got] == [True, "slow", "a", "pong"]
                assert server.window_occupancy.count >= 1
                assert not server._connection_tasks
            finally:
                await close_raw(writer)
                await server.stop()

        run(body())

    def test_later_chunks_wait_for_an_unfinished_chunk(self):
        async def body():
            server = SlowRpcServer(PequodServer())
            await server.start()
            reader, writer = await raw_connection(server)
            try:
                writer.write(protocol.encode_request(0, "slow", [0.1]))
                await writer.drain()
                await asyncio.sleep(0.02)
                # The chunk above is still finishing: this request must
                # not overtake it.
                writer.write(protocol.encode_request(1, "ping", []))
                await writer.drain()
                got = await read_responses(reader, 2)
                assert [r[0] for r in got] == [0, 1]
            finally:
                await close_raw(writer)
                await server.stop()

        run(body())

    def test_async_handler_failure_is_an_error_response(self):
        class FailingServer(RpcServer):
            def _invoke(self, conn, method, args):
                if method == "boom":
                    async def fail():
                        raise KeyError("gone")

                    return fail()
                return super()._invoke(conn, method, args)

        async def body():
            server = FailingServer(PequodServer())
            await server.start()
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            try:
                results = await asyncio.gather(
                    client.call("boom"), client.ping(), return_exceptions=True
                )
                assert results[0].code == protocol.ERR_CODE_NOT_FOUND
                assert results[1] == "pong"
            finally:
                await client.close()
                await server.stop()

        run(body())


class TestFlowControl:
    def test_client_that_stops_reading_stops_the_server_reading(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            big = "x" * 200_000
            server.server.put("b|1", big)
            reader, writer = await raw_connection(server)
            try:
                writer.write(protocol.encode_request(0, "subscribe", ["w|", "w}"]))
                await writer.drain()
                await read_responses(reader, 1)
                assert server.watcher_count() == 1
                conn = next(iter(server._live_connections))
                # Ask for far more than the socket buffers hold, and
                # never read the answers.
                sent = 0
                for _ in range(200):
                    writer.write(
                        b"".join(
                            protocol.encode_request(sent + i + 1, "get", ["b|1"])
                            for i in range(5)
                        )
                    )
                    sent += 5
                    await asyncio.sleep(0)
                    if not conn.transport.is_reading():
                        break
                for _ in range(200):
                    if not conn.transport.is_reading():
                        break
                    await asyncio.sleep(0.01)
                assert not conn.transport.is_reading()
                served = server.requests_served
                # Requests sent now sit unread in the socket.
                writer.write(
                    b"".join(
                        protocol.encode_request(sent + i + 1, "ping", [])
                        for i in range(20)
                    )
                )
                await writer.drain()
                await asyncio.sleep(0.1)
                assert server.requests_served == served
                assert not conn.transport.is_reading()
                # The client vanishes: its watch goes with it, although
                # the server never read an EOF.
                writer.transport.abort()
                for _ in range(200):
                    if not server._live_connections:
                        break
                    await asyncio.sleep(0.01)
                assert not server._live_connections
                assert server.watcher_count() == 0
            finally:
                await close_raw(writer)
                await server.stop()

        run(body())

    def test_reading_resumes_when_the_client_drains(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            server.server.put("b|1", "y" * 200_000)
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            try:
                # Far more response bytes than any socket buffer: the
                # server must pause and resume to answer them all.
                results = await client.call_many([("get", ["b|1"])] * 150)
                assert len(results) == 150
                assert all(len(r) == 200_000 for r in results)
                assert await client.ping() == "pong"
            finally:
                await client.close()
                await server.stop()

        run(body())


class TestTeardown:
    def test_server_stop_closes_live_connections(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            client = RpcClient("127.0.0.1", server.port)
            await client.connect()
            await client.subscribe("p|", "p}")
            assert server.watcher_count() == 1
            await server.stop()
            assert server.watcher_count() == 0
            assert not server._live_connections
            # The client sees the connection end rather than hanging.
            for _ in range(100):
                if client._lost:
                    break
                await asyncio.sleep(0.01)
            try:
                await client.ping()
            except ConnectionResetError:
                pass
            else:
                raise AssertionError("ping on a closed connection succeeded")
            await client.close()

        run(body())

    def test_garbage_from_the_server_fails_pending_calls(self):
        async def body():
            async def handle(reader, writer):
                await reader.read(1)
                writer.write(b"\xff\xff\xff\xff")  # beyond MAX_FRAME
                await writer.drain()
                await close_raw(writer)

            listener = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            client = RpcClient("127.0.0.1", port)
            await client.connect()
            try:
                try:
                    await asyncio.wait_for(client.ping(), 2)
                except protocol.ProtocolError:
                    pass
                else:
                    raise AssertionError("garbage frame was accepted")
                try:
                    await client.ping()
                except ConnectionResetError:
                    pass
                else:
                    raise AssertionError("call on a dropped connection ran")
            finally:
                await client.close()
                listener.close()
                await listener.wait_closed()

        run(body())


class TestChaosOnTheCallbackPath:
    def test_delay_holds_a_pipelined_chunk_in_order(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            server.chaos = chaos = RpcChaos(delay_s=0.05)
            reader, writer = await raw_connection(server)
            try:
                writer.write(
                    b"".join(
                        protocol.encode_request(i, "ping", []) for i in range(4)
                    )
                )
                await writer.drain()
                started = asyncio.get_running_loop().time()
                got = await read_responses(reader, 4)
                assert asyncio.get_running_loop().time() - started >= 0.04
                assert [r[0] for r in got] == [0, 1, 2, 3]
                assert chaos.chunks_delayed == 1
            finally:
                await close_raw(writer)
                await server.stop()

        run(body())

    def test_drop_loses_exactly_the_dropped_frames(self):
        async def body():
            server = RpcServer(PequodServer())
            await server.start()
            server.chaos = chaos = RpcChaos(drop_every=2)
            reader, writer = await raw_connection(server)
            try:
                writer.write(
                    b"".join(
                        protocol.encode_request(i, "ping", []) for i in range(4)
                    )
                )
                await writer.drain()
                got = await read_responses(reader, 2)
                assert [r[0] for r in got] == [0, 2]
                assert chaos.frames_dropped == 2
                server.chaos = None
                writer.write(protocol.encode_request(9, "ping", []))
                await writer.drain()
                assert (await read_responses(reader, 1))[0][0] == 9
            finally:
                await close_raw(writer)
                await server.stop()

        run(body())
