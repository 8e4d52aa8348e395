"""Raw-socket floor for the layer ladder: an asyncio server that knows no
protocol.  A connection opens with ``request_len, reply_len`` (two big-endian
u32) and ``reply_len`` bytes of canned reply; after that every
``request_len`` bytes received are answered with the canned reply."""

import asyncio
import socket
import struct


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        request_len, reply_len = struct.unpack(">II", await reader.readexactly(8))
        reply = await reader.readexactly(reply_len)
        while True:
            await reader.readexactly(request_len)
            writer.write(reply)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"echo listening on {host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(main())
