"""HTTP/1.1 load generator for the serve workloads (stdlib asyncio only).

One process drives the gateway over at most two keep-alive connections:

- :func:`open_loop` sends each request at its scheduled time (seeded
  Poisson arrivals, as from independent users), whether or not earlier
  requests have finished.  Latency runs from the *scheduled* send time to
  the last response byte, so a stall is charged to every request it
  delays.  Each record also notes how late the generator itself woke up.
- :func:`closed_loop` keeps every connection busy: the next request goes
  out as soon as the previous response is in, which measures throughput.

Times are ``perf_counter_ns`` values, comparable with server-side spans.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["Record", "Connection", "open_loop", "closed_loop"]

#: (request id, body index, body bytes)
Request = Tuple[int, int, bytes]


class Record(NamedTuple):
    rid: int
    body: int
    due: int
    #: How late the generator woke for this request, past its due time or
    #: past the moment it finished handing off the previous request.  A
    #: request that waited for a free connection is not counted late.
    late: int
    sent: int
    done: int
    status: int
    payload: bytes


class Connection:
    """One keep-alive client connection; one exchange at a time."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def exchange(
        self, method: str, path: str, body: bytes = b"", rid: Optional[int] = None
    ) -> Tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nhost: perf\r\n"
        if rid is not None:
            head += f"x-perf-id: {rid}\r\n"
        head += f"content-length: {len(body)}\r\n\r\n"
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        status = int(raw.split(b" ", 2)[1])
        length = 0
        for line in raw.lower().split(b"\r\n"):
            if line.startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _post(
    connection: Connection, request: Request, due: int, late: int
) -> Record:
    rid, index, body = request
    sent = time.perf_counter_ns()
    status, payload = await connection.exchange("POST", "/v1/predict", body, rid)
    return Record(
        rid, index, due, late, sent, time.perf_counter_ns(), status, payload
    )


async def open_loop(
    address: Tuple[str, int],
    requests: Sequence[Request],
    offsets_ns: Sequence[int],
    connections: int = 2,
) -> List[Record]:
    """Send ``requests[i]`` at ``offsets_ns[i]`` after the start."""
    pool = [await Connection.open(*address) for _ in range(connections)]
    idle: asyncio.Queue = asyncio.Queue()
    for connection in pool:
        idle.put_nowait(connection)

    async def send(
        connection: Connection, request: Request, due: int, late: int
    ) -> Record:
        try:
            return await _post(connection, request, due, late)
        finally:
            idle.put_nowait(connection)

    tasks: List[asyncio.Task] = []
    start = time.perf_counter_ns() + 5_000_000
    try:
        for request, offset in zip(requests, offsets_ns):
            due = start + offset
            ready = time.perf_counter_ns()
            if due > ready:
                await asyncio.sleep((due - ready) / 1e9)
            late = time.perf_counter_ns() - max(due, ready)
            connection = await idle.get()
            tasks.append(
                asyncio.ensure_future(send(connection, request, due, late))
            )
        return list(await asyncio.gather(*tasks))
    finally:
        for task in tasks:
            task.cancel()
        for connection in pool:
            await connection.close()


async def closed_loop(
    address: Tuple[str, int],
    next_request: Callable[[], Request],
    seconds: float,
    think: Callable[[], float],
    connections: int = 2,
) -> Tuple[List[Record], float]:
    """Keep up to ``connections`` requests in flight for ``seconds``.

    Each client waits ``think()`` seconds after a response before sending
    its next request.  Returns the records and the elapsed seconds up to
    the last response.
    """
    pool = [await Connection.open(*address) for _ in range(connections)]
    records: List[Record] = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)

    async def client(connection: Connection) -> None:
        while time.perf_counter_ns() < deadline:
            now = time.perf_counter_ns()
            records.append(await _post(connection, next_request(), now, 0))
            await asyncio.sleep(think())

    try:
        await asyncio.gather(*(client(connection) for connection in pool))
    finally:
        for connection in pool:
            await connection.close()
    end = max((record.done for record in records), default=start)
    return records, (end - start) / 1e9
