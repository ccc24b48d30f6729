"""An open-loop HTTP load generator on a seeded Poisson schedule.

Requests are due at Poisson arrival times whatever the server does, so
a stall delays every later request and its latency counts from the due
time (coordinated omission is not hidden).  At most ``connections``
keep-alive connections are open; a due request waits for a free one.
Writes form one sequential ETL stream: a write is sent only after the
previous write was answered, so the server applies them in schedule
order and a replay of the acknowledged writes reproduces its data.
"""

from __future__ import annotations

import asyncio
import gc
import random
import selectors
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from urllib.parse import quote

#: a request not answered within this many seconds is a failure
REQUEST_TIMEOUT_S = 10.0

#: stop issuing a rung's requests once this many are due but unanswered
#: or the oldest of them is this late: the backlog is growing
MAX_BACKLOG = 5000
MAX_BACKLOG_AGE_S = 3.0


@dataclass
class Request:
    kind: str  # "search" | "write"
    key: object  # the query text, or (statement, expected rowcount)
    due: float = 0.0
    woke: float = 0.0  # when the generator got round to it
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: never answered (timeout, broken connection)
    body: bytes = b""
    rid: int = 0

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class RungResult:
    rate: float
    seconds: float
    requests: list = field(default_factory=list)
    aborted: bool = False  # backlog passed the limits; rest not sent
    start: float = 0.0
    end: float = 0.0
    #: (start, end) of each measured stretch (several for merged chunks)
    windows: list = field(default_factory=list)


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> list:
    """Arrival offsets (s) of a Poisson process of *rate* over *seconds*."""
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return offsets
        offsets.append(t)


def _run(coro):
    """Run *coro* on an event loop that waits with ``select``.

    ``select`` takes its timeout in microseconds where ``epoll`` rounds
    it up to a millisecond, so a sleeping generator wakes within about
    a tenth of a millisecond of a due time without spinning: it keeps
    its CPU share (a few per cent) off the cores the server runs on.
    """
    with asyncio.Runner(loop_factory=lambda: asyncio.SelectorEventLoop(
            selectors.SelectSelector())) as runner:
        return runner.run(coro)


async def _sleep_until(due: float) -> None:
    delay = due - perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def request(self, method: str, target: str, body: bytes = b""):
        if self.writer is None:
            await self.open()
        head = (f"{method} {target} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode() + body)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, __, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self.reader.readexactly(length) if length else b""
        if close:
            self.close()
        return status, payload


class LoadGenerator:
    """Drives one server over ``connections`` keep-alive connections."""

    def __init__(self, host: str, port: int, connections: int = 2,
                 writes=None, tag_requests: bool = False) -> None:
        self.host, self.port = host, port
        self.connections = connections
        #: the ETL write stream (``inputs.WriteStream``); a write's
        #: statement is drawn when it is sent, so the stream stays in
        #: order even when a rung stops early
        self.writes = writes
        #: add a request id (``rid=``) to each URL so server-side spans
        #: can be joined to client latencies (traced runs only)
        self.tag_requests = tag_requests
        self._next_rid = 1

    def target(self, request: Request) -> "tuple[str, str, bytes]":
        if request.kind == "write":
            target = "/sql"
            if self.tag_requests:
                target += f"?rid={request.rid}"
            return "POST", target, request.key[0].encode()
        target = f"/search?q={quote(request.key)}"
        if self.tag_requests:
            target += f"&rid={request.rid}"
        return "GET", target, b""

    def run_rung(self, rate: float, seconds: float, plan: list) -> RungResult:
        """Send *plan* — ``(offset_s, kind, key)`` triples — on time.

        The generator's own collector is off while a rung runs, so its
        pauses do not show up as server latency.
        """
        gc.collect()
        gc.disable()
        try:
            return _run(self._rung(rate, seconds, plan))
        finally:
            gc.enable()

    def run_saturated(self, seconds: float, keys: list) -> RungResult:
        """Searches for *keys*, closed loop on every connection for
        *seconds*: each connection sends its next search as soon as the
        previous one is answered, so the server always has work and
        the answered rate is its capacity."""
        gc.collect()
        gc.disable()
        try:
            return _run(self._saturated(seconds, keys))
        finally:
            gc.enable()

    def run_closed(self, requests: list) -> list:
        """Send *requests* one after another (warm-up, probes)."""
        return _run(self._closed(requests))

    async def _closed(self, requests: list) -> list:
        conn = _Connection(self.host, self.port)
        try:
            for request in requests:
                request.due = request.woke = perf_counter()
                await self._send(conn, request)
        finally:
            conn.close()
        return requests

    async def _saturated(self, seconds: float, keys: list) -> RungResult:
        result = RungResult(rate=0.0, seconds=seconds)
        source = iter(keys)  # shared: each key is sent once
        conns = [_Connection(self.host, self.port)
                 for __ in range(self.connections)]
        for conn in conns:
            await conn.open()
        result.start = perf_counter()
        stop = result.start + seconds

        async def loop(conn: _Connection) -> None:
            for key in source:
                if perf_counter() >= stop:
                    return
                request = Request(kind="search", key=key)
                request.due = request.woke = perf_counter()
                result.requests.append(request)
                await self._send(conn, request)

        try:
            await asyncio.gather(*(loop(conn) for conn in conns))
        finally:
            for conn in conns:
                conn.close()
        result.end = perf_counter()
        result.windows = [(result.start, result.end)]
        return result

    async def _send(self, conn: _Connection, request: Request) -> None:
        if request.kind == "write" and request.key is None:
            request.key = self.writes.next()
        request.rid = self._next_rid
        self._next_rid += 1
        method, target, body = self.target(request)
        request.sent = perf_counter()
        try:
            request.status, request.body = await asyncio.wait_for(
                conn.request(method, target, body), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, IndexError):
            conn.close()  # reopen lazily for the next request
            request.status = 0
        request.done = perf_counter()

    async def _rung(self, rate: float, seconds: float, plan: list):
        result = RungResult(rate=rate, seconds=seconds)
        free: asyncio.Queue = asyncio.Queue()
        conns = [_Connection(self.host, self.port)
                 for __ in range(self.connections)]
        for conn in conns:
            await conn.open()
            free.put_nowait(conn)
        tasks: list = []
        backlog: deque = deque()  # (due, task) not yet answered, oldest first
        previous_write: "asyncio.Task | None" = None

        async def one(request: Request, after: "asyncio.Task | None"):
            if after is not None:
                await after
            conn = await free.get()
            try:
                await self._send(conn, request)
            finally:
                free.put_nowait(conn)

        start = perf_counter()
        result.start = start
        try:
            for offset, kind, key in plan:
                request = Request(kind=kind, key=key, due=start + offset)
                await _sleep_until(request.due)
                request.woke = perf_counter()
                while backlog and backlog[0][1].done():
                    backlog.popleft()
                if backlog and (
                    len(backlog) >= MAX_BACKLOG
                    or request.woke - backlog[0][0] > MAX_BACKLOG_AGE_S
                ):
                    result.aborted = True
                    break
                task = asyncio.create_task(
                    one(request, previous_write
                        if request.kind == "write" else None)
                )
                if request.kind == "write":
                    previous_write = task
                tasks.append(task)
                backlog.append((request.due, task))
                result.requests.append(request)
            await asyncio.gather(*tasks)
        finally:
            for conn in conns:
                conn.close()
        result.end = perf_counter()
        result.windows = [(result.start, result.end)]
        return result
