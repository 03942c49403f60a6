"""The benchmark's own HTTP/1.1 keep-alive client and load phases.

Deliberately independent of ``repro.serving.client``/``loadgen``: a change
to the program's client library must not move the harness that measures
it.  Requests are encoded to bytes before a phase starts, so the timed
path is one ``sendall`` plus reading one response.
"""

from __future__ import annotations

import math
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    """One keep-alive HTTP/1.1 request, ready to send."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


class RawClient:
    """One keep-alive socket; reconnects when the server closes it."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        self.address = (host, port)
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        return sock

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send pre-encoded request bytes; return ``(status, body)``."""
        if self._sock is None:
            self._sock = self._connect()
        try:
            self._sock.sendall(raw)
            return self._read_response()
        except BaseException:
            self.close()
            raise

    def _read_response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        while len(rest) < length:
            rest += self._recv()
        body, self._buffer = rest[:length], rest[length:]
        if close:
            self.close()
        return status, body

    def _recv(self) -> bytes:
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection mid-response")
        return data

    def _fill(self) -> None:
        self._buffer += self._recv()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""


@dataclass
class PhaseResult:
    """One load phase: per-request timings and raw responses."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    started_at: float = 0.0
    elapsed_s: float = 0.0
    exhausted: bool = False          # closed loop ran out of payloads
    latencies_s: list = field(default_factory=list)      # 200s only
    completed_at: list = field(default_factory=list)     # 200s only
    lateness_s: list = field(default_factory=list)       # open loop only
    responses: list = field(default_factory=list)        # (payload index, status, body)

    def record(self) -> dict:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed, "elapsed_s": self.elapsed_s,
                "exhausted": self.exhausted}


def open_loop(host: str, port: int, requests: list[bytes],
              due_offsets: np.ndarray, payload_ids: np.ndarray,
              connections: int) -> PhaseResult:
    """Send ``requests[payload_ids[i]]`` at ``start + due_offsets[i]``.

    ``connections`` threads, one keep-alive socket each, take the next
    due request as soon as they are free.  Latency runs from the due
    time, so a request that waited for a free connection carries that
    wait; lateness is how late the generator itself sent (send time
    minus the later of due time and the moment a connection was free).
    """
    result = PhaseResult("open_loop")
    lock = threading.Lock()
    cursor = iter(range(len(due_offsets)))
    start = result.started_at = time.perf_counter() + 0.05

    def run(client: RawClient) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            free_at = time.perf_counter()
            due = start + due_offsets[index]
            delay = due - free_at
            if delay > 0:
                time.sleep(delay)
            sent_at = time.perf_counter()
            payload = int(payload_ids[index])
            try:
                status, body = client.request(requests[payload])
            except OSError:
                status, body = 0, b""
            done = time.perf_counter()
            with lock:
                result.sent += 1
                result.lateness_s.append(sent_at - max(due, free_at))
                result.responses.append((payload, status, body))
                if status == 200:
                    result.succeeded += 1
                    result.latencies_s.append(done - due)
                    result.completed_at.append(done)
                else:
                    result.failed += 1

    _run_threads(run, host, port, connections)
    result.elapsed_s = time.perf_counter() - start
    return result


def closed_loop(host: str, port: int, requests: list[bytes],
                payload_ids: np.ndarray, connections: int,
                seconds: float | None, name: str = "closed_loop"
                ) -> PhaseResult:
    """Each of ``connections`` threads sends back to back for ``seconds``.

    Payloads are taken in ``payload_ids`` order across all threads and
    never reused: the phase ends early, with ``exhausted`` set, if they run
    out.  With ``seconds=None`` it sends every payload once and stops.
    """
    result = PhaseResult(name)
    lock = threading.Lock()
    cursor = iter(range(len(payload_ids)))
    start = result.started_at = time.perf_counter()
    stop_at = start + seconds if seconds is not None else math.inf

    def run(client: RawClient) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                index = next(cursor, None)
            if index is None:
                result.exhausted = seconds is not None
                return
            payload = int(payload_ids[index])
            sent_at = time.perf_counter()
            try:
                status, body = client.request(requests[payload])
            except OSError:
                status, body = 0, b""
            done = time.perf_counter()
            with lock:
                result.sent += 1
                result.responses.append((payload, status, body))
                if status == 200:
                    result.succeeded += 1
                    result.latencies_s.append(done - sent_at)
                    result.completed_at.append(done)
                else:
                    result.failed += 1

    _run_threads(run, host, port, connections)
    result.elapsed_s = time.perf_counter() - start
    return result


def _run_threads(target, host: str, port: int, connections: int) -> None:
    """Run ``target(client)`` on ``connections`` threads, each with its own
    client; re-raise the first error a thread hit once all have ended."""
    clients = [RawClient(host, port) for _ in range(connections)]
    errors: list[BaseException] = []

    def guarded(client: RawClient) -> None:
        try:
            target(client)
        except BaseException as error:      # re-raised on the caller below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(client,), daemon=True)
               for client in clients]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    if errors:
        raise errors[0]
