"""Open-loop HTTP load generator, owned by the benchmark.

Requests are sent on a fixed schedule that does not slow down when the
server does.  A small, fixed set of persistent (keep-alive) connections
takes the next due request as soon as it is free, so when the server
falls behind, requests queue in the generator and go out late.  Every
request is timed from the moment it was *due*, not from when it was
sent, so that queueing shows in its latency; how late each one went out
is reported as lateness.  A request that fails or is refused has
latency ``inf``: it misses any limit.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass

#: Per-request socket timeout (seconds); a request that exceeds it fails.
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Request:
    """One scheduled request.  ``due`` is seconds after the run starts."""

    due: float
    kind: str
    method: str
    path: str
    body: bytes | None = None
    records: int = 0
    keep_body: bool = False


@dataclass
class Outcome:
    """What happened to one :class:`Request`."""

    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class OpenLoopClient:
    """Runs schedules against one server over ``connections`` sockets."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self.port = port
        self.connections = max(1, int(connections))
        self.inflight_max = 0

    def run(self, schedule: list[Request]):
        """Send ``schedule`` and return one :class:`Outcome` per request.

        Outcome times are relative to the run's start, like ``due``.
        """
        outcomes = [Outcome() for _ in schedule]
        state = {"next": 0, "inflight": 0}
        lock = threading.Lock()
        start = time.perf_counter()

        def worker():
            connection = None
            try:
                while True:
                    with lock:
                        index = state["next"]
                        if index >= len(schedule):
                            return
                        state["next"] = index + 1
                    request = schedule[index]
                    delay = start + request.due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    with lock:
                        state["inflight"] += 1
                        self.inflight_max = max(self.inflight_max, state["inflight"])
                    if connection is None:
                        connection = http.client.HTTPConnection(
                            self.host, self.port, timeout=REQUEST_TIMEOUT_S)
                    outcome = outcomes[index]
                    outcome.sent = time.perf_counter() - start
                    try:
                        headers = ({"Content-Type": "application/json"}
                                   if request.body is not None else {})
                        connection.request(request.method, request.path,
                                           body=request.body, headers=headers)
                        response = connection.getresponse()
                        body = response.read()
                        outcome.status = response.status
                        if request.keep_body:
                            outcome.body = body
                    except (OSError, http.client.HTTPException):
                        outcome.status = -1
                        connection.close()
                        connection = None
                    outcome.done = time.perf_counter() - start
                    with lock:
                        state["inflight"] -= 1
            finally:
                if connection is not None:
                    connection.close()

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes


def latency_s(request: Request, outcome: Outcome) -> float:
    """Latency from the scheduled send; ``inf`` for a failed request."""
    return outcome.done - request.due if outcome.ok else float("inf")


def lateness_s(request: Request, outcome: Outcome) -> float:
    """How long after its due time the request was actually sent."""
    return max(0.0, outcome.sent - request.due)
