"""Open-loop load generation against a serve process, and the latency rules.

One process drives the load: a sender thread writes pre-encoded request
lines at their scheduled times over at most two TCP connections, and the
calling thread reads and checks the responses.  Each request's latency
runs from the moment it was *due*, not from when the sender got round to
it, so a stalled server is charged for the backlog it builds; the
sender's own lateness is reported beside the latencies as a validity
check on the run.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Latency limit on the tail for ``max_ok_rps``.
LIMIT_MS = 100.0

#: Step of the fixed geometric rate ladder ``max_ok_rps`` is searched on.
LADDER_STEP = 1.05
LADDER_BASE = 10.0
LADDER_TOP = 4000.0


def _rank(pct: float, n: int) -> int:
    """Nearest rank ``ceil(p·n/100)``, immune to float error in ``p·n/100``."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values: "np.ndarray | list[float]", pct: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    return float(sorted_values[_rank(pct, len(sorted_values)) - 1])


def tail_percentile(n: int) -> "float | None":
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it.

    With nearest-rank percentiles, ``n - ceil(p·n/100)`` samples lie
    strictly beyond percentile ``p``.  ``None`` when even the median has
    too few samples beyond it.
    """
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def latency_summary(latencies_ms: "list[float]") -> dict:
    """Median and rule-chosen tail of a latency sample (``ms``)."""
    values = np.sort(np.asarray(latencies_ms, dtype=np.float64))
    n = int(values.size)
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50_ms": nearest_rank(values, 50.0) if n else float("nan"),
        "tail_pct": pct,
        "tail_ms": nearest_rank(values, pct) if pct is not None else float("nan"),
    }


def ladder() -> "list[float]":
    """The fixed geometric rate ladder (requests per second)."""
    rungs = []
    rate = LADDER_BASE
    while rate <= LADDER_TOP:
        rungs.append(round(rate, 3))
        rate *= LADDER_STEP
    return rungs


def arrival_offsets(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson arrivals at ``rate`` over ``duration_s``, conditioned on their count.

    The count is fixed at ``round(rate · duration)`` and the times are the
    sorted uniform draws a Poisson process has given that count, so the
    offered rate is exact and the schedule still has Poisson burstiness.
    """
    count = max(1, int(round(rate * duration_s)))
    return np.sort(rng.uniform(0.0, duration_s, size=count))


@dataclass
class Probe:
    """Outcome of one open-loop probe."""

    rate: float
    attempted: int  #: requests sent
    latencies_ms: "list[float]"  #: of successful, correct responses, in schedule order
    failed: int  #: sent requests answered with an error or a wrong support, or not answered
    wrong: int  #: responses whose support differs from the expected one
    aborted: bool = False  #: sending stopped early because the probe was already over the limit
    request_bytes: int = 0  #: bytes of the request lines sent
    errors: "dict[str, int]" = field(default_factory=dict)
    lateness_ms: "list[float]" = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def summary(self) -> dict:
        return latency_summary(self.latencies_ms)

    def lateness(self) -> dict:
        late = np.sort(np.asarray(self.lateness_ms or [0.0]))
        return {"p99_ms": nearest_rank(late, 99.0), "max_ms": float(late[-1])}

    def meets_limit(self, limit_ms: float = LIMIT_MS) -> bool:
        """Tail within the limit, nothing failed, and no growing backlog.

        A failed or refused request misses the limit, so any failure fails
        the probe.  The backlog test asks that the latest third of the
        requests also has its median within the limit: a queue that grows
        through the probe pushes the late requests past it first.
        """
        if self.aborted or self.failed or not self.latencies_ms:
            return False
        summary = self.summary
        if summary["tail_pct"] is None or summary["tail_ms"] > limit_ms:
            return False
        last = self.latencies_ms[-max(1, len(self.latencies_ms) // 3):]
        return float(np.median(last)) <= limit_ms


def pool(probes: "list[Probe]") -> Probe:
    """One probe's worth of results from several slices at the same rate."""
    merged = Probe(rate=probes[0].rate, attempted=0, latencies_ms=[], failed=0, wrong=0)
    for p in probes:
        merged.attempted += p.attempted
        merged.latencies_ms += p.latencies_ms
        merged.failed += p.failed
        merged.wrong += p.wrong
        merged.aborted = merged.aborted or p.aborted
        merged.request_bytes += p.request_bytes
        merged.lateness_ms += p.lateness_ms
        for code, count in p.errors.items():
            merged.errors[code] = merged.errors.get(code, 0) + count
    return merged


class Connections:
    """At most two pipelined TCP connections to one server."""

    def __init__(self, host: str, port: int, count: int = 2):
        self.socks = []
        for _ in range(count):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)

    def close(self) -> None:
        for sock in self.socks:
            try:
                sock.close()
            except OSError:
                pass
        self.socks = []


def request_line(request_id: int, body: bytes) -> bytes:
    """A request line from a pre-encoded body (``body`` starts after the id)."""
    return b'{"request_id":%d,' % request_id + body


def run_open_loop(
    conns: Connections,
    bodies: "list[bytes]",
    expected: "list[tuple[int, ...]]",
    offsets: np.ndarray,
    *,
    first_id: int,
    rate: float,
    timeout_s: float = 15.0,
    abort_after_ms: "float | None" = None,
) -> Probe:
    """Send ``bodies[i]`` at ``offsets[i]`` seconds; read and check every response.

    ``expected[i]`` is the support request ``i`` must come back with.  With
    ``abort_after_ms``, sending stops early once a tenth of the requests
    sent so far have exceeded that latency (a probe far past the knee
    need not be run to the end to fail); unsent requests are not attempted.
    """
    count = len(bodies)
    lines = [request_line(first_id + i, body) for i, body in enumerate(bodies)]
    sent_at = np.full(count, np.nan)
    recv_at = np.full(count, np.nan)
    ok = np.zeros(count, dtype=bool)
    wrong = 0
    errors: "dict[str, int]" = {}
    abort = threading.Event()
    aborted = False
    socks = conns.socks
    t0 = time.perf_counter() + 0.02
    due = t0 + offsets

    def sender() -> None:
        for i in range(count):
            if abort.is_set():
                return
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at[i] = time.perf_counter()
            socks[i % len(socks)].sendall(lines[i])

    thread = threading.Thread(target=sender, name="perfbench-sender", daemon=True)
    sel = selectors.DefaultSelector()
    for sock in socks:
        sel.register(sock, selectors.EVENT_READ)
    buffers = {sock: b"" for sock in socks}
    received = 0
    late_count = 0
    thread.start()
    deadline = due[-1] + timeout_s
    try:
        while received < count:
            now = time.perf_counter()
            if now > deadline:
                break
            if abort.is_set() and not thread.is_alive():
                outstanding = int(np.sum(~np.isnan(sent_at))) - received
                if outstanding <= 0:
                    break
            for key, _ in sel.select(timeout=0.05):
                sock = key.fileobj
                chunk = sock.recv(1 << 20)
                stamp = time.perf_counter()
                if not chunk:
                    raise ConnectionError("server closed a load connection")
                data = buffers[sock] + chunk
                *complete, buffers[sock] = data.split(b"\n")
                for raw in complete:
                    if not raw:
                        continue
                    response = json.loads(raw)
                    i = int(response["request_id"]) - first_id
                    if not 0 <= i < count or not np.isnan(recv_at[i]):
                        raise ValueError(f"unexpected response id {response['request_id']!r}")
                    recv_at[i] = stamp
                    received += 1
                    if response.get("ok"):
                        if tuple(response["support"]) == expected[i]:
                            ok[i] = True
                        else:
                            wrong += 1
                    else:
                        code = response.get("error", {}).get("code", "unknown")
                        errors[code] = errors.get(code, 0) + 1
                    if abort_after_ms is not None and (stamp - due[i]) * 1e3 > abort_after_ms:
                        late_count += 1
                        if late_count * 10 >= count and not abort.is_set():
                            aborted = True
                            abort.set()
    finally:
        abort.set()
        thread.join(timeout=timeout_s)
        sel.close()
    sent = ~np.isnan(sent_at)
    latencies = ((recv_at - due) * 1e3)[ok]
    lateness = ((sent_at - due) * 1e3)[sent]
    finished = np.nanmax(recv_at) if received else time.perf_counter()
    return Probe(
        rate=rate,
        attempted=int(sent.sum()),
        latencies_ms=[float(v) for v in latencies],
        failed=int(sent.sum() - ok.sum()),
        wrong=wrong,
        aborted=aborted,
        request_bytes=sum(len(line) for line, was_sent in zip(lines, sent) if was_sent),
        errors=errors,
        lateness_ms=[float(v) for v in lateness],
        wall_s=float(finished - t0),
    )


class Staircase:
    """Up-down search of the rate ladder for the rung where the limit is met half the time.

    After a probe that meets the limit the next probe goes one rung up,
    after one that misses it one rung down; until the first reversal the
    steps are ``APPROACH`` rungs, to reach the knee quickly.  Probes can be
    spread over a run, so the estimate averages the machine's drift, and
    it sharpens with every probe instead of resting on one pass/fail
    decision.  The estimate is the geometric mean of the rates probed from
    the first reversal on.
    """

    APPROACH = 3

    def __init__(self, start_rate: float):
        self.rungs = ladder()
        self.idx = int(np.argmin([abs(r - start_rate) for r in self.rungs]))
        self.history: "list[tuple[float, bool]]" = []

    @property
    def reversed(self) -> bool:
        return any(a[1] != b[1] for a, b in zip(self.history, self.history[1:]))

    def step(self, probe_at) -> Probe:
        rate = self.rungs[self.idx]
        probe = probe_at(rate)
        passed = probe.meets_limit()
        stride = 1 if self.reversed or (self.history and self.history[-1][1] != passed) else self.APPROACH
        self.history.append((rate, passed))
        self.idx = min(len(self.rungs) - 1, self.idx + stride) if passed else max(0, self.idx - stride)
        return probe

    def estimate(self) -> "float | None":
        """``None`` until the search has reversed direction at least once."""
        first = next((i for i in range(1, len(self.history)) if self.history[i][1] != self.history[i - 1][1]), None)
        if first is None:
            return None
        rates = [rate for rate, _ in self.history[first:]]
        return float(np.exp(np.mean(np.log(rates))))
