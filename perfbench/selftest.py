#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery (not of the program it measures).

Run from the root of a checkout::

    python3 perfbench/selftest.py

The load-generator tests talk to stub servers on localhost, so they need
neither the program's sources nor a running ``pooled-repro serve``; the
input-generation test needs ``src/``.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import loadgen  # noqa: E402


class StubServer:
    """A line server on localhost answering each request through ``respond(request_id)``.

    ``respond`` returns the response dict for a request id; ``delay_s``
    makes the stub serve one request at a time, each taking that long.
    """

    def __init__(self, respond, delay_s: float = 0.0):
        self.respond = respond
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        buffer = b""
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                *lines, buffer = (buffer + chunk).split(b"\n")
                for line in lines:
                    request_id = json.loads(line)["request_id"]
                    with self.lock:
                        time.sleep(self.delay_s)
                        payload = {"request_id": request_id, **self.respond(request_id)}
                    conn.sendall(json.dumps(payload).encode() + b"\n")

    def close(self) -> None:
        self.listener.close()


def body() -> bytes:
    return b'"y":[1,2,3],"k":1}\n'


def run_against(stub: StubServer, count: int, rate: float, **kwargs) -> loadgen.Probe:
    conns = loadgen.Connections("127.0.0.1", stub.port)
    try:
        offsets = np.arange(count) / rate
        return loadgen.run_open_loop(conns, [body()] * count, [(1, 2)] * count, offsets, first_id=1, rate=rate, timeout_s=5.0, **kwargs)
    finally:
        conns.close()
        stub.close()


GOOD = {"ok": True, "support": [1, 2]}


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(loadgen.tail_percentile(10))
        self.assertEqual(loadgen.tail_percentile(20), 50.0)
        self.assertEqual(loadgen.tail_percentile(100), 90.0)
        self.assertEqual(loadgen.tail_percentile(199), 90.0)
        self.assertEqual(loadgen.tail_percentile(200), 95.0)
        self.assertEqual(loadgen.tail_percentile(1000), 99.0)
        self.assertEqual(loadgen.tail_percentile(10_000), 99.9)

    def test_summary_uses_nearest_rank(self):
        summary = loadgen.latency_summary([float(v) for v in range(100, 0, -1)])
        self.assertEqual((summary["n"], summary["p50_ms"], summary["tail_pct"], summary["tail_ms"]), (100, 50.0, 90.0, 90.0))
        beyond = sum(v > summary["tail_ms"] for v in range(1, 101))
        self.assertGreaterEqual(beyond, loadgen.TAIL_MIN_BEYOND)


class OpenLoop(unittest.TestCase):
    def test_fast_server_meets_limit(self):
        probe = run_against(StubServer(lambda rid: GOOD), count=40, rate=200.0)
        self.assertEqual((probe.attempted, probe.failed, probe.wrong), (40, 0, 0))
        self.assertTrue(probe.meets_limit())

    def test_stalled_server_latency_includes_backlog(self):
        # One request at a time, 50 ms each, offered every 10 ms: the queue
        # grows by 40 ms per request, and latency counted from the due time
        # must show it even though every send went out on schedule.
        probe = run_against(StubServer(lambda rid: GOOD, delay_s=0.05), count=20, rate=100.0)
        self.assertEqual(probe.failed, 0)
        lat = probe.latencies_ms
        self.assertGreater(lat[-1], 0.9 * (50 * 20 - 10 * 19))
        self.assertGreater(lat[-1], lat[0] + 500)
        self.assertLess(probe.lateness()["max_ms"], 50.0)
        self.assertFalse(probe.meets_limit())

    def test_corrupted_response_fails_correctness(self):
        def respond(rid):
            return {"ok": True, "support": [1, 3]} if rid == 4 else GOOD

        probe = run_against(StubServer(respond), count=20, rate=200.0)
        self.assertEqual((probe.wrong, probe.failed), (1, 1))
        self.assertEqual(len(probe.latencies_ms), 19)
        self.assertFalse(probe.meets_limit())

    def test_refused_and_failed_requests_count_and_miss_the_limit(self):
        def respond(rid):
            if rid in (2, 5):
                return {"ok": False, "error": {"code": "overloaded", "message": "full"}}
            if rid == 7:
                return {"ok": False, "error": {"code": "internal", "message": "boom"}}
            return GOOD

        probe = run_against(StubServer(respond), count=30, rate=300.0)
        self.assertEqual(probe.failed, 3)
        self.assertEqual(probe.errors, {"overloaded": 2, "internal": 1})
        self.assertEqual(len(probe.latencies_ms), 27)
        self.assertFalse(probe.meets_limit())


class LadderSearch(unittest.TestCase):
    def test_ladder_steps_at_most_ten_percent(self):
        rungs = loadgen.ladder()
        self.assertTrue(all(b / a <= 1.1 + 1e-9 for a, b in zip(rungs, rungs[1:])))

    def test_staircase_settles_at_the_knee(self):
        knee = 173.0

        def probe_at(rate):
            latency = 10.0 if rate <= knee else 500.0
            return loadgen.Probe(rate=rate, attempted=200, latencies_ms=[latency] * 200, failed=0, wrong=0)

        staircase = loadgen.Staircase(start_rate=50.0)
        self.assertIsNone(staircase.estimate())
        for _ in range(30):
            staircase.step(probe_at)
        highest_passing = max(r for r in loadgen.ladder() if r <= knee)
        self.assertGreaterEqual(staircase.estimate(), highest_passing)
        self.assertLessEqual(staircase.estimate(), highest_passing * loadgen.LADDER_STEP)

    def test_a_failed_request_misses_the_limit(self):
        probe = loadgen.Probe(rate=100.0, attempted=200, latencies_ms=[10.0] * 199, failed=1, wrong=0)
        self.assertFalse(probe.meets_limit())


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        import workloads
        from repro.designs import compile_from_key

        workload = workloads.WORKLOADS["serve-hot"]

        def generate(seed):
            compiled = {m: compile_from_key(workloads.design_key(m, seed)) for m in workload.ms}
            inputs = workloads.serve_inputs(workload, seed, compiled)
            offsets, pairs, signals = workloads.schedule(workload, seed, workload.mid_rps, 2.0, tag=3)
            return inputs.digest(), offsets.tobytes(), pairs, signals.tobytes(), workloads.lifecycle_y(seed, 0).tobytes()

        first, again, other = generate(5), generate(5), generate(6)
        self.assertEqual(first, again)
        self.assertNotEqual(first[0], other[0])
        self.assertNotEqual(first[1], other[1])

    def test_every_slice_carries_the_exact_mix(self):
        import workloads

        shares = np.array([p.share for p in workloads.WORKLOADS["serve-mixed"].pairs])
        for size in (1, 7, 38, 152, 383):
            counts = np.bincount(workloads.exact_mix(shares, size, np.random.default_rng(size)), minlength=shares.size)
            self.assertEqual(int(counts.sum()), size)
            self.assertTrue(np.all(np.abs(counts - shares / shares.sum() * size) < 1.0))


class SweepCalibration(unittest.TestCase):
    def test_machine_drift_cancels_and_program_slowdown_shows(self):
        import sweep

        sweep_s, calibration_s = [1.0, 0.9, 1.1, 1.05], [0.025, 0.023, 0.027, 0.026]
        base = sweep.calibrated_rate(sweep_s, calibration_s)
        slow_machine = sweep.calibrated_rate([1.4 * t for t in sweep_s], [1.4 * c for c in calibration_s])
        slow_program = sweep.calibrated_rate([1.4 * t for t in sweep_s], calibration_s)
        self.assertAlmostEqual(slow_machine, base)
        self.assertAlmostEqual(slow_program, base / 1.4)


if __name__ == "__main__":
    unittest.main(verbosity=2)
