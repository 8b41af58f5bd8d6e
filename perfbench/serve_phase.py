"""The serve phase: store build, server launches, timed slices and staircase probes.

The timed run drives a ``pooled-repro serve --store`` subprocess pinned
to one core from this process pinned to the other.  The traced run hosts
:class:`~repro.serve.DecodeServer` in this process through the public API
instead, so that the layer hooks can see inside it; its latencies are
only compared with an untraced in-process window of the same traffic.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import loadgen
import workloads

#: The one serve knob that differs from the shipped ``ServeConfig``: the
#: coalescing window (README.md says why 32 ms).  Every other knob is the
#: program's default.
BATCH_WINDOW_MS = 32.0

LAUNCHES = 3  #: server launches per run; ``setup_s`` is their median
WARMUP_S = 2.0  #: untimed traffic near the knee before the first timed slice


def serve_config() -> dict:
    from repro.serve import ServeConfig

    return dataclasses.asdict(ServeConfig(batch_window_ms=BATCH_WINDOW_MS))


def build_store(root: Path, workload: workloads.Workload, seed: int) -> "tuple[dict, dict]":
    """Compile and publish every design key of the workload; returns the artifacts and exact counts."""
    from repro.designs import DesignStore, compile_from_key

    store = DesignStore(root)
    compiled = {}
    for m in workload.ms:
        artifact = compile_from_key(workloads.design_key(m, seed))
        store.publish(artifact)
        compiled[m] = artifact
    exact = {
        "serve.entry_bytes": store.stats.nbytes,
        "serve.block_bytes": sum(c.block_bytes for c in compiled.values()),
    }
    return compiled, exact


def store_counts(root: Path) -> dict:
    """Publishes and misses on the serve store over every process that used it.

    The benchmark publishes each key once; a server that missed L2 and
    compiled shows as a miss and an extra publish.
    """
    from repro.designs import DesignStore

    counts = DesignStore(root).persistent_stats()
    return {"serve.store_publishes": counts["publishes"], "serve.store_misses": counts["misses"]}


class ServerProcess:
    """``pooled-repro serve --store`` in a subprocess pinned to one core."""

    def __init__(self, store_root: Path, env: dict, core: "int | None", log_path: Path):
        pin = f"os.sched_setaffinity(0, {{{core}}}); " if core is not None else ""
        launcher = (
            f"import os, runpy, sys; {pin}"
            "sys.argv = ['pooled-repro', *sys.argv[1:]]; runpy.run_module('repro.cli', run_name='__main__')"
        )
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", launcher, "serve", "--store", str(store_root), "--port", "0", "--batch-window-ms", str(BATCH_WINDOW_MS)],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=env,
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


class InProcessServer:
    """:class:`~repro.serve.DecodeServer` on an event loop in a thread of this process."""

    def __init__(self, decoders: dict, store_root: Path):
        from repro.designs import DesignStore
        from repro.serve import DecodeServer, ServeConfig

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, name="perfbench-server", daemon=True)
        self.thread.start()

        async def start():
            self.server = DecodeServer(decoders, ServeConfig(batch_window_ms=BATCH_WINDOW_MS), store=DesignStore(store_root))
            return await self.server.start_tcp("127.0.0.1", 0)

        self.host, self.port = asyncio.run_coroutine_threadsafe(start(), self.loop).result(120)

    def call(self, fn):
        """``fn()`` run on the server's event loop, where its state changes."""

        async def run():
            return fn()

        return asyncio.run_coroutine_threadsafe(run(), self.loop).result(120)

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.drain(), self.loop).result(120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


#: Request ids of a probe start at ``tag * ID_STRIDE``, so the bytes a
#: probe sends depend on the seed and its tag only, never on how many
#: probes ran before it.
ID_STRIDE = 100_000


class Traffic:
    """Builds the probes of one workload and seed against one server."""

    def __init__(self, workload: workloads.Workload, seed: int, inputs: workloads.ServeInputs):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs

    def probe(self, conns: loadgen.Connections, rate: float, duration_s: float, tag: int, abort: bool = False) -> loadgen.Probe:
        offsets, pairs, signals = workloads.schedule(self.workload, self.seed, rate, duration_s, tag)
        bodies = [self.inputs.bodies[p][s] for p, s in zip(pairs, signals)]
        expected = [self.inputs.expected[p][s] for p, s in zip(pairs, signals)]
        probe = loadgen.run_open_loop(
            conns, bodies, expected, offsets, first_id=tag * ID_STRIDE, rate=rate, abort_after_ms=loadgen.LIMIT_MS if abort else None
        )
        time.sleep(0.1)
        return probe

    def warm(self, conns: loadgen.Connections) -> loadgen.Probe:
        """One request per (key, decoder) pair, sent together: every decoder attaches."""
        pairs = [(p.m, p.decoder) for p in self.workload.pairs]
        bodies = [self.inputs.bodies[p][0] for p in pairs]
        expected = [self.inputs.expected[p][0] for p in pairs]
        return loadgen.run_open_loop(conns, bodies, expected, np.zeros(len(bodies)), first_id=1, rate=0.0, timeout_s=120.0)


def window_result(probe: loadgen.Probe) -> dict:
    summary = probe.summary
    return {
        "rate": probe.rate,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "wrong": probe.wrong,
        "errors": probe.errors,
        "n": summary["n"],
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "tail_pct": summary["tail_pct"],
        "generator_lateness": probe.lateness(),
    }


def flush_tree(root: Path) -> None:
    """fsync every file under ``root``, so the next timed step starts with no dirty pages of ours."""
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


class ServeSession:
    """The untraced serve phase, driven one slice at a time between the other phases.

    Set-up compiles and publishes the workload's keys into a fresh L2
    store, computes the reference supports, and launches ``pooled-repro
    serve --store`` ``LAUNCHES`` times; each launch is timed until every
    ``(key, decoder)`` pair has answered once, and the last server stays
    up for the timed slices.
    """

    def __init__(self, workload, seed: int, rundir: Path, env: dict, core: "int | None"):
        self.store_root = store_root = rundir / "serve-l2"
        compiled, self.exact = build_store(store_root, workload, seed)
        inputs = workloads.serve_inputs(workload, seed, compiled)
        workloads.attach_expected(inputs, compiled)
        self.exact["serve.inputs_sha256"] = inputs.digest()
        del compiled
        flush_tree(store_root)
        self.workload = workload
        self.traffic = Traffic(workload, seed, inputs)
        self.probes: "list[tuple[str, loadgen.Probe]]" = []
        self.launches: "list[float]" = []
        self.server: "ServerProcess | None" = None
        self.conns: "loadgen.Connections | None" = None
        try:
            for _ in range(LAUNCHES):
                self._stop_server()
                start = time.perf_counter()
                self.server = ServerProcess(store_root, env, core, rundir / "server.log")
                self.conns = loadgen.Connections(self.server.host, self.server.port)
                warm = self.traffic.warm(self.conns)
                self.launches.append(time.perf_counter() - start)
                self.probes.append(("warm", warm))
            # The first seconds of load on a fresh server run slow; keep them
            # out of every timed slice.
            self.probes.append(("warmup", self.traffic.probe(self.conns, workload.ladder_start_rps, WARMUP_S, tag=1)))
        except BaseException:
            self.close()
            raise

    def slice(self, kind: str, rate: float, duration_s: float, tag: int) -> loadgen.Probe:
        probe = self.traffic.probe(self.conns, rate, duration_s, tag)
        self.probes.append((kind, probe))
        return probe

    def staircase_steps(self, staircase: loadgen.Staircase, budget_s: float) -> None:
        """Staircase probes for ``max_ok_rps`` while the budget allows another (at least one).

        A probe lasts long enough to hold about 110 requests at the start
        rate, so its tail is at least a p90.
        """
        probe_s = max(1.0, 110.0 / self.workload.ladder_start_rps)
        started = time.perf_counter()
        while True:
            tag = 1000 + len(staircase.history)
            self.probes.append(("ladder", staircase.step(lambda rate: self.traffic.probe(self.conns, rate, probe_s, tag=tag, abort=True))))
            if time.perf_counter() - started + probe_s > budget_s:
                break

    def pooled(self, kind: str) -> loadgen.Probe:
        """Every slice of ``kind`` in the run as one sample, so a stall in any round reaches the tail."""
        return loadgen.pool([p for k, p in self.probes if k == kind])

    def _stop_server(self) -> None:
        if self.conns is not None:
            self.conns.close()
            self.conns = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def close(self) -> None:
        """Stop the server; the store's counters then include everything it did."""
        self._stop_server()
        self.exact.update(store_counts(self.store_root))


def run_traced(workload, seed, budget, rundir: Path, tracer_factory) -> dict:
    """The traced serve phase: untraced and traced in-process windows, layer spans."""
    from repro.designs import available_decoders, make_decoder

    import tracing

    store_root = rundir / "serve-l2"
    compiled, exact = build_store(store_root, workload, seed)
    inputs = workloads.serve_inputs(workload, seed, compiled)
    workloads.attach_expected(inputs, compiled)
    del compiled
    traffic = Traffic(workload, seed, inputs)
    out: dict = {"exact": exact, "probes": [], "windows": {}}

    def window(rate, duration, tag, tracer):
        if tracer is None:
            decoders = {name: make_decoder(name) for name in available_decoders()}
        else:
            decoders = {name: tracing.TracedDecoder(make_decoder(name), name, tracer) for name in available_decoders()}
        server = InProcessServer(decoders, store_root)
        try:
            conns = loadgen.Connections(server.host, server.port)
            out["probes"].append(("warm", traffic.warm(conns)))
            out["probes"].append(("warmup", traffic.probe(conns, workload.ladder_start_rps, WARMUP_S, tag=1)))
            if tracer is not None:
                tracer.spans.clear()
            stats, pool = server.server.coalescer.stats, server.server.pool

            def snapshot():
                return (stats.batches, stats.requests, stats.overloaded, pool.hits, pool.misses, pool.evictions)

            def start_window():
                # The high-water marks restart with the window, so they
                # describe its rate and not the warm-up's.
                stats.peak_admitted = stats.admitted
                stats.max_batch_seen = 0
                return snapshot()

            before = server.call(start_window)
            probe = traffic.probe(conns, rate, duration, tag=tag)
            conns.close()
            batches, requests, overloaded, hits, misses, evictions = (now - then for now, then in zip(server.call(snapshot), before))
            # Everything below covers the measured window only.
            counters = {
                "batches": batches,
                "mean_batch": requests / batches if batches else 0.0,
                "max_batch_seen": stats.max_batch_seen,
                "peak_admitted": stats.peak_admitted,
                "overloaded": overloaded,
                "pool.hits": hits,
                "pool.misses": misses,
                "pool.evictions": evictions,
            }
        finally:
            server.stop()
        out["probes"].append((f"window-{tag}", probe))
        return probe, counters

    untraced_mid, _ = window(workload.mid_rps, budget["mid"], 3, None)
    tracer_low = tracer_factory()
    with tracing.Patches(tracer_low) as patches:
        tracing.install_layer_hooks(tracer_low, patches)
        traced_low, counters_low = window(workload.low_rps, budget["low"], 2, tracer_low)
    tracer_mid = tracer_factory()
    with tracing.Patches(tracer_mid) as patches:
        tracing.install_layer_hooks(tracer_mid, patches)
        traced_mid, counters_mid = window(workload.mid_rps, budget["mid"], 3, tracer_mid)
    out["windows"] = {
        "untraced_mid": window_result(untraced_mid),
        "traced_low": window_result(traced_low),
        "traced_mid": window_result(traced_mid),
    }
    exact.update(store_counts(store_root))
    out["counters_low"] = counters_low
    out["counters_mid"] = counters_mid
    out["tracer_low"] = tracer_low
    out["tracer_mid"] = tracer_mid
    out["wall_mid_s"] = traced_mid.wall_s
    out["overhead_ms"] = traced_mid.summary["p50_ms"] - untraced_mid.summary["p50_ms"]
    out["request_bytes"] = traced_mid.request_bytes / traced_mid.attempted
    return out
