"""The design-lifecycle phase: one closed-loop caller, a fresh design key per iteration.

Each iteration times four steps on a key no store has seen:

1. ``cold`` — compile, publish and first decode into an empty store;
2. ``push`` — push the entry to a :class:`~repro.designs.LocalDirRemote`;
3. ``l2`` — attach and first decode from a fresh store on the same root;
4. ``l3`` — pull and first decode into a fresh, empty store sharing the remote.

The three first decodes must be bit-identical.  The serve path is not
involved.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from serve_phase import flush_tree

now = time.perf_counter

STEPS = ("cold", "push", "l2", "l3")


def _first_decode(key, store, y) -> "tuple[np.ndarray, object]":
    """The first decode of ``y`` through ``store``, and the compiled decoder."""
    from repro.designs import make_decoder

    decoder = make_decoder("mn").compile(key, store=store)
    return decoder.decode(y, workloads.K), decoder


def one_iteration(
    seed: int, iteration: int, rundir: Path, hashes: tracing.HashCounter, compiles: tracing.CompileCounter, tracer: "tracing.Tracer | None"
) -> dict:
    """Time the four steps on a fresh key; every step starts with this run's writes on disk."""
    from repro.designs import DesignStore, LocalDirRemote

    key = workloads.lifecycle_key(seed, iteration)
    y = workloads.lifecycle_y(seed, iteration)
    base = rundir / f"lifecycle-{iteration}"
    l2_root, l3_root, fleet_root = base / "l2", base / "l3", base / "fleet"
    hashed_before, compiles_before = hashes.bytes, compiles.compiles
    times = {}
    supports = {}

    def step(name, fn):
        if base.exists():
            flush_tree(base)
        if tracer is not None:
            with tracer.span(f"lifecycle.{name}"):
                start = now()
                result = fn()
                times[name] = now() - start
        else:
            start = now()
            result = fn()
            times[name] = now() - start
        return result

    try:
        cold_store = DesignStore(l2_root)
        supports["cold"], cold = step("cold", lambda: _first_decode(key, cold_store, y))
        pusher = DesignStore(l2_root, remote=LocalDirRemote(fleet_root))
        pushed = step("push", lambda: pusher.remote_publish(key))
        warm_store = DesignStore(l2_root)
        supports["l2"], _ = step("l2", lambda: _first_decode(key, warm_store, y))
        fleet_store = DesignStore(l3_root, remote=LocalDirRemote(fleet_root))
        supports["l3"], _ = step("l3", lambda: _first_decode(key, fleet_store, y))
        digest = DesignStore.digest(key)
        blob = LocalDirRemote(fleet_root).stat(digest)
        entries = cold_store.ls()
        fleet_stats = fleet_store.stats
        exact = {
            # One compile (the cold step) unless an attach or pull fell back to compiling.
            "compiles": compiles.compiles - compiles_before if compiles.available else None,
            "store_publishes": sum(s.stats.publishes for s in (cold_store, warm_store, fleet_store)),
            "artifact_bytes": cold.compiled.nbytes,
            "block_bytes": cold.compiled.block_bytes,
            "entry_bytes": sum(e.nbytes for e in entries),
            "blob_bytes": blob.nbytes if blob is not None else 0,
            "hashed_bytes": hashes.bytes - hashed_before if hashes.available else None,
            "remote_publishes": pusher.stats.remote_publishes,
            "remote_hits": fleet_stats.remote_hits,
            "remote_misses": fleet_stats.remote_misses,
        }
        identical = bool(pushed) and all(np.array_equal(supports["cold"], supports[s]) for s in ("l2", "l3"))
        support = tuple(int(i) for i in np.flatnonzero(supports["cold"]))
    finally:
        supports.clear()
        cold = None
        shutil.rmtree(base, ignore_errors=True)
    return {"key": key.to_json(), "times": times, "exact": exact, "identical": identical, "support_size": len(support)}


class Lifecycle:
    """Lifecycle iterations accumulated over a run; medians per step."""

    def __init__(self, seed: int, rundir: Path, tracer: "tracing.Tracer | None" = None):
        self.seed = seed
        self.rundir = rundir
        self.tracer = tracer
        self.iterations: "list[dict]" = []

    def run_for(self, budget_s: float) -> None:
        """At least one iteration, more while the budget allows another."""
        started = now()
        while True:
            start = now()
            hashes, compiles = tracing.HashCounter(), tracing.CompileCounter()
            with tracing.Patches() as patches:
                hashes.install(patches)
                compiles.install(patches)
                self.iterations.append(one_iteration(self.seed, len(self.iterations), self.rundir, hashes, compiles, self.tracer))
            if now() - started + (now() - start) > budget_s:
                break

    def result(self) -> dict:
        medians = {name: float(np.median([it["times"][name] for it in self.iterations])) for name in STEPS}
        exact = [it["exact"] for it in self.iterations]
        return {
            "iterations": self.iterations,
            "median_s": medians,
            "identical": all(it["identical"] for it in self.iterations),
            # Every iteration compiles a same-sized key, so its work counts must agree.
            "exact_repeat": all(e == exact[0] for e in exact),
            "exact": exact[0],
        }
