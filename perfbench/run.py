#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Each run has three phases: open-loop serving (the workload's traffic mix),
the design lifecycle and the Fig. 3 sweep (see ``workloads.py`` and
``README.md``).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` is a separate run that wraps each layer's
public entry points and reports per-layer numbers.  Every run checks the
program's outputs; a wrong output makes ``correct`` false and the exit
code 1.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# Hermetic before anything imports NumPy or the program: no ambient REPRO_*
# configuration, and one BLAS thread per process (each process is pinned
# to a single core below).
SCRUBBED_ENV = sorted(name for name in os.environ if name.startswith("REPRO_"))
for _name in SCRUBBED_ENV:
    del os.environ[_name]
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def _pin() -> "tuple[int | None, int | None]":
    """(server core, generator core); this process moves to the generator core."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None, None
    os.sched_setaffinity(0, {cores[1]})
    return cores[0], cores[1]


def budget_for(seconds: float) -> dict:
    """How a run's measuring time is split over the phases.

    ``mid`` gets the largest share: its pooled tail is a p95, and it takes
    enough requests beyond it that one short slowdown of the machine does
    not set it on its own.  The lifecycle's share is one iteration a round.
    """
    return {
        "low": 0.16 * seconds,
        "mid": 0.29 * seconds,
        "ladder": 0.15 * seconds,
        "lifecycle": 0.22 * seconds,
        "sweep": 0.18 * seconds,
    }


def llc_bytes() -> "int | None":
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level >= best[0]:
            best = (level, value)
    return best[1] if best else None


def source_provenance() -> dict:
    """The commit when the checkout is a git repository, and a digest of ``src/`` always."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def provenance(cores) -> dict:
    from repro.kernels.threads import machine_provenance

    import serve_phase

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0) | ({cores[0]} if cores[0] is not None else set())),
        "server_core": cores[0],
        "generator_core": cores[1],
        "machine": machine_provenance(),
        "llc_bytes": llc_bytes(),
        "serve_config": serve_phase.serve_config(),
        "scrubbed_env": SCRUBBED_ENV,
        "blas_env": BLAS_ENV,
        **source_provenance(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


#: Rounds a run is split into: each round has a slice of every phase, so
#: drift of a shared machine over the run reaches every metric alike.
ROUNDS = 4

#: Untimed traffic at the mid rate before each round's timed serve slices.
REWARM_S = 0.5


def _probe_counts(probes) -> "tuple[int, int, int]":
    """Requests attempted, failed and answered with a wrong support, over every probe."""
    return sum(p.attempted for _, p in probes), sum(p.failed for _, p in probes), sum(p.wrong for _, p in probes)


def run_untraced(workload, seed: int, budget: dict, rundir: Path, cores) -> dict:
    from lifecycle import Lifecycle
    from loadgen import Staircase
    from serve_phase import ServeSession, window_result
    from sweep import Sweeper

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    sweeper = Sweeper(seed)
    life = Lifecycle(seed, rundir)
    session = ServeSession(workload, seed, rundir, env, cores[0])
    staircase = Staircase(workload.ladder_start_rps)
    try:
        for r in range(ROUNDS):
            # The other phases leave the server idle and the caches cold.
            session.slice("rewarm", workload.mid_rps, REWARM_S, tag=10 + r)
            session.slice("low", workload.low_rps, budget["low"] / ROUNDS, tag=20 + r)
            session.slice("mid", workload.mid_rps, budget["mid"] / ROUNDS, tag=30 + r)
            session.staircase_steps(staircase, budget["ladder"] / ROUNDS)
            life.run_for(budget["lifecycle"] / ROUNDS)
            sweeper.run_for(budget["sweep"] / ROUNDS)
        peak_rss = session.server.peak_rss_mb()
    finally:
        session.close()
    max_ok = staircase.estimate()
    low, mid = window_result(session.pooled("low")), window_result(session.pooled("mid"))
    lc, sw = life.result(), sweeper.result()

    attempted, failed, wrong = _probe_counts(session.probes)
    attempted += 4 * len(lc["iterations"]) + sw["points"] * len(sw["sweep_s"])
    failed += (0 if lc["identical"] else 1) + (0 if sw["matches_reference"] else 1)
    slices = [(kind, p) for kind, p in session.probes if kind in ("low", "mid")]
    checks = {
        "serve.supports_match_offline": wrong == 0,
        "serve.low_mid_no_failures": all(p.failed == 0 for _, p in slices),
        "lifecycle.cold_l2_l3_identical": lc["identical"],
        "lifecycle.exact_counts_repeat": lc["exact_repeat"],
        "sweep.matches_reference": sw["matches_reference"],
    }
    metrics = {
        "p50_ms.low": _metric(low["p50_ms"], "ms"),
        "tail_ms.low": _metric(low["tail_ms"], "ms"),
        "p50_ms.mid": _metric(mid["p50_ms"], "ms"),
        "tail_ms.mid": _metric(mid["tail_ms"], "ms"),
        "first_decode_cold_s": _metric(lc["median_s"]["cold"], "s"),
        "first_decode_l2_s": _metric(lc["median_s"]["l2"], "s"),
        "first_decode_l3_s": _metric(lc["median_s"]["l3"], "s"),
        "fleet_publish_s": _metric(lc["median_s"]["push"], "s"),
        "trials_per_s": _metric(sw["trials_per_s"], "trials/s"),
        "setup_s": _metric(float(statistics.median(session.launches)), "s"),
        "peak_rss_mb": _metric(peak_rss, "MB"),
    }
    exact = {
        **session.exact,
        "serve.requests_low_mid": sum(p.attempted for _, p in slices),
        "serve.request_bytes_low_mid": sum(p.request_bytes for _, p in slices),
        **{f"lifecycle.{k}": v for k, v in lc["exact"].items()},
        **sw["exact"],
    }
    detail = {
        "serve": {
            "setup_launches_s": session.launches,
            "low": low,
            "mid": mid,
            "slices": [(kind, window_result(p)) for kind, p in slices],
            # Measured but not gated: see README.md, "max_ok_rps".
            "max_ok_rps": max_ok,
            "staircase": staircase.history,
            "ladder": [window_result(p) for k, p in session.probes if k == "ladder"],
        },
        "lifecycle": {"median_s": lc["median_s"], "iterations": lc["iterations"]},
        "sweep": {k: v for k, v in sw.items() if k != "exact"},
        "failed_frac": failed / attempted,
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "exact": exact, "checks": checks, "attempted": attempted, "failed": failed, "detail": detail}


def _under(spans, ancestor: str) -> "list":
    """Spans with an ancestor named ``ancestor``."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        parent = s.parent
        while parent is not None:
            p = by_id.get(parent)
            if p is None:
                break
            if p.name == ancestor:
                out.append(s)
                break
            parent = p.parent
    return out


def run_traced(workload, seed: int, budget: dict, rundir: Path, cores) -> dict:
    import serve_phase
    import tracing
    from lifecycle import Lifecycle
    from sweep import Sweeper

    sweeper = Sweeper(seed)
    serve = serve_phase.run_traced(workload, seed, budget, rundir, tracing.Tracer)
    life_tracer = tracing.Tracer()
    with tracing.Patches(life_tracer) as patches:
        tracing.install_layer_hooks(life_tracer, patches)
        lifecycle = Lifecycle(seed, rundir, tracer=life_tracer)
        lifecycle.run_for(budget["lifecycle"])
    life = lifecycle.result()
    sweep_tracer = tracing.Tracer()
    with tracing.Patches(sweep_tracer) as patches:
        tracing.install_layer_hooks(sweep_tracer, patches)
        sweeper.run_for(budget["sweep"])
    sw = sweeper.result()

    med = tracing.median
    mid_spans = serve["tracer_mid"].spans
    low_rows = tracing.request_breakdown(serve["tracer_low"].spans)
    mid_rows = tracing.request_breakdown(mid_spans)
    mn_batches = [s for s in mid_spans if s.name == "decode.batch" and s.attrs.get("family") == "mn"]
    by_parent: "dict[int, list]" = {}
    for s in mid_spans:
        if s.name == "design.psi" and s.parent is not None:
            by_parent.setdefault(s.parent, []).append(s)
    psi_in_mn = [sum(p.ms for p in by_parent.get(b.sid, [])) for b in mn_batches]
    all_batches = [s for s in mid_spans if s.name == "decode.batch"]
    psi_calls = [s for b in mn_batches for s in by_parent.get(b.sid, [])]
    flops = [2 * s.attrs["B"] * s.attrs["m"] * s.attrs["n"] for s in psi_calls]
    psi_bytes = [s.attrs["m"] * s.attrs["n"] * s.attrs["itemsize"] + 8 * s.attrs["B"] * (s.attrs["m"] + s.attrs["n"]) for s in psi_calls]
    counters = serve["counters_mid"]

    ls = life_tracer.spans
    sws = sweep_tracer.spans

    def span_ms(spans, name):
        return med(s.ms for s in spans if s.name == name)

    raw = {
        "protocol.parse_us": (span_ms(mid_spans, "protocol.parse") * 1e3, "us"),
        "protocol.encode_us": (span_ms(mid_spans, "protocol.encode") * 1e3, "us"),
        "protocol.request_bytes": (serve["request_bytes"], "B"),
        "coalescer.wait_ms.low": (med(r["coalescer.wait"] for r in low_rows), "ms"),
        "coalescer.wait_ms.mid": (med(r["coalescer.wait"] for r in mid_rows), "ms"),
        **{f"coalescer.{k}": (v, "count") for k, v in counters.items()},
        "server.executor.wait_ms": (med(r["server.executor_wait"] for r in mid_rows), "ms"),
        "server.executor.busy_frac": (sum(s.ms for s in all_batches) / 1e3 / serve["wall_mid_s"], "ratio"),
        "server.request_ms": (med(r["total_ms"] for r in mid_rows), "ms"),
        "server.unattributed_ms": (med(r["unattributed_ms"] for r in mid_rows), "ms"),
        "server.attributed_frac": (med(r["attributed_ms"] / r["total_ms"] for r in mid_rows if r["total_ms"] > 0), "ratio"),
        "server.tracing_overhead_ms": (serve["overhead_ms"], "ms"),
        "decode.batch_ms.mn": (med(s.ms for s in mn_batches), "ms"),
        "decode.row_ms.mn": (med(s.ms / s.attrs["B"] for s in mn_batches), "ms"),
        "decode.psi_ms": (med(psi_in_mn), "ms"),
        "decode.select_ms": (med(b.ms - p for b, p in zip(mn_batches, psi_in_mn)), "ms"),
        "kernels.psi_flop": (sum(flops) / max(1, len(flops)), "flop"),
        "kernels.psi_bytes": (sum(psi_bytes) / max(1, len(psi_bytes)), "B"),
        "kernels.query_ms": (span_ms(sws, "kernels.query"), "ms"),
        "kernels.sweep_psi_ms": (span_ms(sws, "kernels.psi"), "ms"),
        "sweep.select_ms": (span_ms(sws, "mn.decode"), "ms"),
        "engine.grid.point_ms": (span_ms(sws, "engine.grid.point"), "ms"),
        "compiled.compile_ms": (span_ms(_under(ls, "lifecycle.cold"), "design.compile"), "ms"),
        "compiled.block_build_ms": (span_ms(_under(ls, "lifecycle.cold"), "design.block_first"), "ms"),
        "compiled.artifact_bytes": (life["exact"]["artifact_bytes"], "B"),
        "compiled.block_bytes": (life["exact"]["block_bytes"], "B"),
        "store.publish_ms": (span_ms(ls, "store.publish"), "ms"),
        "store.attach_ms": (span_ms(_under(ls, "lifecycle.l2"), "store.get"), "ms"),
        "store.hashed_bytes": (life["exact"]["hashed_bytes"], "B"),
        "store.entry_bytes": (life["exact"]["entry_bytes"], "B"),
        "store.compiles": (life["exact"]["compiles"], "count"),
        "remote.push_ms": (span_ms(ls, "store.remote_publish"), "ms"),
        "remote.fetch_ms": (span_ms(ls, "remote.fetch"), "ms"),
        "remote.unpack_ms": (span_ms(ls, "remote.unpack"), "ms"),
        "remote.blob_bytes": (life["exact"]["blob_bytes"], "B"),
        "remote.remote_hits": (life["exact"]["remote_hits"], "count"),
        "remote.remote_misses": (life["exact"]["remote_misses"], "count"),
        "remote.remote_publishes": (life["exact"]["remote_publishes"], "count"),
    }
    metrics = {name: _metric(value, unit) for name, (value, unit) in raw.items()}

    attempted, failed, wrong = _probe_counts(serve["probes"])
    attempted += 4 * len(life["iterations"]) + sw["points"] * len(sw["sweep_s"])
    failed += (0 if life["identical"] else 1) + (0 if sw["matches_reference"] else 1)
    checks = {
        "serve.supports_match_offline": wrong == 0,
        "serve.windows_no_failures": all(w["failed"] == 0 for w in serve["windows"].values()),
        "lifecycle.cold_l2_l3_identical": life["identical"],
        "sweep.matches_reference": sw["matches_reference"],
    }
    reports = [
        tracing.format_report(serve["tracer_low"].spans, title=f"{workload.name} serve low"),
        tracing.format_report(mid_spans, overhead_ms=serve["overhead_ms"], missing=serve["tracer_mid"].missing, title=f"{workload.name} serve mid"),
        tracing.format_report(ls, missing=life_tracer.missing, title="lifecycle"),
        tracing.format_report(sws, missing=sweep_tracer.missing, title="sweep"),
    ]
    stem = f"trace-{workload.name}-seed{seed}"
    for label, tracer, extra in (
        ("serve-low", serve["tracer_low"], {}),
        ("serve-mid", serve["tracer_mid"], {"tracing_overhead_ms": serve["overhead_ms"]}),
        ("lifecycle", life_tracer, {}),
        ("sweep", sweep_tracer, {}),
    ):
        tracer.dump(str(STATE / f"{stem}-{label}.json"), extra)
    detail = {"serve_windows": serve["windows"], "failed_frac": failed / attempted}
    return {
        "metrics": metrics,
        "exact": {**serve["exact"], **{f"lifecycle.{k}": v for k, v in life["exact"].items()}, **sw["exact"]},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "reports": reports,
    }


def _matches_spec(metrics: dict, section: str) -> bool:
    """Every metric ``BENCHMARK.json`` lists in ``section`` is reported, with its unit, and no other."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec[section]}
    return {name: m["unit"] for name, m in metrics.items()} == expected and all(
        isinstance(m["value"], (int, float)) and m["value"] == m["value"] for m in metrics.values()
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    cores = _pin()
    # A short GIL switch interval keeps the sender thread on schedule while
    # the reader thread parses responses.
    sys.setswitchinterval(0.0005)
    budget = budget_for(args.seconds)
    STATE.mkdir(exist_ok=True)
    rundir = STATE / f"tmp-{os.getpid()}"
    rundir.mkdir()
    started = time.perf_counter()
    try:
        result = (run_traced if args.trace else run_untraced)(workload, args.seed, budget, rundir, cores)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    result["checks"]["metrics_match_benchmark_json"] = _matches_spec(result["metrics"], "per_layer" if args.trace else "end_to_end")
    correct = all(result["checks"].values())
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "provenance": provenance(cores),
        "checks": result["checks"],
        "exact": result["exact"],
        "metrics": result["metrics"],
        "detail": result["detail"],
    }
    runs = STATE / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=str))

    for report in result.get("reports", []):
        print(report)
    print(f"== {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} wall={record['wall_s']:.1f}s")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']!s:>24} {m['unit']}")
    if "serve" in result["detail"]:
        print(f"  {'max_ok_rps (not gated)':30s} {result['detail']['serve']['max_ok_rps']!s:>24} req/s")
    print("exact work counters (repeat exactly for a seed):")
    for name, value in result["exact"].items():
        print(f"  {name:30s} {value}")
    print(f"failed_frac {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.6f}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
