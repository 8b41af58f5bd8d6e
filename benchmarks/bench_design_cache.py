"""Design-cache serving: cold compile+decode vs warm decode-only (tracked).

The compiled-design lifecycle splits every reconstruction into
sample → compile → decode; a serving process pays compilation once per
deployed design and then answers decode traffic from the cached artifact.
This benchmark measures exactly that contract at paper-panel scale
(``n = 10^4``): the **cold** path compiles the stream-keyed design and
decodes one result vector; the **warm** path decodes against the already
compiled (block-resident) artifact.  The measured ratio is recorded in
``benchmarks/results/BENCH_design_cache.json`` (``extra.speedup_x``); the
acceptance contract of the lifecycle PR is a >= 5x warm speedup on the
single-vector record.  The batched record (``B = 64``) tracks the serving
throughput path (one GEMM + top-k for the whole batch).

``TestSmallBatchPsi`` measures ``CompiledDesign.psi`` alone at the serve
shape (``m = 2400``, a 96 MB float32 block) for the small batches a
work-conserving server forms.  Each record carries same-process medians
of the two routes, one GEMM and the row-panel product, and their ratio
``panel_vs_gemm_x``, and the BLAS thread count they ran under; these are
the evidence for the panel range ``_PANEL_MIN_ROWS``..``_PANEL_MAX_ROWS``
in ``repro.designs.compiled`` and for taking it only under one BLAS
thread.
"""

import dataclasses
import time
from unittest import mock

import numpy as np
import pytest

from repro.core.mn import MNDecoder
from repro.core.signal import random_signals
from repro.designs import DesignCache, DesignKey, compile_from_key
from repro.designs import compiled as compiled_mod
from repro.kernels.threads import get_blas_threads

N = 10_000
M = 600
K = 16
B = 64
SEED = 2022

KEY = DesignKey.for_stream(N, M, root_seed=SEED, batch_queries=256)

#: The serve shape of the small-batch Ψ records, and their batch sizes.
SERVE_KEY = DesignKey.for_stream(N, 2400, root_seed=SEED, batch_queries=256)
PSI_ROWS = (1, 2, 3, 4, 8, 12, 16)
PSI_REPEATS = 9


def _observed(batch: int) -> np.ndarray:
    """Simulated observed results for ``batch`` deployed-signal decodes."""
    compiled = compile_from_key(KEY)
    sigmas = random_signals(N, K, batch, np.random.default_rng(7))
    return compiled.query_results(sigmas)


def _cold_decode(y: np.ndarray, rounds: int = 3) -> "tuple[float, np.ndarray]":
    """Median seconds for compile-from-key + decode, artifact discarded."""
    times, out = [], None
    for _ in range(rounds):
        t0 = time.perf_counter()
        compiled = compile_from_key(KEY)
        decoder = MNDecoder().compile(compiled)
        out = decoder.decode(y, K) if y.ndim == 1 else decoder.decode_batch(y, K)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


class TestWarmDecodeSingle:
    def test_warm_decode_single(self, benchmark, repro_seed):
        Y = _observed(1)
        y = Y[0]
        cold_s, cold_out = _cold_decode(y)

        cache = DesignCache()
        decoder = MNDecoder().compile(compile_from_key(KEY, cache=cache), cache=cache)
        cache.get(KEY)  # the steady-state lookup a serving process repeats
        decoder.decode(y, K)  # materialise the resident block outside timing
        warm_out = benchmark(lambda: decoder.decode(y, K))
        warm_s = benchmark.stats.stats.median

        speedup = cold_s / warm_s
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "k": K,
                "B": 1,
                "backend": "serial",
                "cold_s": round(cold_s, 5),
                "warm_s": round(warm_s, 5),
                "speedup_x": round(speedup, 2),
                # Hit/eviction telemetry tracked across PRs (ROADMAP item).
                "cache_stats": dataclasses.asdict(cache.stats),
            }
        )
        print(f"\ncold compile+decode {cold_s * 1e3:.1f}ms vs warm decode {warm_s * 1e3:.2f}ms -> {speedup:.1f}x")

        assert np.array_equal(cold_out, warm_out)  # serving never changes results
        # The lifecycle PR's acceptance contract at n = 10^4.
        assert speedup >= 5.0


class TestWarmDecodeBatched:
    def test_warm_decode_batched(self, benchmark, repro_seed):
        Y = _observed(B)
        cold_s, cold_out = _cold_decode(Y)

        cache = DesignCache()
        decoder = MNDecoder().compile(compile_from_key(KEY, cache=cache), cache=cache)
        cache.get(KEY)
        decoder.decode_batch(Y, K)  # warm the resident block
        warm_out = benchmark(lambda: decoder.decode_batch(Y, K))
        warm_s = benchmark.stats.stats.median

        speedup = cold_s / warm_s
        benchmark.extra_info.update(
            {
                "n": N,
                "m": M,
                "k": K,
                "B": B,
                "backend": "serial",
                "cold_s": round(cold_s, 5),
                "warm_s": round(warm_s, 5),
                "speedup_x": round(speedup, 2),
                "cache_stats": dataclasses.asdict(cache.stats),
            }
        )
        print(f"\ncold compile+decode_batch {cold_s * 1e3:.1f}ms vs warm {warm_s * 1e3:.1f}ms -> {speedup:.1f}x")

        assert np.array_equal(cold_out, warm_out)
        # Batched decodes amortise the per-call GEMM; compilation must still
        # dominate a cold batch.
        assert speedup >= 1.5


@pytest.fixture(scope="module")
def serve_design():
    """The ``m = 2400`` artifact with its block resident, and result rows for it."""
    compiled = compile_from_key(SERVE_KEY)
    compiled.incidence_block()
    sigmas = random_signals(N, K, max(PSI_ROWS), np.random.default_rng(7))
    return compiled, compiled.query_results(sigmas)


def _interleaved_ms(fns: "dict[str, object]", repeats: int) -> "dict[str, float]":
    """Median milliseconds per call of each function, timed round-robin."""
    times: "dict[str, list[float]]" = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: float(np.median(ts)) * 1e3 for name, ts in times.items()}


class TestSmallBatchPsi:
    @pytest.mark.parametrize("rows", PSI_ROWS)
    def test_small_batch_psi(self, benchmark, serve_design, rows):
        compiled, Y = serve_design
        y = Y[:rows]
        block = compiled.incidence_block()

        def gemm():
            return (y.astype(block.dtype) @ block).astype(np.int64)

        def panels():
            with mock.patch.object(compiled_mod, "_panel_batch", lambda rows: True):
                return compiled_mod._block_product(y, block, block.dtype)

        want = gemm()
        assert np.array_equal(panels(), want)
        got = benchmark(lambda: compiled.psi(y))
        assert np.array_equal(got, want)
        ms = _interleaved_ms({"gemm": gemm, "panel": panels}, PSI_REPEATS)
        route = "panel" if compiled_mod._panel_batch(rows) else "gemm"
        benchmark.extra_info.update(
            {
                "n": N,
                "m": SERVE_KEY.m,
                "B": rows,
                "block_bytes": compiled.block_bytes,
                "blas_threads": get_blas_threads(),
                "route": route,
                "psi_ms": round(benchmark.stats.stats.median * 1e3, 3),
                "gemm_ms": round(ms["gemm"], 3),
                "panel_ms": round(ms["panel"], 3),
                "panel_vs_gemm_x": round(ms["gemm"] / ms["panel"], 2),
            }
        )
        print(f"\nB={rows}: psi {benchmark.stats.stats.median * 1e3:.1f}ms via {route}; gemm {ms['gemm']:.1f}ms, panels {ms['panel']:.1f}ms")
