"""Microbenchmarks of the hot kernels (regression tracking, not a figure).

Covers: MT19937-64 raw generation, design sampling, the batched Ψ/Δ*
accumulation kernel, CSR mat-vec vs SciPy, parallel top-k — and the
dense-vs-legacy kernel pairs (``TestDenseVsLegacy``), whose
``speedup_x`` extra records track the dense incidence-block layer's win
over the sort-based reference at several problem sizes, plus one
end-to-end ``reconstruct_batch`` pair showing the compounding effect on
the batched engine.  The legacy side runs either by calling
:mod:`repro.kernels.legacy` directly or by rerouting the
:func:`repro.core.design.dispatch_kernel` seam to it.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

import repro.core.design as design_mod
from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.signal import random_signal
from repro.engine.batch import reconstruct_batch, signals_oracle
from repro.kernels import legacy
from repro.parallel.matvec import CSRMatrix
from repro.parallel.sort import parallel_sample_sort, parallel_top_k
from repro.rng.mt19937 import MT19937_64


def _best_of(fn, repeats=2):
    """Best wall time of a few runs — cheap, warmup-tolerant point estimate."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def _legacy_seam():
    """Route the hot paths through the legacy oracle for the enclosed calls."""
    real = design_mod.dispatch_kernel
    design_mod.dispatch_kernel = lambda _name=None: legacy
    try:
        yield
    finally:
        design_mod.dispatch_kernel = real


def _on_legacy(fn):
    """``fn`` as a zero-argument call that runs on the legacy oracle."""

    def run():
        with _legacy_seam():
            return fn()

    return run


class TestRNGKernels:
    def test_mt19937_64_bulk(self, benchmark):
        gen = MT19937_64(5489)
        out = benchmark(lambda: gen.random_raw(1 << 16))
        assert out.size == 1 << 16

    def test_numpy_pcg_reference(self, benchmark):
        """Reference point: NumPy's C-level PCG64 on the same workload."""
        gen = np.random.default_rng(5489)
        out = benchmark(lambda: gen.integers(0, 2**63, 1 << 16, dtype=np.int64))
        assert out.size == 1 << 16


class TestDesignKernels:
    def test_design_sampling(self, benchmark):
        rng = np.random.default_rng(0)
        design = benchmark(lambda: PoolingDesign.sample(10_000, 100, rng))
        assert design.m == 100

    def test_stream_stats_kernel(self, benchmark):
        sigma = random_signal(10_000, 16, np.random.default_rng(0))
        stats = benchmark(lambda: stream_design_stats(sigma, 200, root_seed=1))
        assert stats.m == 200

    def test_query_results(self, benchmark):
        rng = np.random.default_rng(1)
        sigma = random_signal(10_000, 16, rng)
        design = PoolingDesign.sample(10_000, 500, rng)
        y = benchmark(lambda: design.query_results(sigma))
        assert y.shape == (500,)


class TestDenseVsLegacy:
    """Dense incidence-block kernels vs the sort-based legacy reference.

    Each test benchmarks the dense path (the recorded median) and times
    the legacy path inline, recording the ratio as
    ``extra.speedup_x`` — the number the README's speedup table and the
    PR acceptance gate read.  Output parity is asserted exactly once per
    pairing (the full parity matrix lives in tests/test_kernels.py).
    """

    @pytest.mark.parametrize("n", [4_000, 10_000, 40_000])
    def test_stream_stats_dense_vs_legacy(self, benchmark, n):
        sigma = random_signal(n, 16, np.random.default_rng(0))
        m = 200

        def run():
            return stream_design_stats(sigma, m, root_seed=1)

        run_legacy = _on_legacy(run)
        assert np.array_equal(run().psi, run_legacy().psi)
        legacy_s = _best_of(run_legacy)
        dense_s = _best_of(run, repeats=3)
        stats = benchmark.pedantic(run, rounds=3, iterations=1)
        assert stats.m == m
        benchmark.extra_info["n"] = n
        benchmark.extra_info["m"] = m
        benchmark.extra_info["kernel"] = "dense"
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)
        if n >= 10_000:
            # Shape assert only (measured margin is 3-4x; shared runners
            # jitter): the dense kernel must never be slower than the row
            # sorts at scale.  The ≥3x acceptance claim lives in the
            # recorded speedup_x, gated by compare_bench history.
            assert legacy_s / dense_s > 1.0

    def test_materialised_psi_dense_vs_legacy(self, benchmark):
        n, m, B = 10_000, 400, 64
        rng = np.random.default_rng(1)
        design = PoolingDesign.sample(n, m, rng)
        sigmas = np.stack([random_signal(n, 16, np.random.default_rng(i)) for i in range(B)])
        y = design.query_results(sigmas)

        def fresh():
            return PoolingDesign(design.n, design.entries, design.indptr)  # cold caches

        def run():
            return fresh().psi(y)

        def run_legacy():
            return legacy.materialised_psi(fresh(), y)[0]

        assert np.array_equal(run(), run_legacy())
        legacy_s = _best_of(run_legacy)
        dense_s = _best_of(run, repeats=3)
        out = benchmark.pedantic(run, rounds=3, iterations=1)
        assert out.shape == (B, n)
        benchmark.extra_info.update(n=n, m=m, B=B, kernel="dense")
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)

    def test_query_results_dense_vs_legacy(self, benchmark):
        n, m, B = 10_000, 400, 64
        rng = np.random.default_rng(2)
        design = PoolingDesign.sample(n, m, rng)
        sigmas = np.stack([random_signal(n, 16, np.random.default_rng(i)) for i in range(B)])

        def run():
            return design.query_results(sigmas)

        def run_legacy():
            return legacy.query_results_batch(design, sigmas)

        assert np.array_equal(run(), run_legacy())
        legacy_s = _best_of(run_legacy)
        dense_s = _best_of(run, repeats=3)
        out = benchmark.pedantic(run, rounds=3, iterations=1)
        assert out.shape == (B, m)
        benchmark.extra_info.update(n=n, m=m, B=B, kernel="dense")
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)

    def test_reconstruct_batch_dense_vs_legacy(self, benchmark):
        """End-to-end: the dense kernels compounding with the batched engine."""
        n, m, B, k = 10_000, 400, 64, 16
        sigmas = np.stack([random_signal(n, k, np.random.default_rng(i)) for i in range(B)])
        oracle = signals_oracle(sigmas)

        def run():
            return reconstruct_batch(n, m, oracle, B, k=k, rng=np.random.default_rng(7))

        run_legacy = _on_legacy(run)
        assert np.array_equal(run().sigma_hat, run_legacy().sigma_hat)
        legacy_s = _best_of(run_legacy)
        dense_s = _best_of(run, repeats=3)
        report = benchmark.pedantic(run, rounds=3, iterations=1)
        assert report.sigma_hat.shape == (B, n)
        benchmark.extra_info.update(n=n, m=m, B=B, k=k, kernel="dense")
        benchmark.extra_info["legacy_s"] = round(legacy_s, 6)
        benchmark.extra_info["speedup_x"] = round(legacy_s / dense_s, 2)


class TestLinalgKernels:
    @pytest.fixture(scope="class")
    def csr_pair(self):
        rng = np.random.default_rng(2)
        dense = rng.random((2000, 1500))
        dense[dense > 0.05] = 0.0
        ours = CSRMatrix.from_dense(dense)
        ref = sp.csr_matrix(dense)
        x = rng.random(1500)
        return ours, ref, x

    def test_csr_matvec_ours(self, benchmark, csr_pair):
        ours, _, x = csr_pair
        out = benchmark(lambda: ours.matvec(x))
        assert out.shape == (2000,)

    def test_csr_matvec_scipy_reference(self, benchmark, csr_pair):
        _, ref, x = csr_pair
        out = benchmark(lambda: ref @ x)
        assert out.shape == (2000,)

    def test_csr_close_to_scipy(self, csr_pair):
        ours, ref, x = csr_pair
        assert np.allclose(ours.matvec(x), ref @ x)


class TestSortKernels:
    def test_sample_sort(self, benchmark):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200_000)
        out = benchmark(lambda: parallel_sample_sort(x, blocks=8))
        assert out.size == x.size

    def test_numpy_sort_reference(self, benchmark):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200_000)
        out = benchmark(lambda: np.sort(x))
        assert out.size == x.size

    def test_top_k(self, benchmark):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500_000)
        idx = benchmark(lambda: parallel_top_k(x, 100, blocks=8))
        assert idx.size == 100

    def test_top_k_fast_path(self, benchmark):
        """blocks=1 argpartition fast path — the decoder's default route."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500_000)
        block_s = _best_of(lambda: parallel_top_k(x, 100, blocks=8))
        fast_s = _best_of(lambda: parallel_top_k(x, 100, blocks=1), repeats=3)
        idx = benchmark(lambda: parallel_top_k(x, 100, blocks=1))
        assert np.array_equal(idx, parallel_top_k(x, 100, blocks=8))
        # speedup_x tracks the fast path against the block decomposition;
        # the np.sort reference lives in its own record above.
        benchmark.extra_info["speedup_x"] = round(block_s / fast_s, 2)
        assert fast_s < block_s
