"""Kernel parity: the production ``dense`` kernel against the ``legacy`` oracle.

Every hot path runs :mod:`repro.kernels.dense` through the one seam
:func:`repro.core.design.dispatch_kernel`; the tests here reroute that
seam to :mod:`repro.kernels.legacy` (forked workers inherit the
replacement) or call the oracle's functions directly, and assert *exact*
equality of the integer outputs — the library's central reproducibility
invariant extended to the kernel.  Coverage follows the seam end to end:
streaming statistics (with and without noise, serial and multi-worker),
materialised designs (regular and ragged), batched query evaluation, odd
shapes (``B = 1``, last short batch, ``Γ = 1``), the float64 2⁵²
exactness guard (below and above), the BLAS thread cap, and the top-k
fast path.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.core.design as design_mod
from repro.core.design import PoolingDesign, stream_design_stats
from repro.core.signal import random_signal
from repro.engine.backend import SharedMemBackend
from repro.engine.batch import reconstruct_batch, signals_oracle
from repro.kernels import dense, legacy, threads
from repro.noise.models import DropoutNoise, GaussianNoise
from repro.parallel.pool import WorkerPool
from repro.parallel.sort import parallel_top_k

STATS_FIELDS = ("y", "psi", "dstar", "delta")
KERNELS = {"dense": dense, "legacy": legacy}


@contextmanager
def kernel(module):
    """Run the enclosed calls on kernel ``module`` through the dispatch seam."""
    real = design_mod.dispatch_kernel
    design_mod.dispatch_kernel = lambda _name=None: module
    try:
        yield
    finally:
        design_mod.dispatch_kernel = real


def assert_stats_equal(a, b, context=""):
    for field in STATS_FIELDS:
        left, right = getattr(a, field), getattr(b, field)
        assert left.dtype == right.dtype, f"{field} dtype mismatch {context}"
        assert np.array_equal(left, right), f"{field} differs {context}"


class _MarkedLegacy:
    """The legacy oracle, except every streamed batch adds one to ``Δ_0``:
    visible proof in the output of which kernel a worker ran."""

    NAME = "marked-legacy"
    make_stream_workspace = staticmethod(legacy.make_stream_workspace)

    @staticmethod
    def stream_batch(edges, sigma, n, noise, noise_rng, psi, dstar, delta, workspace=None):
        y = legacy.stream_batch(edges, sigma, n, noise, noise_rng, psi, dstar, delta, workspace)
        delta[0] += 1
        return y


class TestDispatch:
    def test_names(self):
        """Both modules implement the kernel contract the seam hands out."""
        contract = ("make_stream_workspace", "stream_batch", "materialised_psi", "materialised_dstar", "query_results_batch")
        for name, module in KERNELS.items():
            assert module.NAME == name
            assert all(callable(getattr(module, attr)) for attr in contract), name

    def test_default_is_dense(self):
        assert design_mod.dispatch_kernel() is dense
        assert design_mod.dispatch_kernel(None) is dense  # how wrappers forward a name

    def test_seam_reroutes_materialised_paths(self):
        design = PoolingDesign.sample(40, 9, np.random.default_rng(0))
        with kernel(legacy):
            design.psi(np.ones(9, dtype=np.int64))
        assert design._entry_groups_cache is not None  # only the legacy oracle builds it

    def test_seam_reaches_forked_workers(self):
        sigma = random_signal(40, 4, np.random.default_rng(0))
        plain = stream_design_stats(sigma, 24, root_seed=1, batch_queries=8)
        with kernel(_MarkedLegacy), SharedMemBackend(2) as backend:
            marked = stream_design_stats(sigma, 24, root_seed=1, batch_queries=8, backend=backend)
        assert marked.delta[0] == plain.delta[0] + 3  # all three batches ran the substitute in a worker


class TestStreamParity:
    """stream_design_stats: dense ↔ legacy bit-identity on the same keys."""

    @pytest.mark.parametrize(
        "n, m, gamma, batch_queries",
        [
            (101, 37, None, 8),  # several batches, last one short
            (64, 1, None, 256),  # single query => b=1 block
            (40, 17, 1, 4),  # Γ=1 degenerate pools
            (30, 9, 45, 9),  # Γ > n: heavy multi-edges
            (200, 300, None, 256),  # m > batch_queries with short tail
        ],
    )
    def test_noiseless(self, n, m, gamma, batch_queries):
        sigma = random_signal(n, max(1, n // 8), np.random.default_rng(0))
        with kernel(legacy):
            want = stream_design_stats(sigma, m, root_seed=7, gamma=gamma, batch_queries=batch_queries)
        got = stream_design_stats(sigma, m, root_seed=7, gamma=gamma, batch_queries=batch_queries)
        assert_stats_equal(got, want, f"(n={n}, m={m}, gamma={gamma}, bq={batch_queries})")

    @pytest.mark.parametrize("noise", [GaussianNoise(1.5), DropoutNoise(0.2)])
    def test_noisy(self, noise):
        sigma = random_signal(90, 11, np.random.default_rng(1))
        with kernel(legacy):
            want = stream_design_stats(sigma, 41, root_seed=3, batch_queries=8, noise=noise)
        got = stream_design_stats(sigma, 41, root_seed=3, batch_queries=8, noise=noise)
        assert_stats_equal(got, want, f"({noise!r})")

    @pytest.mark.parametrize("kernel_name", ["dense", "legacy"])
    @pytest.mark.parametrize("noise", [None, GaussianNoise(1.0)])
    def test_worker_count_invariance(self, kernel_name, noise):
        """workers ∈ {1, 2} never changes output, on the kernel or the oracle;
        and the forked dense run matches the serial oracle."""
        sigma = random_signal(80, 9, np.random.default_rng(2))
        with kernel(legacy):
            oracle = stream_design_stats(sigma, 33, root_seed=5, batch_queries=8, noise=noise)
        with kernel(KERNELS[kernel_name]):
            serial = stream_design_stats(sigma, 33, root_seed=5, batch_queries=8, noise=noise)
            with SharedMemBackend(2) as backend:
                forked = stream_design_stats(sigma, 33, root_seed=5, batch_queries=8, noise=noise, backend=backend)
        assert_stats_equal(serial, forked, f"(kernel={kernel_name}, noise={noise!r})")
        assert_stats_equal(forked, oracle, f"(kernel={kernel_name}, noise={noise!r}, vs oracle)")

    def test_reuses_workspace_across_batches(self):
        """The dense stream loop reuses one scratch block per loop."""
        ws = dense.make_stream_workspace()
        block_a = ws.block(4, 50)
        assert block_a.base is ws.block(4, 50).base  # same backing buffer
        assert ws.block(2, 50).base is block_a.base  # smaller slice, same buffer
        assert not ws.block(4, 50).any()  # and it stays all-zero


class TestMaterialisedParity:
    """PoolingDesign.stats / psi / dstar / query_results: dense ↔ legacy."""

    @pytest.fixture
    def regular(self):
        rng = np.random.default_rng(4)
        return PoolingDesign.sample(101, 37, rng)

    @pytest.fixture
    def ragged(self):
        # Duplicate draws, an empty pool, Γ=1 pools, and a full pool.
        pools = [[0, 1, 2, 2, 5], [3], [], [6, 6, 6], [0, 5, 1], list(range(7))]
        return PoolingDesign.from_pools(7, pools)

    @staticmethod
    def _fresh(design):
        """The same edges with empty caches, so each kernel computes from scratch."""
        return PoolingDesign(design.n, design.entries, design.indptr)

    @pytest.mark.parametrize("B", [1, 5])
    def test_regular_stats(self, regular, B):
        sigmas = np.stack([random_signal(101, 9, np.random.default_rng(i)) for i in range(B)])
        got = regular.stats(sigmas)
        with kernel(legacy):
            want = self._fresh(regular).stats(sigmas)
        assert_stats_equal(got, want, f"(B={B})")

    def test_single_signal_stats(self, regular):
        sigma = random_signal(101, 9, np.random.default_rng(0))
        with kernel(legacy):
            want = self._fresh(regular).stats(sigma)
        assert_stats_equal(regular.stats(sigma), want)

    def test_ragged_from_pools(self, ragged):
        oracle = self._fresh(ragged)
        y = np.array([3, 1, 0, 2, 4, 7], dtype=np.int64)
        yB = np.stack([y, 2 * y, np.zeros(6, dtype=np.int64)])
        sigmas = np.stack([np.array([1, 0, 1, 0, 0, 1, 1], dtype=np.int8)] * 3)
        with kernel(legacy):
            want = (oracle.psi(y), oracle.dstar(), oracle.psi(yB), oracle.query_results(sigmas))
        got = (ragged.psi(y), ragged.dstar(), ragged.psi(yB), ragged.query_results(sigmas))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_batched_query_results_match_single(self, regular):
        sigmas = np.stack([random_signal(101, 9, np.random.default_rng(i)) for i in range(4)])
        batched = regular.query_results(sigmas)
        for b in range(4):
            assert np.array_equal(batched[b], regular.query_results(sigmas[b]))

    def test_fig1_example_both_kernels(self):
        design, sigma = PoolingDesign.fig1_example()
        expected = np.array([2, 2, 3, 1, 1])
        for name in KERNELS:
            fresh, _ = PoolingDesign.fig1_example()
            with kernel(KERNELS[name]):
                y = fresh.query_results(np.stack([sigma]))
            assert np.array_equal(y, expected[None, :]), name
        assert np.array_equal(design.query_results(sigma), expected)

    def test_psi_exact_beyond_float53(self, ragged):
        """Integer accumulation: Ψ must be exact where float64 would round."""
        big = 2**53 + 1  # not representable in float64
        y = np.full(ragged.m, big, dtype=np.int64)
        for name in KERNELS:
            with kernel(KERNELS[name]):
                psi = self._fresh(ragged).psi(y)
            # Entry 4 sits in exactly one query, so Ψ_4 = y of that query.
            assert psi[4] == big, f"kernel={name} rounded Ψ through float64"

    def test_dstar_cache_is_shared_and_consistent(self, regular):
        d1 = regular.dstar()
        assert regular.dstar() is d1  # cached
        with kernel(legacy):
            assert np.array_equal(self._fresh(regular).dstar(), d1)


class TestEndToEndParity:
    def test_reconstruct_batch_kernels_identical(self):
        n, m, B = 120, 70, 6
        sigmas = np.stack([random_signal(n, 5, np.random.default_rng(i)) for i in range(B)])
        reports = {}
        for name in KERNELS:
            with kernel(KERNELS[name]):
                reports[name] = reconstruct_batch(n, m, signals_oracle(sigmas), B, rng=np.random.default_rng(9))
        for field in ("sigma_hat", "y", "k"):
            assert np.array_equal(getattr(reports["dense"], field), getattr(reports["legacy"], field)), field

    def test_batched_grid_point_kernels_identical(self):
        from repro.engine.grid import run_batched_point

        a = run_batched_point(90, 60, theta=0.35, trials=5, root_seed=11)
        with kernel(legacy):
            b = run_batched_point(90, 60, theta=0.35, trials=5, root_seed=11)
        assert np.array_equal(a.success, b.success)
        assert np.array_equal(a.overlap, b.overlap)


class _ShiftNoise:
    """Deterministic test-only channel: shift every count by a constant.

    Lets a test place ``y`` exactly on an exactness boundary, which no
    stochastic library channel can do.
    """

    def __init__(self, shift: int):
        self.shift = int(shift)

    def corrupt(self, y, rng):
        return y + np.int64(self.shift)


class TestExactnessBoundaries:
    """The float64 (2⁵²) guard at its boundary.

    Each case drives ``y`` just below / just above the budget and asserts
    (a) the expected tier actually ran and (b) the outputs stay
    bit-identical to the legacy oracle either way.
    """

    N = 6
    EDGES = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int64)  # each entry in exactly one query

    def _stream(self, module, shift):
        sigma = np.ones(self.N, dtype=np.int8)
        psi = np.zeros(self.N, dtype=np.int64)
        dstar = np.zeros(self.N, dtype=np.int64)
        delta = np.zeros(self.N, dtype=np.int64)
        y = module.stream_batch(
            self.EDGES, sigma, self.N, _ShiftNoise(shift), None, psi, dstar, delta, module.make_stream_workspace()
        )
        return y, psi, dstar, delta

    @pytest.mark.parametrize(
        "shift",
        [
            2**21,  # small counts: float64 GEMM tier
            2**23,
            2**50,  # Σ|y| just under 2⁵²: still the float64 tier
            2**52,  # Σ|y| above 2⁵²: exact integer tier
        ],
    )
    def test_stream_bit_identity_across_tiers(self, shift):
        y_ref, psi_ref, dstar_ref, delta_ref = self._stream(legacy, shift)
        assert np.array_equal(psi_ref, y_ref[[0, 0, 1, 1, 2, 2]])  # one query per entry
        y, psi, dstar, delta = self._stream(dense, shift)
        assert np.array_equal(y, y_ref), f"y differs (shift=2^{shift.bit_length() - 1})"
        assert np.array_equal(psi, psi_ref), f"psi differs (shift=2^{shift.bit_length() - 1})"
        assert np.array_equal(dstar, dstar_ref) and np.array_equal(delta, delta_ref)

    def test_stream_tier_selection(self, monkeypatch):
        """The stream guard picks exactly the promised tier per batch."""
        tiers = []
        real = dense.fold_stream

        def spy(edges, y, n, psi, dstar, delta, workspace, exact):
            tiers.append(exact)
            return real(edges, y, n, psi, dstar, delta, workspace, exact)

        monkeypatch.setattr(dense, "fold_stream", spy)
        for shift in (2**21, 2**50, 2**52):
            self._stream(dense, shift)
        assert tiers == [True, True, False]

    @pytest.mark.parametrize(
        "value, tier",
        [
            (2**23 + 10, "float64"),  # well inside the float64 budget
            (2**52 - 10, "float64"),  # just under it
            (2**52 + 10, "exact-int"),  # over it: integer matmul
        ],
    )
    def test_psi_tier_and_value(self, value, tier, monkeypatch):
        tiers = []
        real = dense.psi_pass

        def spy(design, y, with_dstar, exact):
            tiers.append("float64" if exact else "exact-int")
            return real(design, y, with_dstar, exact)

        monkeypatch.setattr(dense, "psi_pass", spy)
        design = PoolingDesign.from_pools(5, [[4], [0, 1], [2, 3]])  # entry 4 in exactly one query
        y = np.array([value, 0, 0], dtype=np.int64)
        got = design.psi(y)
        assert got[4] == value  # Ψ_4 = y of entry 4's only query, bit-exact
        assert tiers == [tier]
        fresh = PoolingDesign(design.n, design.entries, design.indptr)
        assert np.array_equal(got, legacy.materialised_psi(fresh, y[None, :])[0][0])

    def test_query_fallback_over_budget(self, monkeypatch):
        """Shrinking the budget must push queries onto the legacy oracle."""
        design = PoolingDesign.sample(40, 9, np.random.default_rng(0))
        sigmas = np.stack([random_signal(40, 5, np.random.default_rng(i)) for i in range(3)])
        expected = legacy.query_results_batch(design, sigmas)
        assert np.array_equal(dense.query_results_batch(design, sigmas), expected)
        called = []
        real = legacy.query_results_batch
        monkeypatch.setattr(legacy, "query_results_batch", lambda d, b: called.append(1) or real(d, b))
        monkeypatch.setattr(dense, "_EXACT_LIMIT", 4.0)
        assert np.array_equal(dense.query_results_batch(design, sigmas), expected)
        assert called, "over-budget query batch did not fall back to the legacy oracle"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_over_budget_stream_sharedmem(self, workers):
        """A channel pushing every batch over the 2⁵² budget, and Ψ past
        float64's 2⁵³: still bit-identical to the integer-summing oracle,
        serial and across a worker pool."""
        sigma = random_signal(16, 3, np.random.default_rng(5))
        noise = _ShiftNoise(2**55)  # every y_j ≈ 2⁵⁵: Σ|y| > 2⁵² in every batch
        with kernel(legacy):
            want = stream_design_stats(sigma, 24, root_seed=2, batch_queries=8, noise=noise)
        assert all(float(np.abs(want.y[lo : lo + 8]).sum()) > 2**52 for lo in (0, 8, 16))  # the guard trips
        assert int(want.psi.max()) > 2**53  # beyond any float64 sum's exact range
        with SharedMemBackend(workers) as backend:
            got = stream_design_stats(sigma, 24, root_seed=2, batch_queries=8, noise=noise, backend=backend)
        assert_stats_equal(got, want, f"(workers={workers})")


class TestThreadGovernor:
    """repro.kernels.threads: detection-tolerant governor behaviour."""

    def test_worker_thread_budget(self):
        assert threads.worker_thread_budget(2, cores=8) == 4
        assert threads.worker_thread_budget(3, cores=8) == 2
        assert threads.worker_thread_budget(16, cores=8) == 1  # never zero
        assert threads.worker_thread_budget(1, cores=8) == 8

    def test_machine_provenance(self):
        prov = threads.machine_provenance()
        assert set(prov) == {"cpu_count", "blas_vendor", "blas_threads", "numpy"}
        assert prov["cpu_count"] >= 1
        assert isinstance(prov["blas_vendor"], str)
        assert prov["numpy"] == np.__version__

    def test_backend_governance_defaults(self):
        """Owned multi-worker pools get the cores // W cap; one worker gets none."""
        assert SharedMemBackend(4).blas_threads == threads.worker_thread_budget(4)
        assert SharedMemBackend(1).blas_threads is None
        with SharedMemBackend(2) as backend:
            assert backend.pool.blas_threads == threads.worker_thread_budget(2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_capped_pool_end_to_end(self, workers):
        """A worker pool under a BLAS thread cap still bit-matches serial."""
        sigma = random_signal(60, 7, np.random.default_rng(6))
        serial = stream_design_stats(sigma, 21, root_seed=9, batch_queries=8)
        with WorkerPool(workers, blas_threads=1) as pool, SharedMemBackend(pool=pool) as backend:
            got = stream_design_stats(sigma, 21, root_seed=9, batch_queries=8, backend=backend)
        assert_stats_equal(got, serial, f"(workers={workers}, capped)")


class TestTopKFastPath:
    """blocks == 1 argpartition path selects exactly what the block path does."""

    @pytest.mark.parametrize("seed", range(5))
    def test_1d_matches_block_path(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 150))
            k = int(rng.integers(1, n + 1))
            ties_heavy = rng.random() < 0.5
            scores = rng.integers(0, 4, size=n) if ties_heavy else rng.standard_normal(n)
            expected = parallel_top_k(scores, k, blocks=int(rng.integers(2, 6)))
            assert np.array_equal(parallel_top_k(scores, k, blocks=1), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_block_path(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            B = int(rng.integers(1, 6))
            n = int(rng.integers(2, 90))
            k = int(rng.integers(1, n + 1))
            scores = rng.integers(0, 3, size=(B, n))
            expected = parallel_top_k(scores, k, blocks=3)
            assert np.array_equal(parallel_top_k(scores, k, blocks=1), expected)

    def test_all_tied(self):
        scores = np.zeros(10)
        assert np.array_equal(parallel_top_k(scores, 4, blocks=1), np.arange(4))
        assert np.array_equal(parallel_top_k(np.zeros((2, 10)), 4, blocks=1), np.tile(np.arange(4), (2, 1)))
