"""Dense incidence-block kernels: scatter-dedup + BLAS GEMM hot paths.

The paper's design draws ``Γ = n/2`` entries per query *with replacement*,
so each query touches ``1 − (1−1/n)^Γ ≈ 39%`` of all entries distinctly —
the incidence structure is dense, not sparse.  These kernels exploit that:

* **Dedup by scatter** — marking ``block[row, edges] = 1`` on a dense
  ``(b, n)`` block resolves distinctness for free (duplicate draws land on
  the same cell), replacing the legacy ``O(b·Γ·log Γ)`` row sorts with an
  ``O(b·Γ)`` scatter.
* **Ψ as GEMM** — with the block in hand, the per-entry result sums for a
  whole batch of signals collapse into one BLAS call:
  ``Ψ += y @ block`` (in the streaming kernel ``Δ*`` rides along as the
  all-ones row of the same product).
* **Queries as GEMM** — batched query evaluation builds the per-chunk
  *count* block with one ``bincount`` over linearised ``(row, entry)``
  indices (multiplicities preserved) and evaluates all ``B`` signals as
  ``σ @ countsᵀ``, replacing the per-signal gather loop.

Blocks are stored in float64 so the products run through BLAS, and
chunked over queries so peak scratch stays cache-sized: streaming blocks
target :data:`STREAM_BLOCK_BYTES` (the scatter is the bottleneck there and
wants L2-resident blocks), materialised ones :data:`BLOCK_BYTES` (larger,
to amortise the per-chunk ``(B, n)`` accumulate).  Chunk row and count
indices are kept int32 where the linearised index space provably fits,
halving the index traffic of the scatter/bincount.

Exactness: every output is integer-valued, and float64 accumulation of
integers is exact while all running sums stay below 2⁵³ — guarded per
call (:data:`_EXACT_LIMIT`, a 2× safety margin); beyond the guard the
kernels fall back to exact integer matmul (or, for queries, to the
:mod:`~repro.kernels.legacy` oracle).  Dense and legacy kernels are
therefore bit-identical on identical sampled edges *always*, not just
typically.  Scratch blocks are reset by re-zeroing only the touched rows
and reused across batches via :class:`DenseStreamWorkspace`, so the
steady-state streaming loop performs no ``O(b·n)`` allocations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.design import PoolingDesign
    from repro.noise.models import NoiseModel

NAME = "dense"

#: Cap on one materialised dense block, in bytes.  Large enough to
#: amortise per-chunk GEMM and accumulate overhead for big signal batches.
BLOCK_BYTES = 8 * 1024 * 1024

#: Cap on one streaming block.  The streaming kernel's cost is dominated
#: by the random scatter, which wants the block cache-resident; the
#: per-chunk accumulate is only two rows, so small chunks are free.
STREAM_BLOCK_BYTES = 1024 * 1024

#: Conservative bound under which float64 integer accumulation is exact
#: (2⁵² leaves a 2× margin over the true 2⁵³ mantissa limit, absorbing the
#: rounding of the guard computation itself).
_EXACT_LIMIT = float(2**52)


def _rows_per_block(n: int, block_bytes: int = BLOCK_BYTES) -> int:
    """Query rows fitting one float64 block of width ``n``."""
    return max(1, block_bytes // (8 * max(1, n)))


def _index_dtype(cells: int) -> np.dtype:
    """Narrowest index dtype covering ``cells`` linearised block cells."""
    return np.dtype(np.int32) if cells < 2**31 else np.dtype(np.int64)


class DenseStreamWorkspace:
    """Reusable scratch buffers for :func:`stream_batch`.

    One workspace serves one sequential stream loop; buffers grow to the
    first batch's shape and are reused verbatim afterwards, so the
    steady-state loop allocates none of the ``O(b·n)`` / ``O(b·Γ)``
    intermediates.  The incidence block is kept all-zero between calls
    (re-zeroed after every chunk), which is what makes reuse sound.
    """

    def __init__(self) -> None:
        self._block: "np.ndarray | None" = None
        self._hits: "np.ndarray | None" = None
        self._coef: "np.ndarray | None" = None
        self._acc: "np.ndarray | None" = None
        self._tmp: "np.ndarray | None" = None
        self._rows: "np.ndarray | None" = None

    def block(self, rows: int, n: int) -> np.ndarray:
        """An all-zero ``(rows, n)`` block (callers must re-zero it)."""
        if self._block is None or self._block.shape[1] != n or self._block.shape[0] < rows:
            self._block = np.zeros((rows, n), dtype=np.float64)
        return self._block[:rows]

    def hits(self, shape: "tuple[int, int]", dtype: np.dtype) -> np.ndarray:
        """Gather target for the ``sigma[edges]`` lookup."""
        if self._hits is None or self._hits.dtype != dtype or self._hits.shape[1] != shape[1] or self._hits.shape[0] < shape[0]:
            self._hits = np.empty(shape, dtype=dtype)
        return self._hits[: shape[0]]

    def coef(self, rows: int) -> np.ndarray:
        """``(2, rows)`` GEMM coefficients: all-ones row (Δ*) over ``y`` row (Ψ)."""
        if self._coef is None or self._coef.shape[1] < rows:
            self._coef = np.empty((2, rows), dtype=np.float64)
        return self._coef[:, :rows]

    def acc(self, n: int) -> np.ndarray:
        """``(2, n)`` accumulator for the (Δ*, Ψ) GEMM rows."""
        if self._acc is None or self._acc.shape[1] != n:
            self._acc = np.empty((2, n), dtype=np.float64)
        return self._acc

    def tmp(self, n: int) -> np.ndarray:
        """``(2, n)`` GEMM output buffer for non-first chunks."""
        if self._tmp is None or self._tmp.shape[1] != n:
            self._tmp = np.empty((2, n), dtype=np.float64)
        return self._tmp

    def row_index(self, rows: int) -> np.ndarray:
        """``(rows, 1)`` broadcastable row indices for the block scatter."""
        if self._rows is None or self._rows.shape[0] < rows:
            self._rows = np.arange(rows, dtype=np.int32)[:, None]
        return self._rows[:rows]


def make_stream_workspace() -> DenseStreamWorkspace:
    """Fresh reusable scratch for a sequential stream loop."""
    return DenseStreamWorkspace()


def fold_stream(
    edges: np.ndarray,
    y: np.ndarray,
    n: int,
    psi: np.ndarray,
    dstar: np.ndarray,
    delta: np.ndarray,
    workspace: DenseStreamWorkspace,
    exact: bool,
) -> None:
    """Fold a batch's scattered incidence into ``Ψ/Δ*/Δ`` (in place).

    With ``exact`` the (Δ*, Ψ) contributions are the two rows of one
    ``(2, rc) @ (rc, n)`` float64 GEMM per chunk — the caller guarantees
    every running sum is exactly representable there.  Otherwise the same
    chunks accumulate through exact integer matmul.
    """
    b = edges.shape[0]
    rows_per = _rows_per_block(n, STREAM_BLOCK_BYTES)
    acc_int: "np.ndarray | None" = None if exact else np.zeros((2, n), dtype=np.int64)
    acc = workspace.acc(n)
    first = True
    for lo in range(0, b, rows_per):
        hi = min(b, lo + rows_per)
        rc = hi - lo
        sub = edges[lo:hi]
        blk = workspace.block(min(b, rows_per), n)[:rc]
        blk[workspace.row_index(rc), sub] = 1.0
        if exact:
            out = acc if first else workspace.tmp(n)
            coef = workspace.coef(rc)
            coef[0] = 1.0
            coef[1] = y[lo:hi]
            np.matmul(coef, blk, out=out)
            if not first:
                acc += out
        else:
            coef_int = np.empty((2, rc), dtype=np.int64)
            coef_int[0] = 1
            coef_int[1] = y[lo:hi]
            acc_int += coef_int @ (blk != 0)
        blk.fill(0.0)
        first = False

    if exact:
        np.add(dstar, acc[0], out=dstar, casting="unsafe")
        np.add(psi, acc[1], out=psi, casting="unsafe")
    else:
        dstar += acc_int[0]
        psi += acc_int[1]
    delta += np.bincount(edges.ravel(), minlength=n)


def stream_batch(
    edges: np.ndarray,
    sigma: np.ndarray,
    n: int,
    noise: "NoiseModel | None",
    noise_rng: "np.random.Generator | None",
    psi: np.ndarray,
    dstar: np.ndarray,
    delta: np.ndarray,
    workspace: "DenseStreamWorkspace | None" = None,
) -> np.ndarray:
    """Fold one ``(b, Γ)`` edge batch into the running accumulators.

    ``y`` comes from a single gather + row sum in int64; distinct hits are
    marked by scattering into the dense block; ``Δ*`` and ``Ψ``
    contributions are the two rows of one ``(2, b) @ (b, n)`` BLAS product
    per chunk.  With ``noise`` given, ``y`` is corrupted *before* the Ψ
    product — exactly the legacy kernel's ordering, so noisy statistics
    stay bit-identical too.
    """
    ws = workspace if workspace is not None else DenseStreamWorkspace()
    hits = ws.hits(edges.shape, sigma.dtype)
    np.take(sigma, edges, out=hits)
    y = hits.sum(axis=1, dtype=np.int64)
    if noise is not None:
        y = noise.corrupt(y, noise_rng)
    # Joint exactness bound for both GEMM rows: every running Ψ sum is
    # ≤ Σ|y| and every Δ* count is ≤ b.
    exact = float(np.abs(y).sum(dtype=np.float64)) + edges.shape[0] < _EXACT_LIMIT
    fold_stream(edges, y, n, psi, dstar, delta, ws, exact)
    return y


def psi_pass(design: "PoolingDesign", y: np.ndarray, with_dstar: bool, exact: bool) -> "tuple[np.ndarray, np.ndarray | None]":
    """One chunked scatter pass computing ``Ψ`` (and optionally ``Δ*``).

    With ``exact`` the caller guarantees every running sum (``Σ|y[b]|``
    per signal) is exactly representable in float64 and ``Ψ`` is one GEMM
    per chunk; otherwise it accumulates through exact integer matmul.
    ``Δ*`` always accumulates in float64 — bounded by ``m``, far below
    its mantissa limit.
    """
    n, m = design.n, design.m
    B = y.shape[0]
    rows_per = _rows_per_block(n)
    block = np.zeros((min(max(m, 1), rows_per), n), dtype=np.float64)
    psi_f = np.zeros((B, n), dtype=np.float64) if exact else None
    psi_i = None if exact else np.zeros((B, n), dtype=np.int64)
    tmp = np.empty((B, n), dtype=np.float64) if exact else None
    dstar_f = np.zeros(n, dtype=np.float64) if with_dstar else None
    yf = y.astype(np.float64) if exact else None
    indptr, entries = design.indptr, design.entries
    idx = _index_dtype(rows_per)  # row indices only — always fits int32
    for qlo in range(0, m, rows_per):
        qhi = min(m, qlo + rows_per)
        rc = qhi - qlo
        sizes = indptr[qlo + 1 : qhi + 1] - indptr[qlo:qhi]
        rows_local = np.repeat(np.arange(rc, dtype=idx), sizes)
        ents = entries[int(indptr[qlo]) : int(indptr[qhi])]
        blk = block[:rc]
        blk[rows_local, ents] = 1.0
        if with_dstar:
            dstar_f += blk.sum(axis=0)
        if exact:
            np.matmul(yf[:, qlo:qhi], blk, out=tmp)
            psi_f += tmp
        else:
            psi_i += y[:, qlo:qhi] @ (blk != 0)
        blk.fill(0.0)
    psi = psi_f.astype(np.int64) if exact else psi_i
    dstar = dstar_f.astype(np.int64) if with_dstar else None
    return psi, dstar


def materialised_psi(
    design: "PoolingDesign", y: np.ndarray, with_dstar: bool = False
) -> "tuple[np.ndarray, np.ndarray | None]":
    """``(B, n)`` ``Ψ`` for a ``(B, m)`` int64 result batch — one GEMM per chunk.

    The per-``B`` Python loop of the legacy path collapses into
    ``y[:, chunk] @ block``; ``Δ*`` optionally rides along from the same
    scattered blocks (column sums), so :meth:`PoolingDesign.stats` pays a
    single pass over the incidence structure.
    """
    exact = bool(np.abs(y).sum(axis=1, dtype=np.float64).max() < _EXACT_LIMIT) if design.m else True
    return psi_pass(design, y, with_dstar, exact)


def materialised_dstar(design: "PoolingDesign") -> np.ndarray:
    """``Δ*`` from scattered incidence blocks (no sort, no pair list).

    Runs :func:`materialised_psi`'s block pass with a zero result batch —
    the Ψ GEMM against zeros is negligible next to the scatter, and it
    keeps the chunking/re-zero discipline in exactly one place.
    """
    _, dstar = materialised_psi(design, np.zeros((1, design.m), dtype=np.int64), with_dstar=True)
    return dstar


def query_results_batch(design: "PoolingDesign", batch: np.ndarray) -> np.ndarray:
    """``(B, m)`` additive results as ``σ @ countsᵀ`` — one GEMM per chunk.

    The per-chunk *count* block (multiplicities preserved, unlike the
    deduplicating scatter) is built with a single ``bincount`` over
    linearised ``(row, entry)`` indices; all ``B`` signals then evaluate
    against it in one BLAS call.  The bincount is paid once per chunk and
    amortised over the whole batch, which is why this beats the
    cache-friendly per-signal gather loop for every ``B > 1``.  Linearised
    indices are int32 whenever the chunk's cell space fits, halving the
    index traffic of the dominant bincount.

    Exactness: results are bounded by the pool sizes, so the float64
    products are exact far below the 2⁵³ mantissa limit; the guard falls
    back to the legacy per-row kernel in the (unreachable in practice)
    case of ≥2⁵² total draws.
    """
    B, n = batch.shape
    m = design.m
    if design.entries.size == 0 or m == 0:
        return np.zeros((B, m), dtype=np.int64)
    if not float(design.entries.size) < _EXACT_LIMIT:  # pragma: no cover - unreachable scale
        from repro.kernels import legacy

        return legacy.query_results_batch(design, batch)
    out = np.zeros((B, m), dtype=np.int64)
    entries, indptr = design.entries, design.indptr
    bf = batch.astype(np.float64)
    rows_per = _rows_per_block(n)
    idx = _index_dtype(rows_per * n)
    tmp = np.empty((B, min(m, rows_per)), dtype=np.float64)
    for qlo in range(0, m, rows_per):
        qhi = min(m, qlo + rows_per)
        rc = qhi - qlo
        sizes = indptr[qlo + 1 : qhi + 1] - indptr[qlo:qhi]
        rows_local = np.repeat(np.arange(rc, dtype=idx), sizes)
        ents = entries[int(indptr[qlo]) : int(indptr[qhi])]
        lin = np.add(np.multiply(rows_local, n, dtype=idx), ents, dtype=idx)
        counts = np.bincount(lin, minlength=rc * n).reshape(rc, n)
        np.matmul(bf, counts.astype(np.float64).T, out=tmp[:, :rc])
        out[:, qlo:qhi] = tmp[:, :rc]
    return out
