"""The engine's hot kernels and their reference oracle.

The three hot kernels — per-batch streaming statistics, materialised
``Ψ``/``Δ*`` accumulation, and batched query evaluation — run on
:mod:`repro.kernels.dense`, which exploits the density of the paper's
design (``Γ = n/2`` means every query touches ~39% of all entries
*distinctly*): distinctness is resolved by scattering into a dense
``(b, n)`` incidence block (duplicate draws land on the same cell, so the
scatter *is* the dedup) and ``Ψ`` becomes one BLAS GEMM against that block.

:mod:`repro.kernels.legacy` keeps the historical sort-based dedup and
per-row accumulation as the bit-exact reference oracle: ``dense`` falls
back to it beyond its exactness guard, and the parity suite asserts the
two agree bit for bit.  No runtime setting selects it; the hot paths reach
their kernel through the single seam
:func:`repro.core.design.dispatch_kernel`, which tests replace to run the
oracle end to end (forked workers inherit the replacement).

Kernel-module contract (what ``dispatch_kernel`` returns)
---------------------------------------------------------

``NAME``
    The kernel's name.
``make_stream_workspace()``
    Opaque reusable scratch for the streaming kernel (``None`` when the
    implementation needs none).  One workspace serves one sequential
    stream loop; it is what makes the steady-state loop allocation-free
    for the big ``O(b·n)`` buffers.
``stream_batch(edges, sigma, n, noise, noise_rng, psi, dstar, delta, workspace=None)``
    Fold one ``(b, Γ)`` batch of sampled query edges into the running
    ``Ψ/Δ*/Δ`` accumulators (in place) and return the batch's result
    vector ``y``.  With ``noise`` given, ``y`` is corrupted *before* its
    ``Ψ`` contribution — the streaming noise contract.
``materialised_psi(design, y, with_dstar=False)``
    ``(B, n)`` ``Ψ`` for a ``(B, m)`` int64 result batch against a
    materialised :class:`~repro.core.design.PoolingDesign`; optionally the
    shared ``Δ*`` in the same pass.
``materialised_dstar(design)``
    ``Δ*`` alone.
``query_results_batch(design, sigma_batch)``
    ``(B, m)`` additive query results for a validated ``(B, n)`` int8
    signal batch, multiplicities counted.
"""
