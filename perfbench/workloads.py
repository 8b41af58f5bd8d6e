"""Workload definitions and the inputs each one draws from its seed.

Every run has three phases, each timed on its own:

* **serve** — open-loop Poisson traffic into a ``pooled-repro serve
  --store`` process.  The two workloads differ here only:
  ``serve-hot`` sends MN requests for one design key, ``serve-mixed``
  spreads requests over three keys and three decoder families;
* **lifecycle** — fresh design keys taken through cold compile, fleet
  push, L2 attach and L3 pull, each with a first decode;
* **sweep** — the paper's Fig. 3 use: ``run_trial_grid`` over an ``m``
  grid straddling ``m_MN``.

Inputs depend only on the seed: the same seed gives byte-identical
request lines, schedules, design keys and sweep grids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

N = 10_000  #: signal length of every design
K = 16  #: signal weight of every request
SIGNALS_PER_PAIR = 48  #: distinct signals per (design key, decoder) pair


@dataclass(frozen=True)
class Pair:
    """One (design key, decoder) pair the serve traffic addresses."""

    m: int
    decoder: str
    share: float  #: fraction of the requests


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: "tuple[Pair, ...]"
    low_rps: float  #: below sequential capacity
    mid_rps: float  #: the busier fixed rate, with headroom for a slower machine
    ladder_start_rps: float  #: where the max_ok_rps search starts, near the knee

    @property
    def ms(self) -> "tuple[int, ...]":
        return tuple(sorted({p.m for p in self.pairs}))


WORKLOADS = {
    "serve-hot": Workload(
        name="serve-hot",
        pairs=(Pair(2400, "mn", 1.0),),
        low_rps=20.0,
        mid_rps=60.0,
        ladder_start_rps=180.0,
    ),
    "serve-mixed": Workload(
        name="serve-mixed",
        pairs=(
            Pair(600, "mn", 0.30),
            Pair(1200, "mn", 0.25),
            Pair(2400, "mn", 0.20),
            Pair(1200, "comp", 0.10),
            Pair(2400, "comp", 0.10),
            Pair(600, "amp", 0.05),
        ),
        low_rps=20.0,
        mid_rps=30.0,
        ladder_start_rps=60.0,
    ),
}

#: Sweep grid: theta values and multiples of m_MN(n, theta) per theta.
SWEEP_THETAS = (0.2, 0.3)
SWEEP_M_FACTORS = (0.6, 0.85, 1.1, 1.35)
SWEEP_TRIALS = 64

#: Lifecycle design size.
LIFECYCLE_M = 2400


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, tags)])


def design_key(m: int, seed: int, tag: int = 0):
    """The serve design key of size ``m`` for ``seed`` (one per size)."""
    from repro.designs import DesignKey

    return DesignKey.for_stream(N, m, root_seed=int(seed), trial_key=(int(tag), m))


def lifecycle_key(seed: int, iteration: int):
    """A fresh design key per lifecycle iteration (new root seed)."""
    from repro.designs import DesignKey

    return DesignKey.for_stream(N, LIFECYCLE_M, root_seed=int(seed) * 1_000 + 1 + int(iteration), trial_key=(7,))


def lifecycle_y(seed: int, iteration: int) -> np.ndarray:
    """Observed results for an iteration's first decodes.

    A seeded draw at the design's typical result scale (``Γ·k/n`` ones per
    query): the lifecycle times compile, ship and attach, and checks that
    every path decodes it identically, so the results need not come from
    a signal.
    """
    gamma = N // 2
    return rng_for(seed, 11, iteration).poisson(gamma * K / N, size=LIFECYCLE_M).astype(np.int64)


def sweep_grid() -> "list[tuple[float, list[int]]]":
    from repro.core.thresholds import m_mn_threshold

    return [(theta, [int(round(m_mn_threshold(N, theta) * f)) for f in SWEEP_M_FACTORS]) for theta in SWEEP_THETAS]


@dataclass
class ServeInputs:
    """Everything the serve phase sends, and what must come back."""

    bodies: "dict[tuple[int, str], list[bytes]]"  #: request body per pair and signal
    ys: "dict[tuple[int, str], np.ndarray]"  #: (signals, m) results per pair
    expected: "dict[tuple[int, str], list[tuple[int, ...]]]"  #: filled by ``attach_expected``

    def digest(self) -> str:
        """SHA-256 over every generated request body, in a fixed order."""
        h = hashlib.sha256()
        for pair in sorted(self.bodies):
            for body in self.bodies[pair]:
                h.update(body)
        return h.hexdigest()


def request_body(key, y: np.ndarray, decoder: str) -> bytes:
    """A request line minus its leading ``{"request_id":<id>,``."""
    payload = json.dumps(
        {"design_key": key.to_json(), "y": [int(v) for v in y], "k": K, "decoder": decoder},
        separators=(",", ":"),
    )
    return payload[1:].encode("utf-8") + b"\n"


def serve_inputs(workload: Workload, seed: int, compiled: "dict[int, object]") -> ServeInputs:
    """Request bodies for every pair: seeded signals queried through the design."""
    from repro.core.signal import random_signal

    bodies: "dict[tuple[int, str], list[bytes]]" = {}
    ys: "dict[tuple[int, str], np.ndarray]" = {}
    for index, pair in enumerate(workload.pairs):
        rng = rng_for(seed, 3, index)
        sigmas = np.stack([random_signal(N, K, rng) for _ in range(SIGNALS_PER_PAIR)])
        y = np.asarray(compiled[pair.m].query_results(sigmas), dtype=np.int64)
        ys[(pair.m, pair.decoder)] = y
        bodies[(pair.m, pair.decoder)] = [request_body(compiled[pair.m].key, row, pair.decoder) for row in y]
    return ServeInputs(bodies=bodies, ys=ys, expected={})


def attach_expected(inputs: ServeInputs, compiled: "dict[int, object]") -> None:
    """Offline reference supports, computed without the server.

    MN requests are checked against the one-shot ``mn_reconstruct`` on the
    materialised design; the other families against their compiled
    single-vector ``decode``.
    """
    from repro.core.mn import mn_reconstruct
    from repro.designs import make_decoder

    for (m, decoder), y in inputs.ys.items():
        if decoder == "mn":
            rows = mn_reconstruct(compiled[m].design, y, K)
        else:
            one_shot = make_decoder(decoder).compile(compiled[m])
            rows = np.stack([one_shot.decode(row, K) for row in y])
        inputs.expected[(m, decoder)] = [tuple(int(i) for i in np.flatnonzero(row)) for row in rows]


def exact_mix(shares: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Pair indices in the workload's proportions, exact to one request, in seeded random order.

    Counts are the largest-remainder rounding of ``shares · size``.  The
    pairs' decode costs differ several-fold, so a mix drawn at random would
    move a slice's median with the luck of the draw, not the program.
    """
    quotas = shares / shares.sum() * size
    counts = np.floor(quotas).astype(np.int64)
    counts[np.argsort(counts - quotas, kind="stable")[: size - int(counts.sum())]] += 1
    return rng.permutation(np.repeat(np.arange(shares.size), counts))


def schedule(workload: Workload, seed: int, rate: float, duration_s: float, tag: int) -> "tuple[np.ndarray, list[tuple[int, str]], np.ndarray]":
    """Arrival offsets, the pair of each request, and its signal index."""
    from loadgen import arrival_offsets

    rng = rng_for(seed, 5, tag)
    offsets = arrival_offsets(rate, duration_s, rng)
    shares = np.array([p.share for p in workload.pairs], dtype=np.float64)
    which = exact_mix(shares, offsets.size, rng)
    signal = rng.integers(0, SIGNALS_PER_PAIR, size=offsets.size)
    pairs = [(workload.pairs[w].m, workload.pairs[w].decoder) for w in which]
    return offsets, pairs, signal
