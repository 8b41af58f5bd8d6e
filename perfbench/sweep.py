"""The Fig. 3 sweep phase: ``run_trial_grid`` over an ``m`` grid straddling ``m_MN``.

Batched engine, serial backend, MN decoder, no cache or store — the
paper's own use, bypassing serve and the design store.  Every timed sweep
must reproduce, point for point, the success and overlap vectors of a
reference sweep computed from the same seed before timing starts.

The shared machine's speed drifts by a fifth or more over tens of seconds,
so a sweep's raw time says as much about the minute it ran in as about
the program.  Each sweep is therefore timed between two runs of a fixed
calibration kernel (NumPy only, no program code, the same mix of random
draws, bincount, scatter, GEMM, top-k and unique as a sweep point), and
``trials_per_s`` is taken from the median ratio of sweep time to
calibration time, scaled to a machine that runs the kernel in
``CALIBRATION_REFERENCE_S``.  The raw throughput is kept in the run
record beside it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import workloads

now = time.perf_counter


def one_sweep(seed: int) -> "list[tuple[np.ndarray, np.ndarray]]":
    from repro.engine.grid import run_trial_grid

    results = []
    for theta, ms in workloads.sweep_grid():
        points = run_trial_grid(workloads.N, ms, theta=theta, trials=workloads.SWEEP_TRIALS, root_seed=seed)
        results += [(p.success.copy(), p.overlap.copy()) for p in points]
    return results


def psi_flop_per_sweep() -> int:
    """Computed Psi work of one sweep: ``2·trials·m·n`` per point."""
    return sum(2 * workloads.SWEEP_TRIALS * m * workloads.N for _, ms in workloads.sweep_grid() for m in ms)


def trials_per_sweep() -> int:
    return workloads.SWEEP_TRIALS * sum(len(ms) for _, ms in workloads.sweep_grid())


#: Calibration kernel time on the 2-core KVM guest the bounds were set on;
#: ``trials_per_s`` is the sweep rate on a machine this fast.
CALIBRATION_REFERENCE_S = 0.028


def calibrated_rate(sweep_s: "list[float]", calibration_s: "list[float]") -> float:
    """Trials per second at the reference machine speed, from paired sweep and kernel times."""
    ratio = statistics.median(t / c for t, c in zip(sweep_s, calibration_s))
    return trials_per_sweep() / (ratio * CALIBRATION_REFERENCE_S)


class Calibration:
    """A fixed CPU kernel that tracks the machine's speed, not the program's."""

    ROWS = 128

    def __init__(self):
        rng = np.random.default_rng(20_240_601)
        per_row = workloads.N // 8
        self.rows = np.repeat(np.arange(self.ROWS, dtype=np.int32), per_row)
        self.signals = np.zeros((workloads.SWEEP_TRIALS, workloads.N))
        for b in range(workloads.SWEEP_TRIALS):
            self.signals[b, rng.choice(workloads.N, workloads.K, replace=False)] = 1.0
        self.kernel()  # warm

    def kernel(self) -> int:
        n = workloads.N
        entries = np.random.default_rng(7).integers(0, n, size=self.rows.size)
        counts = np.bincount(self.rows * n + entries, minlength=self.ROWS * n).reshape(self.ROWS, n)
        y = self.signals @ counts.T.astype(np.float64)
        block = np.zeros((self.ROWS, n))
        block[self.rows, entries] = 1.0
        top = np.argpartition(y @ block, -workloads.K, axis=1)[:, -workloads.K :]
        return int(top.sum()) + np.unique(entries).size

    def time(self) -> float:
        """Median of three timed kernel runs."""
        times = []
        for _ in range(3):
            start = now()
            self.kernel()
            times.append(now() - start)
        return statistics.median(times)


class Sweeper:
    """Timed sweeps accumulated over a run, each checked against a reference sweep."""

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = one_sweep(seed)  # set-up: also warms the sweep path
        self.calibration = Calibration()
        self.times: "list[float]" = []
        self.calibration_s: "list[float]" = []  #: mean of the kernel times either side of each sweep
        self.matches: "list[bool]" = []

    def run_for(self, budget_s: float) -> None:
        """At least one sweep, more while the budget allows another."""
        started = now()
        before = self.calibration.time()
        while True:
            start = now()
            result = one_sweep(self.seed)
            self.times.append(now() - start)
            after = self.calibration.time()
            self.calibration_s.append((before + after) / 2)
            before = after
            self.matches.append(
                len(result) == len(self.reference)
                and all(np.array_equal(s, rs) and np.array_equal(o, ro) for (s, o), (rs, ro) in zip(result, self.reference))
            )
            if now() - started + self.times[-1] > budget_s:
                break

    def result(self) -> dict:
        return {
            "sweep_s": self.times,
            "calibration_s": self.calibration_s,
            "trials_per_s": calibrated_rate(self.times, self.calibration_s),
            "trials_per_s_raw": trials_per_sweep() / statistics.median(self.times),
            "matches_reference": all(self.matches),
            "points": len(self.reference),
            "exact": {"sweep.trials_per_sweep": trials_per_sweep(), "sweep.psi_flop_per_sweep": psi_flop_per_sweep()},
        }
