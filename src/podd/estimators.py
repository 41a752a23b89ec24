"""Cross-replication statistics: covariance of occupancy summaries, and
stationary tails with batch means.

The covariance is computed exactly, from integer sums over the replications.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .engine import Trajectory

Z_VALUES = {0.95: 1.959963984540054, 0.99: 2.5758293035489004}
MIN_REPLICATIONS = 30
MIN_BATCHES = 20


def z_value(level: float) -> float:
    if level not in Z_VALUES:
        raise ValueError(f"CI level must be one of {sorted(Z_VALUES)}")
    return Z_VALUES[level]


@dataclass(frozen=True)
class EstimateRow:
    """One point estimate with a normal-approximation CI."""

    estimate: float
    half_width: float


def pair_covariance(pairs, level: float) -> tuple[Fraction, float]:
    """Exact sample covariance of integer pairs (a_i, b_i), and the CI
    half-width from the spread of the centered products.

    Each c_i = (n a_i - sum a)(n b_i - sum b) is an int equal to n^2 times
    the centered product, so the covariance is sum c / (n^2 (n-1)) and the
    centered products' variance is (n sum c^2 - (sum c)^2) / (n^5 (n-1)).
    """
    n = len(pairs)
    if n < 2:
        raise ValueError("covariance needs at least two samples")
    sa = sum(a for a, _ in pairs)
    sb = sum(b for _, b in pairs)
    s1 = s2 = 0
    for a, b in pairs:
        c = (n * a - sa) * (n * b - sb)
        s1 += c
        s2 += c * c
    var = Fraction(n * s2 - s1 * s1, n**5 * (n - 1))
    return (Fraction(s1, n * n * (n - 1)),
            z_value(level) * math.sqrt(float(var) / n))


def cov_mk(snaps, k: int, l: int, level: float = 0.95) -> EstimateRow:
    """|Cov(m_k(t), m_l(t))| across replications, bias-corrected, from each
    replication's tail counts at t (`engine.snapshot`).

    m_k is the fraction of servers at exactly level k, so the integer pair
    (pi_k - pi_{k+1}, pi_l - pi_{l+1}) is taken from each snapshot and
    scaled by 1/N^2 once at the end.
    """
    if len(snaps) < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications")
    pairs = [(tc.get(k) - tc.get(k + 1), tc.get(l) - tc.get(l + 1))
             for tc in snaps]
    cov, half_width = pair_covariance(pairs, level)
    n_servers = snaps[0].N
    scale = n_servers * n_servers
    return EstimateRow(abs(float(cov)) / scale, half_width / scale)


def stationary_tail(traj: Trajectory, warmup: float, n_batches: int,
                    k_max: int = 8, level: float = 0.95):
    """Post-warm-up time averages of the tail fractions, batch-means CI:
    one row per level k = 0..k_max, in k order.

    The trajectory must be sampled on an (approximately) even grid; samples
    before `warmup` are discarded and the rest split into contiguous batches.
    """
    if n_batches < MIN_BATCHES:
        raise ValueError(f"need at least {MIN_BATCHES} batches")
    keep = np.nonzero(traj.times >= warmup)[0]
    if keep.size < n_batches:
        raise ValueError("horizon too short for the requested warm-up and batches")
    idx = keep[: (keep.size // n_batches) * n_batches]
    per_batch = idx.size // n_batches
    n_servers = traj.snapshots[0].N
    rows = []
    for k in range(k_max + 1):
        vals = np.asarray([traj.snapshots[i].get(k) / n_servers for i in idx])
        batches = vals.reshape(n_batches, per_batch).mean(axis=1)
        est = float(batches.mean())
        hw = z_value(level) * float(batches.std(ddof=1)) / math.sqrt(n_batches)
        rows.append(EstimateRow(est, hw))
    return rows
