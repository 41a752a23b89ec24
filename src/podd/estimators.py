"""Cross-replication statistics: covariance of occupancy summaries, variance
of the state-dependent arrival rate, stationary tails with batch means, and
exponential-decay fitting.

Accumulation state is a mergeable value (count and raw power sums) so that
parallel reduction over replications is exact: merging partial accumulators
gives bit-identical results to a single pass, in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .engine import Trajectory, snapshot
from .rates import _split_sum

Z_VALUES = {0.95: 1.959963984540054, 0.99: 2.5758293035489004}
MIN_REPLICATIONS = 30
MIN_BATCHES = 20


def z_value(level: float) -> float:
    if level not in Z_VALUES:
        raise ValueError(f"CI level must be one of {sorted(Z_VALUES)}")
    return Z_VALUES[level]


@dataclass(frozen=True)
class EstimateRow:
    """One labelled point estimate with a normal-approximation CI."""

    name: str
    params: dict
    estimate: float
    half_width: float
    level: float
    count: int


@dataclass
class PairMoments:
    """Exact raw power sums of an integer-valued sample pair.

    Everything downstream (covariance, its CI) is a rational function of
    these sums, so merging accumulators is associative and lossless.
    """

    n: int = 0
    sa: int = 0
    sb: int = 0
    saa: int = 0
    sbb: int = 0
    sab: int = 0
    saab: int = 0
    sabb: int = 0
    saabb: int = 0

    def add(self, a: int, b: int):
        self.n += 1
        self.sa += a
        self.sb += b
        self.saa += a * a
        self.sbb += b * b
        self.sab += a * b
        self.saab += a * a * b
        self.sabb += a * b * b
        self.saabb += a * a * b * b

    def merge(self, other: "PairMoments") -> "PairMoments":
        return PairMoments(*(getattr(self, f) + getattr(other, f)
                             for f in ("n", "sa", "sb", "saa", "sbb", "sab",
                                       "saab", "sabb", "saabb")))

    def covariance(self) -> Fraction:
        if self.n < 2:
            raise ValueError("covariance needs at least two samples")
        n = self.n
        return Fraction(self.sab - Fraction(self.sa * self.sb, n), n - 1)

    def covariance_half_width(self, level: float) -> float:
        """CI for the covariance from the spread of the centered products
        (a_i - mean a)(b_i - mean b)."""
        n = self.n
        if n < 2:
            return math.inf
        am = Fraction(self.sa, n)
        bm = Fraction(self.sb, n)
        # sum of (a_i - am)^2 (b_i - bm)^2, expanded in raw sums
        s22 = (self.saabb - 2 * bm * self.saab + bm * bm * self.saa
               - 2 * am * self.sabb + 4 * am * bm * self.sab
               - 2 * am * bm * bm * self.sa + am * am * self.sbb
               - 2 * am * am * bm * self.sb + n * am * am * bm * bm)
        s11 = self.sab - n * am * bm   # sum of centered products
        var_x = (s22 - Fraction(s11 * s11, n)) / (n - 1)
        return z_value(level) * math.sqrt(max(float(var_x), 0.0) / n)


def _moments(trajs, t, pair):
    """PairMoments of `pair(tc)` over the replications' snapshots at t,
    plus N."""
    if len(trajs) < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications")
    pm = PairMoments()
    n_servers = None
    for traj in trajs:
        tc = snapshot(traj, t)
        if n_servers is None:
            n_servers = tc.N
        pm.add(*pair(tc))
    return pm, n_servers


def cov_mk(trajs, k: int, l: int, t: float, level: float = 0.95) -> EstimateRow:
    """|Cov(m_k(t), m_l(t))| across replications, bias-corrected.

    m_k is the fraction of servers at exactly level k, so the integer pair
    (pi_k - pi_{k+1}, pi_l - pi_{l+1}) is accumulated exactly and scaled by
    1/N^2 once at the end.
    """
    pm, n_servers = _moments(
        trajs, t,
        lambda tc: (tc.get(k) - tc.get(k + 1), tc.get(l) - tc.get(l + 1)))
    scale = n_servers * n_servers
    return EstimateRow("cov_mk", {"N": n_servers, "k": k, "l": l, "t": t},
                       abs(float(pm.covariance())) / scale,
                       pm.covariance_half_width(level) / scale,
                       level, pm.n)


def cov_pi(trajs, k: int, l: int, t: float, level: float = 0.95) -> EstimateRow:
    """|Cov(pi_k(t), pi_l(t))| across replications (raw tail counts)."""
    pm, n_servers = _moments(trajs, t, lambda tc: (tc.get(k), tc.get(l)))
    return EstimateRow("cov_pi", {"N": n_servers, "k": k, "l": l, "t": t},
                       abs(float(pm.covariance())),
                       pm.covariance_half_width(level),
                       level, pm.n)


def tagged_rate_from_counts(n: int, d: int, lam: float, pi_k: int, pi_k1: int):
    """Arrival rate to a server at level k given the tail counts, continuously
    extended to pi_k == pi_{k+1} via the split-point sum (the snapshot may
    contain no server at exactly level k)."""
    if not 1 <= d <= n:
        raise ValueError("need 1 <= d <= n")
    if not 0 <= pi_k1 <= pi_k <= n:
        raise ValueError("need 0 <= pi_k1 <= pi_k <= n")
    total = _split_sum(d, pi_k1, pi_k)
    value = lam * n * Fraction(total, factorial(d) * comb(n, d))
    return value if isinstance(lam, Fraction) else float(value)


def var_lambda_rate(trajs, k: int, t: float, n_servers: int, lam: float,
                    d: int = 2, level: float = 0.95):
    """Variance of the state-dependent arrival rate at level k.

    Returns two rows that must agree: a plug-in evaluation from the tail-count
    moments (closed form, d=2 only) and the direct sample variance of the rate
    evaluated per replication (any d).
    """
    pm, n_chk = _moments(trajs, t, lambda tc: (tc.get(k), tc.get(k + 1)))
    if n_chk != n_servers:
        raise ValueError("trajectories disagree with the stated system size")
    rows = []
    if d == 2:
        n = pm.n
        var_a = Fraction(pm.saa - Fraction(pm.sa**2, n), n - 1)
        var_b = Fraction(pm.sbb - Fraction(pm.sb**2, n), n - 1)
        cov = pm.covariance()
        plug = lam * lam / (n_servers - 1) ** 2 * float(var_a + var_b + 2 * cov)
        rows.append(EstimateRow("var_rate_plugin",
                                {"N": n_servers, "k": k, "t": t, "D": d},
                                plug, math.nan, level, n))
    vals = []
    for traj in trajs:
        tc = snapshot(traj, t)
        vals.append(tagged_rate_from_counts(n_servers, d, lam,
                                            tc.get(k), tc.get(k + 1)))
    vals = np.asarray(vals)
    n = vals.size
    est = float(vals.var(ddof=1))
    # CI on a variance via the spread of squared deviations
    dev2 = (vals - vals.mean()) ** 2
    hw = z_value(level) * float(dev2.std(ddof=1)) / math.sqrt(n)
    rows.append(EstimateRow("var_rate_direct",
                            {"N": n_servers, "k": k, "t": t, "D": d},
                            est, hw, level, n))
    return rows


def stationary_tail(traj: Trajectory, warmup: float, n_batches: int,
                    k_max: int = 8, level: float = 0.95):
    """Post-warm-up time averages of the tail fractions, batch-means CI.

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
        rows.append(EstimateRow("stationary_tail", {"N": n_servers, "k": k},
                                est, hw, level, n_batches))
    return rows


@dataclass(frozen=True)
class FitResult:
    amplitude: float
    rate: float
    r_squared: float


def fit_exp_decay(ts, values) -> FitResult:
    """Least-squares fit of values ~ amplitude * exp(-rate * t).

    Fits log(values) against t; requires at least 5 strictly positive points.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.size != values.size or ts.size < 5:
        raise ValueError("need at least 5 (t, value) points")
    if (values <= 0).any():
        raise ValueError("values must be strictly positive for a log fit")
    y = np.log(values)
    slope, intercept = np.polyfit(ts, y, 1)
    pred = slope * ts + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(math.exp(intercept), -slope, r2)
