import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from podd.core import Configuration, FIFO, PS, RngStream, ServiceDistribution
from podd.engine import run, snapshot
from podd.estimators import cov_mk, pair_covariance, stationary_tail, z_value

EXP = ServiceDistribution.exponential()
DET = ServiceDistribution.deterministic()


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


def replicate(n, d, lam, t, reps, seed, disc=FIFO, dist=EXP, init=None,
              horizon=None):
    """Each replication's tail counts at t, as `cov_mk` takes them."""
    root = RngStream(seed)
    out = []
    for r in range(reps):
        cfg = init if init is not None else Configuration.empty(n)
        traj, _ = run(n, d, lam, dist, disc, cfg, horizon or t, [t],
                      root.child("rep", r), record_events=False)
        out.append(snapshot(traj, t))
    return out


class TestPairMoments:
    # pair_covariance: the exact first and second moments of integer pairs

    def test_covariance_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 50, 200)
        b = rng.integers(0, 50, 200)
        cov, _ = pair_covariance([(int(x), int(y)) for x, y in zip(a, b)], 0.95)
        assert float(cov) == pytest.approx(np.cov(a, b, ddof=1)[0, 1])

    @given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                              st.integers(-10**6, 10**6)),
                    min_size=2, max_size=40),
           st.sampled_from([0.95, 0.99]))
    def test_exact_against_fractions(self, pairs, level):
        n = len(pairs)
        am = Fraction(sum(a for a, _ in pairs), n)
        bm = Fraction(sum(b for _, b in pairs), n)
        x = [(a - am) * (b - bm) for a, b in pairs]
        xm = sum(x) / n
        want_cov = sum(x) / (n - 1)
        want_var = sum((v - xm) ** 2 for v in x) / (n - 1)
        cov, half_width = pair_covariance(pairs, level)
        assert cov == want_cov
        assert half_width == z_value(level) * math.sqrt(float(want_var) / n)

    def test_half_width_positive(self):
        _, half_width = pair_covariance(
            [(1, 2), (3, 1), (2, 2), (5, 0), (0, 4)], 0.95)
        assert half_width > 0
        with pytest.raises(ValueError):
            z_value(0.9)


class TestCovEstimators:
    def test_t_zero_deterministic_init(self):
        snaps = replicate(6, 2, 0.5, 0.0, 30, seed=50, horizon=1.0)
        assert cov_mk(snaps, 0, 1).estimate == 0.0

    def test_diagonal_is_variance(self):
        snaps = replicate(8, 2, 0.6, 1.0, 40, seed=51)
        row = cov_mk(snaps, 1, 1)
        vals = [(tc.get(1) - tc.get(2)) / 8 for tc in snaps]
        assert row.estimate == pytest.approx(np.var(vals, ddof=1))

    def test_replication_floor(self):
        snaps = replicate(5, 2, 0.5, 0.5, 10, seed=53)
        with pytest.raises(ValueError):
            cov_mk(snaps, 0, 1)


def enumerate_moments(n, lam, horizon, k, l, max_arrivals=7):
    """Exact E[m_k m_l], E[m_k], E[m_l] for D=2, deterministic unit service,
    empty start, horizon < 1 (so departures cannot happen), by enumerating
    every arrival count and routing outcome.  Returns the truncated Poisson
    tail mass as the error budget."""
    def m(lengths, j):
        return sum(1 for v in lengths if v == j) / n

    # distribution over length multisets after a given number of arrivals
    states = {(0,) * n: Fraction(1)}
    mean_k = Fraction(0)
    mean_l = Fraction(0)
    mean_kl = Fraction(0)
    rate = lam * n * horizon
    tail = 1.0
    for arrivals in range(max_arrivals + 1):
        w = math.exp(-rate) * rate**arrivals / math.factorial(arrivals)
        tail -= w
        for lengths, p in states.items():
            mk, ml = m(lengths, k), m(lengths, l)
            mean_k += Fraction(w) * p * Fraction(mk)
            mean_l += Fraction(w) * p * Fraction(ml)
            mean_kl += Fraction(w) * p * Fraction(mk * ml)
        nxt = {}
        for lengths, p in states.items():
            pairs = list(itertools.combinations(range(n), 2))
            for i, j in pairs:
                share = p / len(pairs)
                if lengths[i] < lengths[j]:
                    targets = [(i, share)]
                elif lengths[j] < lengths[i]:
                    targets = [(j, share)]
                else:
                    targets = [(i, share / 2), (j, share / 2)]
                for tgt, q in targets:
                    new = list(lengths)
                    new[tgt] += 1
                    key = tuple(sorted(new))
                    nxt[key] = nxt.get(key, Fraction(0)) + q
        states = nxt
    cov = float(mean_kl - mean_k * mean_l)
    return cov, tail


class TestExhaustiveOracle:
    def test_cov_mk_against_enumeration(self):
        n, lam, horizon, k, l = 3, 0.5, 0.4, 0, 1
        exact, tail = enumerate_moments(n, lam, horizon, k, l)
        reps = 4000
        snaps = replicate(n, 2, lam, horizon, reps, seed=54, dist=DET)
        row = cov_mk(snaps, k, l, level=0.99)
        assert abs(row.estimate - abs(exact)) < 3 * row.half_width + tail + 1e-6


class TestStationaryTail:
    def test_random_routing_matches_mm1(self):
        # D=1: each queue is M/M/1 with load lam; tail is lam^k
        n, lam, horizon = 40, 0.6, 2000.0
        times = np.linspace(0.0, horizon, 2001)
        traj, _ = run(n, 1, lam, EXP, FIFO, Configuration.empty(n), horizon,
                      times, RngStream(58).child("mm1"), record_events=False)
        rows = stationary_tail(traj, warmup=10 / (1 - lam), n_batches=20,
                               k_max=4)
        for k, row in enumerate(rows):
            assert abs(row.estimate - lam**k) < max(0.02, 4 * row.half_width), k

    def test_horizon_validation(self):
        traj, _ = run(5, 2, 0.5, EXP, FIFO, Configuration.empty(5), 2.0,
                      np.linspace(0, 2, 11), RngStream(59))
        with pytest.raises(ValueError):
            stationary_tail(traj, warmup=1.9, n_batches=20)
        with pytest.raises(ValueError):
            stationary_tail(traj, warmup=0.0, n_batches=5)


class TestFitExpDecay:
    def test_exact_series(self):
        ts = [1.0, 2.0, 4.0, 8.0, 16.0]
        fit = fit_exp_decay(ts, [math.exp(-2 * t) for t in ts])
        assert fit.rate == pytest.approx(2.0, abs=1e-9)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_series(self):
        fit = fit_exp_decay([1, 2, 3, 4, 5], [0.3] * 5)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exp_decay([1, 2, 3], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            fit_exp_decay([1, 2, 3, 4, 5], [0.1, 0.2, 0.0, 0.1, 0.2])
