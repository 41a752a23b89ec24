import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from podd.core import Configuration, FIFO, PS, RngStream, ServiceDistribution
from podd.engine import run
from podd.estimators import (EstimateRow, FitResult, PairMoments, cov_mk,
                             cov_pi, fit_exp_decay,
                             stationary_tail, tagged_rate_from_counts,
                             var_lambda_rate, z_value)
from podd.rates import RateInputs, arrival_rate_closed

EXP = ServiceDistribution.exponential()
DET = ServiceDistribution.deterministic()


def replicate(n, d, lam, t, reps, seed, disc=FIFO, dist=EXP, init=None,
              horizon=None):
    root = RngStream(seed)
    out = []
    for r in range(reps):
        cfg = init if init is not None else Configuration.empty(n)
        traj, _ = run(n, d, lam, dist, disc, cfg, horizon or t, [t],
                      root.child("rep", r), record_events=False)
        out.append(traj)
    return out


class TestPairMoments:
    def test_covariance_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 50, 200)
        b = rng.integers(0, 50, 200)
        pm = PairMoments()
        for x, y in zip(a, b):
            pm.add(int(x), int(y))
        assert float(pm.covariance()) == pytest.approx(np.cov(a, b, ddof=1)[0, 1])

    def test_merge_associative_and_exact(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 30, 90)
        b = rng.integers(0, 30, 90)
        whole = PairMoments()
        parts = [PairMoments() for _ in range(3)]
        for i, (x, y) in enumerate(zip(a, b)):
            whole.add(int(x), int(y))
            parts[i % 3].add(int(x), int(y))
        merged = parts[0].merge(parts[1]).merge(parts[2])
        remerged = parts[2].merge(parts[0].merge(parts[1]))
        assert merged == whole == remerged
        assert merged.covariance() == whole.covariance()

    def test_half_width_positive(self):
        pm = PairMoments()
        for x, y in [(1, 2), (3, 1), (2, 2), (5, 0), (0, 4)]:
            pm.add(x, y)
        assert pm.covariance_half_width(0.95) > 0
        with pytest.raises(ValueError):
            z_value(0.9)


class TestCovEstimators:
    def test_t_zero_deterministic_init(self):
        trajs = replicate(6, 2, 0.5, 0.0, 30, seed=50, horizon=1.0)
        assert cov_mk(trajs, 0, 1, 0.0).estimate == 0.0
        assert cov_pi(trajs, 1, 2, 0.0).estimate == 0.0

    def test_diagonal_is_variance(self):
        trajs = replicate(8, 2, 0.6, 1.0, 40, seed=51)
        row = cov_mk(trajs, 1, 1, 1.0)
        vals = []
        for traj in trajs:
            tc = traj.snapshots[0]
            vals.append((tc.get(1) - tc.get(2)) / 8)
        assert row.estimate == pytest.approx(np.var(vals, ddof=1))

    def test_cov_pi_matches_direct_expansion(self):
        trajs = replicate(5, 2, 0.5, 0.8, 60, seed=52)
        row = cov_pi(trajs, 1, 2, 0.8)
        a = [traj.snapshots[0].get(1) for traj in trajs]
        b = [traj.snapshots[0].get(2) for traj in trajs]
        assert row.estimate == pytest.approx(abs(np.cov(a, b, ddof=1)[0, 1]))

    def test_replication_floor(self):
        trajs = replicate(5, 2, 0.5, 0.5, 10, seed=53)
        with pytest.raises(ValueError):
            cov_mk(trajs, 0, 1, 0.5)


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
        trajs = replicate(n, 2, lam, horizon, reps, seed=54, dist=DET)
        row = cov_mk(trajs, k, l, horizon, level=0.99)
        assert abs(row.estimate - abs(exact)) < 3 * row.half_width + tail + 1e-6


class TestVarLambdaRate:
    def test_t_zero(self):
        trajs = replicate(10, 2, 0.5, 0.0, 30, seed=55, horizon=0.5)
        rows = var_lambda_rate(trajs, 1, 0.0, 10, 0.5)
        assert rows[0].estimate == 0.0
        assert rows[1].estimate == pytest.approx(0.0, abs=1e-30)

    def test_plugin_agrees_with_direct(self):
        n, lam, t = 50, 0.5, 2.0
        trajs = replicate(n, 2, lam, t, 300, seed=56)
        plugin, direct = var_lambda_rate(trajs, 1, t, n, lam)
        assert plugin.name == "var_rate_plugin"
        # the two estimators use the same samples, so agreement is tight
        assert direct.estimate == pytest.approx(plugin.estimate, rel=1e-9)

    def test_decreasing_in_n(self):
        vals = []
        for n in (50, 100, 200):
            trajs = replicate(n, 2, 0.5, 1.0, 200, seed=57)
            _, direct = var_lambda_rate(trajs, 1, 1.0, n, 0.5)
            vals.append(direct.estimate)
        assert vals[0] > vals[2]

    def test_rate_extension_matches_closed_form(self):
        for n, d, pk, pk1 in [(10, 2, 6, 3), (9, 3, 7, 2), (12, 4, 10, 5)]:
            got = tagged_rate_from_counts(n, d, 0.5, pk, pk1)
            want = arrival_rate_closed(RateInputs(n, d, 0.5, pk, pk1))
            assert got == pytest.approx(want, rel=1e-12)
        # diagonal: d=2 reduces to lam/(n-1) * (a + b - 1)
        assert tagged_rate_from_counts(10, 2, 0.5, 4, 4) == pytest.approx(
            0.5 / 9 * 7)

    @pytest.mark.parametrize("n,d,pk,pk1", [(1, 2, 1, 0), (5, 0, 3, 1)])
    def test_rate_extension_rejects_d_outside_1_to_n(self, n, d, pk, pk1):
        with pytest.raises(ValueError, match="1 <= d <= n"):
            tagged_rate_from_counts(n, d, 0.7, pk, pk1)


class TestStationaryTail:
    def test_random_routing_matches_mm1(self):
        # D=1: each queue is M/M/1 with load lam; tail is lam^k
        n, lam, horizon = 40, 0.6, 2000.0
        times = np.linspace(0.0, horizon, 2001)
        traj, _ = run(n, 1, lam, EXP, FIFO, Configuration.empty(n), horizon,
                      times, RngStream(58).child("mm1"), record_events=False)
        rows = stationary_tail(traj, warmup=10 / (1 - lam), n_batches=20,
                               k_max=4)
        for row in rows:
            k = row.params["k"]
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
