import math

import numpy as np
import pytest

from podd.cavity import (CoupledPair, level_distribution, run_cavity,
                         run_coupled, tv_distance)
from podd.core import Configuration, FIFO, PS, RngStream, ServiceDistribution
from podd.rates import asymptotic_tail, cavity_rate

EXP = ServiceDistribution.exponential()
DET = ServiceDistribution.deterministic()


class TestTvDistance:
    def test_identical(self):
        assert tv_distance([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_atoms(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert tv_distance([0.5, 0.5], [0.75, 0.25]) == 0.25

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError):
            tv_distance([0.5, 0.5], [0.5, 0.5, 0.0])


class TestLevelDistribution:
    def test_overflow_lumped(self):
        d = level_distribution([0, 1, 1, 5, 9], k_max=2)
        assert list(d) == [0.2, 0.4, 0.4]
        assert d.sum() == 1.0


def sampled_lengths(traj):
    """The cavity queue's length at each sample time: a one-server snapshot
    has pi_k = 1 for k up to the length, and pi_0 = 1 always."""
    return np.asarray([sum(tc.pi) - 1 for tc in traj.snapshots])


class TestRunCavity:
    def test_thinning_matches_birth_death(self):
        # under the stationary tail the queue is a birth-death chain with
        # rates (lam_k, 1); compare the time-average occupancy to the exact
        # stationary law
        d, lam = 3, 0.7
        lam_k = [cavity_rate(d, lam, asymptotic_tail(d, lam, k),
                             asymptotic_tail(d, lam, k + 1))
                 for k in range(8)]
        w = [1.0]
        for r in lam_k:
            w.append(w[-1] * r)
        pi = np.asarray(w) / sum(w)
        traj = run_cavity(d, lam, EXP, FIFO, 6000.0,
                          RngStream(32).child("bd"),
                          sample_times=np.linspace(500, 6000, 5501))
        levels = sampled_lengths(traj)
        emp = np.bincount(levels, minlength=len(pi))[: len(pi)] / levels.size
        assert tv_distance(emp / emp.sum(), pi / pi.sum()) < 0.02

    def test_stationary_tail_prediction(self):
        traj = run_cavity(2, 0.5, EXP, FIFO, 8000.0,
                          RngStream(33).child("st"),
                          sample_times=np.linspace(500, 8000, 7501))
        levels = sampled_lengths(traj)
        for k in range(4):
            p_hat = (levels >= k).mean()
            assert abs(p_hat - asymptotic_tail(2, 0.5, k)) < 0.02

    def test_deterministic_given_stream(self):
        a = run_cavity(2, 0.5, EXP, PS, 50.0, RngStream(34).child("d"),
                       sample_times=[10.0, 50.0])
        b = run_cavity(2, 0.5, EXP, PS, 50.0, RngStream(34).child("d"),
                       sample_times=[10.0, 50.0])
        assert a.snapshots == b.snapshots
        assert (a.final_lengths == b.final_lengths).all()

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            run_cavity(2, 0.5, EXP, FIFO, horizon, RngStream(0),
                       sample_times=[1.0])

    def test_nan_sample_time_rejected(self):
        with pytest.raises(ValueError, match="sample times"):
            run_cavity(2, 0.5, EXP, FIFO, 2.0, RngStream(0),
                       sample_times=[1.0, math.nan])


def test_no_sample_times_take_no_snapshot():
    # both used to snapshot at the horizon, which no caller read
    traj = run_cavity(2, 0.5, EXP, FIFO, 2.0, RngStream(35))
    pair = run_coupled(4, 2, 0.5, EXP, FIFO, Configuration.empty(4), 2.0,
                       RngStream(35))
    for t in (traj, pair.traj_small, pair.traj_large):
        assert t.snapshots == [] and t.times.size == 0


class _TopUniforms:
    """Generator proxy whose uniforms are all 1 - 2**-53, the largest
    `Generator.random` can return; every other draw is the real one."""

    def __init__(self, gen):
        self.gen = gen

    def random(self, size):
        return np.full(size, 1 - 2**-53)

    def __getattr__(self, name):
        return getattr(self.gen, name)


class TestRunCoupled:
    def test_largest_uniform_picks_blue(self):
        # at N = 21, D = 2, lam = 0.1 the three stream shares sum to
        # 1 - 2**-52, below the largest uniform
        n = 21
        gen = _TopUniforms(RngStream(41).child("top").generator())
        pair = run_coupled(n, 2, 0.1, EXP, FIFO, Configuration.empty(n),
                           10.0, gen)
        assert pair.counts["yellow"] == pair.counts["red"] == 0
        assert pair.counts["blue"] > 0
        assert pair.tagged_hits[0] == 0

    def test_stream_rates(self):
        n, d, lam, horizon, reps = 20, 2, 0.5, 5.0, 120
        root = RngStream(35)
        y = r = b = 0
        for i in range(reps):
            pair = run_coupled(n, d, lam, EXP, FIFO, Configuration.empty(n),
                               horizon, root.child("sr", i))
            y += pair.counts["yellow"]
            r += pair.counts["red"]
            b += pair.counts["blue"]
        t_total = horizon * reps
        assert abs(y / t_total - lam * (n - d + 1)) < 3 * math.sqrt(lam * n / t_total)
        assert abs(r / t_total - lam * (d - 1)) < 3 * math.sqrt(lam * d / t_total)
        assert abs(b / t_total - lam * d) < 3 * math.sqrt(lam * d / t_total)
        # superposition identities: small system sees lam*N, large lam*(N+1)
        assert abs((y + b) / t_total - lam * (n + 1)) < 4 * math.sqrt(lam * n / t_total)
        assert abs((y + r) / t_total - lam * n) < 4 * math.sqrt(lam * n / t_total)

    def test_shared_arrivals_align_systems(self):
        # at D = 1 the red stream's rate is 0 and a blue arrival samples only
        # the extra server, so the first N servers of both systems start
        # equal and receive identical arrivals with shared service
        pair = run_coupled(8, 1, 0.5, EXP, FIFO, Configuration.empty(8),
                           5.0, RngStream(37).child("al"))
        assert pair.counts["red"] == 0
        assert (pair.traj_small.final_lengths
                == pair.traj_large.final_lengths[:-1]).all()

    @pytest.mark.parametrize("n", [50, 200])
    def test_shared_tie_break_keeps_systems_close(self, n):
        # both routes of a shared arrival break a tie by one uniform, so from
        # an empty start few servers differ at t = 1 (about 1.5, the extra
        # server included); one tie-break per route left about 13 differing
        # at N = 50 and 48 at N = 200
        reps = 300
        root = RngStream(40)
        differ = 0
        for r in range(reps):
            pair = run_coupled(n, 2, 0.7, EXP, FIFO, Configuration.empty(n),
                               1.0, root.child("tie", r))
            small = pair.traj_small.final_lengths
            large = pair.traj_large.final_lengths
            differ += int((small != large[:-1]).sum()) + int(large[-1] != 0)
        assert differ / reps < 3

    def test_determinism(self):
        kw = dict(sample_times=[1.0, 3.0])
        a = run_coupled(10, 2, 0.5, EXP, PS, Configuration.empty(10), 3.0,
                        RngStream(38).child("det"), **kw)
        b = run_coupled(10, 2, 0.5, EXP, PS, Configuration.empty(10), 3.0,
                        RngStream(38).child("det"), **kw)
        assert a.counts == b.counts
        assert (a.traj_small.final_lengths == b.traj_small.final_lengths).all()
        assert (a.traj_large.final_lengths == b.traj_large.final_lengths).all()

    def test_blue_always_samples_extra_server(self):
        pair = run_coupled(6, 3, 0.5, EXP, FIFO, Configuration.empty(6), 4.0,
                           RngStream(39).child("blue"), record_events=True)
        small_ids = {s for ev in pair.log_small.arrivals for s in ev.zeta}
        assert small_ids <= set(range(6))
        blue_events = [ev for ev in pair.log_large.arrivals if 6 in ev.zeta]
        assert len(blue_events) == pair.counts["blue"]

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            run_coupled(4, 2, 0.5, EXP, FIFO, Configuration.empty(4), horizon,
                        RngStream(0), sample_times=[1.0])

    def test_nan_sample_time_rejected(self):
        with pytest.raises(ValueError, match="sample times"):
            run_coupled(4, 2, 0.5, EXP, FIFO, Configuration.empty(4), 2.0,
                        RngStream(0), sample_times=[math.nan])

    @pytest.mark.parametrize("lam", [0.0, 1.0, 1.5])
    def test_load_outside_unit_interval_rejected(self, lam):
        with pytest.raises(ValueError, match="load"):
            run_coupled(4, 2, lam, EXP, FIFO, Configuration.empty(4), 2.0,
                        RngStream(0))

