import math

import numpy as np
import pytest

from podd import ancestry
from podd.ancestry import _aggregate, clan_monte_carlo
from podd.core import Configuration, FIFO, RngStream, ServiceDistribution
from podd.engine import ArrivalEvent, EventLog, run
from podd.rates import BoundInputs, clan_intersection_bound, clan_size_bound


EXP = ServiceDistribution.exponential()


def build_clan(log: EventLog, i: int, t: float) -> frozenset:
    """Clan of server i over the last t time units of the log, as the set
    of its servers.

    The reference scan, which the tests check `clan_monte_carlo` against.
    Pure function of the log: arrivals are scanned in decreasing time from the
    horizon; whenever the scanned arrival's sampled set meets the clan, the
    clan absorbs the whole set.
    """
    if t > log.horizon:
        raise ValueError("window exceeds the log horizon")
    if not 0 <= i < log.N:
        raise ValueError("server index out of range")
    start = log.horizon - t
    clan = {i}
    for ev in reversed(log.arrivals):
        if ev.time < start:
            break
        if not clan.isdisjoint(ev.zeta):
            clan.update(ev.zeta)
    return frozenset(clan)


def arrival_log(n, d, lam, horizon, rng):
    """The EventLog of an n-server run from empty; a clan reads only its
    arrival times and D-sets."""
    return run(n, d, lam, EXP, FIFO, Configuration.empty(n), horizon, [],
               rng)[1]


def make_log(n, horizon, events):
    """A hand-made log; each task is routed to the first server of its set,
    which no clan scan reads."""
    arrivals = [ArrivalEvent(t, tuple(z), z[0]) for t, z in events]
    return EventLog(horizon=horizon, N=n, arrivals=arrivals,
                    n_arrivals=len(arrivals))


class TestBuildClan:
    def test_empty_log(self):
        log = EventLog(horizon=1.0, N=5)
        assert build_clan(log, 3, 1.0) == {3}

    def test_hand_trace(self):
        # scanned backwards: the later event pulls in server 1, then the
        # earlier one extends through 1 to 2
        log = make_log(4, 1.0, [(0.5, (1, 2)), (0.8, (0, 1))])
        assert build_clan(log, 0, 1.0) == {0, 1, 2}

    def test_hand_trace_other_seed(self):
        log = make_log(4, 1.0, [(0.5, (1, 2)), (0.8, (0, 1))])
        assert build_clan(log, 2, 1.0) == {1, 2}

    def test_window_cuts_old_events(self):
        log = make_log(4, 1.0, [(0.5, (1, 2)), (0.8, (0, 1))])
        # window 0.3 only reaches back to time 0.7
        assert build_clan(log, 0, 0.3) == {0, 1}
        assert build_clan(log, 2, 0.3) == {2}

    def test_window_validated(self):
        log = EventLog(horizon=1.0, N=3)
        with pytest.raises(ValueError):
            build_clan(log, 0, 2.0)
        with pytest.raises(ValueError):
            build_clan(log, 7, 0.5)

    def test_contains_seed_and_monotone(self):
        root = RngStream(21)
        for r in range(25):
            log = arrival_log(12, 2, 0.6, 2.0, root.child("mono", r))
            prev = set()
            for t in (0.0, 0.5, 1.0, 2.0):
                psi = build_clan(log, 4, t)
                assert 4 in psi
                assert prev <= psi
                prev = set(psi)

    def test_intersection_symmetric(self):
        root = RngStream(22)
        for r in range(40):
            log = arrival_log(10, 2, 0.5, 1.0, root.child("sym", r))
            a = build_clan(log, 0, 1.0)
            b = build_clan(log, 3, 1.0)
            assert bool(a & b) == bool(b & a)


def assert_mc_matches_logs(n, d, lam, grid, reps, seed):
    # both samplers target the same law; their means must agree within
    # combined CI noise
    mc = clan_monte_carlo(n, d, lam, grid, reps, RngStream(seed).child("mc"))
    logs = [arrival_log(n, d, lam, grid[-1], RngStream(seed).child("lg", r))
            for r in range(reps)]
    sizes, hits = [], []
    for log in logs:
        clans = [(build_clan(log, 0, t), build_clan(log, 1, t))
                 for t in grid]
        sizes.append([(len(a) + len(b)) / 2 for a, b in clans])
        hits.append([1.0 if a & b else 0.0 for a, b in clans])
    ref = _aggregate(np.asarray(sizes), np.asarray(hits), grid)
    for i in range(len(grid)):
        tol = mc.size_ci[i] + ref.size_ci[i]
        assert abs(mc.mean_size[i] - ref.mean_size[i]) < max(tol, 0.05), grid[i]
        tol = mc.p_ci[i] + ref.p_ci[i]
        assert abs(mc.p_intersect[i] - ref.p_intersect[i]) < max(tol, 0.02)


class TestClanMonteCarlo:
    def test_agrees_with_log_based_path(self):
        assert_mc_matches_logs(20, 2, 0.5, (0.5, 1.0), 800, seed=26)

    def test_agrees_with_log_based_path_past_bit_63(self):
        # a 20-server system has no server past index 63, where a clan kept
        # as a 64-bit mask would silently lose it
        assert_mc_matches_logs(100, 3, 0.5, (0.5, 1.0), 800, seed=30)

    def test_bounds_hold_small_grid(self):
        n, d, lam = 50, 2, 0.5
        grid = (0.25, 0.5, 1.0)
        st = clan_monte_carlo(n, d, lam, grid, 2000, RngStream(27).child("bd"))
        for i, t in enumerate(grid):
            inp = BoundInputs(n, d, lam, t)
            assert st.mean_size[i] <= clan_size_bound(inp) + st.size_ci[i]
            assert st.p_intersect[i] <= clan_intersection_bound(inp) + st.p_ci[i]

    def test_more_samples_than_servers_rejected(self):
        with pytest.raises(ValueError, match="D"):
            clan_monte_carlo(2, 3, 0.5, (0.5,), 5, RngStream(1))

    def test_t_zero(self):
        st = clan_monte_carlo(8, 2, 0.5, (0.0, 0.5), 50, RngStream(23).child("z"))
        assert st.mean_size[0] == 1.0
        assert st.p_intersect[0] == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            clan_monte_carlo(10, 2, 0.5, (), 5, RngStream(1))

    def test_deterministic(self):
        a = clan_monte_carlo(15, 2, 0.5, (1.0,), 50, RngStream(28).child("det"))
        b = clan_monte_carlo(15, 2, 0.5, (1.0,), 50, RngStream(28).child("det"))
        assert a == b


class _PoissonRecorder:
    """Generator proxy that keeps a copy of every Poisson array it returns."""

    def __init__(self, gen):
        self.gen = gen
        self.poisson_draws = []

    def poisson(self, *args, **kwargs):
        out = self.gen.poisson(*args, **kwargs)
        self.poisson_draws.append(out.copy())
        return out

    def __getattr__(self, name):
        return getattr(self.gen, name)


def logs_from_draws(n, d, grid, counts, dsets, block):
    """Each replication's EventLog, rebuilt from the band counts and the
    `_distinct_rows` arrays in the draw order `clan_monte_carlo` documents:
    blocks of replications, bands, then steps.  Band g's arrivals get evenly
    spaced times strictly inside the band, later in time for earlier steps."""
    horizon = grid[-1]
    events = [[] for _ in range(counts.shape[0])]
    draws = iter(dsets)
    for lo in range(0, counts.shape[0], block):
        m = counts[lo:lo + block]
        for g, t in enumerate(grid):
            prev = grid[g - 1] if g else 0.0
            for k in range(int(m[:, g].max(initial=0))):
                rows = np.flatnonzero(m[:, g] > k)
                z = next(draws)
                assert z.shape == (rows.size, d)
                for r, zeta in zip(rows, z.tolist()):
                    frac = (k + 1) / (m[r, g] + 1)
                    events[lo + r].append((horizon - prev - frac * (t - prev),
                                           zeta))
    assert next(draws, None) is None
    return [make_log(n, horizon, sorted(ev)) if ev else
            EventLog(horizon=horizon, N=n) for ev in events]


class TestBlockScanExact:
    """The block scan is `build_clan` on the logs its own draws describe:
    equal to the last bit, not only in law."""

    @pytest.mark.parametrize("n,d", [(10, 2), (10, 3), (100, 2), (100, 3)])
    def test_matches_build_clan_on_recorded_draws(self, monkeypatch, n, d):
        grid, reps = (0.0, 0.25, 0.5, 1.0), 60
        dsets = []
        real = ancestry._distinct_rows

        def recording(gen, n_rows, N, D):
            z = real(gen, n_rows, N, D)
            dsets.append(z.copy())
            return z

        monkeypatch.setattr(ancestry, "_distinct_rows", recording)
        # blocks of 7 replications, the last one partial
        monkeypatch.setattr(ancestry, "BLOCK_CELLS", 7 * n)
        gen = _PoissonRecorder(RngStream(31).child("exact", n * d).generator())
        mc = clan_monte_carlo(n, d, 0.5, grid, reps, gen)
        counts, = gen.poisson_draws
        sizes, hits, top = [], [], 0
        for log in logs_from_draws(n, d, grid, counts, dsets, 7):
            clans = [(build_clan(log, 0, t), build_clan(log, 1, t))
                     for t in grid]
            sizes.append([(len(a) + len(b)) / 2 for a, b in clans])
            hits.append([1.0 if a & b else 0.0 for a, b in clans])
            top = max(top, *clans[-1][0], *clans[-1][1])
        assert mc == _aggregate(np.asarray(sizes), np.asarray(hits), grid)
        assert (top > 63) == (n > 64)


class TestIndependenceSurrogate:
    def test_disjoint_clan_events_factorize(self):
        # proof ingredient: clans confined to disjoint label sets behave
        # like functions of independent thinned streams
        n, d, lam, t, reps = 4, 2, 0.5, 0.6, 6000
        root = RngStream(29)
        a_hit = b_hit = both = 0
        for r in range(reps):
            log = arrival_log(n, d, lam, t, root.child("ind", r))
            a = build_clan(log, 0, t) == {0}
            b = build_clan(log, 1, t) == {1}
            a_hit += a
            b_hit += b
            both += a and b
        pa, pb, pj = a_hit / reps, b_hit / reps, both / reps
        noise = 4 * math.sqrt(0.25 / reps)
        assert abs(pj - pa * pb) < 3 * noise
