import math

import numpy as np
import pytest

from podd.core import (Configuration, FIFO, LIFO_PR, PS, RngStream,
                       ServiceDistribution, tail_counts_from_lengths)
from podd import cavity, engine
from podd.cavity import run_cavity, run_coupled
from podd.engine import _CHUNK, run, snapshot, _draws, _route, _System
from podd.rates import arrival_rate_closed

EXP = ServiceDistribution.exponential()
DET = ServiceDistribution.deterministic()
ERL4 = ServiceDistribution.erlang(4)
HYP = ServiceDistribution.hyperexponential_cv2(4.0)


def config_from_lengths(lengths, seed=0):
    return Configuration.from_lengths(lengths, EXP, RngStream(seed))


class TestRouting:
    def _uniform(self, stream):
        gen = stream.generator()
        return _draws(lambda: gen.random(8))

    def test_unique_minimum(self):
        lengths = [3, 1, 2]
        assert _route(lengths, (0, 1), self._uniform(RngStream(1))) == 1
        assert _route(lengths, (0, 2), self._uniform(RngStream(1))) == 2

    def test_singleton(self):
        assert _route([3, 1, 2], (0,), self._uniform(RngStream(1))) == 0

    def test_tie_frequencies(self):
        u = self._uniform(RngStream(2).child("ties"))
        n = 10**5
        hits = sum(_route([2, 2], (0, 1), u) for _ in range(n))
        # fair coin: 3 sigma band around n/2
        assert abs(hits - n / 2) < 3 * math.sqrt(n / 4)


class TestBuffer:
    def test_same_draws_as_generator_in_python_floats(self):
        # three chunk boundaries crossed, the fourth chunk partly used
        gen = RngStream(16).child("buf").generator()
        ref = RngStream(16).child("buf").generator()
        draw = _draws(lambda: gen.random(_CHUNK))
        got = [draw() for _ in range(3 * _CHUNK + 3)]
        want = np.concatenate([ref.random(_CHUNK) for _ in range(4)])
        assert got == want[: len(got)].tolist()
        assert all(type(v) is float for v in got)

    def test_chunks_drawn_at_build_then_when_used_up(self):
        # two buffers on one Generator: each draws its first chunk when
        # built, and its next one at the first draw past its last chunk
        gen = RngStream(16).child("order").generator()
        ref = RngStream(16).child("order").generator()
        u = _draws(lambda: gen.random(_CHUNK))
        e = _draws(lambda: gen.standard_exponential(_CHUNK))
        got_e = [e() for _ in range(_CHUNK + 1)]
        got_u = [u() for _ in range(2 * _CHUNK + 1)]
        want_u = ref.random(_CHUNK).tolist()
        want_e = ref.standard_exponential(_CHUNK).tolist()
        want_e += ref.standard_exponential(_CHUNK).tolist()
        want_u += ref.random(2 * _CHUNK).tolist()
        assert got_e == want_e[: len(got_e)]
        assert got_u == want_u[: len(got_u)]


class TestDepartureTiming:
    # one server, two jobs with residuals 0.4 and 1.0 queued at time 0

    def _loaded(self, disc):
        s = _System(1, disc, log=[])
        s.arrive(0, 0.0, 0.4)
        s.arrive(0, 0.0, 1.0)
        return s

    @staticmethod
    def _times(s):
        return [t for t, _ in s.log]

    def test_fifo(self):
        s = self._loaded(FIFO)
        s.advance(0, 1.0)     # applies the first departure only
        assert self._times(s) == pytest.approx([0.4])
        assert s.lengths == [1] and s.due[0] == pytest.approx(1.4)
        s.advance(0, 100.0)
        assert self._times(s) == pytest.approx([0.4, 1.4])

    def test_ps(self):
        s = self._loaded(PS)
        s.advance(0, 100.0)
        # min residual times the number in service
        assert self._times(s) == pytest.approx([0.8, 1.4])

    def test_lifo_preempts(self):
        s = self._loaded(LIFO_PR)
        s.advance(0, 100.0)
        assert self._times(s) == pytest.approx([1.0, 1.4])

    # job A (residual 1.0) from time 0, then job B (0.5) arrives at 0.4

    def _departures_with_arrival_during_service(self, disc):
        s = _System(1, disc, log=[])
        s.arrive(0, 0.0, 1.0)
        s.advance(0, 0.4)     # nothing is due by then
        s.arrive(0, 0.4, 0.5)
        s.advance(0, 100.0)
        # the server is idle: nothing more is due
        return self._times(s), s.due[0]

    def test_fifo_arrival_during_service(self):
        # A keeps the server: A at 1.0, then B at 1.0 + 0.5
        times, due = self._departures_with_arrival_during_service(FIFO)
        assert times == pytest.approx([1.0, 1.5])
        assert due == math.inf

    def test_ps_arrival_during_service(self):
        # A has 0.6 left at 0.4; both served at rate 1/2, so B (0.5) ends at
        # 0.4 + 2 * 0.5 = 1.4 with A at 0.1, which then ends alone at 1.5
        times, due = self._departures_with_arrival_during_service(PS)
        assert times == pytest.approx([1.4, 1.5])
        assert due == math.inf

    def test_lifo_arrival_during_service(self):
        # B preempts A (0.6 left) and ends at 0.9; A resumes and ends at 1.5
        times, due = self._departures_with_arrival_during_service(LIFO_PR)
        assert times == pytest.approx([0.9, 1.5])
        assert due == math.inf

    def test_ps_three_staggered_arrivals(self):
        # A (1.0) at 0; B (0.75) at 0.5, when A has 0.5 left; C (0.25) at
        # 0.75, when A has 0.375 and B 0.625 left.  Shared three ways, C
        # ends at 0.75 + 3 * 0.25 = 1.5 with A at 0.125 and B at 0.375; A
        # then ends at 1.5 + 2 * 0.125 = 1.75, and B alone at 2.0.  Every
        # value is dyadic, so the times are exact.
        s = _System(1, PS, log=[])
        for t, residual in ((0.0, 1.0), (0.5, 0.75), (0.75, 0.25)):
            s.advance(0, t)
            s.arrive(0, t, residual)
        s.advance(0, 2.0)     # a departure due at 2.0 is applied
        assert s.log == [(1.5, 0), (1.75, 0), (2.0, 0)]
        # the clock reset when the server emptied
        assert s.vt == [0.0] and s.due == [math.inf]

    def test_nonpositive_residual_rejected(self):
        for residual in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                _System(1, FIFO).arrive(0, 0.0, residual)


class _ResidualPs(_System):
    """Reference PS kernel: every job's residual is advanced by dt / n
    whenever the share changes, and the next departure is the least residual
    times n."""

    __slots__ = ()

    def __new__(cls, *args):
        return object.__new__(cls)

    def _schedule(self, s, t):
        js = self.jobs[s]
        if js:
            due = len(js) * min(js)
            self.due[s] = t + (due if due > 0.0 else 0.0)
        else:
            self.due[s] = math.inf

    def _serve(self, s, t):
        js = self.jobs[s]
        dt = t - self.last[s]
        self.last[s] = t
        if dt > 0.0 and js:
            dec = dt / len(js)
            self.jobs[s] = js = [r - dec for r in js]
        return js

    def arrive(self, s, t, residual):
        self._serve(s, t).append(residual)
        self.lengths[s] += 1
        self._schedule(s, t)

    def advance(self, s, t):
        while self.due[s] <= t:
            d = self.due[s]
            js = self._serve(s, d)
            js.pop(js.index(min(js)))
            self.lengths[s] -= 1
            if self.log is not None:
                self.log.append((d, s))
            self._schedule(s, d)


class TestPsClock:
    """The virtual-clock PS kernel against the residual-rewriting one."""

    @pytest.mark.parametrize("n,d,lam,dist,loaded,seed", [
        (1, 1, 0.9, EXP, False, 1),
        (5, 2, 0.9, HYP, False, 2),
        (12, 3, 0.8, ERL4, True, 3),
        (30, 2, 0.95, HYP, True, 4),
        (8, 8, 0.7, DET, True, 5),
    ], ids=["mm1-empty", "n5-hyperexp-empty", "n12-erlang4-loaded",
            "n30-hyperexp-loaded", "n8-d8-det-loaded"])
    def test_departures_match_reference(self, monkeypatch, n, d, lam, dist,
                                        loaded, seed):
        if loaded:
            gen = RngStream(seed).child("lengths").generator()
            lengths = (gen.geometric(1.0 - lam, size=n) - 1).tolist()
            init = Configuration.from_lengths(lengths, dist,
                                              RngStream(seed).child("init"))
        else:
            init = Configuration.empty(n)

        def departures():
            _, log = run(n, d, lam, dist, PS, init, 200.0, [],
                         RngStream(seed).child("run"), record_events=False,
                         record_departures=True)
            return log.departures

        got = departures()
        monkeypatch.setitem(engine._KERNELS, PS, _ResidualPs)
        want = departures()
        assert len(got) == len(want) > 100
        assert [s for _, s in got] == [s for _, s in want]
        assert max(abs(a - b) for (a, _), (b, _) in zip(got, want)) < 1e-12


class TestAdvance:
    """`advance(s, t)` leaves server s exact at t: nothing due by t, nothing
    due when it is idle, and one length per job."""

    @pytest.mark.parametrize("disc", [FIFO, PS, LIFO_PR],
                             ids=lambda disc: disc.kind)
    def test_state_after_every_advance(self, disc):
        gen = RngStream(9).child(disc.kind).generator()
        queues = config_from_lengths([2, 0, 3, 1], 9).queues
        self._run_checked(_System(4, disc, queues), gen, gen.exponential)

    @pytest.mark.parametrize("disc", [FIFO, PS, LIFO_PR],
                             ids=lambda disc: disc.kind)
    def test_state_with_tied_loaded_finish_times(self, disc):
        # unit jobs: every server's first job would finish at 1.0, and under
        # PS its later jobs finish at once with it or at whole times
        gen = RngStream(10).child(disc.kind).generator()
        sysm = _System(4, disc, [[1.0] * n for n in (1, 2, 3, 2)])
        self._run_checked(sysm, gen, lambda: 1.0)

    def _run_checked(self, sysm, gen, residual):
        """Advance and check a random server before each of 400 arrivals on
        random servers, and every server at the end."""
        n = len(sysm.lengths)
        t = 0.0
        for _ in range(400):
            t += gen.exponential(0.3)
            s = int(gen.integers(n))
            sysm.advance(s, t)
            self._check(sysm, s, t)
            s = int(gen.integers(n))
            sysm.advance(s, t)
            sysm.arrive(s, t, residual())
        for s in range(n):
            sysm.advance(s, t + 5.0)
            self._check(sysm, s, t + 5.0)

    @staticmethod
    def _check(sysm, s, t):
        assert sysm.due[s] > t
        assert (sysm.due[s] == math.inf) == (sysm.lengths[s] == 0)
        assert sysm.lengths[s] == len(sysm.jobs[s])


def _eager(drive):
    """`_drive` with every server advanced to each arrival's time before
    the arrival is handed on, as a departure heap would have it."""
    def eager_drive(sysm, horizon, sample_times, views, rate, enext,
                    on_arrival):
        def every_server_first(t):
            for s in range(len(sysm.due)):
                sysm.advance(s, t)
            on_arrival(t)
        return drive(sysm, horizon, sample_times, views, rate, enext,
                     every_server_first)
    return eager_drive


def _canon_traj(traj):
    return (traj.times.tolist(), [tc.pi for tc in traj.snapshots],
            traj.final_lengths.tolist())


class TestLazyMatchesEager:
    """Departures applied only where something reads a server give the same
    run as departures applied on every server at every arrival."""

    def _both(self, monkeypatch, make):
        lazy = make()
        monkeypatch.setattr(engine, "_drive", _eager(engine._drive))
        monkeypatch.setattr(cavity, "_drive", _eager(cavity._drive))
        return lazy, make()

    @pytest.mark.parametrize("disc", [FIFO, PS, LIFO_PR],
                             ids=lambda disc: disc.kind)
    @pytest.mark.parametrize("n,d,dist", [(30, 2, HYP), (12, 3, DET)],
                             ids=["d2-hyperexp", "d3-det"])
    def test_run(self, monkeypatch, disc, n, d, dist):
        init = Configuration.from_lengths([2] * n, dist, RngStream(20))
        (a_t, a_l), (b_t, b_l) = self._both(monkeypatch, lambda: run(
            n, d, 0.9, dist, disc, init, 30.0, np.linspace(0.0, 30.0, 16),
            RngStream(21).child(disc.kind), record_departures=True))
        assert len(a_l.departures) > 300
        assert a_l.departures == b_l.departures
        assert _canon_traj(a_t) == _canon_traj(b_t)

    @pytest.mark.parametrize("disc", [FIFO, PS, LIFO_PR],
                             ids=lambda disc: disc.kind)
    @pytest.mark.parametrize("d", [2, 3])
    def test_run_coupled(self, monkeypatch, disc, d):
        init = Configuration.from_lengths([2] * 20, ERL4, RngStream(22))
        a, b = self._both(monkeypatch, lambda: run_coupled(
            20, d, 0.9, ERL4, disc, init, 20.0, RngStream(23).child(disc.kind),
            sample_times=np.linspace(0.0, 20.0, 11)))
        assert (a.counts, a.tagged_hits) == (b.counts, b.tagged_hits)
        assert _canon_traj(a.traj_small) == _canon_traj(b.traj_small)
        assert _canon_traj(a.traj_large) == _canon_traj(b.traj_large)

    @pytest.mark.parametrize("disc", [FIFO, PS, LIFO_PR],
                             ids=lambda disc: disc.kind)
    def test_run_cavity(self, monkeypatch, disc):
        a, b = self._both(monkeypatch, lambda: run_cavity(
            2, 0.9, HYP, disc, 200.0, RngStream(24).child(disc.kind),
            sample_times=np.linspace(0.0, 200.0, 41)))
        assert len({tuple(tc.pi) for tc in a.snapshots}) > 3
        assert _canon_traj(a) == _canon_traj(b)


class TestTies:
    """Deterministic service makes departure times exact, so ties between a
    sample time, an arrival and a departure can be built on purpose."""

    @staticmethod
    def _lengths_at(init, log, t, inclusive=True):
        """Queue lengths rebuilt from the logs: every arrival and departure
        at or before t (before t when not `inclusive`)."""
        seen = (lambda e: e <= t) if inclusive else (lambda e: e < t)
        lengths = init.lengths()
        for ev in log.arrivals:
            if seen(ev.time):
                lengths[ev.routed_to] += 1
        for e, s in log.departures:
            if seen(e):
                lengths[s] -= 1
        return tail_counts_from_lengths(lengths, max(max(lengths), 1)).pi

    def test_sample_at_a_departure_sees_it(self):
        # unit jobs two deep everywhere: FIFO heads leave at exactly 1 and 2
        init = Configuration.from_lengths([2] * 8, DET, RngStream(30))
        traj, log = run(8, 2, 0.5, DET, FIFO, init, 3.0, [1.0, 2.0],
                        RngStream(31), record_departures=True)
        for t in (1.0, 2.0):
            assert (t, 0) in log.departures
            got = snapshot(traj, t).pi
            assert got == self._lengths_at(init, log, t)
            assert got != self._lengths_at(init, log, t, inclusive=False)

    def test_sample_at_an_arrival_sees_it(self):
        # the sample times draw nothing, so a second run has the first
        # run's arrival epochs
        init = Configuration.from_lengths([1] * 8, DET, RngStream(32))
        args = (8, 2, 0.5, DET, PS, init, 3.0)
        _, first = run(*args, [], RngStream(33))
        t = first.arrivals[len(first.arrivals) // 2].time
        traj, log = run(*args, [t], RngStream(33), record_departures=True)
        assert [e.time for e in log.arrivals] == [
            e.time for e in first.arrivals]
        got = snapshot(traj, t).pi
        assert got == self._lengths_at(init, log, t)
        assert got != self._lengths_at(init, log, t, inclusive=False)

    def test_departure_before_a_tied_arrival_on_its_server(self):
        # one server, and a first job whose residual is the first arrival's
        # epoch: it leaves at that epoch.  Under LIFO_PR an arrival applied
        # first would preempt it, with nothing left to serve, until the new
        # job ends.
        args = (1, 1, 0.5, DET, LIFO_PR)
        _, first = run(*args, Configuration.empty(1), 10.0, [], RngStream(34))
        t = first.arrivals[0].time
        init = Configuration([[t]])
        _, log = run(*args, init, 10.0, [], RngStream(34),
                     record_departures=True)
        assert log.arrivals[0].time == t
        assert log.departures[0] == (t, 0)
        assert log.departures[1][0] > t


class TestRun:
    def test_poisson_count(self):
        n, lam, horizon, reps = 100, 0.5, 10.0, 200
        root = RngStream(3)
        counts = []
        for r in range(reps):
            _, log = run(n, 2, lam, EXP, FIFO, Configuration.empty(n),
                         horizon, [], root.child("count", r),
                         record_events=False)
            counts.append(log.n_arrivals)
        mean = lam * n * horizon
        assert abs(np.mean(counts) - mean) < 3 * math.sqrt(mean / reps)

    def test_full_jsq_single_arrival(self):
        # D=N: the one arrival lands on some empty server
        n = 6
        traj, log = run(n, n, 0.2, DET, FIFO, Configuration.empty(n),
                        0.5, [0.5], RngStream(4).child("fulljsq", 11))
        assert log.n_arrivals == sum(traj.final_lengths)
        if log.n_arrivals:
            ev = log.arrivals[0]
            assert len(ev.zeta) == n and ev.routed_to in ev.zeta

    def test_event_log_shape(self):
        traj, log = run(10, 2, 0.5, EXP, FIFO, Configuration.empty(10), 4.0,
                        [0.0, 2.0, 4.0], RngStream(5).child("log"),
                        record_departures=True)
        times = [ev.time for ev in log.arrivals]
        assert times == sorted(times)
        assert all(0 <= ev.time <= 4.0 for ev in log.arrivals)
        assert all(len(set(ev.zeta)) == 2 for ev in log.arrivals)
        assert all(ev.routed_to in ev.zeta for ev in log.arrivals)
        assert all(0 <= t <= 4.0 for t, _ in log.departures)

    def test_candidate_sets_distinct_past_two(self):
        # at D = 3 < N/2 a D-set is drawn by rejection on repeated servers
        _, log = run(20, 3, 0.5, EXP, FIFO, Configuration.empty(20), 2.0, [],
                     RngStream(13).child("al"))
        assert log.n_arrivals == len(log.arrivals) > 0
        assert all(len(set(ev.zeta)) == 3 for ev in log.arrivals)
        assert all(ev.routed_to in ev.zeta for ev in log.arrivals)

    def test_work_conservation_deterministic(self):
        # unit jobs under FIFO: a work-conserving server starts each job at
        # its arrival or at the last departure, whichever is later, and ends
        # it one unit on, so each server's k-th departure is at
        # max(d_{k-1}, a_k) + 1 exactly, a_k its k-th arrival (Lindley).
        # No sample time, or none at the horizon: the horizon alone applies
        # the last departures.
        n, horizon = 5, 3.0
        for times in ([], [1.5]):
            traj, log = run(n, 2, 0.5, DET, FIFO, Configuration.empty(n),
                            horizon, times, RngStream(6).child("wc"),
                            record_departures=True)
            for s in range(n):
                arrived = [e.time for e in log.arrivals if e.routed_to == s]
                departed = [t for t, srv in log.departures if srv == s]
                want, d = [], 0.0
                for a in arrived:
                    d = max(d, a) + 1.0
                    if d <= horizon:
                        want.append(d)
                assert departed == want
            assert len(log.departures) > 0
            assert (sum(traj.final_lengths)
                    == log.n_arrivals - len(log.departures))

    @pytest.mark.parametrize("disc", [FIFO, PS, LIFO_PR])
    @pytest.mark.parametrize("wrap", [tuple, np.array])
    def test_any_sequence_of_residuals_as_queue(self, disc, wrap):
        # the kernel copies each queue into a list of its own, so tuples and
        # arrays start the same run as lists, and init is left untouched
        queues = [[1.5, 0.5], [], [2.0]]
        init = Configuration([wrap(q) for q in queues])
        kw = dict(record_departures=True)
        a_t, a_l = run(3, 2, 0.5, EXP, disc, init, 4.0, [4.0],
                       RngStream(12).child("wrap"), **kw)
        b_t, b_l = run(3, 2, 0.5, EXP, disc, Configuration(queues), 4.0,
                       [4.0], RngStream(12).child("wrap"), **kw)
        assert a_l.departures == b_l.departures
        assert len(a_l.departures) >= 3
        assert (a_t.final_lengths == b_t.final_lengths).all()
        assert [list(q) for q in init.queues] == queues

    def test_validation(self):
        with pytest.raises(ValueError):
            run(5, 2, 1.5, EXP, FIFO, Configuration.empty(5), 1.0, [], RngStream(0))
        with pytest.raises(ValueError):
            run(5, 6, 0.5, EXP, FIFO, Configuration.empty(5), 1.0, [], RngStream(0))
        with pytest.raises(ValueError):
            run(5, 2, 0.5, EXP, FIFO, Configuration.empty(4), 1.0, [], RngStream(0))
        with pytest.raises(ValueError):
            run(5, 2, 0.5, EXP, FIFO, Configuration.empty(5), math.inf, [], RngStream(0))


class TestSnapshots:
    def test_initial_state(self):
        init = config_from_lengths([2, 0, 1], seed=9)
        traj, _ = run(3, 2, 0.5, EXP, FIFO, init, 1.0, [0.0, 1.0],
                      RngStream(7).child("snap"))
        pi = tail_counts_from_lengths(init.lengths(), 2).pi
        assert snapshot(traj, 0.0).pi == pi[: len(snapshot(traj, 0.0).pi)]

    def test_monotone_and_normalized(self):
        traj, _ = run(8, 2, 0.6, EXP, PS, Configuration.empty(8), 5.0,
                      np.linspace(0, 5, 11), RngStream(8).child("snap2"))
        for tc in traj.snapshots:
            assert tc.pi[0] == 8
            assert all(a >= b for a, b in zip(tc.pi, tc.pi[1:]))

    def test_sample_time_at_both_ends(self):
        traj, _ = run(3, 2, 0.5, EXP, FIFO, Configuration.empty(3), 1.0,
                      [1.0, 0.0], RngStream(9))
        assert traj.times.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("t", [-0.25, math.nextafter(1.0, 2.0), 2.0])
    def test_sample_time_outside_horizon_rejected(self, t):
        with pytest.raises(ValueError, match=r"\[0, horizon\]"):
            run(3, 2, 0.5, EXP, FIFO, Configuration.empty(3), 1.0,
                [0.5, t], RngStream(9))

    def test_unsampled_time_rejected(self):
        traj, _ = run(3, 2, 0.5, EXP, FIFO, Configuration.empty(3), 1.0,
                      [1.0], RngStream(9))
        with pytest.raises(ValueError):
            snapshot(traj, 0.5)


class TestDeterminism:
    def test_replay(self):
        kw = dict(record_departures=True)
        a_t, a_l = run(12, 3, 0.7, EXP, PS, Configuration.empty(12), 6.0,
                       np.linspace(0, 6, 13), RngStream(10).child("replay"), **kw)
        b_t, b_l = run(12, 3, 0.7, EXP, PS, Configuration.empty(12), 6.0,
                       np.linspace(0, 6, 13), RngStream(10).child("replay"), **kw)
        assert [e.time for e in a_l.arrivals] == [e.time for e in b_l.arrivals]
        assert [e.zeta for e in a_l.arrivals] == [e.zeta for e in b_l.arrivals]
        assert [e.routed_to for e in a_l.arrivals] == [e.routed_to for e in b_l.arrivals]
        assert a_l.departures == b_l.departures
        assert [tc.pi for tc in a_t.snapshots] == [tc.pi for tc in b_t.snapshots]
        assert (a_t.final_lengths == b_t.final_lengths).all()


class TestExchangeability:
    def test_marginals_agree(self):
        # empirical law of two fixed servers' terminal lengths should match
        reps, n = 600, 10
        root = RngStream(11)
        a, b = [], []
        for r in range(reps):
            traj, _ = run(n, 2, 0.6, EXP, FIFO, Configuration.empty(n), 3.0,
                          [], root.child("exch", r), record_events=False)
            a.append(int(traj.final_lengths[0]))
            b.append(int(traj.final_lengths[1]))
        top = max(max(a), max(b)) + 1
        pa = np.bincount(a, minlength=top) / reps
        pb = np.bincount(b, minlength=top) / reps
        tv = 0.5 * np.abs(pa - pb).sum()
        # TV between two empirical laws of the same distribution is
        # O(sqrt(k/reps)); allow a 3-sigma-ish cushion
        assert tv < 3 * math.sqrt(top / reps)


class TestRateLink:
    def test_measured_rate_matches_formula(self):
        # replay the event log and compare realized arrivals to server 0
        # against the integrated state-dependent rate (exact in expectation
        # by Poisson thinning)
        n, d, lam, horizon = 15, 2, 0.5, 400.0
        traj, log = run(n, d, lam, EXP, FIFO, Configuration.empty(n), horizon,
                        [], RngStream(12).child("ratelink"),
                        record_departures=True)
        events = ([(t, "D", s, None) for t, s in log.departures]
                  + [(e.time, "A", e.routed_to, e) for e in log.arrivals])
        events.sort(key=lambda e: (e[0], e[1] != "D", e[2]))
        lengths = [0] * n
        t_prev = 0.0
        integrated = 0.0
        observed = 0
        for t, kind, s, ev in events:
            k = lengths[0]
            pi_k = sum(1 for v in lengths if v >= k)
            pi_k1 = sum(1 for v in lengths if v >= k + 1)
            p, q = arrival_rate_closed(n, d, pi_k, pi_k1)
            rate = lam * (p / q)
            integrated += rate * (t - t_prev)
            t_prev = t
            if kind == "A":
                if s == 0:
                    observed += 1
                lengths[s] += 1
            else:
                lengths[s] -= 1
        assert abs(observed - integrated) < 4 * math.sqrt(max(integrated, 1.0))


class TestStability:
    def test_no_drift_under_load(self):
        # subcritical system: time-averaged total queue stays bounded
        n, horizon = 30, 1000.0
        times = np.linspace(100.0, horizon, 181)
        traj, _ = run(n, 2, 0.7, EXP, FIFO, Configuration.empty(n), horizon,
                      times, RngStream(15).child("stab"), record_events=False)
        totals = [sum(tc.pi[1:]) for tc in traj.snapshots]
        first = np.mean(totals[: len(totals) // 3])
        last = np.mean(totals[-len(totals) // 3:])
        # allow wide noise but no systematic growth
        assert last < 2.5 * max(first, n * 0.1)
        assert np.mean(totals) / n < 3.0
