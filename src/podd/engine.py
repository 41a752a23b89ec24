"""Event-driven simulator of N parallel queues under JSQ(D) routing.

Total arrivals form a Poisson process of rate lam*N; each arrival samples D
distinct servers uniformly and joins the shortest of their queues (ties broken
uniformly at random).  Service follows the configured work-conserving
discipline on exact residual work; there is no time discretization anywhere.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from .core import (FIFO, LIFO_PR, PS, Configuration, Discipline,
                   ServiceDistribution, TailCounts, as_generator,
                   tail_counts_from_lengths)

_CHUNK = 256


@dataclass(slots=True)
class ArrivalEvent:
    """One realized arrival: its time, the sampled candidate set, and the
    server of that set the task joined."""

    time: float
    zeta: tuple
    routed_to: int


@dataclass
class EventLog:
    horizon: float
    N: int
    arrivals: list = field(default_factory=list)
    departures: list | None = None
    n_arrivals: int = 0


@dataclass
class Trajectory:
    """State snapshots on a fixed sampling grid, and the final queue-length
    vector."""

    times: np.ndarray
    snapshots: list
    final_lengths: np.ndarray


def _draws(fill):
    """A function that hands out chunked scalar draws from a Generator as
    Python floats, one per call; `fill()` draws one chunk.

    The first chunk is drawn here and each later one by the first call after
    the previous is used up, so the order of draws from the Generator is
    fixed.  Each chunk is converted with one `tolist()`; the engine's chunks
    hold `_CHUNK` draws, so a short run draws and converts few that it does
    not use.
    """
    later = iter(lambda: fill().tolist(), None)   # a list is never None
    return chain(fill().tolist(), chain.from_iterable(later)).__next__


def _sample_zeta(gen, u, n, d):
    """D distinct servers out of n; `u` returns the next uniform draw."""
    if d == 1:
        return (int(u() * n),)
    if 2 * d >= n:
        return tuple(int(v) for v in gen.permutation(n)[:d])
    out = []
    while len(out) < d:
        c = int(u() * n)
        if c not in out:
            out.append(c)
    return tuple(out)


def _route(lengths, zeta, u, off=0):
    """The server of `zeta` whose queue, `lengths[off + s]`, is shortest; `u`
    returns the uniform that breaks a tie, in D-set order."""
    best = None
    ties = None
    for s in zeta:
        ln = lengths[off + s]
        if best is None or ln < best:
            best = ln
            ties = [s]
        elif ln == best:
            ties.append(s)
    if len(ties) == 1:
        return ties[0]
    return ties[int(u() * len(ties))]


def _route_pair(lengths, zeta, u, off=0):
    """`_route` for a D-set of two servers."""
    a, b = zeta
    la, lb = lengths[off + a], lengths[off + b]
    return a if la < lb else b if lb < la else zeta[int(u() * 2)]


def _candidates(gen, u, n, d):
    """A function that draws one D-set out of n servers, and the router for
    it.  At D = 2 < n/2 both are specialised (`_route_pair`, and two draws
    with rejection inline); they make the same draws as `_sample_zeta` and
    `_route`, which serve every other D."""
    if d == 2 and 2 * d < n:
        def pair():
            a = int(u() * n)
            b = int(u() * n)
            while b == a:
                b = int(u() * n)
            return a, b
        return pair, _route_pair
    return partial(_sample_zeta, gen, u, n, d), _route


class _System:
    """Mutable queue state of one system, with each server's departures
    applied lazily.

    `_System(n, discipline, queues)` builds that discipline's kernel:
    `_Fifo`, `_Ps` or `_LifoPr`, with n empty servers, and loads each
    residual of `queues[s]` onto server s, in order, through `arrive` at
    time 0.  `arrive` rejects a residual that is not positive.  `due[s]` is
    the time the job in service on server s finishes (inf when the server
    is idle), and `advance(s, t)` applies that server's departures at times
    up to a finite t.  A server's state is exact only once it has been
    advanced to the time it is read at: `arrive(s, t, ...)` needs
    `due[s] > t`, and so does any read of `lengths[s]` or `jobs[s]`.
    Servers share nothing, so the order in which they are advanced does not
    matter.  Each departure is appended to `log`, when it is a list, as
    (time, server).
    """

    __slots__ = ("lengths", "jobs", "last", "due", "log")

    def __new__(cls, n, discipline: Discipline, queues=(), log=None):
        return object.__new__(_KERNELS[discipline])

    def __init__(self, n, discipline, queues=(), log=None):
        self.last = [0.0] * n
        self.due = [math.inf] * n
        self.log = log
        self.jobs = [[] for _ in range(n)]
        self.lengths = [0] * n
        for s, residuals in enumerate(queues):
            for r in residuals:
                self.arrive(s, 0.0, r)


class _Fifo(_System):
    """Only the head job is served, and its finish time is fixed when it
    reaches the head, so residuals are never advanced and `last` is
    unused."""

    __slots__ = ()

    def arrive(self, s, t, residual):
        if residual <= 0:
            raise ValueError("job residual must be positive")
        self.jobs[s].append(residual)
        self.lengths[s] += 1
        if self.lengths[s] == 1:
            self.due[s] = t + residual

    def advance(self, s, t):
        js, lengths, log = self.jobs[s], self.lengths, self.log
        d = self.due[s]
        while d <= t:
            js.pop(0)
            lengths[s] -= 1
            if log is not None:
                log.append((d, s))
            d = d + js[0] if js else math.inf
        self.due[s] = d


class _Ps(_System):
    """All jobs on a server share it equally, kept on a virtual clock
    (Parekh & Gallager 1993): `vt[s]` is the service each job on server s
    has had by time `last[s]`, and its jobs are held as sorted finish tags,
    the clock at arrival plus the job's work.  The smallest tag leaves
    first, after n * (tag - vt) of real time with n jobs present.  The clock
    is reset when the server empties, so it never exceeds one busy period's
    service."""

    __slots__ = ("vt",)

    def __init__(self, n, discipline, queues=(), log=None):
        self.vt = [0.0] * n
        _System.__init__(self, n, discipline, queues, log)

    def arrive(self, s, t, residual):
        if residual <= 0:
            raise ValueError("job residual must be positive")
        js, vt = self.jobs[s], self.vt
        n = len(js)
        if n:
            vt[s] += (t - self.last[s]) / n
        self.last[s] = t
        v = vt[s]
        insort(js, v + residual)
        self.lengths[s] = n = n + 1
        due = n * (js[0] - v)
        self.due[s] = t + due if due > 0.0 else t

    def advance(self, s, t):
        js, vt, log = self.jobs[s], self.vt, self.log
        d = self.due[s]
        while d <= t:
            self.last[s] = d
            tag = js.pop(0)
            self.lengths[s] = n = len(js)
            if log is not None:
                log.append((d, s))
            if n:
                vt[s] = tag
                due = n * (js[0] - tag)
                d = d + due if due > 0.0 else d
            else:
                vt[s] = 0.0    # the clock resets when the server empties
                d = math.inf
        self.due[s] = d


class _LifoPr(_System):
    """Only the newest job is served, and an arrival preempts it: the job in
    service is advanced when a job arrives on its server."""

    __slots__ = ()

    def arrive(self, s, t, residual):
        if residual <= 0:
            raise ValueError("job residual must be positive")
        js = self.jobs[s]
        dt = t - self.last[s]
        self.last[s] = t
        if dt > 0.0 and js:
            js[-1] -= dt
        js.append(residual)
        self.lengths[s] += 1
        self.due[s] = t + residual

    def advance(self, s, t):
        js, lengths, log = self.jobs[s], self.lengths, self.log
        d = self.due[s]
        while d <= t:
            self.last[s] = d
            js.pop()     # the job in service, done at d
            lengths[s] -= 1
            if log is not None:
                log.append((d, s))
            if js:
                due = js[-1]
                d = d + due if due > 0.0 else d
            else:
                d = math.inf
        self.due[s] = d


_KERNELS = {FIFO: _Fifo, PS: _Ps, LIFO_PR: _LifoPr}


def _snapshot(lengths):
    return tail_counts_from_lengths(lengths, max(max(lengths), 1))


def _buffers(gen, dist):
    """Draw functions for inter-arrival (standard exponential), uniform and
    service draws.  Each draws its first chunk when it is made, so the
    order e, u, s here fixes the Generator's stream."""
    return (_draws(lambda: gen.standard_exponential(_CHUNK)),
            _draws(lambda: gen.random(_CHUNK)),
            _draws(lambda: dist.sample(gen, _CHUNK)))


def _drive(sysm, horizon, sample_times, views, rate, enext, on_arrival):
    """The event loop: advance `sysm` over [0, horizon].

    Epochs of a Poisson process of rate `rate` (gaps `enext() / rate`) are
    handed to `on_arrival(t)`, which advances to t each server it reads or
    joins.  Every other departure is applied at the next sample time or at
    the horizon, when every server is advanced.  At each sample time every
    view, a server range (lo, hi), is snapshotted; one Trajectory per view
    is returned.  A sample time sees each departure and each arrival at or
    before it, and a departure tied with an arrival on its server is
    applied first.  Sample times must lie in [0, horizon].
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive")
    samples = sorted(map(float, sample_times))
    if not all(map(math.isfinite, samples)):
        raise ValueError("sample times must be finite")
    if samples and (samples[0] < 0.0 or samples[-1] > horizon):
        raise ValueError("sample times must lie in [0, horizon]")

    advance, due, lengths = sysm.advance, sysm.due, sysm.lengths

    def advance_all(t):
        for s, d in enumerate(due):
            if d <= t:
                advance(s, t)

    kept = [(lo, hi, []) for lo, hi in views]
    times = np.asarray(samples)
    samples.append(math.inf)    # a sentinel no arrival time exceeds
    si, next_sample = 0, samples[0]
    t = enext() / rate

    while True:
        # every sample is <= horizon, so once t passes the horizon all that
        # are left are taken before the loop ends
        while next_sample < t:
            advance_all(next_sample)
            for lo, hi, snaps in kept:
                snaps.append(_snapshot(lengths[lo:hi]))
            si += 1
            next_sample = samples[si]
        if t > horizon:
            break
        on_arrival(t)
        t += enext() / rate

    if len(samples) == 1 or samples[-2] < horizon:
        advance_all(horizon)    # else the sample at the horizon did it
    return [Trajectory(times, snaps, np.asarray(lengths[lo:hi], dtype=int))
            for lo, hi, snaps in kept]


def _check_system(N, D, lam, init: Configuration):
    """Reject a load outside (0, 1), a D outside 1..N, or an initial
    configuration of other than N servers."""
    if not (0 < lam < 1):
        raise ValueError("load must lie in (0, 1)")
    if not (1 <= D <= N):
        raise ValueError("need 1 <= D <= N")
    if init.N != N:
        raise ValueError("initial configuration size does not match N")


def run(N, D, lam, dist: ServiceDistribution, disc: Discipline,
        init: Configuration, horizon, sample_times, rng,
        record_events=True, record_departures=False):
    """Simulate the N-server system over [0, horizon].

    Returns a Trajectory sampled at `sample_times` and the realized EventLog.
    `record_events` can be switched off for long runs where the arrival list
    (with its sampled candidate sets) would dominate memory; the arrival
    count is kept either way.  With `record_departures` the log holds every
    departure as (time, server), in that order.  Deterministic given
    identical inputs and rng.
    """
    _check_system(N, D, lam, init)
    gen = as_generator(rng)
    departures = [] if record_departures else None
    sysm = _System(N, disc, init.queues, departures)
    enext, unext, snext = _buffers(gen, dist)
    draw, route = _candidates(gen, unext, N, D)
    arrive, advance, due, lengths = (sysm.arrive, sysm.advance, sysm.due,
                                     sysm.lengths)
    arrivals = []
    n_arr = 0
    pair = D == 2

    def on_arrival(t):
        nonlocal n_arr
        zeta = draw()
        if pair:    # both checks inline: the hot path of long runs
            a, b = zeta
            if due[a] <= t:
                advance(a, t)
            if due[b] <= t:
                advance(b, t)
        else:
            for s in zeta:
                if due[s] <= t:
                    advance(s, t)
        s = route(lengths, zeta, unext)
        arrive(s, t, snext())
        n_arr += 1
        if record_events:
            arrivals.append(ArrivalEvent(t, zeta, s))

    traj, = _drive(sysm, horizon, sample_times, [(0, N)], lam * N, enext,
                   on_arrival)
    if departures is not None:
        departures.sort()    # each server logged its own as it was advanced
    log = EventLog(horizon=float(horizon), N=N, arrivals=arrivals,
                   departures=departures, n_arrivals=n_arr)
    return traj, log


def snapshot(traj: Trajectory, t: float) -> TailCounts:
    """Stored tail counts at a sampled time."""
    idx = np.nonzero(traj.times == t)[0]
    if idx.size == 0:
        raise ValueError(f"time {t} is not among the sampled times")
    return traj.snapshots[int(idx[0])]

