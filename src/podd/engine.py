"""Event-driven simulator of N parallel queues under JSQ(D) routing.

Total arrivals form a Poisson process of rate lam*N; each arrival samples D
distinct servers uniformly and joins the shortest of their queues (ties broken
uniformly at random).  Service follows the configured work-conserving
discipline on exact residual work; there is no time discretization anywhere.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Configuration, Discipline, Job, RngStream, ServerState,
                   ServiceDistribution, TailCounts, as_generator,
                   tail_counts_from_lengths)

_CHUNK = 4096


@dataclass(frozen=True)
class ArrivalEvent:
    """One realized arrival: its time, the sampled candidate set, and where
    the task went (None for arrival-only logs that never route)."""

    time: float
    zeta: tuple
    routed_to: int | None


@dataclass
class EventLog:
    horizon: float
    N: int
    D: int
    arrivals: list = field(default_factory=list)
    departures: list | None = None
    n_arrivals: int = 0


@dataclass
class Trajectory:
    """State snapshots on a fixed sampling grid, plus the tagged server's
    queue length and the final queue-length vector."""

    times: np.ndarray
    snapshots: list
    tagged: np.ndarray
    final_lengths: np.ndarray | None = None


class _Buffer:
    """Chunked scalar draws from a Generator.  Amortizes per-call overhead in
    the event loop while keeping the draw sequence deterministic."""

    __slots__ = ("_fill", "_buf", "_i")

    def __init__(self, fill):
        self._fill = fill
        self._buf = fill()
        self._i = 0

    def next(self):
        if self._i >= len(self._buf):
            self._buf = self._fill()
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return v


def _sample_zeta(gen, ubuf, n, d):
    if d == 1:
        return (int(ubuf.next() * n),)
    if 2 * d >= n:
        return tuple(int(v) for v in gen.permutation(n)[:d])
    out = []
    while len(out) < d:
        c = int(ubuf.next() * n)
        if c not in out:
            out.append(c)
    return tuple(out)


def _route(lengths, zeta, ubuf):
    best = None
    ties = None
    for s in zeta:
        ln = lengths[s]
        if best is None or ln < best:
            best = ln
            ties = [s]
        elif ln == best:
            ties.append(s)
    if len(ties) == 1:
        return ties[0]
    return ties[int(ubuf.next() * len(ties))]


def jsq_route(config: Configuration, zeta, rng) -> int:
    """Index of the shortest queue within the sampled set, ties uniform."""
    gen = as_generator(rng)
    lengths = config.lengths()
    ubuf = _Buffer(lambda: gen.random(8))
    return _route(lengths, tuple(zeta), ubuf)


def allocate_service(disc: Discipline, server: ServerState) -> np.ndarray:
    """Per-job service rates for a server, in arrival order.  Rates sum to 1
    on a busy server and to 0 on an idle one."""
    n = len(server.jobs)
    rates = np.zeros(n)
    if n == 0:
        return rates
    if disc.kind == "FIFO":
        rates[0] = 1.0
    elif disc.kind == "PS":
        rates[:] = 1.0 / n
    else:  # LIFO_PR
        rates[-1] = 1.0
    return rates


class _System:
    """Mutable queue state of one system plus its departure schedule.

    Jobs carry residual work; `touch` advances a server's residuals to the
    current time under the discipline's rate allocation, and the departure
    heap uses per-server version counters to drop schedules invalidated by
    preemption or share changes.
    """

    __slots__ = ("n", "kind", "lengths", "jobs", "last", "ver", "heap",
                 "seq", "next_id")

    def __init__(self, n, discipline: Discipline):
        self.n = n
        self.kind = discipline.kind
        self.lengths = [0] * n
        self.jobs = [[] for _ in range(n)]
        self.last = [0.0] * n
        self.ver = [0] * n
        self.heap = []
        self.seq = 0
        self.next_id = 0

    def load(self, config: Configuration):
        for s, q in enumerate(config.queues):
            for job in q.jobs:
                self.jobs[s].append(Job(self.next_id, job.residual, job.arrived_at))
                self.next_id += 1
            self.lengths[s] = len(self.jobs[s])
            if self.jobs[s]:
                self._schedule(s, 0.0)

    def touch(self, s, t):
        dt = t - self.last[s]
        self.last[s] = t
        if dt <= 0.0:
            return
        js = self.jobs[s]
        if not js:
            return
        if self.kind == "FIFO":
            js[0].residual -= dt
        elif self.kind == "PS":
            dec = dt / len(js)
            for j in js:
                j.residual -= dec
        else:
            js[-1].residual -= dt

    def _time_to_departure(self, s):
        js = self.jobs[s]
        if self.kind == "FIFO":
            return js[0].residual
        if self.kind == "PS":
            return len(js) * min(j.residual for j in js)
        return js[-1].residual

    def _schedule(self, s, t):
        if not self.jobs[s]:
            return
        self.seq += 1
        heapq.heappush(self.heap,
                       (t + max(self._time_to_departure(s), 0.0), s, self.seq, self.ver[s]))

    def arrive(self, s, t, residual):
        self.touch(s, t)
        self.jobs[s].append(Job(self.next_id, residual, t))
        self.next_id += 1
        self.lengths[s] += 1
        if self.kind == "FIFO":
            if self.lengths[s] == 1:
                self._schedule(s, t)
        else:
            self.ver[s] += 1
            self._schedule(s, t)

    def next_departure(self):
        heap = self.heap
        while heap and heap[0][3] != self.ver[heap[0][1]]:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    def depart(self):
        self.next_departure()   # drop stale schedules first
        t, s, _, _ = heapq.heappop(self.heap)
        self.touch(s, t)
        js = self.jobs[s]
        if self.kind == "FIFO":
            js.pop(0)
        elif self.kind == "PS":
            idx = min(range(len(js)), key=lambda i: js[i].residual)
            js.pop(idx)
        else:
            js.pop()
        self.lengths[s] -= 1
        if self.kind != "FIFO":
            self.ver[s] += 1
        self._schedule(s, t)
        return t, s


def _snapshot(lengths, k_max=None):
    top = max(lengths)
    return tail_counts_from_lengths(lengths, k_max if k_max is not None else max(top, 1))


def run(N, D, lam, dist: ServiceDistribution, disc: Discipline,
        init: Configuration, horizon, sample_times, rng,
        record_events=True, record_departures=False):
    """Simulate the N-server system over [0, horizon].

    Returns a Trajectory sampled at `sample_times` and the realized EventLog.
    `record_events` can be switched off for long runs where the arrival list
    (with its sampled candidate sets) would dominate memory; the arrival
    count is kept either way.  Deterministic given identical inputs and rng.
    """
    if not (0 < lam < 1):
        raise ValueError("load must lie in (0, 1)")
    if not (1 <= D <= N):
        raise ValueError("need 1 <= D <= N")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive")
    if init.N != N:
        raise ValueError("initial configuration size does not match N")
    samples = np.asarray(sorted(sample_times), dtype=float)
    if samples.size and not np.isfinite(samples).all():
        raise ValueError("sample times must be finite")

    gen = as_generator(rng)
    sysm = _System(N, disc)
    sysm.load(init)
    ebuf = _Buffer(lambda: gen.standard_exponential(_CHUNK))
    ubuf = _Buffer(lambda: gen.random(_CHUNK))
    sbuf = _Buffer(lambda: np.atleast_1d(dist.sample(gen, _CHUNK)))

    total_rate = lam * N
    arrivals = []
    departures = [] if record_departures else None
    n_arr = 0
    snaps, tagged, emitted = [], [], []
    si, ns = 0, samples.size
    next_arr = ebuf.next() / total_rate

    while True:
        next_dep = sysm.next_departure()
        nxt = next_arr if next_arr < next_dep else next_dep
        cutoff = min(nxt, horizon)
        while si < ns and samples[si] < cutoff:
            snaps.append(_snapshot(sysm.lengths))
            tagged.append(sysm.lengths[0])
            emitted.append(samples[si])
            si += 1
        if nxt > horizon:
            while si < ns and samples[si] <= horizon:
                snaps.append(_snapshot(sysm.lengths))
                tagged.append(sysm.lengths[0])
                emitted.append(samples[si])
                si += 1
            break
        if next_dep <= next_arr:  # ties resolve departure-before-arrival
            t, s = sysm.depart()
            if departures is not None:
                departures.append((t, s))
        else:
            t = next_arr
            zeta = _sample_zeta(gen, ubuf, N, D)
            s = _route(sysm.lengths, zeta, ubuf)
            sysm.arrive(s, t, sbuf.next())
            n_arr += 1
            if record_events:
                arrivals.append(ArrivalEvent(t, zeta, s))
            next_arr = t + ebuf.next() / total_rate

    traj = Trajectory(np.asarray(emitted), snaps, np.asarray(tagged, dtype=int),
                      np.asarray(sysm.lengths, dtype=int))
    log = EventLog(horizon=float(horizon), N=N, D=D, arrivals=arrivals,
                   departures=departures, n_arrivals=n_arr)
    return traj, log


def snapshot(traj: Trajectory, t: float) -> TailCounts:
    """Stored tail counts at a sampled time."""
    idx = np.nonzero(traj.times == t)[0]
    if idx.size == 0:
        raise ValueError(f"time {t} is not among the sampled times")
    return traj.snapshots[int(idx[0])]


def sample_arrival_log(N, D, lam, horizon, rng) -> EventLog:
    """Arrival process only: Poisson(lam*N) times with their sampled D-sets,
    no routing or service.  This is all the ancestry construction consumes."""
    gen = as_generator(rng)
    n_arr = gen.poisson(lam * N * horizon)
    times = np.sort(gen.random(n_arr)) * horizon
    ubuf = _Buffer(lambda: gen.random(_CHUNK))
    arrivals = [ArrivalEvent(float(times[i]), _sample_zeta(gen, ubuf, N, D), None)
                for i in range(n_arr)]
    return EventLog(horizon=float(horizon), N=N, D=D, arrivals=arrivals,
                    n_arrivals=int(n_arr))
