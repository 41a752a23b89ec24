"""Cavity queue and the paired N / N+1 construction.

The cavity process is a single queue whose arrival rate at level k is the
large-system limit of the effective JSQ(D) rate, driven either by the
stationary tail fractions or by an empirical profile measured from a large-N
run.  The paired construction drives an N-server and an (N+1)-server system
from shared and private Poisson arrival streams so their difference can be
measured directly.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (Configuration, Discipline, RngStream, ServerState,
                   ServiceDistribution, as_generator)
from .engine import (_CHUNK, ArrivalEvent, EventLog, Trajectory, _Buffer,
                     _route, _sample_zeta, _snapshot, _System, run)
from .rates import asymptotic_tail, cavity_rate, uniform_rate_bound


@dataclass(frozen=True)
class TailProfile:
    """Tail fractions p_k feeding the cavity arrival rate.

    `stationary` evaluates the limiting tail for (d, lam) at any level;
    `empirical` interpolates a measured table piecewise-constantly in time
    and returns 0 beyond its level range.
    """

    mode: str
    d: int = 0
    lam: float = 0.0
    knots: tuple = ()      # empirical: increasing times
    table: tuple = ()      # empirical: table[i][k] = p_k at knots[i]

    def __post_init__(self):
        if self.mode not in ("stationary", "empirical"):
            raise ValueError("mode must be 'stationary' or 'empirical'")
        if self.mode == "empirical":
            for row in self.table:
                if abs(row[0] - 1.0) > 1e-9:
                    raise ValueError("profile rows must start at p_0 = 1")
                if any(row[k + 1] > row[k] + 1e-12 for k in range(len(row) - 1)):
                    raise ValueError("tail fractions must be non-increasing")

    @classmethod
    def stationary(cls, d: int, lam: float) -> "TailProfile":
        if not 0 < lam < 1:
            raise ValueError("load must lie in (0, 1)")
        return cls("stationary", d=d, lam=lam)

    @classmethod
    def empirical(cls, knots, table) -> "TailProfile":
        return cls("empirical", knots=tuple(knots),
                   table=tuple(tuple(r) for r in table))

    def p(self, t: float, k: int) -> float:
        if k <= 0:
            return 1.0
        if self.mode == "stationary":
            if self.d == 1:
                expo = k
            else:
                expo = (self.d**k - 1) // (self.d - 1)
            return self.lam**expo if expo < 10**6 else 0.0
        i = int(np.searchsorted(self.knots, t, side="right")) - 1
        if i < 0:
            i = 0
        row = self.table[i]
        return row[k] if k < len(row) else 0.0


@dataclass
class CoupledPair:
    """Joint realization of the N- and (N+1)-server systems."""

    N: int
    D: int
    traj_small: Trajectory
    traj_large: Trajectory
    counts: dict                      # arrivals per stream
    tagged_hits: tuple                # arrivals routed to server 0: (small, large)
    log_small: EventLog | None = None
    log_large: EventLog | None = None


def tv_distance(a, b) -> float:
    """Half the l1 distance between two probability vectors on one support."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("distributions must share a support")
    for v in (a, b):
        if abs(v.sum() - 1.0) > 1e-8 or (v < -1e-12).any():
            raise ValueError("inputs must be normalized probability vectors")
    return 0.5 * float(np.abs(a - b).sum())


def level_distribution(samples, k_max: int) -> np.ndarray:
    """Empirical distribution of queue lengths truncated at k_max, with all
    mass at levels > k_max lumped into the last atom."""
    samples = np.asarray(samples, dtype=int)
    out = np.bincount(np.minimum(samples, k_max), minlength=k_max + 1)
    return out / samples.size


def run_cavity(D, lam, profile: TailProfile, dist: ServiceDistribution,
               disc: Discipline, horizon, rng, sample_times=None) -> Trajectory:
    """Single queue with level-dependent arrival rate, exact in time.

    Candidate arrivals come at the constant dominating rate and are accepted
    with probability actual-rate / bound (thinning), so no discretization
    error enters.
    """
    if not 0 < lam < 1:
        raise ValueError("load must lie in (0, 1)")
    if sample_times is None:
        sample_times = [horizon]
    samples = np.asarray(sorted(sample_times), dtype=float).tolist()
    gen = as_generator(rng)
    bound = uniform_rate_bound(D, lam)
    sysm = _System(1, disc)
    enext = _Buffer(lambda: gen.standard_exponential(_CHUNK)).next
    unext = _Buffer(lambda: gen.random(_CHUNK)).next
    snext = _Buffer(lambda: np.atleast_1d(dist.sample(gen, _CHUNK))).next
    next_departure, depart, arrive = sysm.next_departure, sysm.depart, sysm.arrive
    lengths = sysm.lengths

    snaps, tagged, emitted = [], [], []
    si, ns = 0, len(samples)
    next_cand = enext() / bound
    while True:
        next_dep = next_departure()
        nxt = min(next_cand, next_dep)
        cutoff = min(nxt, horizon)
        while si < ns and samples[si] < cutoff:
            snaps.append(_snapshot(lengths))
            tagged.append(lengths[0])
            emitted.append(samples[si])
            si += 1
        if nxt > horizon:
            while si < ns and samples[si] <= horizon:
                snaps.append(_snapshot(lengths))
                tagged.append(lengths[0])
                emitted.append(samples[si])
                si += 1
            break
        if next_dep <= next_cand:
            depart()
        else:
            t = next_cand
            k = lengths[0]
            rate = cavity_rate(D, lam, profile.p(t, k), profile.p(t, k + 1))
            if unext() * bound < rate:
                arrive(0, t, snext())
            next_cand = t + enext() / bound
    return Trajectory(np.asarray(emitted), snaps, np.asarray(tagged, dtype=int),
                      np.asarray(lengths, dtype=int))


def run_coupled(N, D, lam, dist: ServiceDistribution, disc: Discipline,
                init: Configuration, horizon, rng, sample_times=None,
                enable=("yellow", "red", "blue"),
                record_events=False) -> CoupledPair:
    """Drive an N-server and an (N+1)-server system from three streams.

    The shared stream (rate lam*(N-D+1)) feeds both systems with a common
    sampled D-set from the first N servers; the private streams complete each
    system's total arrival rate (rate lam*(D-1) for the small system, lam*D
    for the large one, the latter always sampling the extra server).  Jobs
    born of a shared arrival that lands on the same server index in both
    systems also share their service requirement.  `enable` exists for
    testing: disabled streams emit nothing.
    """
    if D < 1 or N < D:
        raise ValueError("need 1 <= D <= N")
    if init.N != N:
        raise ValueError("initial configuration size does not match N")
    if sample_times is None:
        sample_times = [horizon]
    samples = np.asarray(sorted(sample_times), dtype=float).tolist()
    gen = as_generator(rng)

    rates = {"yellow": lam * (N - D + 1), "red": lam * (D - 1), "blue": lam * D}
    active = [s for s in ("yellow", "red", "blue") if s in enable and rates[s] > 0]
    total = sum(rates[s] for s in active)
    thresholds = np.cumsum([rates[s] / total for s in active]).tolist()

    small = _System(N, disc)
    small.load(init)
    large = _System(N + 1, disc)
    large.load(Configuration(list(init.queues) + [ServerState()]))

    enext = _Buffer(lambda: gen.standard_exponential(_CHUNK)).next
    unext = _Buffer(lambda: gen.random(_CHUNK)).next
    snext = _Buffer(lambda: np.atleast_1d(dist.sample(gen, _CHUNK))).next
    next_dep_s, depart_s, arrive_s = small.next_departure, small.depart, small.arrive
    next_dep_l, depart_l, arrive_l = large.next_departure, large.depart, large.arrive
    len_s, len_l = small.lengths, large.lengths

    counts = {"yellow": 0, "red": 0, "blue": 0}
    hits_small = 0
    hits_large = 0
    arr_small = [] if record_events else None
    arr_large = [] if record_events else None
    sn_s, tg_s, sn_l, tg_l, emitted = [], [], [], [], []
    si, ns = 0, len(samples)
    next_arr = (enext() / total) if active else math.inf

    while True:
        dep_s = next_dep_s()
        dep_l = next_dep_l()
        nxt = min(next_arr, dep_s, dep_l)
        cutoff = min(nxt, horizon)
        while si < ns and samples[si] < cutoff:
            sn_s.append(_snapshot(len_s))
            tg_s.append(len_s[0])
            sn_l.append(_snapshot(len_l))
            tg_l.append(len_l[0])
            emitted.append(samples[si])
            si += 1
        if nxt > horizon:
            while si < ns and samples[si] <= horizon:
                sn_s.append(_snapshot(len_s))
                tg_s.append(len_s[0])
                sn_l.append(_snapshot(len_l))
                tg_l.append(len_l[0])
                emitted.append(samples[si])
                si += 1
            break
        if dep_s <= nxt and dep_s <= dep_l and dep_s <= next_arr:
            depart_s()
            continue
        if dep_l <= nxt and dep_l <= next_arr:
            depart_l()
            continue
        t = next_arr
        u = unext()
        stream = active[bisect_left(thresholds, u)] if len(active) > 1 else active[0]
        counts[stream] += 1
        if stream == "yellow":
            zeta = _sample_zeta(gen, unext, N, D)
            s_small = _route(len_s, zeta, unext)
            s_large = _route(len_l, zeta, unext)
            svc = snext()
            svc_small = svc
            svc_large = svc if s_large == s_small else snext()
            arrive_s(s_small, t, svc_small)
            arrive_l(s_large, t, svc_large)
            hits_small += s_small == 0
            hits_large += s_large == 0
            if record_events:
                arr_small.append(ArrivalEvent(t, zeta, s_small))
                arr_large.append(ArrivalEvent(t, zeta, s_large))
        elif stream == "red":
            zeta = _sample_zeta(gen, unext, N, D)
            s_small = _route(len_s, zeta, unext)
            arrive_s(s_small, t, snext())
            hits_small += s_small == 0
            if record_events:
                arr_small.append(ArrivalEvent(t, zeta, s_small))
        else:  # blue: the extra server plus D-1 of the first N
            rest = _sample_zeta(gen, unext, N, D - 1) if D > 1 else ()
            zeta = rest + (N,)
            s_large = _route(len_l, zeta, unext)
            arrive_l(s_large, t, snext())
            hits_large += s_large == 0
            if record_events:
                arr_large.append(ArrivalEvent(t, zeta, s_large))
        next_arr = t + enext() / total

    times = np.asarray(emitted)
    traj_s = Trajectory(times, sn_s, np.asarray(tg_s, dtype=int),
                        np.asarray(len_s, dtype=int))
    traj_l = Trajectory(times.copy(), sn_l, np.asarray(tg_l, dtype=int),
                        np.asarray(len_l, dtype=int))
    log_s = (EventLog(horizon, N, D, arr_small, None, len(arr_small))
             if record_events else None)
    log_l = (EventLog(horizon, N + 1, D, arr_large, None, len(arr_large))
             if record_events else None)
    return CoupledPair(N, D, traj_s, traj_l, counts,
                       (hits_small, hits_large), log_s, log_l)


def mean_field_profile(N, D, lam, dist, disc, horizon, n_reps, n_knots,
                       rng: RngStream, k_max=32) -> TailProfile:
    """Empirical tail profile: tail fractions averaged over replications of a
    large-N run, piecewise constant on an even knot grid."""
    knots = np.linspace(0.0, horizon, n_knots)
    acc = np.zeros((n_knots, k_max + 1))
    init = Configuration.empty(N)
    for r in range(n_reps):
        traj, _ = run(N, D, lam, dist, disc, init, horizon, knots,
                      rng.child("profile", r), record_events=False)
        for i, tc in enumerate(traj.snapshots):
            for k in range(k_max + 1):
                acc[i, k] += tc.get(k) / N
    acc /= n_reps
    acc[:, 0] = 1.0
    return TailProfile.empirical(knots, acc)
