"""Cavity queue and the paired N / N+1 construction.

The cavity process is a single queue whose arrival rate at level k is the
large-system limit of the effective JSQ(D) rate, driven by the stationary
tail fractions.  The paired construction drives an N-server and an
(N+1)-server system from shared and private Poisson arrival streams so their
difference can be measured directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Configuration, Discipline, ServiceDistribution, as_generator
from .engine import (ArrivalEvent, EventLog, Trajectory, _buffers,
                     _candidates, _check_system, _drive, _sample_zeta,
                     _System)
from .rates import asymptotic_tail, cavity_rate, uniform_rate_bound


@dataclass
class CoupledPair:
    """Joint realization of the N- and (N+1)-server systems."""

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


def run_cavity(D, lam, dist: ServiceDistribution, disc: Discipline, horizon,
               rng, sample_times=()) -> Trajectory:
    """Single queue with level-dependent arrival rate, exact in time.

    At level k the rate is `cavity_rate` of the stationary tail fractions
    p_k and p_{k+1} (`asymptotic_tail`).

    Candidate arrivals come at the constant dominating rate and are accepted
    with probability actual-rate / bound (thinning), so no discretization
    error enters.
    """
    if not 0 < lam < 1:
        raise ValueError("load must lie in (0, 1)")
    gen = as_generator(rng)
    p, q = uniform_rate_bound(D)
    bound = lam * (p / q)
    sysm = _System(1, disc)
    enext, unext, snext = _buffers(gen, dist)
    arrive, advance, due, lengths = (sysm.arrive, sysm.advance, sysm.due,
                                     sysm.lengths)

    def on_candidate(t):
        if due[0] <= t:
            advance(0, t)
        k = lengths[0]
        rate = cavity_rate(D, lam, asymptotic_tail(D, lam, k),
                           asymptotic_tail(D, lam, k + 1))
        if unext() * bound < rate:
            arrive(0, t, snext())

    traj, = _drive(sysm, horizon, sample_times, [(0, 1)], bound, enext,
                   on_candidate)
    return traj


def run_coupled(N, D, lam, dist: ServiceDistribution, disc: Discipline,
                init: Configuration, horizon, rng, sample_times=(),
                record_events=False) -> CoupledPair:
    """Drive an N-server and an (N+1)-server system from three streams.

    The shared (yellow) stream, of rate y = lam*(N-D+1), feeds both systems
    with a common sampled D-set from the first N servers; the private
    streams complete each system's total arrival rate (red, r = lam*(D-1),
    for the small system; blue, b = lam*D, for the large one, always
    sampling the extra server).  Together they are one Poisson stream of
    rate T = y + r + b, and each of its arrivals picks its stream by one
    uniform u against two thresholds: yellow if u <= y/T, red if
    u <= y/T + r/T, blue otherwise.

    Jobs born of a shared arrival that lands on the same server index in
    both systems also share their service requirement.  A shared arrival
    draws one more uniform u, and each system breaks a tie among its
    shortest sampled queues by u (the tied server at index int(u * ties) in
    D-set order), so where the sampled lengths agree both systems route
    alike.  Each system alone still breaks ties with a fresh uniform per
    arrival: only the joint law is coupled.

    Both systems live in one kernel of 2N+1 servers: 0..N-1 are the small
    system and N..2N the large one (server N+i is the large system's server
    i, and 2N its extra server).  An arrival advances the servers of its
    D-set to its time, in the systems it samples, before it is routed.
    """
    _check_system(N, D, lam, init)
    gen = as_generator(rng)

    yellow, red, blue = lam * (N - D + 1), lam * (D - 1), lam * D
    total = yellow + red + blue
    to_yellow = yellow / total
    to_red = to_yellow + red / total    # past it, the arrival is blue

    sysm = _System(2 * N + 1, disc, init.queues * 2 + [[]])
    enext, unext, snext = _buffers(gen, dist)
    draw, route = _candidates(gen, unext, N, D)
    arrive, advance, due, lengths = (sysm.arrive, sysm.advance, sysm.due,
                                     sysm.lengths)

    def draw_blue():   # the extra server plus D-1 of the first N
        rest = _sample_zeta(gen, unext, N, D - 1) if D > 1 else ()
        return rest + (N,)

    counts = {"yellow": 0, "red": 0, "blue": 0}
    hits = [0, 0]
    arr_small = [] if record_events else None
    arr_large = [] if record_events else None
    # the private streams, red into the small system (side 0) and blue into
    # the large one (side 1): name, D-set draw, server offset and log
    private = (("red", draw, 0, arr_small), ("blue", draw_blue, N, arr_large))

    def on_arrival(t):
        u = unext()
        if u <= to_yellow:
            counts["yellow"] += 1
            zeta = draw()
            for s in zeta:
                if due[s] <= t:
                    advance(s, t)
                if due[N + s] <= t:
                    advance(N + s, t)
            u = unext()
            tie = lambda: u   # the same tie-break in both systems
            s_small = route(lengths, zeta, tie)
            s_large = route(lengths, zeta, tie, N)
            svc = snext()
            arrive(s_small, t, svc)
            arrive(N + s_large, t, svc if s_large == s_small else snext())
            hits[0] += s_small == 0
            hits[1] += s_large == 0
            if record_events:
                arr_small.append(ArrivalEvent(t, zeta, s_small))
                arr_large.append(ArrivalEvent(t, zeta, s_large))
            return
        side = int(u > to_red)
        stream, draw_set, off, arr = private[side]
        counts[stream] += 1
        zeta = draw_set()
        for s in zeta:
            if due[off + s] <= t:
                advance(off + s, t)
        s = route(lengths, zeta, unext, off)
        arrive(off + s, t, snext())
        hits[side] += s == 0
        if record_events:
            arr.append(ArrivalEvent(t, zeta, s))

    traj_s, traj_l = _drive(sysm, horizon, sample_times,
                            [(0, N), (N, 2 * N + 1)], total, enext, on_arrival)
    log_s = (EventLog(horizon, N, arr_small, None, len(arr_small))
             if record_events else None)
    log_l = (EventLog(horizon, N + 1, arr_large, None, len(arr_large))
             if record_events else None)
    return CoupledPair(traj_s, traj_l, counts, tuple(hits), log_s, log_l)

