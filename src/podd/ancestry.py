"""Influence clans: which servers could have affected a given server's state.

Scanning a realized arrival log backwards from the horizon, a clan starts as
{i} and absorbs the whole sampled set of any arrival that touches it.  Clan
size and the probability that two clans overlap control how fast pairs of
servers decorrelate, so this module also ships a Monte Carlo driver to compare
both quantities against their analytic ceilings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_generator
from .engine import EventLog
from .estimators import z_value


@dataclass(frozen=True)
class ClanResult:
    server: int
    t: float
    psi: frozenset

    @property
    def size(self) -> int:
        return len(self.psi)


@dataclass(frozen=True)
class ClanStats:
    """Aggregates over replications, one entry per time-grid point."""

    t_grid: tuple
    mean_size: tuple
    size_ci: tuple       # 99% half-widths
    p_intersect: tuple
    p_ci: tuple
    n_reps: int


def _bits(indices) -> int:
    """Bitmask of a set of server indices.  Each index is made a Python int
    first: a shift by a numpy int64 stays a 64-bit int64, so
    `1 << np.int64(s)` is 0 for every s >= 64."""
    m = 0
    for s in indices:
        m |= 1 << int(s)
    return m


def build_clan(log: EventLog, i: int, t: float) -> ClanResult:
    """Clan of server i over the last t time units of the log.

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
    psi = 1 << i
    for ev in reversed(log.arrivals):
        if ev.time < start:
            break
        z = _bits(ev.zeta)
        if psi & z:
            psi |= z
    members = frozenset(s for s in range(log.N) if psi >> s & 1)
    return ClanResult(i, t, members)


def _aggregate(sizes, hits, t_grid) -> ClanStats:
    n = sizes.shape[0]
    m_sz = sizes.mean(axis=0)
    m_hit = hits.mean(axis=0)
    if n > 1:
        z = z_value(0.99)
        ci_sz = z * sizes.std(axis=0, ddof=1) / math.sqrt(n)
        ci_hit = z * hits.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        ci_sz = np.full_like(m_sz, np.inf)
        ci_hit = np.full_like(m_hit, np.inf)
    return ClanStats(t_grid, tuple(m_sz), tuple(ci_sz),
                     tuple(m_hit), tuple(ci_hit), n)


def _distinct_rows(gen, n_rows, N, D):
    """Uniform D-subsets of range(N), one per row, by rejection on duplicates."""
    z = gen.integers(0, N, size=(n_rows, D))
    if D > 1:
        s = np.sort(z, axis=1)
        bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
        while bad.any():
            z[bad] = gen.integers(0, N, size=(int(bad.sum()), D))
            s = np.sort(z, axis=1)
            bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
    return z


def clan_monte_carlo(N, D, lam, t_grid, n_reps, rng: RngStream,
                     pair=(0, 1)) -> ClanStats:
    """Replication driver tracking one server pair.

    Draws arrival logs directly (Poisson count, sorted uniform times, sampled
    D-sets as an array) instead of going through the event-by-event engine;
    exchangeability makes the tracked pair (0, 1) representative of any pair.
    """
    i, j = pair
    if not 1 <= D <= N:
        raise ValueError("need 1 <= D <= N")
    if not (0 <= i < N and 0 <= j < N):
        raise ValueError("pair indices must lie in range(N)")
    if i == j:
        raise ValueError("pair must be distinct")
    t_grid = tuple(sorted(t_grid))
    if not t_grid:
        raise ValueError("time grid must not be empty")
    ng = len(t_grid)
    gen = as_generator(rng)
    horizon = t_grid[-1]
    starts = [horizon - t for t in t_grid]
    bit = [1 << s for s in range(N)]
    sizes = np.empty((n_reps, ng))
    hits = np.empty((n_reps, ng))
    counts = gen.poisson(lam * N * horizon, size=n_reps)
    for r in range(n_reps):
        n_arr = int(counts[r])
        times = (np.sort(gen.random(n_arr)) * horizon).tolist()
        zetas = _distinct_rows(gen, n_arr, N, D).tolist() if n_arr else []
        a = bit[i]
        b = bit[j]
        gi = 0
        for idx in range(n_arr - 1, -1, -1):
            tv = times[idx]
            while gi < ng and tv < starts[gi]:
                sizes[r, gi] = (a.bit_count() + b.bit_count()) / 2
                hits[r, gi] = 1.0 if a & b else 0.0
                gi += 1
            if gi >= ng:
                break
            z = 0
            for s in zetas[idx]:
                z |= bit[s]
            if a & z:
                a |= z
            if b & z:
                b |= z
        while gi < ng:
            sizes[r, gi] = (a.bit_count() + b.bit_count()) / 2
            hits[r, gi] = 1.0 if a & b else 0.0
            gi += 1
    return _aggregate(sizes, hits, t_grid)
