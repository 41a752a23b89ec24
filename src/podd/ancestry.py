"""Influence clans: which servers could have affected a given server's state.

A clan depends only on the arrival process: the arrival times and the
sampled D-sets, not on where the tasks went or how long they took.  Scanning
the arrivals backwards from the horizon, a clan starts as {i} and absorbs
the whole sampled set of any arrival that touches it.  Clan size and the
probability that two clans overlap control how fast pairs of servers
decorrelate, so this module ships a Monte Carlo driver, which draws only
arrival counts and D-sets, to compare both quantities against their
analytic ceilings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_generator
from .estimators import z_value


@dataclass(frozen=True)
class ClanStats:
    """Aggregates over replications, one entry per time-grid point."""

    t_grid: tuple
    mean_size: tuple
    size_ci: tuple       # 99% half-widths
    p_intersect: tuple
    p_ci: tuple
    n_reps: int


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
    """Uniform D-subsets of range(N), one per row, by rejection on duplicates.

    All rows are drawn at once; then every row holding a repeated server is
    redrawn, in row order, and only the redrawn rows are checked again."""
    z = gen.integers(0, N, size=(n_rows, D))
    redo = np.arange(n_rows)
    part = z
    while True:
        bad = np.zeros(redo.size, dtype=bool)
        for a in range(1, D):
            for b in range(a):
                bad |= part[:, a] == part[:, b]
        redo = redo[bad]
        if not redo.size:
            return z
        part = gen.integers(0, N, size=(redo.size, D))
        z[redo] = part


# Replications scanned together: at most this many (replication, server)
# cells per block, so the clan matrices stay a few MB at any N.
BLOCK_CELLS = 1 << 22


def clan_monte_carlo(N, D, lam, t_grid, n_reps, rng: RngStream) -> ClanStats:
    """Replication driver tracking the server pair (0, 1).

    Scanning backwards from the horizon t_max = max(t_grid), band g holds the
    arrivals between times t_max - t_g and t_max - t_{g-1} (t_{-1} = 0).  Only
    how many arrivals fall in each band matters: D-sets are i.i.d. and
    independent of the arrival times, so the band counts are drawn as
    independent Poisson(lam*N*(t_g - t_{g-1})) variables and no times are
    drawn.  Exchangeability makes the tracked pair representative of any
    pair.

    Order of draws: first the band counts, one (n_reps, len(t_grid)) Poisson
    array.  Then the replications go in blocks of
    max(1, BLOCK_CELLS // N) consecutive ones; within a block, band by band,
    step k = 0, 1, ... draws one `_distinct_rows` array with one D-set for
    each replication that has more than k arrivals in the band, in
    increasing replication order.  Step k's D-set is that replication's
    (k+1)-th arrival of the band counted backwards in time.  Each of the two
    clans, a boolean membership row per replication, absorbs a D-set it
    meets; sizes and intersections are read at the end of each band.
    """
    if not 1 <= D <= N:
        raise ValueError("need 1 <= D <= N")
    if N < 2:
        raise ValueError("a server pair needs N >= 2")
    t_grid = tuple(sorted(t_grid))
    if not t_grid:
        raise ValueError("time grid must not be empty")
    ng = len(t_grid)
    gen = as_generator(rng)
    widths = np.diff(np.asarray((0.0,) + t_grid))
    counts = gen.poisson(lam * N * widths, size=(n_reps, ng))
    sizes = np.empty((n_reps, ng))
    hits = np.empty((n_reps, ng))
    block = max(1, BLOCK_CELLS // N)
    for lo in range(0, n_reps, block):
        m = counts[lo:lo + block]
        a = np.zeros((m.shape[0], N), dtype=bool)
        b = np.zeros_like(a)
        a[:, 0] = True
        b[:, 1] = True
        flat = (a.reshape(-1), b.reshape(-1))    # views: writes land in a, b
        for g in range(ng):
            col = m[:, g]
            done = 0
            # between two distinct counts, the same replications step
            for stop in sorted(set(col.tolist())):
                base = np.flatnonzero(col >= stop)[:, None] * N
                for _ in range(stop - done):
                    cells = base + _distinct_rows(gen, base.size, N, D)
                    for c in flat:
                        met = cells[c[cells].any(axis=1)]
                        c[met] = True
                done = stop
            sizes[lo:lo + block, g] = (a.sum(axis=1) + b.sum(axis=1)) / 2
            hits[lo:lo + block, g] = (a & b).any(axis=1)
    return _aggregate(sizes, hits, t_grid)
