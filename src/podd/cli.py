"""Command-line orchestration: declarative JSON experiment configs dispatched
to the simulation, ancestry, cavity, and estimator modules, with CSV results
and a JSON manifest.

Exit codes: 0 success, 1 bound/identity violation in a check mode, 2 config,
I/O or worker error (an OSError).  Identical config + seed gives
byte-identical outputs regardless of the worker count.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .ancestry import clan_monte_carlo
from .cavity import level_distribution, run_cavity, run_coupled, tv_distance
from .core import (RNG_KEY_LIMIT, Configuration, Discipline, RngStream,
                   ServiceDistribution)
from .engine import run, snapshot
from .estimators import (MIN_BATCHES, MIN_REPLICATIONS, cov_mk,
                         stationary_tail, z_value)
from .rates import (BoundInputs, PLUS_ONE_SHIFT, arrival_rate_closed,
                    arrival_rate_hyper, arrival_rate_plus_one,
                    asymptotic_tail, chaos_bound, chaos_bound_limit,
                    clan_growth_factor, clan_intersection_bound,
                    clan_size_bound, exact_dtype, limit_bound_is_valid,
                    monotone_threshold, tail_count_cov_bound,
                    uniform_rate_bound)

INIT_PROFILES = ("empty", "all-at-2", "geometric")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    seed: int
    N: tuple = ()
    D: tuple = ()
    lam: tuple = ()
    t: tuple = ()
    k: tuple = ()
    l: tuple = ()
    service: ServiceDistribution = ServiceDistribution.exponential()
    discipline: Discipline = Discipline("FIFO")
    init: str = "empty"
    replications: int = 1
    horizon: float = 0.0
    warmup: float | None = None
    n_batches: int = 20
    k_max: int = 8
    sample_times: tuple | None = None
    record_events: bool = False

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for key in itertools.chain(*_SCHEMAS[self.kind]):
            attr, _, encode = _FIELDS[key]
            doc[key] = encode(getattr(self, attr))
        return doc


def _exact_load(lam) -> Fraction:
    """The load as rates-check computes with it."""
    return Fraction(lam).limit_denominator(10**6)


# Field parsers take the JSON value and the experiment kind, and raise
# ValueError saying what is wrong; parse_config prefixes the key.

def _ints(lo, what):
    def parse(v, kind):
        if not isinstance(v, list) or not v or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in v):
            raise ValueError("expected a non-empty list of integers")
        if any(x < lo for x in v):
            raise ValueError(f"{what} must be >= {lo}")
        return tuple(v)
    return parse


def _int_from(lo, **kind_lo):
    """An integer >= lo, or >= kind_lo[kind] for the kinds named there."""
    def parse(v, kind):
        least = kind_lo.get(kind, lo)
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"{kind} needs an integer >= {least}")
        return v
    return parse


def _seed(v, kind):
    v = _int_from(0)(v, kind)
    if v >= RNG_KEY_LIMIT:
        raise ValueError("the seed must be below 2**64")
    return v


def _reals(v, kind):
    if not isinstance(v, list) or not v or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x) for x in v):
        raise ValueError("expected a non-empty list of finite numbers")
    return tuple(float(x) for x in v)


def _loads(v, kind):
    lams = _reals(v, kind)
    if any(not 0 < x < 1 for x in lams):
        raise ValueError("loads must lie strictly in (0, 1)")
    if kind == "rates-check" and any(not 0 < _exact_load(x) < 1 for x in lams):
        raise ValueError("rates-check rounds a load to 0 or 1 (denominator <= 10**6)")
    return lams


def _times(v, kind):
    ts = _reals(v, kind)
    if any(x < 0 for x in ts):
        raise ValueError("times must be non-negative")
    if kind in ("chaos", "tagged") and 0.0 in ts:
        raise ValueError(f"{kind} runs up to each time, which must be positive")
    return ts


def _positive_real(v, kind):
    if (not isinstance(v, (int, float)) or isinstance(v, bool)
            or not 0 < v < math.inf):
        raise ValueError("expected a finite positive number")
    return float(v)


def _or_none(parse):
    return lambda v, kind: None if v is None else parse(v, kind)


def _flag(v, kind):
    if not isinstance(v, bool):
        raise ValueError("expected true or false")
    return v


def _service(v, kind):
    if not isinstance(v, dict):
        raise ValueError("expected an object")
    try:
        return ServiceDistribution.from_json(v)
    except TypeError as e:
        raise ValueError(e) from None


def _init_profile(v, kind):
    if v not in INIT_PROFILES:
        raise ValueError(f"expected one of {INIT_PROFILES}")
    return v


def _same(v):
    return v


# config key -> (ExperimentSpec attribute, parser, encoder to JSON)
_FIELDS = {
    "seed": ("seed", _seed, _same),
    "N": ("N", _ints(1, "system sizes"), list),
    "D": ("D", _ints(1, "sample sizes"), list),
    "lambda": ("lam", _loads, list),
    "t": ("t", _times, list),
    "k": ("k", _ints(0, "levels"), list),
    "l": ("l", _ints(0, "levels"), list),
    "service": ("service", _service, ServiceDistribution.to_json),
    "discipline": ("discipline", lambda v, kind: Discipline(v),
                   lambda disc: disc.kind),
    "init": ("init", _init_profile, _same),
    "replications": ("replications",
                     _int_from(1, chaos=MIN_REPLICATIONS), _same),
    "horizon": ("horizon", _positive_real, _same),
    "warmup": ("warmup", _or_none(_positive_real), _same),
    "n_batches": ("n_batches", _int_from(MIN_BATCHES), _same),
    "k_max": ("k_max", _int_from(1), _same),
    "sample_times": ("sample_times", _or_none(_reals),
                     lambda ts: None if ts is None else list(ts)),
    "record_events": ("record_events", _flag, _same),
}

# (required keys, optional keys) per experiment kind
_SCHEMAS = {
    "bounds": (("N", "D", "lambda", "t", "seed"), ()),
    "rates-check": (("N", "D", "lambda", "seed"), ()),
    "simulate": (("N", "D", "lambda", "horizon", "seed"),
                 ("service", "discipline", "init", "replications",
                  "sample_times", "record_events")),
    "chaos": (("N", "D", "lambda", "t", "k", "l", "replications", "seed"),
              ("service", "discipline", "init")),
    "clan": (("N", "D", "lambda", "t", "replications", "seed"), ()),
    "tagged": (("N", "D", "lambda", "t", "replications", "seed"),
               ("service", "discipline", "k_max")),
    "stationary": (("N", "D", "lambda", "horizon", "seed"),
                   ("service", "discipline", "warmup", "n_batches", "k_max")),
    "coupled": (("N", "D", "lambda", "horizon", "replications", "seed"),
                ("service", "discipline", "init")),
}

KINDS = tuple(_SCHEMAS)

# The (N, D) cells each kind runs; a kind not named here runs D <= N.
_RUNS_CELL = {
    "bounds": lambda n, d: d < n,
    "chaos": lambda n, d: d < n,
    "clan": lambda n, d: d < n,
    "rates-check": lambda n, d: 2 <= n >= d,
}


def parse_config(text, kind: str | None = None) -> ExperimentSpec:
    """Validate a JSON experiment document into an ExperimentSpec.

    Unknown keys are rejected; error messages carry the offending field path.
    `kind` (from the CLI subcommand) must agree with the document's own kind
    when both are present.
    """
    if isinstance(text, dict):
        doc = text
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON: {e}") from None
        except RecursionError:
            raise ConfigError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    doc_kind = doc.get("kind", kind)
    if doc_kind is None:
        raise ConfigError("kind: missing")
    if doc_kind not in KINDS:
        raise ConfigError(f"kind: unknown experiment kind {doc_kind!r}")
    if kind is not None and doc_kind != kind:
        raise ConfigError(f"kind: config says {doc_kind!r} but the command is {kind!r}")

    required, optional = _SCHEMAS[doc_kind]
    allowed = set(required) | set(optional) | {"kind"}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for kind {doc_kind!r}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{key}: missing")

    out = {"kind": doc_kind}
    for key in (*required, *optional):
        if key in doc:
            attr, parse, _ = _FIELDS[key]
            try:
                out[attr] = parse(doc[key], doc_kind)
            except ValueError as e:
                raise ConfigError(f"{key}: {e}") from None
    spec = ExperimentSpec(**out)
    if spec.sample_times is not None and any(
            not 0 <= v <= spec.horizon for v in spec.sample_times):
        raise ConfigError("sample_times: times must lie in [0, horizon]")
    # each load that _run_stationary runs must leave n_batches samples
    if spec.kind == "stationary" and any(_cells(spec, "N", "D")):
        for lam in spec.lam:
            times, warmup = _stationary_grid(spec, lam)
            if np.count_nonzero(times >= warmup) < spec.n_batches:
                raise ConfigError(
                    f"horizon: {spec.horizon:g} leaves fewer than n_batches = "
                    f"{spec.n_batches} sample times after the warm-up "
                    f"{warmup:g} at lambda = {lam:g}")
    return spec


def _stationary_grid(spec, lam):
    """The sample times of a `stationary` run at load `lam`, and its warm-up
    (10/(1-lam) unless the config sets one)."""
    times = np.linspace(0.0, spec.horizon, max(spec.n_batches * 32, 512))
    warmup = spec.warmup if spec.warmup is not None else 10.0 / (1.0 - lam)
    return times, warmup


def _cells(spec, *axes):
    """The cells of the spec's grid over `axes` (ExperimentSpec attributes,
    the outermost first) in row order, less those whose (N, D) the kind
    does not run."""
    runs = _RUNS_CELL.get(spec.kind, lambda n, d: d <= n)
    i, j = axes.index("N"), axes.index("D")
    for cell in itertools.product(*(getattr(spec, a) for a in axes)):
        if runs(cell[i], cell[j]):
            yield cell


def _reps(spec, label, *args):
    """One task `(*args, rng)` per replication of a cell, where replication
    r draws from the substream `RngStream(seed).child(label, r)`."""
    base = RngStream(spec.seed)
    return [(*args, base.child(label, r)) for r in range(spec.replications)]


def _shared_start(spec, n: int) -> Configuration | None:
    """The initial state all replications of an n-server cell share: for an
    empty start, `Configuration.empty(n)`, built once per cell (no kernel
    writes to it); None where each replication draws its own."""
    return Configuration.empty(n) if spec.init == "empty" else None


def _run_tasks(spec, label, n, d, lam, horizon, times):
    """The `_run_rep` tasks of an n-server cell (`_reps`), sharing the
    cell's start."""
    return _reps(spec, label, n, d, lam, horizon, times, spec,
                 _shared_start(spec, n))


def _init_config(spec, n: int, lam: float, start, rng: RngStream) -> Configuration:
    """A replication's initial state: the cell's shared `start`, or else
    one drawn from the replication's stream by the `init` profile."""
    if start is not None:
        return start
    if spec.init == "all-at-2":
        return Configuration.from_lengths([2] * n, spec.service,
                                          rng.child("init"))
    gen = rng.child("init-lengths").generator()
    lengths = gen.geometric(1.0 - lam, size=n) - 1
    return Configuration.from_lengths([int(v) for v in lengths], spec.service,
                                      rng.child("init"))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class _Pool:
    """Ordered map over `workers` processes (see `podd.workers`).  Order (and
    so output bytes) does not depend on the worker count because every task
    owns its own substream."""

    def __init__(self, workers):
        self.workers = workers

    def map(self, fn, tasks):
        if self.workers <= 1 or len(tasks) <= 1:
            return [fn(t) for t in tasks]
        # imported here: a run at one worker never loads it
        from .workers import fork_map
        return fork_map(fn, tasks, self.workers)


def _map_cells(pool, fn, cell_tasks):
    """`fn` over the task lists of many cells in one map, so that the workers
    are forked once per run: the results as one list per cell."""
    results = iter(pool.map(fn, [t for tasks in cell_tasks for t in tasks]))
    return [list(itertools.islice(results, len(tasks)))
            for tasks in cell_tasks]


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------

def _run_bounds(spec, out_dir, pool):
    rows = []
    for n, d, lam, t in _cells(spec, "N", "D", "lam", "t"):
        inp = BoundInputs(n, d, lam, t)
        rows.append([n, d, _fmt(lam), _fmt(t),
                     _fmt(clan_growth_factor(inp)),
                     _fmt(clan_size_bound(inp)),
                     _fmt(clan_intersection_bound(inp)),
                     _fmt(chaos_bound(inp)),
                     _fmt(chaos_bound_limit(inp)),
                     int(limit_bound_is_valid(inp)),
                     _fmt(tail_count_cov_bound(inp))])
    _write_csv(os.path.join(out_dir, "bounds.csv"),
               ["N", "D", "lambda", "t", "growth", "size_bound",
                "intersect_bound", "cov_bound", "cov_bound_limit",
                "limit_valid", "tail_cov_bound"], rows)
    return 0


def _run_rates_check(spec, out_dir, pool):
    # Every rate is lam * P / Q with Q > 0 and lam > 0, so two rates at one
    # load compare exactly as P1 * Q2 against P2 * Q1, and no check depends
    # on the load: each kernel runs once per (N, D) cell, on every
    # (pi_k, pi_k1) row of it at once, in the cell's `exact_dtype`.
    failures = 0
    with open(os.path.join(out_dir, "rates_check.csv"), "w",
              newline="") as fh:
        fh.write("N,D,lambda,pi_k,pi_k1,rate,identity_ok,uniform_ok,"
                 "consistency_ok,monotone_above,monotone_equal,"
                 "below_decrease\r\n")
        for n, d in _cells(spec, "N", "D"):
            dtype = exact_dtype(n, d)
            pi_k, pi_k1 = (a.astype(dtype)
                           for a in np.tril_indices(n + 1, -1))
            ub_p, ub_q = uniform_rate_bound(d)
            cp, cq = arrival_rate_closed(n, d, pi_k, pi_k1)
            hp, hq = arrival_rate_hyper(n, d, pi_k, pi_k1)
            identity_ok = cp * hq == hp * cq
            uniform_ok = cp * ub_q <= ub_p * cq
            consistency_ok = True
            mono = {}
            for rel, (up_k, up_k1) in PLUS_ONE_SHIFT.items():
                pp, pq = arrival_rate_plus_one(n, d, pi_k, pi_k1, rel)
                ap, aq = arrival_rate_closed(n + 1, d, pi_k + up_k,
                                             pi_k1 + up_k1)
                consistency_ok = consistency_ok & (ap * pq == pp * aq)
                mono[rel] = pp * cq >= cp * pq
            # gate on the comparisons that hold identically; the equal and
            # below relations can genuinely decrease the rate and are
            # reported as columns instead
            gated = identity_ok & uniform_ok & consistency_ok
            if d >= 2 and n >= monotone_threshold(d):
                gated = gated & mono["above"]
            failures += len(spec.lam) * int(np.count_nonzero(~gated))
            # the six 0/1 columns, as one list of them per row
            flags = np.stack([identity_ok, uniform_ok, consistency_ok,
                              mono["above"], mono["equal"], ~mono["below"]],
                             axis=1).astype(np.int8)
            cols = [a.tolist() for a in (pi_k, pi_k1, cp, cq, flags)]
            for lam in spec.lam:
                lam_q = _exact_load(lam)
                lam_p, lam_r = lam_q.numerator, lam_q.denominator
                # No field needs quoting, so one format string per cell
                # writes what csv.writer would; int / int is correctly
                # rounded, as float(Fraction) is, and %r writes it as _fmt
                row = f"{n},{d},{_fmt(lam)},%d,%d,%r{',%d' * 6}\r\n"
                fh.write("".join([
                    row % (k, k1, lam_p * p / (lam_r * q), *f)
                    for k, k1, p, q, f in zip(*cols)]))
    return 1 if failures else 0


def _run_rep(task):
    """One replication of the event engine: the kind's initial state, then
    `run` over [0, horizon], sampled at `times`."""
    n, d, lam, horizon, times, spec, start, rng = task
    init = _init_config(spec, n, lam, start, rng)
    return run(n, d, lam, spec.service, spec.discipline, init, horizon,
               times, rng.child("run"), record_events=spec.record_events)


def _run_simulate(spec, out_dir, pool):
    times = (spec.sample_times if spec.sample_times is not None
             else np.linspace(0.0, spec.horizon, 65))
    cells = list(_cells(spec, "N", "D", "lam"))
    per_cell = _map_cells(pool, _run_rep, [
        _run_tasks(spec, f"sim-{n}-{d}-{lam}", n, d, lam, spec.horizon, times)
        for n, d, lam in cells])
    # (replication, cell, (trajectory, arrival log)) per run
    runs = [(r, cell, result) for cell, results in zip(cells, per_cell)
            for r, result in enumerate(results)]
    # generators: each row is written as it is made, so no run holds all
    # of its rows at once
    traj_rows = ([r, n, d, _fmt(lam), _fmt(float(tv)), k, pik]
                 for r, (n, d, lam), (traj, _) in runs
                 for tv, tc in zip(traj.times, traj.snapshots)
                 for k, pik in enumerate(tc.pi))
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ["rep", "N", "D", "lambda", "t", "k", "pi_k"], traj_rows)
    if spec.record_events:
        # No field needs quoting, so one format string per replication
        # writes what csv.writer would; event times are Python floats, so
        # %r is what _fmt writes.
        with open(os.path.join(out_dir, "events.csv"), "w",
                  newline="") as fh:
            fh.write("rep,time,kind,server,zeta\r\n")
            for r, (_, d, _), (_, log) in runs:
                row = f"{r},%r,A,%d,{'|'.join(['%d'] * d)}\r\n"
                fh.write("".join([row % (ev.time, ev.routed_to, *ev.zeta)
                                  for ev in log.arrivals]))
    return 0


def _chaos_rep(task):
    """A `chaos` replication: its tail counts at t, the horizon and only
    sample time, which is all `cov_mk` reads.  What crosses the pool is
    O(K) for K levels, not the O(N) trajectory."""
    traj, _ = _run_rep(task)
    return snapshot(traj, task[3])


def _run_chaos(spec, out_dir, pool):
    rows = []
    failures = 0
    cells = list(_cells(spec, "N", "D", "lam", "t"))
    per_cell = _map_cells(pool, _chaos_rep, [
        _run_tasks(spec, f"chaos-{n}-{d}-{lam}-{t}", n, d, lam, t, [t])
        for n, d, lam, t in cells])
    for (n, d, lam, t), snaps in zip(cells, per_cell):
        bound = chaos_bound(BoundInputs(n, d, lam, t))
        for k, l in itertools.product(spec.k, spec.l):
            row = cov_mk(snaps, k, l, level=0.95)
            ok = row.estimate <= bound + 3 * row.half_width
            if not ok:
                failures += 1
            rows.append([n, d, _fmt(lam), _fmt(t), k, l,
                         _fmt(row.estimate), _fmt(row.half_width),
                         _fmt(bound), int(ok)])
    _write_csv(os.path.join(out_dir, "chaos.csv"),
               ["N", "D", "lambda", "t", "k", "l", "cov", "ci",
                "bound", "ok"], rows)
    return 1 if failures else 0


def _run_clan(spec, out_dir, pool):
    rows = []
    failures = 0
    base = RngStream(spec.seed)
    grid = tuple(sorted(spec.t))
    for n, d, lam in _cells(spec, "N", "D", "lam"):
        stats = clan_monte_carlo(n, d, lam, grid, spec.replications,
                                 base.child(f"clan-{n}-{d}-{lam}"))
        for i, t in enumerate(stats.t_grid):
            inp = BoundInputs(n, d, lam, t)
            sb = clan_size_bound(inp)
            ib = clan_intersection_bound(inp)
            ok = (stats.mean_size[i] <= sb + stats.size_ci[i]
                  and stats.p_intersect[i] <= ib + stats.p_ci[i])
            if not ok:
                failures += 1
            rows.append([n, d, _fmt(lam), _fmt(t),
                         _fmt(stats.mean_size[i]), _fmt(stats.size_ci[i]),
                         _fmt(sb), _fmt(stats.p_intersect[i]),
                         _fmt(stats.p_ci[i]), _fmt(ib), int(ok)])
    _write_csv(os.path.join(out_dir, "clan.csv"),
               ["N", "D", "lambda", "t", "mean_size", "size_ci", "size_bound",
                "p_intersect", "p_ci", "intersect_bound", "ok"], rows)
    return 1 if failures else 0


def _cavity_rep(task):
    d, lam, t, spec, rng = task
    traj = run_cavity(d, lam, spec.service, spec.discipline, t,
                      rng.child("cavity"))
    return int(traj.final_lengths[0])


def _tagged_rep(task):
    """A `tagged` replication of the N-system: the length of server 0 at
    the horizon."""
    traj, _ = _run_rep(task)
    return int(traj.final_lengths[0])


def _run_tagged(spec, out_dir, pool):
    rows = []
    # binomial-style noise scale on a TV estimate
    ci = z_value(0.95) * math.sqrt(0.25 / spec.replications) * (spec.k_max + 1) ** 0.5
    # one cavity law per (D, lambda, t), compared with each N in turn
    groups = [(key, [c[3] for c in group]) for key, group in itertools.groupby(
        _cells(spec, "D", "lam", "t", "N"), key=lambda c: c[:3])]
    # every cavity and N-system replication in one map, as (fn, task) jobs
    jobs = []
    for (d, lam, t), ns in groups:
        jobs.append([(_cavity_rep, task) for task in _reps(
            spec, f"cavity-{d}-{lam}-{t}", d, lam, t, spec)])
        jobs += [[(_tagged_rep, task) for task in _run_tasks(
            spec, f"tagged-{n}-{d}-{lam}-{t}", n, d, lam, t, [])] for n in ns]
    laws = iter([level_distribution(values, spec.k_max) for values in
                 _map_cells(pool, lambda job: job[0](job[1]), jobs)])
    for (d, lam, t), ns in groups:
        cav = next(laws)
        for n in ns:
            rows.append([n, d, _fmt(lam), _fmt(t),
                         _fmt(tv_distance(next(laws), cav)), _fmt(ci)])
    _write_csv(os.path.join(out_dir, "tagged.csv"),
               ["N", "D", "lambda", "t", "tv", "tv_ci"], rows)
    return 0


def _run_stationary(spec, out_dir, pool):
    rows = []
    cells = [(n, d, lam, *_stationary_grid(spec, lam))
             for n, d, lam in _cells(spec, "N", "D", "lam")]
    per_cell = _map_cells(pool, _run_rep, [
        _run_tasks(spec, f"stationary-{n}-{d}-{lam}", n, d, lam, spec.horizon,
                   times) for n, d, lam, times, _ in cells])
    for (n, d, lam, _, warmup), [(traj, _)] in zip(cells, per_cell):
        tail = stationary_tail(traj, warmup, spec.n_batches, spec.k_max)
        for k, row in enumerate(tail):
            rows.append([n, d, _fmt(lam), k, _fmt(row.estimate),
                         _fmt(row.half_width),
                         _fmt(float(asymptotic_tail(d, lam, k)))])
    _write_csv(os.path.join(out_dir, "stationary.csv"),
               ["N", "D", "lambda", "k", "p_hat", "ci", "p_star"], rows)
    return 0


def _coupled_rep(task):
    n, d, lam, spec, start, rng = task
    init = _init_config(spec, n, lam, start, rng)
    pair = run_coupled(n, d, lam, spec.service, spec.discipline, init,
                       spec.horizon, rng.child("run"))
    return (pair.counts["yellow"], pair.counts["red"], pair.counts["blue"],
            pair.tagged_hits[0], pair.tagged_hits[1])


def _run_coupled(spec, out_dir, pool):
    rows = []
    cells = list(_cells(spec, "N", "D", "lam"))
    per_cell = _map_cells(pool, _coupled_rep, [
        _reps(spec, f"coupled-{n}-{d}-{lam}", n, d, lam, spec,
              _shared_start(spec, n)) for n, d, lam in cells])
    for (n, d, lam), results in zip(cells, per_cell):
        for r, (y, rd, bl, h_s, h_l) in enumerate(results):
            rows.append([r, n, d, _fmt(lam), _fmt(spec.horizon),
                         y, rd, bl, h_s, h_l])
    _write_csv(os.path.join(out_dir, "coupled.csv"),
               ["rep", "N", "D", "lambda", "horizon", "yellow", "red",
                "blue", "tagged_small", "tagged_large"], rows)
    return 0


_DRIVERS = {
    "bounds": _run_bounds,
    "rates-check": _run_rates_check,
    "simulate": _run_simulate,
    "chaos": _run_chaos,
    "clan": _run_clan,
    "tagged": _run_tagged,
    "stationary": _run_stationary,
    "coupled": _run_coupled,
}


def run_experiment(spec: ExperimentSpec, out_dir: str, workers: int = 1) -> int:
    """Execute one experiment; writes CSVs plus manifest.json into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    code = _DRIVERS[spec.kind](spec, out_dir, _Pool(workers))
    manifest = {
        "spec": spec.to_json(),
        "version": __version__,
        "seed": spec.seed,
        "wall_time_s": round(time.monotonic() - start, 3),
        "exit_code": code,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="podd",
                                description="Power-of-D load-balancing experiments")
    sub = p.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind)
        sp.add_argument("--config", required=True, help="JSON experiment config")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1)")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, "
                     f"got {args.workers}")
    if args.workers > 1 and not hasattr(os, "fork"):
        print("error: --workers above 1 needs os.fork, which this platform "
              "lacks", file=sys.stderr)
        return 2
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        spec = parse_config(text, kind=args.kind)
        if args.seed is not None:
            spec = parse_config({**spec.to_json(), "seed": args.seed},
                                kind=args.kind)
        return run_experiment(spec, args.out, args.workers)
    except (ConfigError, UnicodeDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
