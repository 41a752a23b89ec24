"""In-process tracing of podd's layers from outside the package.

`Tracer` replaces public functions at the names their callers look up (for
example `podd.cli.run`, the engine's `run` as the CLI imported it) with
wrappers that record a span per call, and restores the originals on exit.
Spans stay in memory; self time is a span's duration minus the time of its
direct child spans.  Nothing under `src/` is edited.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

# The exact rate kernels run ~10^5 times per rates-check: they are counted
# and timed but not kept as individual spans.
_UNRECORDED = frozenset({"rates.kernel"})


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs wrappers on podd's public functions for the duration of a
    `with tracer.installed():` block and collects spans and counters."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent span index or -1]
        self.stats = {}        # span name -> _Stat
        self.counts = {}       # counter name -> int
        self._stack = []       # [span index or -1, child seconds] per open call
        self._restore = []

    def add(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, name, fn, after=None):
        stack, spans = self._stack, self.spans
        record = name not in _UNRECORDED
        stat = self.stats.setdefault(name, _Stat())
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = parent = -1
            if record:
                for f in reversed(stack):
                    if f[0] >= 0:
                        parent = f[0]
                        break
                idx = len(spans)
                spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                if record:
                    spans[idx] = [name, t0, t1, parent]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, after))
        else:
            new = self._wrap(name, raw, after)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))

    @contextmanager
    def installed(self):
        import podd.cavity
        import podd.cli
        import podd.core
        import podd.engine

        cli = podd.cli

        def after_run(args, result):
            traj, log = result
            init = args[5]
            self.add("engine.arrivals", log.n_arrivals)
            # flow balance: what arrived and what was there, less what is left
            self.add("engine.departures", log.n_arrivals + sum(init.lengths())
                     - int(traj.final_lengths.sum()))

        def after_coupled(args, pair):
            self.add("cavity.coupled_arrivals", sum(pair.counts.values()))

        def after_clan(args, stats):
            self.add("ancestry.replications", stats.n_reps)

        def after_hyper(args, result):
            self.add("rates.cells", 1)

        targets = [
            (cli, "parse_config", "cli.parse", None),
            (cli, "run_experiment", "cli.run_experiment", None),
            (cli, "run", "engine.run", after_run),
            (cli, "run_cavity", "cavity.run_cavity", None),
            (cli, "run_coupled", "cavity.run_coupled", after_coupled),
            (podd.cavity, "cavity_rate", "cavity.cavity_rate", None),
            (cli, "arrival_rate_closed", "rates.kernel", None),
            (cli, "arrival_rate_hyper", "rates.kernel", after_hyper),
            (cli, "arrival_rate_plus_one", "rates.kernel", None),
            (cli, "clan_monte_carlo", "ancestry.clan", after_clan),
            (cli, "cov_mk", "estimators.cov_mk", None),
            (cli, "stationary_tail", "estimators.stationary_tail", None),
            (podd.engine, "tail_counts_from_lengths", "core.tail_counts", None),
            (podd.core.RngStream, "generator", "core.rng_setup", None),
            (podd.core.Configuration, "empty", "core.init", None),
            (podd.core.Configuration, "from_lengths", "core.init", None),
        ]
        try:
            for owner, attr, name, after in targets:
                self._patch(owner, attr, name, after)
            yield self
        finally:
            while self._restore:
                owner, attr, raw = self._restore.pop()
                setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------

    def _stat(self, name):
        return self.stats.get(name) or _Stat()

    def metrics(self) -> dict:
        """Per-layer metrics by name, from the spans and counters so far."""
        st, cnt = self._stat, self.counts.get
        run_ms = sorted((s[2] - s[1]) * 1e3 for s in self.spans
                        if s[0] == "engine.run")
        engine_self = st("engine.run").self_s
        events = cnt("engine.arrivals", 0) + cnt("engine.departures", 0)
        kernel_s = st("rates.kernel").total_s
        clan_s = st("ancestry.clan").total_s
        return {
            "core.rng_streams": st("core.rng_setup").calls,
            "core.rng_setup_s": st("core.rng_setup").total_s,
            "core.init_s": st("core.init").total_s,
            "core.tail_counts_calls": st("core.tail_counts").calls,
            "core.tail_counts_s": st("core.tail_counts").total_s,
            "engine.run_calls": st("engine.run").calls,
            "engine.self_s": engine_self,
            "engine.run_ms.p50": _percentile(run_ms, 50),
            "engine.run_ms.p99": _percentile(run_ms, 99),
            "engine.arrivals": cnt("engine.arrivals", 0),
            "engine.departures": cnt("engine.departures", 0),
            "engine.events_per_s": events / engine_self if engine_self else 0.0,
            "cavity.run_cavity_calls": st("cavity.run_cavity").calls,
            "cavity.candidates": st("cavity.cavity_rate").calls,
            "cavity.run_cavity_s": st("cavity.run_cavity").total_s,
            "cavity.run_coupled_calls": st("cavity.run_coupled").calls,
            "cavity.coupled_arrivals": cnt("cavity.coupled_arrivals", 0),
            "cavity.run_coupled_s": st("cavity.run_coupled").total_s,
            "rates.kernel_calls": st("rates.kernel").calls,
            "rates.kernel_s": kernel_s,
            "rates.cells_per_s": (cnt("rates.cells", 0) / kernel_s
                                  if kernel_s else 0.0),
            "ancestry.clan_calls": st("ancestry.clan").calls,
            "ancestry.replications": cnt("ancestry.replications", 0),
            "ancestry.clan_s": clan_s,
            "ancestry.reps_per_s": (cnt("ancestry.replications", 0) / clan_s
                                    if clan_s else 0.0),
            "estimators.cov_mk_calls": st("estimators.cov_mk").calls,
            "estimators.cov_mk_s": st("estimators.cov_mk").total_s,
            "estimators.stationary_tail_s":
                st("estimators.stationary_tail").total_s,
            "cli.parse_s": st("cli.parse").total_s,
            "cli.self_s": st("cli.run_experiment").self_s,
        }


# Metrics that count work: they must repeat exactly for one seed.
COUNTS = ("engine.arrivals", "core.rng_streams", "rates.kernel_calls",
          "cavity.candidates", "ancestry.replications")


def _percentile(sorted_values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]
