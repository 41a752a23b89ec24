"""Cost of one short replication, in process and on one core.

    python3 tools/rep_cost.py                    # this checkout's src/
    python3 tools/rep_cost.py --src OTHER/src    # another checkout

Times the functions the drivers map over the workers, at the `many-reps`
benchmark's sizes: `podd.cli._chaos_rep` on a `chaos` cell at N=200, D=2,
lambda=0.5, FIFO, exponential service, empty start, for t = 1e-9 and t = 1;
the two replications of a `tagged` cell at N=200, D=2, lambda=0.5, t=2,
`podd.cli._tagged_rep` and `podd.cli._cavity_rep`; and
`podd.cli._coupled_rep` at N=100, D=2, lambda=0.5, horizon 4.  Tasks are
built with the CLI's own task builders (`_run_tasks`, `_reps`), so the
other checkout must have them and these functions; an empty start is built
once per cell, outside the timed loop, as the CLI builds it.  At t = 1e-9
no event happens, so that time is a replication's fixed cost: streams, draw
buffers, kernel, snapshot.  Each line gives the best, over REPEAT passes of
REPS replications (REPS // 5 for the tagged N=200 system and for coupled),
of the mean time per replication in microseconds.

Two more lines time `podd.cli._run_rep` at the `long-run` benchmark's
shapes over a horizon of LONG_HORIZON: `stationary` at N=1000, D=2,
lambda=0.9, PS, hyperexponential service (cv2 4), empty start, on the
part of the workload's sample grid that falls in the horizon; and the 8 replications of `simulate` at N=100, D=2,
lambda=0.9, LIFO_PR, Erlang-4 service, geometric start, 65 sample times,
with events recorded.  Each gives the best, over REPEAT passes, of the
time per event (arrival or departure) in microseconds.  The host's load
moves these numbers; compare two checkouts by alternating runs.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPS = 2000
REPEAT = 5
LONG_HORIZON = 20.0


def best_mean_us(fn, tasks):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for task in tasks:
            fn(task)
        best = min(best, (time.perf_counter() - t0) / len(tasks))
    return best * 1e6


def best_us_per_event(run_rep, init_config, tasks):
    """`best_mean_us` of `run_rep` over `tasks`, per event instead of per
    task: the events of a task are its arrivals plus its departures, the
    jobs it starts with and gains less those it ends with."""
    events = 0
    for task in tasks:
        n, _, lam, _, _, spec, start, rng = task
        traj, log = run_rep(task)
        init = init_config(spec, n, lam, start, rng)
        events += (2 * log.n_arrivals + sum(init.lengths())
                   - int(traj.final_lengths.sum()))
    return best_mean_us(run_rep, tasks) * len(tasks) / events


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(SRC), help="the src/ to import podd from")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np
    from podd.cli import (_cavity_rep, _chaos_rep, _coupled_rep,
                          _init_config, _reps, _run_rep, _run_tasks,
                          _shared_start, _stationary_grid, _tagged_rep,
                          parse_config)

    # tasks are built as the drivers build them: replication r of label L
    # draws from RngStream(1).child(L, r)
    chaos = parse_config({"kind": "chaos", "N": [200], "D": [2],
                          "lambda": [0.5], "t": [1.0], "k": [0], "l": [0],
                          "replications": REPS, "seed": 1})
    for t in (1e-9, 1.0):
        us = best_mean_us(_chaos_rep,
                          _run_tasks(chaos, "chaos", 200, 2, 0.5, t, [t]))
        print(f"chaos N=200 t={t:g}: {us:.0f} us per replication")
    tagged = parse_config({"kind": "tagged", "N": [200], "D": [2],
                           "lambda": [0.5], "t": [2.0],
                           "replications": REPS // 5, "seed": 1})
    us = best_mean_us(_tagged_rep,
                      _run_tasks(tagged, "tagged", 200, 2, 0.5, 2.0, []))
    print(f"tagged N=200 t=2: {us:.0f} us per replication")
    cavity = replace(tagged, replications=REPS)
    us = best_mean_us(_cavity_rep, _reps(cavity, "cavity", 2, 0.5, 2.0, cavity))
    print(f"tagged cavity t=2: {us:.0f} us per replication")
    coupled = parse_config({"kind": "coupled", "N": [100], "D": [2],
                            "lambda": [0.5], "horizon": 4.0,
                            "replications": REPS // 5, "seed": 1})
    us = best_mean_us(_coupled_rep, _reps(coupled, "coupled", 100, 2, 0.5,
                                          coupled, _shared_start(coupled, 100)))
    print(f"coupled N=100 horizon=4: {us:.0f} us per replication")
    h = LONG_HORIZON
    # the workload's own sample grid, over its horizon of 120, cut at h
    stationary = parse_config({
        "kind": "stationary", "N": [1000], "D": [2], "lambda": [0.9],
        "horizon": 120.0, "warmup": 20.0, "k_max": 6, "discipline": "PS",
        "service": {"kind": "hyperexponential", "cv2": 4}, "seed": 1})
    times, _ = _stationary_grid(stationary, 0.9)
    us = best_us_per_event(_run_rep, _init_config, _run_tasks(
        stationary, "stationary", 1000, 2, 0.9, h, times[times <= h]))
    print(f"stationary N=1000 PS horizon={h:g}: {us:.2f} us per event")
    simulate = parse_config({
        "kind": "simulate", "N": [100], "D": [2], "lambda": [0.9],
        "horizon": h, "replications": 8, "discipline": "LIFO_PR",
        "service": {"kind": "erlang", "shape": 4}, "init": "geometric",
        "record_events": True, "seed": 1})
    us = best_us_per_event(_run_rep, _init_config, _run_tasks(
        simulate, "sim", 100, 2, 0.9, h, np.linspace(0.0, h, 65)))
    print(f"simulate N=100 LIFO_PR horizon={h:g}: {us:.2f} us per event")
    return 0


if __name__ == "__main__":
    sys.exit(main())
