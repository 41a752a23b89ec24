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
of the mean time per replication in microseconds.  The host's load moves
these numbers; compare two checkouts by alternating runs.
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


def best_mean_us(fn, tasks):
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for task in tasks:
            fn(task)
        best = min(best, (time.perf_counter() - t0) / len(tasks))
    return best * 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(SRC), help="the src/ to import podd from")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    from podd.cli import (_cavity_rep, _chaos_rep, _coupled_rep, _reps,
                          _run_tasks, _shared_start, _tagged_rep,
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
