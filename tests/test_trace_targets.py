"""The benchmark's tracer (perfbench/spans.py) patches podd functions by name
and reads the initial configuration a run was given.  This checks that every
name it patches still exists and that a traced run still works, so a rename in
`src/podd/` cannot break `perfbench/run.py --trace 1` unnoticed."""
import csv
import importlib.util
import json
from pathlib import Path

import podd.cli
from podd.core import FIFO, Configuration, RngStream, ServiceDistribution

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = load_spans().Tracer()
    run = podd.cli.run
    with tracer.installed():
        assert Configuration.empty(3).lengths() == [0, 0, 0]
        init = Configuration.from_lengths(
            [1, 0, 2], ServiceDistribution.deterministic(), RngStream(1))
        traj, log = podd.cli.run(3, 2, 0.5, ServiceDistribution.exponential(),
                                 FIFO, init, 1.0, [1.0], RngStream(2))
    assert podd.cli.run is run
    assert tracer.stats["core.init"].calls == 2
    assert tracer.counts["engine.arrivals"] == log.n_arrivals
    assert tracer.counts["engine.departures"] == (
        log.n_arrivals + 3 - int(traj.final_lengths.sum()))


def test_tracer_counts_rate_kernels(tmp_path):
    # a rates-check (N, D) cell calls the closed and hypergeometric forms
    # once each, and the (N+1)-system form and the closed form at N+1 once
    # per relation, each on every row of the cell at once
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "rates-check", "N": [4, 6], "D": [1, 3],
                               "lambda": [0.5], "seed": 1}))
    out = tmp_path / "rc"
    tracer = load_spans().Tracer()
    with tracer.installed():
        assert podd.cli.main(["rates-check", "--config", str(cfg),
                              "--out", str(out)]) == 0
    with open(out / "rates_check.csv") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    assert rows == 2 * (10 + 21)
    assert tracer.stats["rates.kernel"].calls == 8 * 4
    assert tracer.counts["rates.cells"] == 4


def traced_main(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    tracer = load_spans().Tracer()
    with tracer.installed():
        assert podd.cli.main([doc["kind"], "--config", str(cfg),
                              "--out", str(tmp_path / "out")]) == 0
    return tracer


def arrivals(doc, kind, times):
    """The arrivals of every N-system replication of `doc`'s cells, each
    run again outside the tracer from the driver's own tasks."""
    spec = podd.cli.parse_config(doc)
    [d], [lam], [t] = spec.D, spec.lam, spec.t
    return sum(podd.cli._run_rep(task)[1].n_arrivals for n in spec.N
               for task in podd.cli._run_tasks(
                   spec, f"{kind}-{n}-{d}-{lam}-{t}", n, d, lam, t, times))


# The drivers map their own readers around `_run_rep`, which calls the
# engine through `podd.cli.run`, the name the tracer patches; the chaos
# driver calls `podd.cli.cov_mk` on the snapshots they return.
CELLS = {"N": [6, 8], "D": [2], "lambda": [0.5], "t": [1.0],
         "replications": 30, "seed": 3}


def test_tracer_counts_chaos_runs(tmp_path):
    doc = {"kind": "chaos", "k": [0, 1], "l": [1], **CELLS}
    metrics = traced_main(tmp_path, doc).metrics()
    assert metrics["engine.run_calls"] == 2 * 30
    assert metrics["estimators.cov_mk_calls"] == 2 * 2
    assert metrics["engine.arrivals"] == arrivals(doc, "chaos", [1.0])


def test_tracer_counts_tagged_runs(tmp_path):
    doc = {"kind": "tagged", **CELLS}
    metrics = traced_main(tmp_path, doc).metrics()
    assert metrics["engine.run_calls"] == 2 * 30
    assert metrics["estimators.cov_mk_calls"] == 0
    assert metrics["engine.arrivals"] == arrivals(doc, "tagged", [])
