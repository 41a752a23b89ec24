"""podd benchmark: runs one workload through the `podd` CLI and prints its
metrics, one `name value unit` line each, then one JSON result line.

    python3 perfbench/run.py --workload long-run --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

`--trace 0` times the workload's subcommands as separate `podd` processes,
closed loop, with tracing off, and reports the end-to-end metrics of
BENCHMARK.json.  `--trace 1` runs the workload in this process through
`podd.cli.main` at one worker, with podd's public functions wrapped (see
spans.py), and reports the per-layer metrics.  Both modes check every CSV and
that outputs are deterministic; the exit code is 1 if any check fails.
`--smoke` runs every workload in both modes at tiny sizes.

Run from the root of a checkout: podd is imported from its `src/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every run must end well inside 180 s; subprocesses are killed past this.
DEADLINE_S = 170.0
# Fresh interpreters started before each timed pass to measure setup_s, so
# its samples spread over the whole run.
SETUP_REPS = 2
# Iterations of the reference loop recorded as run context.
REF_LOOP = 2_000_000

_SETUP_SNIPPET = """\
import sys
from pathlib import Path
import podd.cli
if Path(podd.cli.__file__).resolve().parent != Path(sys.argv[1], "podd").resolve():
    sys.exit(3)
for p in sys.argv[2:]:
    podd.cli.parse_config(Path(p).read_text())
"""


@dataclass
class Invocation:
    """One subcommand run: its resources and what its outputs held."""

    kind: str
    code: int
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    report: workloads.CsvReport = field(default_factory=workloads.CsvReport)
    digests: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.code == 0 and not self.report.errors


class Run:
    """State of one benchmark run: its configs, invocations and failures."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.workers = workloads.WORKERS[workload]
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.configs = []
        for kind, doc in workloads.configs(workload, seed, smoke):
            path = self.dir / f"{kind}.json"
            path.write_text(json.dumps(doc))
            self.configs.append((kind, doc, path))
        self.invocations = []
        self.errors = []
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "PODD_WORKERS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def fail(self, message):
        self.errors.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def record(self, inv: Invocation, doc, out):
        if inv.code == 0:
            inv.report = workloads.check_outputs(inv.kind, doc, out)
            inv.digests = {f"{inv.kind}/{p.name}": _sha256(p)
                           for p in sorted(out.glob("*.csv"))}
        else:
            self.fail(f"{inv.kind} exited with code {inv.code}")
        for e in inv.report.errors:
            self.fail(f"{inv.kind}: {e}")
        self.invocations.append(inv)
        return inv

    def spawn(self, argv, log):
        """Run argv to completion in its own process group; returns (exit code,
        wall s, user+sys CPU s of it and its reaped children, peak RSS MB)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024

    def subprocess_pass(self, seed, workers):
        """Every subcommand of the workload as its own `podd` process."""
        out = []
        for kind, doc, cfg in self.configs:
            dest = self.dir / "out" / kind
            shutil.rmtree(dest, ignore_errors=True)
            argv = [sys.executable, "-m", "podd.cli", kind, "--config", str(cfg),
                    "--out", str(dest), "--seed", str(seed),
                    "--workers", str(workers)]
            code, wall, cpu, rss = self.spawn(argv, self.dir / f"{kind}.log")
            out.append(self.record(Invocation(kind, code, wall, cpu, rss),
                                   doc, dest))
        return out

    def inprocess_pass(self, tracer=None):
        """Every subcommand through `podd.cli.main` at one worker, optionally
        under a tracer."""
        import podd.cli
        out = []
        for kind, doc, cfg in self.configs:
            dest = self.dir / "out" / kind
            shutil.rmtree(dest, ignore_errors=True)
            argv = [kind, "--config", str(cfg), "--out", str(dest),
                    "--seed", str(self.seed), "--workers", "1"]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = podd.cli.main(argv)
                else:
                    with tracer.installed():
                        code = podd.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            inv = Invocation(kind, code, time.perf_counter() - t0)
            out.append(self.record(inv, doc, dest))
        return out

    def same_digests(self, a, b, what):
        da = _digests(a)
        db = _digests(b)
        if da != db:
            diff = sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))
            self.fail(f"{what}: CSVs differ: {diff}")

    def measure_setup(self):
        """Wall times of fresh interpreters importing podd.cli and parsing
        the workload's configs."""
        argv = [sys.executable, "-c", _SETUP_SNIPPET, str(SRC),
                *(str(cfg) for _, _, cfg in self.configs)]
        times = []
        for _ in range(SETUP_REPS):
            code, wall, _, _ = self.spawn(argv, self.dir / "setup.log")
            if code != 0:
                self.fail(f"setup interpreter exited with code {code}")
            times.append(wall)
        return times


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(invocations):
    out = {}
    for inv in invocations:
        out.update(inv.digests)
    return out


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def timed(run: Run, seconds: float):
    """End-to-end metrics: one warm-up pass on a second seed, then closed-loop
    passes on the run's seed, each after a few setup_s samples, until
    `seconds` are used (at least two passes, so repeats can be compared).
    Metrics are medians over passes and over setup samples."""
    other = (run.seed + 1) % 2**63
    warm = run.subprocess_pass(other, run.workers)
    t0 = time.perf_counter()
    setup, passes = [], []
    while len(passes) < 2 or (time.perf_counter() - t0
                              + sum(i.wall_s for i in passes[-1]) <= seconds):
        setup += run.measure_setup()
        passes.append(run.subprocess_pass(run.seed, run.workers))

    for p in passes[1:]:
        run.same_digests(passes[0], p, "repeat with the same seed")
    first, second = _digests(passes[0]), _digests(warm)
    for key in first.keys() & second.keys():
        same = first[key] == second[key]
        if same != (key.split("/")[0] in workloads.SEED_FREE):
            run.fail(f"{key}: a second seed {'left' if same else 'changed'} "
                     f"its bytes")

    med = statistics.median
    metrics = {
        "setup_s": med(setup),
        "wall_s": med(sum(i.wall_s for i in p) for p in passes),
        "cpu_s": med(sum(i.cpu_s for i in p) for p in passes),
        "peak_rss_mb": med(max(i.rss_mb for i in p) for p in passes),
    }
    per_command = {f"{kind.replace('-', '_')}_s":
                   med(p[j].wall_s for p in passes)
                   for j, (kind, _, _) in enumerate(run.configs)}
    notes = {"warm_up_seed": other, "setup_s": setup,
             "pass_wall_s": [sum(i.wall_s for i in p) for p in passes],
             "pass_cpu_s": [sum(i.cpu_s for i in p) for p in passes]}
    return metrics, per_command, notes


def traced(run: Run):
    """Per-layer metrics: traced pass, untraced pass, traced pass, all in
    this process at one worker.  The second traced pass gives the metrics;
    the first must repeat its counts.  A workload that runs at more workers
    also runs once as subprocesses, whose CSVs must equal the traced ones."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import podd
    if Path(podd.__file__).resolve().parent != (SRC / "podd").resolve():
        run.fail(f"imported podd from {podd.__file__}, not from {SRC}")
    first = spans.Tracer()
    a = run.inprocess_pass(first)
    plain = run.inprocess_pass()
    tracer = spans.Tracer()
    b = run.inprocess_pass(tracer)
    run.same_digests(a, plain, "traced against untraced")
    run.same_digests(a, b, "two traced passes")
    if run.workers > 1:
        pooled = run.subprocess_pass(run.seed, run.workers)
        run.same_digests(b, pooled, f"{run.workers} workers against 1")

    metrics = tracer.metrics()
    repeat = first.metrics()
    for name in spans.COUNTS:
        if metrics[name] != repeat[name]:
            run.fail(f"{name} read {repeat[name]} then {metrics[name]} "
                     f"for one seed")
    metrics["cli.output_bytes"] = sum(i.report.bytes for i in b)
    metrics["cli.output_rows"] = sum(i.report.rows for i in b)
    untraced = sum(i.wall_s for i in plain)
    metrics["trace.overhead_frac"] = sum(i.wall_s for i in b) / untraced - 1.0
    per_command = {f"{i.kind.replace('-', '_')}_s": i.wall_s for i in b}
    notes = {"spans": len(tracer.spans)}
    spans_path = WORK / "results" / f"{run.workload}-seed{run.seed}-spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.spans))
    return metrics, per_command, notes


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _context(loadavg_start):
    import numpy
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": loadavg_start, "loadavg_end": os.getloadavg(),
            "ref_loop_s": time.perf_counter() - t0,
            "ref_loop_iterations": REF_LOOP}


def _declared(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def execute(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; prints its lines and returns the result object."""
    loadavg_start = os.getloadavg()
    run = Run(workload, seed, smoke)
    metrics, per_command, notes = traced(run) if trace else timed(run, seconds)

    units = _declared(trace)
    if set(metrics) != set(units):
        run.fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree "
                 f"with BENCHMARK.json")
    failed = sum(not i.ok for i in run.invocations)
    attempted = len(run.invocations)
    known_red = {}
    for inv in run.invocations[-len(run.configs):]:
        known_red.update(inv.report.known_red)
    context = _context(loadavg_start)

    print(f"workload {workload}  seed {seed}  workers "
          f"{1 if trace else run.workers}  trace {int(trace)}"
          f"{'  smoke' if smoke else ''}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:.6g} {units.get(name, '?')}")
    for name, value in per_command.items():
        print(f"  {name:30s} {value:.6g} s")
    print(f"  {'failed_frac':30s} {failed / attempted:.6g} frac "
          f"({failed} of {attempted} invocations)")
    for col, n in known_red.items():
        print(f"  known-red {col}: {n} rows (reported, not gated)")
    print(f"context {json.dumps(context)}")

    result = {"correct": not run.errors, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units.get(name, "")}
                          for name, value in metrics.items()}}
    record = {**result, "workload": workload, "seed": seed, "trace": int(trace),
              "smoke": smoke, "context": context, "notes": notes,
              "known_red": known_red, "errors": run.errors}
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(run.dir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload, timed and traced, at tiny sizes")
    args = p.parse_args(argv)
    if not (SRC / "podd" / "cli.py").is_file():
        print(f"error: no podd sources at {SRC / 'podd'}; run from the root "
              f"of a podd checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be non-negative")

    if args.smoke:
        results = [execute(w, args.seed, 0.0, trace, smoke=True)
                   for w in workloads.WORKLOADS for trace in (False, True)]
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results), "metrics": {}}
    else:
        if args.workload is None:
            p.error("--workload is required unless --smoke is given")
        result = execute(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
