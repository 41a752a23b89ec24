"""Paired benchmark runs of two commits, summarised as a BENCH_<n>.json file.

Each commit is unpacked with `git archive` into its own directory, so both
sides run from committed files only.  For every seed of a workload, the pair
runs `perfbench/run.py --trace 0` once on each side; odd seeds run the parent
first and even seeds the change first, so drift in the host's load falls on
both sides alike.  Per metric the summary holds both sides' runs and medians,
the distance between the quartiles of the parent's runs, how many pairs
the change won, the median and quartiles of the per-pair ratio
change/parent, and whether a gain resolves: at least 9 pairs in 10 won,
and a median gap wider than the parent's interquartile distance.  The
ratio compares two runs made back to back, so a swing in the host's load
that spans several pairs moves both sides' medians but not the ratio.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_8.json \\
        exact=801-810 long-run=811-820 many-reps=821-830

Every run gets `--seconds` SECONDS, on both sides.  Give each workload at least
10 seeds: fewer pairs cannot support a claimed gain.

Optional steps, each run once per side:
  --traced-seed S    `perfbench/run.py --trace 1` at seed S; every per-layer
                     metric is recorded for both sides.
  --digest-seeds S,T every CSV the workload's subcommands write at these
                     seeds, hashed with sha256 on both sides and compared.

Interrupted by SIGINT or SIGTERM, the tool stops the run in progress
(perfbench/run.py kills its podd processes on SIGINT) and removes its
copies of the two commits.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30.0
# How long an interrupted child gets to stop after SIGINT before SIGKILL.
STOP_S = 10.0

# Run in a checkout: the sha256 of every CSV that the workload's configs
# write at each seed, in process and at one worker.
_DIGEST_SNIPPET = """\
import hashlib, json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
from podd.cli import parse_config, run_experiment
out = {}
for seed in map(int, sys.argv[2:]):
    for kind, doc in workloads.configs(sys.argv[1], seed):
        with tempfile.TemporaryDirectory() as d:
            run_experiment(parse_config(doc), d)
            for p in sorted(Path(d).glob("*.csv")):
                out[f"seed{seed}/{kind}/{p.name}"] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
print(json.dumps(out))
"""


def parse_seeds(text: str) -> list[int]:
    """'801-810' or '801,805,809' as a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_child(argv, cwd) -> subprocess.CompletedProcess:
    """subprocess.run(argv, cwd=cwd, capture_output=True, text=True), except
    that if this process is interrupted the child is sent SIGINT, so that
    perfbench/run.py can kill its own podd process group, and is killed if
    it has not exited STOP_S seconds later."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=STOP_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def unpack(rev: str, dest: Path) -> str:
    """Extract the tree of `rev` into dest; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                           check=True, capture_output=True,
                           text=True).stdout.strip()
    blob = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return short


def bench(copy: Path, workload: str, seed: int, trace: int):
    """One perfbench run in `copy`: its JSON result line and run context."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    proc = run_child(argv, copy)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{argv} in {copy} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    record = copy / ".perfbench_work" / "results" / \
        f"{workload}-seed{seed}-trace{trace}.json"
    context = json.loads(record.read_text())["context"]
    return result, context


def digests(copy: Path, workload: str, seeds) -> dict:
    proc = run_child([sys.executable, "-c", _DIGEST_SNIPPET, workload,
                      *map(str, seeds)], copy)
    proc.check_returncode()
    return json.loads(proc.stdout)


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarise(parent_runs, change_runs, better: str) -> dict:
    """Medians of both sides, the parent's interquartile distance, the
    number of pairs in which the change was better, the quartiles of
    change/parent over the pairs whose parent value is not 0, and whether
    the change resolves as a gain: it won at least 9 pairs in 10, and its
    median is better than the parent's by more than the parent's
    interquartile distance."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent_runs, change_runs))
    q1, _, q3 = quartiles(parent_runs)
    gap = sign * (statistics.median(parent_runs)
                  - statistics.median(change_runs))
    ratios = [c / p for p, c in zip(parent_runs, change_runs) if p]
    r1, r2, r3 = ([round(v, 4) for v in quartiles(ratios)] if ratios
                  else [None] * 3)
    return {"parent_median": round(statistics.median(parent_runs), 4),
            "change_median": round(statistics.median(change_runs), 4),
            "change_wins": wins,
            "parent_iqr": round(q3 - q1, 4),
            "resolved": 10 * wins >= 9 * len(parent_runs) and gap > q3 - q1,
            "ratio_median": r2,
            "ratio_quartiles": [r1, r3],
            "parent_runs": [round(v, 4) for v in parent_runs],
            "change_runs": [round(v, 4) for v in change_runs]}


def run_workload(sides, workload, seeds, better) -> dict:
    runs = {"parent": [], "change": []}
    contexts = {"parent": [], "change": []}
    clean = True
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result, context = bench(sides[side], workload, seed, 0)
            clean &= result["correct"] and result["failed"] == 0
            runs[side].append({k: v["value"]
                               for k, v in result["metrics"].items()})
            contexts[side].append(context)
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in runs[side][-1].items()),
                flush=True)
    metrics = {}
    for name in runs["parent"][0]:
        metrics[name] = summarise([r[name] for r in runs["parent"]],
                                  [r[name] for r in runs["change"]],
                                  better[name])
    return {"seeds": list(seeds), "pairs": len(seeds),
            "correct_and_0_failed": clean, "metrics": metrics,
            "context": contexts}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", default="HEAD", help="git revision of the change")
    p.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    p.add_argument("--host", default=f"{os.cpu_count()}-CPU {platform.machine()}",
                   help="description of the machine, recorded as given")
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--digest-seeds", default=None)
    p.add_argument("runs", nargs="+", metavar="WORKLOAD=SEEDS",
                   help="a workload and its seeds, as 801-810 or 801,803")
    args = p.parse_args(argv)
    plan = []
    for spec in args.runs:
        workload, _, seeds = spec.partition("=")
        plan.append((workload, parse_seeds(seeds)))

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        revs = {side: unpack(getattr(args, side), path)
                for side, path in sides.items()}
        doc = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"]
                  for m in doc["end_to_end"] + doc["per_layer"]}
        out = {"benchmark": "python3 perfbench/run.py --workload W --seed S "
                            f"--seconds {SECONDS:g} --trace 0",
               "parent": revs["parent"], "change": revs["change"],
               "host": args.host,
               "order": "pairs alternate which side runs first "
                        "(odd seed: parent first)",
               "medians": "median over runs of each run's reported value; "
                          "parent_iqr is the distance between the quartiles "
                          "of the parent's runs; ratio_median and "
                          "ratio_quartiles are the median and the first and "
                          "third quartiles of change/parent over the pairs; "
                          "resolved: the change won at least 9 pairs in 10 "
                          "and its median is better by more than parent_iqr",
               "workloads": {}}
        for workload, seeds in plan:
            out["workloads"][workload] = run_workload(
                sides, workload, seeds, better)
        if args.traced_seed is not None:
            traced = out[f"traced_seed_{args.traced_seed}"] = {}
            for workload, _ in plan:
                res = {side: bench(path, workload, args.traced_seed, 1)[0]
                       for side, path in sides.items()}
                traced[workload] = {
                    name: {side: res[side]["metrics"][name]["value"]
                           for side in sides}
                    for name in res["parent"]["metrics"]}
                traced[workload]["correct"] = {side: res[side]["correct"]
                                               for side in sides}
        if args.digest_seeds:
            seeds = parse_seeds(args.digest_seeds)
            same = out["csv_sha256_equal"] = {"seeds": seeds}
            for workload, _ in plan:
                d = {side: digests(path, workload, seeds)
                     for side, path in sides.items()}
                same[workload] = {"files": len(d["parent"]),
                                  "equal": d["parent"] == d["change"]}
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like SIGINT, so the copies are removed and the running
    # child is stopped
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    sys.exit(main())
