"""The benchmark's workloads: podd configs per workload and the checks that
every CSV a subcommand writes must pass.

Each workload is a fixed sequence of `podd` subcommands run closed loop (the
next starts when the previous one exits).  Sizes come in two grades: the full
ones the benchmark measures, and tiny ones for the smoke mode.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("long-run", "many-reps", "exact")

# Worker count per workload.  many-reps uses 2, the core count of the machine
# the sizes were tuned on, so that pool overhead shows in cpu_s against wall_s.
WORKERS = {"long-run": 1, "many-reps": 2, "exact": 1}

# rates-check evaluates exact kernels on a deterministic grid: its CSV must
# not depend on the seed.  Every other subcommand here draws random numbers.
SEED_FREE = frozenset({"rates-check"})

_FULL = {
    "long-run": [
        ("stationary", {"N": [1000], "D": [2], "lambda": [0.9],
                        "horizon": 120.0, "warmup": 20.0, "k_max": 6,
                        "service": {"kind": "hyperexponential", "cv2": 4},
                        "discipline": "PS"}),
        ("simulate", {"N": [100], "D": [2], "lambda": [0.9],
                      "horizon": 100.0, "replications": 8,
                      "service": {"kind": "erlang", "shape": 4},
                      "discipline": "LIFO_PR", "init": "geometric",
                      "record_events": True}),
    ],
    "many-reps": [
        ("chaos", {"N": [200, 400], "D": [2], "lambda": [0.5], "t": [1.0],
                   "k": [0, 1, 2], "l": [0, 1, 2], "replications": 400}),
        ("tagged", {"N": [200], "D": [2], "lambda": [0.5], "t": [2.0],
                    "replications": 400}),
        ("coupled", {"N": [100], "D": [2], "lambda": [0.5], "horizon": 4.0,
                     "replications": 400}),
    ],
    "exact": [
        ("rates-check", {"N": list(range(2, 33)), "D": [1, 2, 3, 4, 5],
                         "lambda": [0.5]}),
        ("clan", {"N": [50, 200], "D": [2, 3], "lambda": [0.5],
                  "t": [0.25, 0.5, 1.0], "replications": 1500}),
    ],
}

_SMOKE = {
    "long-run": [
        ("stationary", {"N": [50], "D": [2], "lambda": [0.9],
                        "horizon": 30.0, "warmup": 5.0, "k_max": 6,
                        "service": {"kind": "hyperexponential", "cv2": 4},
                        "discipline": "PS"}),
        ("simulate", {"N": [20], "D": [2], "lambda": [0.9], "horizon": 5.0,
                      "replications": 2,
                      "service": {"kind": "erlang", "shape": 4},
                      "discipline": "LIFO_PR", "init": "geometric",
                      "record_events": True}),
    ],
    "many-reps": [
        ("chaos", {"N": [20, 40], "D": [2], "lambda": [0.5], "t": [1.0],
                   "k": [0, 1, 2], "l": [0, 1, 2], "replications": 30}),
        ("tagged", {"N": [20], "D": [2], "lambda": [0.5], "t": [2.0],
                    "replications": 30}),
        ("coupled", {"N": [10], "D": [2], "lambda": [0.5], "horizon": 1.0,
                     "replications": 10}),
    ],
    "exact": [
        ("rates-check", {"N": list(range(2, 9)), "D": [1, 2, 3, 4, 5],
                         "lambda": [0.5]}),
        ("clan", {"N": [10, 20], "D": [2, 3], "lambda": [0.5],
                  "t": [0.25, 0.5, 1.0], "replications": 100}),
    ],
}


def configs(workload: str, seed: int, smoke: bool = False):
    """(subcommand, config document) pairs of one workload, seeded."""
    table = _SMOKE if smoke else _FULL
    return [(kind, {"kind": kind, **doc, "seed": seed})
            for kind, doc in table[workload]]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

HEADERS = {
    "stationary.csv": ["N", "D", "lambda", "k", "p_hat", "ci", "p_star"],
    "trajectory.csv": ["rep", "N", "D", "lambda", "t", "k", "pi_k"],
    "events.csv": ["rep", "time", "kind", "server", "zeta"],
    "chaos.csv": ["N", "D", "lambda", "t", "k", "l", "cov", "ci", "bound",
                  "ok"],
    "tagged.csv": ["N", "D", "lambda", "t", "tv", "tv_ci"],
    "coupled.csv": ["rep", "N", "D", "lambda", "horizon", "yellow", "red",
                    "blue", "tagged_small", "tagged_large"],
    "rates_check.csv": ["N", "D", "lambda", "pi_k", "pi_k1", "rate",
                        "identity_ok", "uniform_ok", "consistency_ok",
                        "monotone_above", "monotone_equal", "below_decrease"],
    "clan.csv": ["N", "D", "lambda", "t", "mean_size", "size_ci",
                 "size_bound", "p_intersect", "p_ci", "intersect_bound", "ok"],
}

# Columns that must read 1 on every row.
GATED = ("identity_ok", "uniform_ok", "consistency_ok", "ok")

# Known-red comparisons of criterion 2: reported as counts, never gated.
KNOWN_RED = {"monotone_equal": "0", "below_decrease": "1"}

# Columns holding something other than one number.
_TEXT = {"kind", "zeta"}

# Sample times per replication in simulate's trajectory: the CLI samples 65
# evenly spaced times when the config gives no sample_times.
_SIM_SAMPLES = 65


@dataclass
class CsvReport:
    """What one subcommand's CSVs held, and every way they were wrong."""

    rows: int = 0
    bytes: int = 0
    known_red: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _cells(doc, need):
    out = []
    for n in doc["N"]:
        for d in doc["D"]:
            for lam in doc["lambda"]:
                if need(n, d):
                    out.append((n, d, lam))
    return out


def _expected_rows(kind, doc):
    """Exact row count per CSV, or None where it depends on the sample path
    (checked structurally instead)."""
    if kind == "stationary":
        return {"stationary.csv": len(_cells(doc, lambda n, d: d <= n))
                * (doc["k_max"] + 1)}
    if kind == "simulate":
        return {"trajectory.csv": None, "events.csv": None}
    if kind == "chaos":
        return {"chaos.csv": len(_cells(doc, lambda n, d: d <= n))
                * len(doc["t"]) * len(doc["k"]) * len(doc["l"])}
    if kind == "tagged":
        return {"tagged.csv": len(_cells(doc, lambda n, d: d <= n))
                * len(doc["t"])}
    if kind == "coupled":
        return {"coupled.csv": len(_cells(doc, lambda n, d: d <= n))
                * doc["replications"]}
    if kind == "rates-check":
        return {"rates_check.csv": sum(
            n * (n + 1) // 2
            for n, d, _ in _cells(doc, lambda n, d: n >= 2 and 1 <= d <= n))}
    if kind == "clan":
        return {"clan.csv": len(_cells(doc, lambda n, d: n > d))
                * len(doc["t"])}
    raise ValueError(f"no checks for subcommand {kind!r}")


def _check_simulate(name, doc, rows, errors):
    reps = doc["replications"]
    n_servers = doc["N"][0]
    if name == "trajectory.csv":
        # per (rep, t): levels k = 0..K in order, pi_0 = N, pi_k non-increasing
        groups = {}
        for r in rows:
            groups.setdefault((r[0], r[4]), []).append(r)
        per_rep = {}
        for (rep, _), g in groups.items():
            per_rep[rep] = per_rep.get(rep, 0) + 1
            ks = [int(x[5]) for x in g]
            pis = [int(x[6]) for x in g]
            if (ks != list(range(len(ks))) or pis[0] != n_servers
                    or any(b > a for a, b in zip(pis, pis[1:]))):
                errors.append(f"{name}: malformed snapshot rep={rep}")
                return
        if sorted(per_rep.values()) != [_SIM_SAMPLES] * reps:
            errors.append(f"{name}: expected {_SIM_SAMPLES} samples for "
                          f"each of {reps} replications")
    else:
        # Poisson arrival count per replication, far inside six sigmas
        mean = doc["lambda"][0] * n_servers * doc["horizon"]
        counts = {}
        for r in rows:
            counts[r[0]] = counts.get(r[0], 0) + 1
            if r[2] != "A" or len(r[4].split("|")) != doc["D"][0]:
                errors.append(f"{name}: malformed event row {r}")
                return
        if len(counts) != reps or any(
                abs(c - mean) > 6 * math.sqrt(mean) + 1 for c in counts.values()):
            errors.append(f"{name}: arrival counts {sorted(counts.values())} "
                          f"off the Poisson mean {mean:g}")


def check_outputs(kind: str, doc: dict, out_dir: Path) -> CsvReport:
    """Check the CSVs of one subcommand run: header, row count, every number
    finite, every gated column equal to 1."""
    rep = CsvReport()
    expected = _expected_rows(kind, doc)
    present = sorted(p.name for p in out_dir.glob("*.csv"))
    if present != sorted(expected):
        rep.errors.append(f"CSV files {present}, expected {sorted(expected)}")
        return rep
    for name, n_rows in expected.items():
        path = out_dir / name
        rep.bytes += path.stat().st_size
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
        rep.rows += len(rows)
        if header != HEADERS[name]:
            rep.errors.append(f"{name}: header {header}")
            continue
        if n_rows is not None and len(rows) != n_rows:
            rep.errors.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        numeric = [i for i, h in enumerate(header) if h not in _TEXT]
        bad = [r for r in rows if len(r) != len(header) or not all(
            _finite(r[i]) for i in numeric)]
        if bad:
            rep.errors.append(f"{name}: {len(bad)} rows with a missing or "
                              f"non-finite number, first {bad[0]}")
            continue
        for col in GATED:
            if col in header:
                i = header.index(col)
                n_bad = sum(r[i] != "1" for r in rows)
                if n_bad:
                    rep.errors.append(f"{name}: {col} != 1 on {n_bad} rows")
        for col, red in KNOWN_RED.items():
            if col in header:
                i = header.index(col)
                rep.known_red[col] = sum(r[i] == red for r in rows)
        if kind == "simulate":
            _check_simulate(name, doc, rows, rep.errors)
    return rep
