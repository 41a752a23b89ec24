import csv
import hashlib
import importlib.util
import json
import math
import os
import pickle
import platform
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import podd.cli
from podd.cli import ConfigError, main, parse_config, run_experiment
from podd.rates import asymptotic_tail


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


MINIMAL_BOUNDS = {"kind": "bounds", "N": [100], "D": [2], "lambda": [0.5],
                  "t": [1.0], "seed": 1}


class TestParseConfig:
    def test_minimal_valid(self):
        spec = parse_config(json.dumps(MINIMAL_BOUNDS))
        assert spec.kind == "bounds"
        assert spec.N == (100,) and spec.lam == (0.5,)

    def test_missing_seed_names_field(self):
        doc = {k: v for k, v in MINIMAL_BOUNDS.items() if k != "seed"}
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps(doc))

    def test_supercritical_load_rejected(self):
        doc = {**MINIMAL_BOUNDS, "lambda": [1.0]}
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = {**MINIMAL_BOUNDS, "horizont": 3}
        with pytest.raises(ConfigError, match="horizont"):
            parse_config(json.dumps(doc))

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(json.dumps(MINIMAL_BOUNDS), kind="clan")

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{nope")

    @pytest.mark.parametrize("times", [[-0.5, 1.0], [1.0, 2.5], [math.nan]])
    def test_sample_times_outside_horizon_rejected(self, times):
        doc = {"kind": "simulate", "N": [10], "D": [2], "lambda": [0.5],
               "horizon": 2.0, "seed": 4, "sample_times": times}
        with pytest.raises(ConfigError, match="sample_times"):
            parse_config(doc)

    def test_sample_times_at_both_ends_accepted(self):
        doc = {"kind": "simulate", "N": [10], "D": [2], "lambda": [0.5],
               "horizon": 2.0, "seed": 4, "sample_times": [0, 2.0]}
        assert parse_config(doc).sample_times == (0.0, 2.0)

    @pytest.mark.parametrize("field", ["k", "l"])
    def test_negative_level_rejected(self, field):
        doc = {"kind": "chaos", "N": [10], "D": [2], "lambda": [0.5],
               "t": [1.0], "k": [1], "l": [1], "replications": 30, "seed": 1,
               field: [-1]}
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config(doc)

    def test_round_trip(self):
        docs = [
            MINIMAL_BOUNDS,
            {"kind": "simulate", "N": [10], "D": [2], "lambda": [0.5],
             "horizon": 2.0, "seed": 4, "discipline": "PS",
             "service": {"kind": "erlang", "shape": 4}, "replications": 2},
            {"kind": "stationary", "N": [20], "D": [1], "lambda": [0.6],
             "horizon": 50.0, "seed": 9, "k_max": 3},
        ]
        for doc in docs:
            spec = parse_config(json.dumps(doc))
            assert parse_config(spec.to_json()) == spec


# service parameters that parse_config used to accept: the run hung, ran
# another law or ended in a traceback
SIM4 = {"kind": "simulate", "N": [4], "D": [2], "lambda": [0.5],
        "horizon": 2.0, "seed": 1}
BAD_SERVICES = {
    "lognormal-sigma-nan": {"kind": "lognormal", "sigma": math.nan},
    "erlang-shape-2.5": {"kind": "erlang", "shape": 2.5},
    "erlang-shape-true": {"kind": "erlang", "shape": True},
    "hyperexp-cv2-inf": {"kind": "hyperexponential", "cv2": math.inf},
    "hyperexp-cv2-nan": {"kind": "hyperexponential", "cv2": math.nan},
    "weibull-gamma-overflow": {"kind": "weibull", "shape": 0.005},
    # Gamma is finite, but a draw can round to a 0.0 service time
    "weibull-shape-0.006": {"kind": "weibull", "shape": 0.006},
    "weibull-shape-0.02": {"kind": "weibull", "shape": 0.02},
    # keys the kind does not take were dropped: these ran the rate-1
    # exponential and the cv2 = 4 law
    "exponential-rate": {"kind": "exponential", "rate": 2.0},
    "hyperexp-cv2-and-phases": {"kind": "hyperexponential", "cv2": 4,
                                "weights": [1], "rates": [5]},
}


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "bounds", "seed": 1})
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sample_time_over_horizon_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kind": "simulate", "N": [10], "D": [2],
                                      "lambda": [0.5], "horizon": 2.0,
                                      "seed": 1, "sample_times": [1.0, 3.0]})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "sample_times" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # configs that parse_config used to accept and a driver then refused
    # with a traceback (exit 1)
    CHAOS = {"kind": "chaos", "N": [10], "D": [2], "lambda": [0.5],
             "t": [1.0], "k": [1], "l": [1], "replications": 30, "seed": 1}

    @pytest.mark.parametrize("doc,field", [
        ({**CHAOS, "replications": 29}, "replications"),
        ({**CHAOS, "t": [0.0, 1.0]}, "t"),
        ({"kind": "tagged", "N": [10], "D": [2], "lambda": [0.5], "t": [0],
          "replications": 30, "seed": 1}, "t"),
        ({"kind": "stationary", "N": [10], "D": [2], "lambda": [0.5],
          "horizon": 50.0, "n_batches": 19, "seed": 1}, "n_batches"),
        # the default warm-up 10/(1-lambda) = 20 is past the horizon
        ({"kind": "stationary", "N": [10], "D": [2], "lambda": [0.5],
          "horizon": 5.0, "seed": 1}, "horizon"),
        ({"kind": "rates-check", "N": [3], "D": [2], "lambda": [0.9999999],
          "seed": 1}, "lambda"),
        ({"kind": "simulate", "N": [10], "D": [2], "lambda": [0.5],
          "horizon": math.inf, "seed": 1}, "horizon"),
        ({"kind": "simulate", "N": [10], "D": [2], "lambda": [0.5],
          "horizon": 2.0, "seed": 1, "service": [1]}, "service"),
        # RngStream keys take a seed below 2**64; it was masked to 64 bits,
        # so 2**64 + 5 ran the streams of seed 5
        ({**SIM4, "seed": 2**64 + 5}, "seed"),
        *[({**SIM4, "service": v}, "service") for v in BAD_SERVICES.values()],
    ], ids=["chaos-replications", "chaos-t-zero", "tagged-t-zero",
            "stationary-n-batches", "stationary-horizon-before-warmup",
            "rates-check-load-rounds-to-1",
            "simulate-horizon-inf", "simulate-service-not-object",
            "seed-past-2**64", *BAD_SERVICES])
    def test_driver_refusal_is_2(self, tmp_path, capsys, doc, field):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main([doc["kind"], "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    # a missing key was reported by its bare KeyError text: "service: 'shape'"
    @pytest.mark.parametrize("service,key", [
        ({"kind": "erlang"}, "shape"),
        ({"kind": "hyperexponential", "weights": [1]}, "rates"),
    ], ids=["erlang-shape", "hyperexp-rates"])
    def test_missing_service_key_names_kind_and_key(self, tmp_path, capsys,
                                                    service, key):
        cfg = write_config(tmp_path, {**SIM4, "service": service})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"config error: service: missing key '{key}'; "
                f"{service['kind']} takes") in err
        assert not out.exists()

    def test_weibull_shape_above_cutoff_runs(self, tmp_path):
        cfg = write_config(tmp_path, {**SIM4, "service": {"kind": "weibull",
                                                          "shape": 0.1}})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    # --workers 0 and -3 ran at one worker
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_2(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, MINIMAL_BOUNDS)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--config", cfg, "--out", str(out),
                  "--workers", workers])
        assert exit_info.value.code == 2
        assert (f"argument --workers: must be at least 1, got {int(workers)}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_missing_file_is_2(self, tmp_path):
        assert main(["bounds", "--config", str(tmp_path / "nope.json")]) == 2

    # each of the next three exited 1 with a traceback
    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"kind": "\xe9"}')
        assert main(["bounds", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_deeply_nested_config_is_a_config_error(self):
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_config("[" * 200000)

    def test_out_naming_a_file_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_BOUNDS)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_fork_is_2(self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        cfg = write_config(tmp_path, {**SIM4, "replications": 2})
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "o"), "--workers", "2"]) == 2
        assert capsys.readouterr().err == \
            "error: [Errno 11] Resource temporarily unavailable\n"

    def test_workers_above_1_without_fork_is_2(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.delattr(os, "fork")
        cfg = write_config(tmp_path, MINIMAL_BOUNDS)
        out = tmp_path / "o"
        assert main(["bounds", "--config", cfg, "--out", str(out),
                     "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "os.fork" in err and err.count("\n") == 1
        assert not out.exists()
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0

    def test_rates_check_clean_grid_is_0(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "rates-check", "N": [6, 9],
                                      "D": [2, 3], "lambda": [0.5], "seed": 1})
        out = tmp_path / "rc"
        assert main(["rates-check", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "rates_check.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(r["identity_ok"] == "1" for r in rows)
        assert all(r["consistency_ok"] == "1" for r in rows)
        assert all(r["uniform_ok"] == "1" for r in rows)
        assert all(r["monotone_above"] == "1" for r in rows)

    def test_rates_check_identity_off_by_one_is_1(self, tmp_path, monkeypatch):
        # one unit more in the hyper numerator on one row must fail that
        # row; the kernel gets every row of a cell as arrays
        import podd.cli
        real = podd.cli.arrival_rate_hyper

        def skewed(n, d, pi_k, pi_k1):
            p, q = real(n, d, pi_k, pi_k1)
            return p + ((pi_k == 4) & (pi_k1 == 1)), q

        monkeypatch.setattr(podd.cli, "arrival_rate_hyper", skewed)
        cfg = write_config(tmp_path, {"kind": "rates-check", "N": [6],
                                      "D": [3], "lambda": [0.3], "seed": 1})
        out = tmp_path / "rc"
        assert main(["rates-check", "--config", cfg, "--out", str(out)]) == 1
        with open(out / "rates_check.csv") as fh:
            bad = [(r["pi_k"], r["pi_k1"]) for r in csv.DictReader(fh)
                   if r["identity_ok"] != "1"]
        assert bad == [("4", "1")]

    def test_rates_check_plus_one_skew_is_1(self, tmp_path, monkeypatch):
        # one unit more in one relation's (n+1)-system numerator, on one row
        # of one cell, must fail that row's consistency and no other
        import podd.cli
        real = podd.cli.arrival_rate_plus_one

        def skewed(n, d, pi_k, pi_k1, relation):
            p, q = real(n, d, pi_k, pi_k1, relation)
            hit = (n, relation) == (6, "equal")
            return p + (hit & (pi_k == 4) & (pi_k1 == 1)), q

        monkeypatch.setattr(podd.cli, "arrival_rate_plus_one", skewed)
        cfg = write_config(tmp_path, {"kind": "rates-check", "N": [6, 7],
                                      "D": [3], "lambda": [0.3], "seed": 1})
        out = tmp_path / "rc"
        assert main(["rates-check", "--config", cfg, "--out", str(out)]) == 1
        with open(out / "rates_check.csv") as fh:
            rows = list(csv.DictReader(fh))
        bad = [(r["N"], r["pi_k"], r["pi_k1"]) for r in rows
               if r["consistency_ok"] != "1"]
        assert bad == [("6", "4", "1")]
        assert all(r["identity_ok"] == "1" for r in rows)

    def test_rates_check_uniform_bound_is_tight_at_d1(self, tmp_path,
                                                       monkeypatch):
        # at d = 1 every rate equals lam, which is also the bound: the clean
        # grid passes only if the check is <=, and one unit less in the
        # bound's numerator fails exactly the D = 1 rows
        import podd.cli
        cfg = write_config(tmp_path, {"kind": "rates-check", "N": [5, 8],
                                      "D": [1, 2], "lambda": [0.3], "seed": 1})

        def uniform_column(out):
            code = main(["rates-check", "--config", cfg, "--out", str(out)])
            with open(out / "rates_check.csv") as fh:
                return code, [(r["D"], r["uniform_ok"])
                              for r in csv.DictReader(fh)]

        code, clean = uniform_column(tmp_path / "clean")
        assert code == 0
        assert {d for d, _ in clean} == {"1", "2"}
        assert all(ok == "1" for _, ok in clean)

        real = podd.cli.uniform_rate_bound

        def lowered(d):
            p, q = real(d)
            return (p - 1, q) if d == 1 else (p, q)

        monkeypatch.setattr(podd.cli, "uniform_rate_bound", lowered)
        code, skewed = uniform_column(tmp_path / "skew")
        assert code == 1
        assert [ok for _, ok in skewed] == [
            "0" if d == "1" else "1" for d, _ in clean]


class _Peak(np.ndarray):
    """An array whose ufuncs record in `largest` the largest magnitude of
    every operand and result they see; ufuncs on plain arrays do not."""

    largest = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _Peak) else a

        if "out" in kwargs:
            kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
        args = [plain(a) for a in inputs]
        result = getattr(ufunc, method)(*args, **kwargs)
        for a in (*args, result):
            size = (int(np.abs(a).max(initial=0))
                    if isinstance(a, np.ndarray) else abs(int(a)))
            _Peak.largest = max(_Peak.largest, size)
        return (result.view(_Peak) if isinstance(result, np.ndarray)
                else result)


class TestRatesCheckDtype:
    """rates-check compares rates in int64 only where `exact_dtype`'s bound
    keeps every value below 2**63, where int64 would otherwise wrap."""

    def test_int64_cells_stay_below_2_63(self, tmp_path, monkeypatch):
        # every (n, d) cell with n <= 60 and d <= 20 that the rule sends to
        # int64, run by the CLI in Python ints, with every array operation
        # inside the kernels and in the check recorded: each kernel gets
        # its occupancy arrays, and `_comb` gives its result, as a _Peak.
        # At lambda = 1/2 the rate column's lam_p P and lam_r Q are at
        # most 2 Q, so they stay in range too.
        import podd.rates

        def peak_args(kernel):
            def wrapped(n, d, pi_k, pi_k1, *rest):
                return kernel(n, d, pi_k.astype(object).view(_Peak),
                              pi_k1.astype(object).view(_Peak), *rest)
            return wrapped

        real_comb = podd.rates._comb
        monkeypatch.setattr(podd.rates, "_comb",
                            lambda x, r: real_comb(x, r).view(_Peak))
        for name in ("arrival_rate_closed", "arrival_rate_hyper",
                     "arrival_rate_plus_one"):
            monkeypatch.setattr(podd.cli, name,
                                peak_args(getattr(podd.cli, name)))
        monkeypatch.setattr(_Peak, "largest", 0)
        cells = 0
        for n in range(2, 61):
            ds = [d for d in range(1, min(n, 20) + 1)
                  if podd.cli.exact_dtype(n, d) == np.int64]
            cells += len(ds)
            spec = parse_config({"kind": "rates-check", "N": [n], "D": ds,
                                 "lambda": [0.5], "seed": 0})
            assert run_experiment(spec, str(tmp_path / str(n))) == 0
        # the largest value comes within a factor of 4 of the limit
        assert 2**61 < _Peak.largest < 2**63
        assert cells == 382

    def test_exact_workload_takes_int64(self, monkeypatch):
        # the benchmark's exact workload runs every cell of its rates-check
        # config in int64; in Python ints that config takes about 1.8 times
        # as long, which CHANGES.md measures against the exact wall_s claim
        path = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      path / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        [doc] = [doc for kind, doc in workloads.configs("exact", 0)
                 if kind == "rates-check"]
        cells = list(podd.cli._cells(parse_config(doc), "N", "D"))
        assert len(cells) == 149
        assert {podd.cli.exact_dtype(n, d) for n, d in cells} == {
            np.dtype(np.int64)}

    def test_cells_run_in_the_rule_dtype(self, tmp_path, monkeypatch):
        # the kernels get each cell's rows in `exact_dtype(n, d)`: (16, 5)
        # is an int64 cell, (16, 14) a Python-int one
        seen = []
        real = podd.cli.arrival_rate_hyper

        def spy(n, d, pi_k, pi_k1):
            seen.append((n, d, pi_k.dtype, pi_k1.dtype, pi_k.size))
            return real(n, d, pi_k, pi_k1)

        monkeypatch.setattr(podd.cli, "arrival_rate_hyper", spy)
        spec = parse_config({"kind": "rates-check", "N": [16], "D": [5, 14],
                             "lambda": [0.5], "seed": 0})
        assert run_experiment(spec, str(tmp_path)) == 0
        int64, obj = np.dtype(np.int64), np.dtype(object)
        assert seen == [(16, 5, int64, int64, 136), (16, 14, obj, obj, 136)]


class TestBounds:
    def test_t_zero_chaos_is_one_over_n(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "bounds", "N": [50, 200],
                                      "D": [2], "lambda": [0.5], "t": [0.0],
                                      "seed": 1})
        out = tmp_path / "b"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "bounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["cov_bound"]) == 1.0 / int(r["N"])

    def test_limit_past_float_range_reads_inf(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "bounds", "N": [200],
                                      "D": [10], "lambda": [0.9], "t": [1.0],
                                      "seed": 1})
        out = tmp_path / "b"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "bounds.csv") as fh:
            row, = csv.DictReader(fh)
        assert row["cov_bound_limit"] == "inf"

    def test_finite_where_n_times_growth_passes_float_range(self, tmp_path):
        # growth 1.12e306 times N = 2000 is past the float range; the bounds
        # used to read inf there
        cfg = write_config(tmp_path, {"kind": "bounds", "N": [2000],
                                      "D": [2], "lambda": [0.5], "t": [352.0],
                                      "seed": 1})
        out = tmp_path / "b"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "bounds.csv") as fh:
            row, = csv.DictReader(fh)
        assert row["size_bound"] == "2000.0"
        # 3,135,604.965 in 60-digit decimal arithmetic
        assert math.isclose(float(row["intersect_bound"]), 3135604.965,
                            rel_tol=1e-9)
        for col in ("cov_bound", "tail_cov_bound"):
            assert math.isfinite(float(row[col]))

    def test_large_d_reads_as_d_20(self, tmp_path):
        # 2 ** (D - 1) is past the float range from D = 1025 and 1.5 ** D
        # from D = 1751: at t = 0 the rows still read growth 1, size 1,
        # intersect 0, cov and limit 1/N and tail N; at t = 1 they read inf
        # (size N), as at D = 20
        cfg = write_config(tmp_path, {"kind": "bounds", "N": [2000],
                                      "D": [20, 1100, 1800], "lambda": [0.5],
                                      "t": [0.0, 1.0], "seed": 1})
        out = tmp_path / "b"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "bounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        bounds = ["growth", "size_bound", "intersect_bound", "cov_bound",
                  "cov_bound_limit", "tail_cov_bound"]
        got = {(r["D"], r["t"]): [r[c] for c in bounds] for r in rows}
        assert got[("20", "0.0")] == ["1.0", "1.0", "0.0", "0.0005", "0.0005",
                                      "2000.0"]
        assert got[("20", "1.0")] == ["inf", "2000.0"] + ["inf"] * 4
        for d in ("1100", "1800"):
            for t in ("0.0", "1.0"):
                assert got[(d, t)] == got[("20", t)]


class TestStationaryOutput:
    def test_p_star_column(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "stationary", "N": [30],
                                      "D": [2], "lambda": [0.5],
                                      "horizon": 120.0, "seed": 7, "k_max": 3})
        out = tmp_path / "s"
        assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "stationary.csv") as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            k = int(r["k"])
            assert float(r["p_star"]) == float(asymptotic_tail(2, 0.5, k))


    def test_p_star_past_float_exponent_range(self, tmp_path):
        # at k = 1100 the exponent 2**1100 - 1 no longer converts to a float
        cfg = write_config(tmp_path, {"kind": "stationary", "N": [2],
                                      "D": [2], "lambda": [0.5],
                                      "horizon": 100.0, "seed": 1,
                                      "k_max": 1100})
        out = tmp_path / "s"
        assert main(["stationary", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "stationary.csv") as fh:
            p_star = [float(r["p_star"]) for r in csv.DictReader(fh)]
        assert len(p_star) == 1101
        assert p_star[10] > 0.0
        assert p_star[11:] == [0.0] * 1090


class TestManifest:
    def test_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_BOUNDS)
        out = tmp_path / "m"
        main(["bounds", "--config", cfg, "--out", str(out)])
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        spec = parse_config(json.dumps(MINIMAL_BOUNDS))
        assert parse_config(manifest["spec"]) == spec
        assert manifest["seed"] == 1

    def test_records_what_the_run_ran_on(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_BOUNDS)
        out = tmp_path / "m"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert (manifest["openblas_num_threads"]
                == os.environ.get("OPENBLAS_NUM_THREADS"))

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_BOUNDS)
        out = tmp_path / "m2"
        main(["bounds", "--config", cfg, "--out", str(out), "--seed", "42"])
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["seed"] == 42

    def test_seed_override_matches_seed_in_file(self, tmp_path):
        # a hyperexponential whose rescaled rates move by an ulp if rescaled
        # again; --seed re-parses the spec's config form
        doc = {"kind": "simulate", "N": [4], "D": [2], "lambda": [0.5],
               "horizon": 1.0,
               "service": {"kind": "hyperexponential", "weights": [0.3, 0.7],
                           "rates": [0.5, 5]}}
        manifests = []
        for name, seed, extra in (("in-file", 5, []),
                                  ("override", 1, ["--seed", "5"])):
            cfg = write_config(tmp_path, {**doc, "seed": seed},
                               name=f"{name}.json")
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         *extra]) == 0
            manifests.append(untimed_manifest(out))
        assert manifests[0] == manifests[1]


def untimed_manifest(out_dir):
    """manifest.json without its wall time, the one field that varies
    between runs of one config."""
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    del manifest["wall_time_s"]
    return manifest


def read_all(out_dir):
    blobs = {}
    for p in sorted(out_dir.iterdir()):
        if p.suffix == ".csv":
            blobs[p.name] = p.read_bytes()
    return blobs


class TestDeterminism:
    SIM = {"kind": "simulate", "N": [12], "D": [2], "lambda": [0.5],
           "horizon": 3.0, "seed": 11, "replications": 4,
           "record_events": True}

    def test_repeat_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert read_all(a) == read_all(b)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.SIM)
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["simulate", "--config", cfg, "--out", str(a),
                     "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b),
                     "--workers", "3"]) == 0
        assert read_all(a) == read_all(b)
        assert untimed_manifest(a) == untimed_manifest(b)

    TAGGED = {"kind": "tagged", "N": [10, 12], "D": [2], "lambda": [0.5],
              "t": [1.0], "replications": 30, "seed": 12}

    def test_one_fork_per_worker_per_run(self, tmp_path, monkeypatch):
        # the cavity map and one map per N each started the workers
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        cfg = write_config(tmp_path, self.TAGGED)
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["tagged", "--config", cfg, "--out", str(a),
                     "--workers", "1"]) == 0
        assert forks == []
        assert main(["tagged", "--config", cfg, "--out", str(b),
                     "--workers", "2"]) == 0
        assert len(forks) == 2
        assert read_all(a) == read_all(b)

    def test_import_leaves_the_pool_out(self, tmp_path):
        # a 1-worker run does not load podd.workers, and a 2-worker run
        # loads neither process-pool package
        cfg = write_config(tmp_path, self.TAGGED)
        script = """\
import json, sys
import podd.cli
cfg, out = sys.argv[1:]
seen = []
for w in "12":
    code = podd.cli.main(["tagged", "--config", cfg, "--out", out + w,
                          "--workers", w])
    seen.append([code, sorted(m for m in ("podd.workers", "multiprocessing",
                                          "concurrent.futures")
                              if m in sys.modules)])
print(json.dumps(seen))
"""
        proc = subprocess.run([sys.executable, "-c", script, cfg,
                               str(tmp_path / "o")], env=_podd_env(),
                              capture_output=True, text=True, check=True)
        assert json.loads(proc.stdout) == [[0, []], [0, ["podd.workers"]]]

    BY_KIND = {
        "chaos": {"N": [6, 8], "D": [2], "lambda": [0.5], "t": [0.5],
                  "k": [0, 1], "l": [1], "replications": 31},
        "tagged": {"N": [6, 8], "D": [2], "lambda": [0.5], "t": [0.5],
                   "replications": 31},
        "coupled": {"N": [5, 7], "D": [2], "lambda": [0.5], "horizon": 1.0,
                    "replications": 5},
        "simulate": {"N": [5], "D": [2], "lambda": [0.5, 0.7],
                     "horizon": 1.0, "replications": 3,
                     "record_events": True},
        "stationary": {"N": [6], "D": [2], "lambda": [0.4, 0.6],
                       "horizon": 40.0, "warmup": 5.0},
    }

    @pytest.mark.parametrize("kind", BY_KIND)
    def test_bytes_do_not_depend_on_workers(self, tmp_path, kind):
        # 31 replications over 2 or 3 workers leave them unequal shares
        cfg = write_config(tmp_path, {"kind": kind, "seed": 5,
                                      **self.BY_KIND[kind]})
        outs = []
        for workers in ("1", "2", "3"):
            outs.append(tmp_path / f"w{workers}")
            assert main([kind, "--config", cfg, "--out", str(outs[-1]),
                         "--workers", workers]) == 0
        assert read_all(outs[0])
        assert read_all(outs[0]) == read_all(outs[1]) == read_all(outs[2])


def _square(x):
    return x * x


def _raise_on_0_wait_on_1(x):
    if x == 0:
        raise ValueError("task 0 failed")
    if x == 1:
        time.sleep(60)
    return x


def _exit_3_on_1(x):
    if x == 1:
        os._exit(3)
    return x


class TestForkMap:
    """`_Pool.map` at more than one worker forks one child per worker
    (`podd.workers.fork_map`)."""

    def test_task_error_is_raised_in_the_parent(self):
        # worker 2 is still asleep when worker 1's error arrives: it is
        # killed, not waited for
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="task 0 failed") as info:
            podd.cli._Pool(2).map(_raise_on_0_wait_on_1, [0, 1, 2, 3])
        assert time.monotonic() - t0 < 30
        cause = str(info.value.__cause__)
        assert cause.startswith("worker 1 of 2 raised:\nTraceback")
        assert "in _raise_on_0_wait_on_1" in cause
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_that_dies_is_named_with_its_status(self):
        with pytest.raises(ChildProcessError,
                           match="^worker 2 of 3 ended with exit status 3 "
                                 "and sent no result$"):
            podd.cli._Pool(3).map(_exit_3_on_1, list(range(7)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers,tasks", [(2, []), (5, [1, 2, 3]),
                                               (2, list(range(9)))])
    def test_results_in_task_order(self, workers, tasks):
        assert podd.cli._Pool(workers).map(_square, tasks) == \
            [x * x for x in tasks]


def _podd_env(**extra):
    """The environment of a fresh interpreter that imports this podd,
    without OPENBLAS_NUM_THREADS (importing podd set it in this process)
    unless given in extra."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(podd.cli.__file__).parent.parent),
        os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


# In a fresh interpreter: the threads of the process after importing
# podd.cli, and the OPENBLAS_NUM_THREADS it then reads
_THREADS = ("import json, os, podd.cli; print(json.dumps("
            "[len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
class TestOneThread:
    def _threads(self, **extra):
        proc = subprocess.run([sys.executable, "-c", _THREADS],
                              env=_podd_env(**extra), capture_output=True,
                              text=True, check=True)
        return json.loads(proc.stdout)

    def test_import_starts_no_blas_thread(self):
        # OpenBLAS started a spinning thread per extra core when numpy
        # loaded it
        assert self._threads() == [1, "1"]

    def test_caller_setting_is_kept(self):
        assert self._threads(OPENBLAS_NUM_THREADS="2")[1] == "2"


class TestChaosCommand:
    def test_empty_start_is_built_once_per_cell(self, tmp_path, monkeypatch):
        # it was built for each of the 60 replications
        built = []
        empty = podd.cli.Configuration.empty

        def counted(n):
            built.append(n)
            return empty(n)

        monkeypatch.setattr(podd.cli.Configuration, "empty", counted)
        cfg = write_config(tmp_path, {"kind": "chaos", "N": [6], "D": [2],
                                      "lambda": [0.5], "t": [0.5, 1.0],
                                      "k": [1], "l": [1], "replications": 30,
                                      "seed": 1})
        assert main(["chaos", "--config", cfg, "--out",
                     str(tmp_path / "ch"), "--workers", "1"]) == 0
        assert built == [6, 6]

    def test_cells_without_room_for_the_bound_are_skipped(self, tmp_path):
        # chaos_bound needs N > D: a D = N cell ran its replications and then
        # stopped the run with a traceback (exit 1)
        cfg = write_config(tmp_path, {"kind": "chaos", "N": [3, 5], "D": [3],
                                      "lambda": [0.5], "t": [1.0], "k": [1],
                                      "l": [1], "replications": 30, "seed": 1})
        out = tmp_path / "ch"
        assert main(["chaos", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "chaos.csv") as fh:
            assert [r["N"] for r in csv.DictReader(fh)] == ["5"]


class TestWhatCrossesThePool:
    """A chaos replication returns its tail counts at t and a tagged one the
    length of server 0: the whole trajectory, with its N-long final lengths,
    pickled to 16 kB at N = 2000 and made the parent's memory grow with N."""

    @staticmethod
    def _pickled_sizes(n):
        cell = {"N": [n], "D": [2], "lambda": [0.5], "t": [1.0],
                "replications": 30, "seed": 1}
        chaos = parse_config({"kind": "chaos", "k": [0], "l": [0], **cell})
        tagged = parse_config({"kind": "tagged", **cell})
        snap = podd.cli._chaos_rep(
            podd.cli._run_tasks(chaos, "chaos", n, 2, 0.5, 1.0, [1.0])[0])
        length = podd.cli._tagged_rep(
            podd.cli._run_tasks(tagged, "tagged", n, 2, 0.5, 1.0, [])[0])
        assert snap.N == n and type(length) is int
        return len(pickle.dumps(snap)), len(pickle.dumps(length))

    @pytest.mark.parametrize("n", [20, 2000])
    def test_values_stay_small(self, n):
        chaos, tagged = self._pickled_sizes(n)
        assert chaos <= 96 and tagged <= 8


class TestClanCommand:
    def test_small_run(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "clan", "N": [30], "D": [2],
                                      "lambda": [0.5], "t": [0.25, 0.5],
                                      "replications": 400, "seed": 3})
        out = tmp_path / "c"
        assert main(["clan", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "clan.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for r in rows:
            assert float(r["mean_size"]) <= float(r["size_bound"]) + float(r["size_ci"])

    def test_intersect_bound_against_decimal(self, tmp_path):
        # the intersect_bound column of the two clan digest pins' cells,
        # against 80-digit decimal arithmetic: the log bracket taken as
        # n ln((n+u-1)/n) - (n-1)(u-1)/(n+u-1) in floats was off by up to
        # 2.6e-12 on these rows, which is what moved both pins
        cfg = write_config(tmp_path, {"kind": "clan", "N": [10, 50, 100, 200],
                                      "D": [2, 3], "lambda": [0.5],
                                      "t": [0.25, 0.5, 1.0],
                                      "replications": 20, "seed": 7})
        out = tmp_path / "c"
        main(["clan", "--config", cfg, "--out", str(out)])
        with open(out / "clan.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 24
        for r in rows:
            n, d = int(r["N"]), int(r["D"])
            with localcontext() as ctx:
                ctx.prec = 80
                u = (2 ** (d - 1) * Decimal("0.5") * d * n * Decimal(r["t"])
                     / (n - d)).exp()
                bracket = (n * ((n + u - 1) / n).ln()
                           - (n - 1) * (u - 1) / (n + u - 1))
                want = float(Decimal("1.5") ** d * n / (n - d) * bracket)
            assert math.isclose(float(r["intersect_bound"]), want,
                                rel_tol=5e-14), r


class TestPinnedDigests:
    """sha256 of CSVs at fixed configs: a change that reorders the RNG stream
    or alters a rate by one ulp shows here, not only in a self-consistency
    check within one checkout.  The first clan case has every N below 64;
    the second has N = 100 and 200, so clans reach servers past 63.  The
    event-engine cases cover
    every discipline, a non-exponential service law, a loaded initial
    state, the permutation path of candidate sampling (2D >= N), draw
    buffers crossing a chunk, the cavity's thinning and the coupled pair."""

    CASES = [
        ("rates-check",
         {"kind": "rates-check", "N": list(range(2, 13)), "D": [1, 2, 3, 4, 5],
          "lambda": [0.5], "seed": 0},
         {"rates_check.csv":
          "436eec83e7fd8cc689d7ce9fd45c58ec2398d3dde02ae42e623b6ff6ab2497c6"}),
        # loads whose limit_denominator(10**6) is not dyadic, so the rate
        # column shows a one-ulp change in how the exact ratio is rounded
        ("rates-check-nondyadic",
         {"kind": "rates-check", "N": list(range(2, 13)), "D": [1, 2, 3, 4, 5],
          "lambda": [0.3, 0.7071067811865476], "seed": 0},
         {"rates_check.csv":
          "e5ee08ec0d7f1f72bf60c6a9f054225ba28eed38e12c21e2b671faae22557cc6"}),
        # cells on both sides of `exact_dtype`'s rule: (16, 5) and (20, 5)
        # in int64, the rest in Python ints; (16, 14) overflows int64 in
        # a rule that leaves out the uniform bound's d^d
        ("rates-check-wide",
         {"kind": "rates-check", "N": [16, 20, 45], "D": [5, 14, 15],
          "lambda": [0.5, 0.3], "seed": 0},
         {"rates_check.csv":
          "9209e38ea227f424c7948a65d0a336e8f50557fa20cc48f0abb233053cb74d1a"}),
        ("clan",
         {"kind": "clan", "N": [10, 50], "D": [2, 3], "lambda": [0.5],
          "t": [0.25, 0.5, 1.0], "replications": 200, "seed": 7},
         {"clan.csv":
          "2fe49ee12b1ed2d4161b27ee7f065d642578611fc3f22702d1fb34df8a1fc7dc"}),
        ("clan-past-bit-63",
         {"kind": "clan", "N": [100, 200], "D": [2, 3], "lambda": [0.5],
          "t": [0.25, 0.5, 1.0], "replications": 200, "seed": 8},
         {"clan.csv":
          "ce29b1f0bd70691756dec0be6a14634dc88b11ba1b8ae348b042a9e18b1d1f04"}),
        ("simulate-ps-hyperexp",
         {"kind": "simulate", "N": [20], "D": [2], "lambda": [0.9],
          "horizon": 250.0, "replications": 2, "seed": 21,
          "service": {"kind": "hyperexponential", "cv2": 4},
          "discipline": "PS", "record_events": True},
         {"trajectory.csv":
          "2f8f37d7ce41cbd7e407becb659838f1696ef1620d9705c79152ed8587631a50",
          "events.csv":
          "a2604cf82abc9746696631c076a995ada1bca6b736b26dbd57ea177641f88a4b"}),
        ("simulate-lifo-erlang-geometric",
         {"kind": "simulate", "N": [20], "D": [2], "lambda": [0.8],
          "horizon": 300.0, "replications": 2, "seed": 22,
          "service": {"kind": "erlang", "shape": 4},
          "discipline": "LIFO_PR", "init": "geometric"},
         {"trajectory.csv":
          "6a5be72af67e5137abfe6e12321b741d12e5f6841791dede445ace06fad13d7e"}),
        ("simulate-permutation",
         {"kind": "simulate", "N": [3], "D": [2], "lambda": [0.9],
          "horizon": 2000.0, "seed": 23, "record_events": True},
         {"trajectory.csv":
          "eccf0a90fab2ee1050c17c2ac8d671ecf897cbef7fde6b0659ad0fef36728a32",
          "events.csv":
          "df4359a7e364df258ac8e1437eb95b6e372b8726ab61bd951c5047cd330e87c7"}),
        # D = 1: each events.csv zeta field is one server, with no "|"
        ("simulate-d1",
         {"kind": "simulate", "N": [5], "D": [1], "lambda": [0.7],
          "horizon": 150.0, "replications": 2, "seed": 37,
          "record_events": True},
         {"trajectory.csv":
          "95647d7600963ae49638dc81f8617014049477c59384035646aa439699b50469",
          "events.csv":
          "7d6bca1a36f0c5fe4cf9b4edfc7a127985203429c9e9dd5a07272d1536c06aa6"}),
        ("stationary-ps",
         {"kind": "stationary", "N": [50], "D": [2], "lambda": [0.9],
          "horizon": 100.0, "warmup": 10.0, "k_max": 6, "seed": 24,
          "service": {"kind": "hyperexponential", "cv2": 4},
          "discipline": "PS"},
         {"stationary.csv":
          "db432ed3922ffd054b6488bc1110100a1af7065bef9974a2def5e16b49c44a78"}),
        ("chaos-ps",
         {"kind": "chaos", "N": [20], "D": [2], "lambda": [0.5], "t": [1.0],
          "k": [0, 1, 2], "l": [0, 1], "replications": 50, "seed": 25,
          "discipline": "PS"},
         {"chaos.csv":
          "cd64a322e9e289f45ccb957106c23074d85b4f1f2fd4aa3130f8d0f3b2edc523"}),
        ("tagged-ps",
         {"kind": "tagged", "N": [20], "D": [2], "lambda": [0.5], "t": [2.0],
          "replications": 50, "seed": 26, "discipline": "PS"},
         {"tagged.csv":
          "97f44bb24e4d0c4bf8318a9bdb925bf7103bb4b662b01a115621acb7d6bc3124"}),
        ("coupled-ps",
         {"kind": "coupled", "N": [10], "D": [2], "lambda": [0.5],
          "horizon": 4.0, "replications": 20, "seed": 27, "discipline": "PS"},
         {"coupled.csv":
          "775571320871c048743d04d23b3afc0e4b9cb5b1ef11c5f7184071be131a6623"}),
        # multi-cell grids, each with two or more values on every axis: the
        # cell order, the row order and the D-versus-N skip show here
        ("simulate-grid",
         {"kind": "simulate", "N": [3, 6], "D": [2, 4], "lambda": [0.5, 0.8],
          "horizon": 5.0, "replications": 2, "seed": 31,
          "record_events": True},
         {"trajectory.csv":
          "7570fabeb413af2dcaee5cc68883b55fafffb6eb251a48ce96b939c918e84230",
          "events.csv":
          "f2cac2ce43b74e62ab56146405e0989ed46a62f0d4295ecb6f048731949d457b"}),
        ("chaos-grid",
         {"kind": "chaos", "N": [8, 12], "D": [2, 10], "lambda": [0.5, 0.7],
          "t": [0.5, 1.0], "k": [0, 1], "l": [1, 2], "replications": 30,
          "seed": 32},
         {"chaos.csv":
          "53acd671a7f457512e25b8990028396ba1ea4db9b3d075713c353b229da62d6d"}),
        ("tagged-grid",
         {"kind": "tagged", "N": [2, 10, 20], "D": [2, 3],
          "lambda": [0.5, 0.7], "t": [1.0, 2.0], "replications": 30,
          "seed": 33},
         {"tagged.csv":
          "e48a372128c8404642cc4f03cc3357581267856c9cea02c19a225ca200aa7603"}),
        ("coupled-grid",
         {"kind": "coupled", "N": [5, 8], "D": [1, 2, 6], "lambda": [0.5, 0.7],
          "horizon": 2.0, "replications": 3, "seed": 34, "init": "geometric"},
         {"coupled.csv":
          "fa967765d69cf02540fa48a24e6f4e6d3e7f0a88e0e1ed4b52d566764d0e36e5"}),
        ("stationary-grid",
         {"kind": "stationary", "N": [20, 30], "D": [2, 25],
          "lambda": [0.5, 0.7], "horizon": 60.0, "warmup": 10.0, "k_max": 4,
          "seed": 35},
         {"stationary.csv":
          "8444b21056dc6bcab6a2c7db972b19260e5d84bc72263bf1cd37e84864bb524d"}),
        ("bounds-grid",
         {"kind": "bounds", "N": [2, 3, 5], "D": [2, 3], "lambda": [0.5, 0.9],
          "t": [0.5, 1.0], "seed": 36},
         {"bounds.csv":
          "e7dac9faaf2173bdfcdf8345d7e9fb5f70855ef7e438690e7b4ed1310b981dbd"}),
    ]

    @pytest.mark.parametrize("doc,digests", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_csv_digest(self, tmp_path, doc, digests):
        assert run_experiment(parse_config(json.dumps(doc)), str(tmp_path)) == 0
        for name, digest in digests.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name
