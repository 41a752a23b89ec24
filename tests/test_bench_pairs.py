import importlib.util
import json
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("801-804") == [801, 802, 803, 804]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]


def test_summary_reproduces_bench_7():
    # long-run wall_s runs as BENCH_7.json records them
    parent = [2.9542, 4.0854, 3.9662, 3.9411, 3.5275, 3.6912, 3.1066, 3.8468,
              3.6907, 3.4804]
    change = [3.1851, 3.312, 2.5579, 2.831, 2.8132, 3.1628, 2.8412, 2.7789,
              2.7754, 2.9362]
    s = bench_pairs.summarise(parent, change, "lower")
    assert s["parent_median"] == 3.6909
    assert s["change_median"] == 2.8361
    assert s["parent_iqr"] == 0.4253
    assert s["change_wins"] == 9
    # 9 of 10 pairs, and a median gap of 0.85 s against an IQR of 0.43 s
    assert s["resolved"] is True


def test_alternating_winners_do_not_resolve():
    # each side wins every other pair: 5 wins of 10, whatever the medians
    parent = [1.0, 2.0] * 5
    change = [2.0, 1.0] * 5
    for better in ("lower", "higher"):
        s = bench_pairs.summarise(parent, change, better)
        assert s["change_wins"] == 5
        assert s["resolved"] is False


def test_resolving_needs_a_gap_wider_than_the_parent_iqr():
    # 10 of 10 pairs won, but by less than the parent's spread
    parent = [1.0, 1.2, 1.4, 1.6, 1.8] * 2
    change = [v - 0.01 for v in parent]
    s = bench_pairs.summarise(parent, change, "lower")
    assert s["change_wins"] == 10 and s["parent_iqr"] == 0.4
    assert s["resolved"] is False
    assert bench_pairs.summarise(parent, [v - 0.5 for v in parent],
                                 "lower")["resolved"] is True


def test_wins_follow_direction_and_ties_do_not_count():
    parent, change = [1.0, 2.0, 3.0], [0.5, 2.0, 3.5]
    assert bench_pairs.summarise(parent, change, "lower")["change_wins"] == 1
    assert bench_pairs.summarise(parent, change, "higher")["change_wins"] == 1


def test_per_pair_ratio():
    # a load swing across the last two pairs moves both sides' medians, but
    # each pair's ratio stays 0.8
    parent = [1.0, 1.0, 1.0, 2.0, 2.0]
    change = [0.8, 0.8, 0.8, 1.6, 1.6]
    s = bench_pairs.summarise(parent, change, "lower")
    assert s["ratio_median"] == 0.8
    assert s["ratio_quartiles"] == [0.8, 0.8]
    s = bench_pairs.summarise([2.0, 4.0, 0.0], [1.0, 5.0, 3.0], "lower")
    assert s["ratio_median"] == 0.875       # the pair with parent 0 is left out
    assert s["ratio_quartiles"] == [0.6875, 1.0625]
    s = bench_pairs.summarise([0.0], [1.0], "lower")
    assert s["ratio_median"] is None and s["ratio_quartiles"] == [None, None]


def _fake_perfbench(argv, cwd):
    """perfbench/run.py as run_child would run it in the copy `cwd`: the
    change side fails a check at seed 2 (exit 1, with a record) and crashes
    at seed 3 (exit 1, nothing printed, no record)."""
    seed = int(argv[argv.index("--seed") + 1])
    failing = cwd.name == "change" and seed in (2, 3)
    if failing and seed == 3:
        return subprocess.CompletedProcess(argv, 1, "",
                                           "Traceback ...\nOSError: boom\n")
    errors = ["chaos exited with code 1"] if failing else []
    result = {"correct": not failing, "attempted": 3, "failed": int(failing),
              "metrics": {"wall_s": {"value": seed + 0.5 * (cwd.name == "change"),
                                     "unit": "s"}}}
    path = cwd / ".perfbench_work" / "results" / \
        f"many-reps-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**result, "context": {}, "errors": errors}))
    return subprocess.CompletedProcess(argv, int(failing),
                                       f"wall_s {seed}\n{json.dumps(result)}\n",
                                       "")


def test_failed_runs_are_recorded(tmp_path, monkeypatch, capsys):
    # a run that exited 1 stopped the tool, and one that failed a check was
    # reported only as correct_and_0_failed: false
    monkeypatch.setattr(bench_pairs, "run_child", _fake_perfbench)
    sides = {side: tmp_path / side for side in ("parent", "change")}
    out = bench_pairs.run_workload(sides, "many-reps", [1, 2, 3, 4],
                                   {"wall_s": "lower"})
    assert out["correct_and_0_failed"] is False
    failed = out["failed_runs"]
    assert [(f["side"], f["seed"], f["workload"]) for f in failed] == [
        ("change", 2, "many-reps"), ("change", 3, "many-reps")]
    assert failed[0]["errors"] == ["chaos exited with code 1"]
    assert failed[1]["errors"][0].startswith("exit code 1, no result: ")
    assert "OSError: boom" in failed[1]["errors"][0]
    # the pair whose change side reported nothing is left out
    assert out["pairs"] == 3
    assert out["metrics"]["wall_s"]["parent_runs"] == [1.0, 2.0, 4.0]
    printed = capsys.readouterr().out
    assert "many-reps seed 2 change FAILED: ['chaos exited with code 1']" \
        in printed
    assert "many-reps seed 3 change FAILED: ['exit code 1" in printed
