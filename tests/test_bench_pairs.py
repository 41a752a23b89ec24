import importlib.util
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
