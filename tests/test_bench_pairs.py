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
