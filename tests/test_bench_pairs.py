"""The pairing tool's summary, on hand-made results: no bench run."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]


def ok(op_s, dice=0.95, failed=0, correct=True, returncode=0):
    metrics = {"setup_s": 0.04, "op_s": op_s, "peak_rss_mb": 80.0, "dice": dice}
    result = {"correct": correct, "attempted": 5, "failed": failed,
              "metrics": {k: {"value": v, "unit": "?"} for k, v in metrics.items()}}
    return {"returncode": returncode, "result": result, "stderr": ""}


def line(lines, workload, metric):
    return next(s for s in lines if s.startswith(f"{workload} {metric} "))


def test_order_alternates_starting_with_the_parent():
    assert [bench_pairs.order(i)[0] for i in range(1, 5)] == ["parent", "change"] * 2


def test_medians_quartiles_wins_and_bound():
    # op_s: parent 10..12, change 2 * parent, so the change never wins
    runs = [{"parent": ok(p), "change": ok(2 * p)} for p in (10.0, 10.5, 11.0, 11.5, 12.0)]
    lines, faults = bench_pairs.summarise({"w": runs}, METRICS)
    assert faults == []
    op = line(lines, "w", "op_s")
    assert "parent median 11 [10.5, 11.5]" in op
    assert "change median 22 [21, 23]" in op
    assert "change wins 0/5" in op
    assert "median +100.0%: worse beyond bound" in op
    assert "1p 10/20, 2c 10.5/21, 3p 11/22" in lines[lines.index(op) + 1]
    setup = line(lines, "w", "setup_s")
    assert "change wins 0/5" in setup and "median +0.0%: within bound" in setup


def test_higher_is_better_counts_wins_the_other_way():
    runs = [{"parent": ok(1.0, dice=0.9), "change": ok(1.0, dice=d)} for d in (0.95, 0.85, 0.92)]
    dice = line(bench_pairs.summarise({"w": runs}, METRICS)[0], "w", "dice")
    assert "change wins 2/3" in dice
    assert "within bound" in dice
    runs = [{"parent": ok(1.0, dice=0.9), "change": ok(1.0, dice=0.5)}]
    dice = line(bench_pairs.summarise({"w": runs}, METRICS)[0], "w", "dice")
    assert "worse beyond bound" in dice


def test_last_bit_difference_is_a_tie():
    # the same masks averaged over 198 and 192 rounds: neither a win nor a loss
    a, b = 0.9509610434185691, 0.950961043418569
    runs = [{"parent": ok(1.0, dice=p), "change": ok(1.0, dice=c)}
            for p, c in ((a, b), (b, a), (0.9, 0.95))]
    dice = line(bench_pairs.summarise({"w": runs}, METRICS)[0], "w", "dice")
    assert "ties 2/3, change wins 1/3" in dice


def test_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 1 and 2 around a median of 1.5: a 67 % spread
    runs = [{"parent": ok(p), "change": ok(c)} for p, c in ((1, 4), (1, 4), (2, 4), (2, 4))]
    op = line(bench_pairs.summarise({"w": runs}, METRICS)[0], "w", "op_s")
    assert "unresolved, the parent's quartiles span 66.7% of its median" in op
    # unless every change run reads better than every parent run
    runs = [{"parent": ok(p), "change": ok(0.5)} for p in (1, 1, 2, 2)]
    op = line(bench_pairs.summarise({"w": runs}, METRICS)[0], "w", "op_s")
    assert "change wins 4/4, median -66.7%: within bound" in op


def gain(parent, change):
    runs = [{"parent": ok(p), "change": ok(c)} for p, c in zip(parent, change)]
    return line(bench_pairs.summarise({"w": runs}, METRICS)[0], "w", "op_s").rsplit("; ", 1)[1]


def test_gain_needs_nine_in_ten_wins_and_medians_apart():
    parent = [10.0 + 0.1 * i for i in range(10)]
    # 9 of 10 wins, medians 5 and 10.45 against quartiles 10.225 and 10.675
    assert gain(parent, [5.0] * 9 + [20.0]) == "gain shown"
    # 8 of 10 wins
    assert gain(parent, [5.0] * 8 + [20.0] * 2) == "no gain shown"
    # 10 of 10 wins, but the medians lie 0.05 apart, inside the parent's quartiles
    assert gain(parent, [p - 0.05 for p in parent]) == "no gain shown"
    # every pair won and the medians far apart, but fewer than 10 pairs
    for n in (1, 9):
        assert gain(parent[:n], [5.0] * n) == "no gain shown"


def test_names_every_faulty_run():
    runs = [
        {"parent": ok(1.0, returncode=1), "change": ok(1.0)},
        {"parent": ok(1.0), "change": ok(1.0, correct=False)},
        {"parent": ok(1.0, failed=2), "change": {"returncode": 0, "result": None, "stderr": ""}},
    ]
    lines, faults = bench_pairs.summarise({"w": runs}, METRICS)
    assert faults == [
        "w pair 1 parent: exit 1",
        "w pair 2 change: correct: false",
        "w pair 3 parent: 2 failed operations",
        "w pair 3 change: no result",
    ]
    # the pair without a change result drops out of the statistics
    assert "change wins 0/2" in line(lines, "w", "op_s")


def test_refuses_paths_of_different_length(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb")])
    assert "differ in length" in capsys.readouterr().err
