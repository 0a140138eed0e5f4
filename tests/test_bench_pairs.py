"""The verdicts and warnings of scripts/bench_pairs.py on hand-made runs."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


PARENT = [100, 98, 102, 99, 101, 97, 103, 100, 99, 101]  # quartiles 99 and 101


@pytest.mark.parametrize("better, parent, change, verdict", [
    # wins 10/10 by far more than the parent's IQR of 2
    ("higher", PARENT, [v + 20 for v in PARENT], "gain"),
    ("lower", PARENT, [v - 20 for v in PARENT], "gain"),
    # wins 9/10: still a gain
    ("higher", PARENT, [v + 20 for v in PARENT[:9]] + [PARENT[9] - 1], "gain"),
    # wins 8/10 by far: not a gain
    ("higher", PARENT, [v + 20 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]],
     "within noise"),
    # wins 10/10 by 1 each, less than the IQR
    ("higher", PARENT, [v + 1 for v in PARENT], "within noise"),
    # 30% worse against a bound of 25%, in either direction of better
    ("higher", PARENT, [v * 0.7 for v in PARENT], "worse than bound"),
    ("lower", PARENT, [v * 1.3 for v in PARENT], "worse than bound"),
    # 20% worse: within the bound
    ("higher", PARENT, [v * 0.8 for v in PARENT], "within noise"),
    ("lower", PARENT, [v * 1.2 for v in PARENT], "within noise"),
    # better by far is never worse than the bound
    ("lower", PARENT, [v * 0.5 for v in PARENT[:8]] + [200, 200], "within noise"),
])
def test_verdict(better, parent, change, verdict):
    s = bench_pairs.summary(runs(parent, change), better, 0.25)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (99, 101)
    assert s["verdict"] == verdict


WIDE = [60, 140, 100, 70, 130, 90, 110, 80, 120, 100]  # quartiles 82.5 and 117.5
SKEWED = [10, 20, 30, 40, 100, 100, 100, 100, 101, 101]  # quartiles 32.5 and 100


@pytest.mark.parametrize("better, parent, change, verdict", [
    # the parent's interquartile range, 35% of its median, is wider than
    # the bound of 25%: unchanged runs cannot show a change within it
    ("higher", WIDE, WIDE, "unresolved"),
    ("lower", WIDE, [v * 1.1 for v in WIDE], "unresolved"),
    # a gain and a loss past the bound still read as such
    ("higher", WIDE, [v + 100 for v in WIDE], "gain"),
    ("higher", WIDE, [v * 0.5 for v in WIDE], "worse than bound"),
    # every change run beats every parent run, by less than the spread
    ("higher", SKEWED, [102] * 10, "within noise"),
    ("lower", [200 - v for v in SKEWED], [98] * 10, "within noise"),
    # one change run ties the parent's best: unresolved
    ("higher", SKEWED, [102] * 9 + [101], "unresolved"),
])
def test_verdict_of_a_wide_parent(better, parent, change, verdict):
    assert bench_pairs.summary(runs(parent, change), better, 0.25)["verdict"] == verdict


def test_single_pair_has_a_verdict():
    s = bench_pairs.summary(runs([10.0], [12.0]), "higher", 0.25)
    assert s["change_wins"] == 1 and s["verdict"] == "gain"


def record(correct, digest):
    return {"correct": correct, "stdout_sha256": digest}


def test_warnings():
    same = [{"parent": record(True, "a"), "change": record(True, "a")}] * 3
    assert bench_pairs.warnings(same) == []
    changed = same[:2] + [{"parent": record(True, "a"), "change": record(False, "b")}]
    lines = bench_pairs.warnings(changed)
    assert len(lines) == 2
    assert "change runs of pairs [3] failed" in lines[0]
    assert "stdout digests differ: parent ['a'], change ['a', 'b']" in lines[1]


def test_pair_line_shows_attempted_jobs():
    end_to_end = [{"name": "jobs_per_s"}, {"name": "peak_rss_mb"}]

    def side(attempted, jobs, rss):
        return {"attempted": attempted, "metrics": {"jobs_per_s": jobs, "peak_rss_mb": rss}}

    pair = {"first": "change", "parent": side(14200, 710.25, 23.5),
            "change": side(15900, 795.5, 24.125)}
    assert bench_pairs.pair_line(1, 10, pair, end_to_end) == (
        "pair 2/10 (change first): attempted 14200 -> 15900, "
        "jobs_per_s 710.2 -> 795.5, peak_rss_mb 23.5 -> 24.12")
