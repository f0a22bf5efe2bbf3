"""tools/bench_pair.py's verdict on synthetic runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ok_ops_ratio", "better": "higher", "bound": 0.001},
]


def record(parent: dict, change: dict) -> dict:
    """A record of one workload whose runs read the given values, per metric."""
    def runs(values: dict) -> list:
        n = len(next(iter(values.values())))
        return [{"result": {"metrics": {k: {"value": v[i]} for k, v in values.items()}}}
                for i in range(n)]

    return {"runs": {"parent": {"w": runs(parent)}, "change": {"w": runs(change)}}}


def judge(parent: dict, change: dict) -> dict:
    return bench_pair.verdict(record(parent, change), METRICS)["w"]


ONES = [1.0] * 10


def test_a_clear_gain():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    got = judge({"wall_s": parent, "ok_ops_ratio": ONES},
                {"wall_s": [0.8 * v for v in parent], "ok_ops_ratio": ONES})
    wall = got["wall_s"]
    assert (wall["pairs"], wall["wins"], wall["gains"], wall["within_bound"]) == (10, 10, True, True)
    assert wall["gap"] < -wall["spread"] < 0.0
    # equal runs: every pair a tie, no gain, inside the bound
    assert got["ok_ops_ratio"] == {
        "pairs": 10, "wins": 0, "gap": 0.0, "spread": 0.0, "gains": False, "within_bound": True,
        "unresolved": False,
    }


def test_eight_wins_are_not_a_gain_and_ties_count_for_neither():
    parent = [1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.1, 0.9, 1.0]
    change = [0.5 * v for v in parent[:8]] + parent[8:]
    wall = judge({"wall_s": parent, "ok_ops_ratio": ONES},
                 {"wall_s": change, "ok_ops_ratio": ONES})["wall_s"]
    assert (wall["wins"], wall["gains"]) == (8, False)


def test_a_gap_inside_the_spread_is_not_a_gain():
    parent = [1.0, 2.0] * 5  # quartiles 1 and 2
    wall = judge({"wall_s": parent, "ok_ops_ratio": ONES},
                 {"wall_s": [v - 0.1 for v in parent], "ok_ops_ratio": ONES})["wall_s"]
    assert (wall["wins"], wall["spread"], wall["gains"]) == (10, 1.0, False)


def test_the_bound_is_a_share_of_the_parents_median_in_the_worse_direction():
    got = judge({"wall_s": ONES, "ok_ops_ratio": ONES},
                {"wall_s": [1.3] * 10, "ok_ops_ratio": [0.99] * 10})
    assert not got["wall_s"]["within_bound"]  # 30 % slower, bound 25 %
    assert not got["ok_ops_ratio"]["within_bound"]  # 1 % lower, bound 0.1 %
    got = judge({"wall_s": ONES, "ok_ops_ratio": ONES},
                {"wall_s": [1.2] * 10, "ok_ops_ratio": [1.0] * 10})
    assert got["wall_s"]["within_bound"] and got["ok_ops_ratio"]["within_bound"]


def test_a_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    """quote_grid setup_s as BENCH_11 read it: parent quartiles 0.646-0.920 s
    around 0.725 s, 38 % of the median against a 25 % bound."""
    parent = [0.60, 0.646, 0.646, 0.70, 0.72, 0.73, 0.80, 0.92, 0.92, 1.00]
    worse = judge({"wall_s": parent, "ok_ops_ratio": ONES},
                  {"wall_s": [1.3 * v for v in parent], "ok_ops_ratio": ONES})["wall_s"]
    assert worse["spread"] > 0.25 * 0.725
    assert (worse["within_bound"], worse["unresolved"]) == (False, True)
    # unless every run of the change is better than every run of the parent
    better = judge({"wall_s": parent, "ok_ops_ratio": ONES},
                   {"wall_s": [0.5 * v for v in parent], "ok_ops_ratio": ONES})["wall_s"]
    assert (better["gains"], better["unresolved"]) == (True, False)
    # a spread inside the bound resolves, worse or not
    tight = judge({"wall_s": ONES, "ok_ops_ratio": ONES},
                  {"wall_s": [1.3] * 10, "ok_ops_ratio": ONES})["wall_s"]
    assert (tight["within_bound"], tight["unresolved"]) == (False, False)
