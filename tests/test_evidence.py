"""tools/evidence.py: its arguments and the BENCH_<pr>.json layout.

These tests run neither the program nor the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "evidence.py"
_SPEC = importlib.util.spec_from_file_location("evidence", _PATH)
evidence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(evidence)


def test_arguments_and_defaults():
    args = evidence.parse_args(["--parent", "HEAD~1", "--pr", "7"])
    assert vars(args) == {"parent": "HEAD~1", "change": "HEAD", "pr": 7}
    args = evidence.parse_args(["--parent", "abc", "--change", "def", "--pr", "3"])
    assert vars(args) == {"parent": "abc", "change": "def", "pr": 3}
    # ten pairs per workload, one fixed seed each
    assert evidence.SEEDS == list(range(11, 21))


@pytest.mark.parametrize("argv", [
    [],
    ["--parent", "HEAD~1"],
    ["--pr", "7"],
    # run length, pairs, seeds and workloads come from BENCHMARK.json and
    # the tool, never from the command line
    ["--parent", "HEAD~1", "--pr", "7", "--seconds", "5"],
    ["--parent", "HEAD~1", "--pr", "7", "--pairs", "3"],
    ["--parent", "HEAD~1", "--pr", "7", "--workload", "certify"],
])
def test_bad_arguments_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        evidence.parse_args(argv)
    assert exc.value.code == 2


def _run(seed, wall, rss):
    return {"seed": seed, "correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": wall, "peak_rss_mib": rss}}


def test_bench_document_layout():
    runs = {
        "parent": [_run(11, 8.0, 60.0), _run(12, 7.0, 61.0), _run(13, 9.0, 62.0),
                   _run(14, 10.0, 63.0)],
        "change": [_run(11, 7.0, 60.0), _run(12, 7.5, 61.5), _run(13, 6.0, 61.0),
                   _run(14, 6.5, 63.0)],
    }
    directions = {"wall_s": ("s", "lower", 0.25), "peak_rss_mib": ("MiB", "lower", 0.1)}
    metrics = evidence.summarize(runs, directions)
    wall = metrics["wall_s"]
    assert (wall["unit"], wall["better"], wall["bound"], wall["pairs"], wall["change_wins"]) == (
        "s", "lower", 0.25, 4, 3)
    # faster by more than the parent's IQR, but in only 3 of 4 pairs
    assert (wall["claim_met"], wall["within_bound"]) == (False, True)
    assert wall["parent"] == {"median": 8.5, "q1": 7.75, "q3": 9.25, "iqr": 1.5}
    assert wall["change"]["median"] == 6.75
    # a tie is not a win
    assert metrics["peak_rss_mib"]["change_wins"] == 1

    hashes = {"parent": {"bound-curve/bound_curve.csv": "aa", "simulate/ensemble.csv": "bb"},
              "change": {"bound-curve/bound_curve.csv": "aa", "simulate/ensemble.csv": "cc"}}
    workloads = {"certify": {"seconds": 45.0, "seeds": [11, 12, 13, 14],
                             "first": ["parent", "change", "parent", "change"],
                             "runs": runs, "metrics": metrics}}
    sides = {"parent": {"commit": "p" * 40, "src_tree": "q" * 40},
             "change": {"commit": "c" * 40, "src_tree": "d" * 40}}
    doc = evidence.bench_document(7, sides, hashes, workloads, {"cpu_count": 2})
    assert json.loads(json.dumps(doc)) == doc
    assert list(doc) == ["pr", "parent", "change", "machine", "outputs", "workloads"]
    assert doc["pr"] == 7 and doc["parent"] == {"commit": "p" * 40, "src_tree": "q" * 40}
    assert doc["outputs"]["bound-curve/bound_curve.csv"] == {
        "parent": "aa", "change": "aa", "identical": True}
    assert doc["outputs"]["simulate/ensemble.csv"]["identical"] is False
    assert doc["workloads"]["certify"]["metrics"]["wall_s"]["change_wins"] == 3


def test_higher_is_better_counts_the_larger_value_as_a_win():
    runs = {"parent": [{"metrics": {"rate": 1.0}}, {"metrics": {"rate": 3.0}}],
            "change": [{"metrics": {"rate": 2.0}}, {"metrics": {"rate": 2.0}}]}
    metrics = evidence.summarize(runs, {"rate": ("1/s", "higher", 0.25)})
    assert metrics["rate"]["change_wins"] == 1
    assert evidence.spread([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "iqr": 0.0}


_RISING = [8.0 + 0.1 * i for i in range(10)]  # median 8.45, IQR 0.45


@pytest.mark.parametrize("parent, change, better, bound, claim_met, within_bound", [
    # nine wins in ten, and the medians 0.9 apart against an IQR of 0.45
    (_RISING, [8.5] + [7.1 + 0.1 * i for i in range(9)], "lower", 0.25, True, True),
    # ten wins, but the medians only 0.2 apart: within the parent's spread
    (_RISING, [v - 0.2 for v in _RISING], "lower", 0.25, False, True),
    # the bound is relative to the parent's median: +1.7 % passes a 0.1 bound
    ([64.5] * 10, [65.6] * 10, "lower", 0.1, False, True),
    ([1.0] * 10, [1.26] * 10, "lower", 0.25, False, False),
    ([1.0] * 10, [0.7] * 10, "higher", 0.25, False, False),
    ([1.0] * 10, [1.3] * 10, "higher", 0.25, True, True),
])
def test_claim_and_bound_verdicts(parent, change, better, bound, claim_met, within_bound):
    runs = {"parent": [{"metrics": {"m": v}} for v in parent],
            "change": [{"metrics": {"m": v}} for v in change]}
    m = evidence.summarize(runs, {"m": ("s", better, bound)})["m"]
    assert (m["claim_met"], m["within_bound"]) == (claim_met, within_bound)


def test_machine_names_the_toolchain():
    assert set(evidence.machine()) == {"cpu_count", "cpus_usable", "platform", "python",
                                       "numpy", "scipy"}
