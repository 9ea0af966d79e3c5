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
    directions = {"wall_s": ("s", "lower"), "peak_rss_mib": ("MiB", "lower")}
    metrics = evidence.summarize(runs, directions)
    wall = metrics["wall_s"]
    assert (wall["unit"], wall["better"], wall["pairs"], wall["change_wins"]) == ("s", "lower", 4, 3)
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
    metrics = evidence.summarize(runs, {"rate": ("1/s", "higher")})
    assert metrics["rate"]["change_wins"] == 1
    assert evidence.spread([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "iqr": 0.0}


def test_machine_names_the_toolchain():
    assert set(evidence.machine()) == {"cpu_count", "cpus_usable", "platform", "python",
                                       "numpy", "scipy"}
