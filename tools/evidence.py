#!/usr/bin/env python3
"""A change's evidence against its parent: output hashes and benchmark pairs.

    python3 tools/evidence.py --parent REF --pr N [--change REF]

Exports the committed trees of ``--parent`` and ``--change`` (default
``HEAD``) with ``git archive`` into two sibling directories of one new
temporary directory, so both trees run from the same depth of the same
file system and the repository itself is left untouched; the temporary
directory is removed at the end.

In each tree it writes the standard outputs (``bound-curve``, ``sweep-n``
on the default list and on ``--n-list 100,6400 --seed 1``, ``simulate``,
and the ``measured`` fields of ``validate --only 1,2,5,6,8 --scale 0.05``)
and prints their sha256.  Then, for each workload of the change's
``BENCHMARK.json``, it runs ten pairs of ``perfbench/run.py --workload W
--seconds S --seed K`` at that file's ``run_seconds``, seeds 11 to 20, one
per pair, the parent first in even pairs and the change first in odd ones.

``BENCH_<pr>.json`` at the root of the repository holds the hashes, every
run's end-to-end metrics, each metric's median and quartiles on both sides,
the pairs the change won, the seeds and the machine, and two verdicts per
workload and metric:

- ``claim_met``: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range, so a claimed gain on that metric is shown;
- ``within_bound``: the change's median is worse than the parent's by no
  more than the metric's ``bound`` in ``BENCHMARK.json``, taken relative to
  the parent's median.

Each side is named by its commit and by the tree of its ``src/``, the
program that both the outputs and the benchmark run: the commit may not
outlive the change (one made by ``git stash create`` from staged work,
say), but a later commit that adds only documents and the BENCH file keeps
that tree's hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEEDS = list(range(11, 21))  # one per pair
CLAIM_WIN_SHARE = 0.9  # share of the pairs a claimed gain must win

# (label, driftbound arguments, files hashed); "validation_report.json"
# is hashed by its criteria's names and measured fields only, since it
# also records each criterion's time
OUTPUTS = [
    ("bound-curve", ["bound-curve"], ["bound_curve.csv", "bound_report.json"]),
    ("sweep-n", ["sweep-n"], ["sweep_n.csv"]),
    ("sweep-n-100-6400", ["sweep-n", "--n-list", "100,6400", "--seed", "1"], ["sweep_n.csv"]),
    ("simulate", ["simulate"], ["tv_vs_k.csv", "ensemble.csv", "simulate_summary.json"]),
    ("validate", ["validate", "--only", "1,2,5,6,8", "--scale", "0.05"],
     ["validation_report.json"]),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--change", default="HEAD", help="git ref of the change (default HEAD)")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    return parser.parse_args(argv)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, stdout=subprocess.PIPE, check=True).stdout


def export_tree(ref: str, dest: Path) -> dict:
    """Write the committed tree of ``ref`` to ``dest``; returns its commit
    and the tree hash of its ``src/``."""
    commit = _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    src_tree = _git("rev-parse", "--verify", f"{commit}:src").decode().strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit), check=True)
    return {"commit": commit, "src_tree": src_tree}


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "validation_report.json":
        doc = json.loads(data)
        data = json.dumps([[r["name"], r["measured"]] for r in doc], sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def output_hashes(tree: Path, out_dir: Path) -> dict:
    """sha256 of every standard output, written by the tree's own program."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    hashes = {}
    for label, command, files in OUTPUTS:
        dest = out_dir / label
        proc = subprocess.run([sys.executable, "-m", "driftbound.cli", *command, "--out", str(dest)],
                              cwd=tree, env=env, stdout=subprocess.DEVNULL)
        if proc.returncode not in (0, 3):  # 3: a criterion did not pass
            raise SystemExit(f"error: driftbound {' '.join(command)} exited {proc.returncode}")
        for name in files:
            hashes[f"{label}/{name}"] = _digest(dest / name)
    return hashes


def bench_run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` run: its verdict and end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} in {tree} exited {proc.returncode}")
    doc = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: m["value"] for name, m in doc["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict, directions: dict) -> dict:
    """Per metric: both sides' spreads, the pairs in which the change was
    better and the two verdicts, from ``runs[side][i]["metrics"]`` with pair
    i on both sides; ``directions[name]`` is ``(unit, better, bound)``."""
    out = {}
    for name, (unit, better, bound) in directions.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        # how much worse the change's median is; negative when it is better
        loss = sign * (change["median"] - parent["median"])
        out[name] = {
            "unit": unit,
            "better": better,
            "bound": bound,
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "pairs": len(values["parent"]),
            "claim_met": wins >= CLAIM_WIN_SHARE * len(values["parent"])
                         and -loss > parent["iqr"],
            "within_bound": loss <= bound * abs(parent["median"]),
        }
    return out


def machine() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def bench_document(pr: int, sides: dict, hashes: dict, workloads: dict, machine_info: dict) -> dict:
    """The BENCH_<pr>.json layout.  ``sides[side]`` is what
    :func:`export_tree` returns; ``workloads[w]`` carries ``seconds``,
    ``seeds``, ``first`` (the side run first in each pair), ``runs`` and
    ``metrics`` (see :func:`summarize`)."""
    outputs = {
        key: {"parent": hashes["parent"][key], "change": hashes["change"][key],
              "identical": hashes["parent"][key] == hashes["change"][key]}
        for key in hashes["parent"]
    }
    return {
        "pr": pr,
        "parent": sides["parent"],
        "change": sides["change"],
        "machine": machine_info,
        "outputs": outputs,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="evidence-"))
    trees = {side: scratch / side for side in SIDES}
    try:
        sides = {side: export_tree(getattr(args, side), trees[side]) for side in SIDES}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        directions = {m["name"]: (m["unit"], m["better"], m["bound"])
                      for m in bench["end_to_end"]}
        seconds = float(bench["run_seconds"])
        names = [w["name"] for w in bench["workloads"]]

        hashes = {}
        for side in SIDES:
            hashes[side] = output_hashes(trees[side], trees[side] / "evidence_out")
            for key, digest in hashes[side].items():
                print(f"{side:6s} {digest}  {key}", flush=True)

        workloads = {}
        for name in names:
            runs = {side: [] for side in SIDES}
            first = []
            for i, seed in enumerate(SEEDS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    run = bench_run(trees[side], name, seconds, seed)
                    runs[side].append(run)
                    print(f"{name} pair {i} {side}: " + ", ".join(
                        f"{k} {v:.6g}" for k, v in run["metrics"].items()), flush=True)
            workloads[name] = {"seconds": seconds, "seeds": SEEDS, "first": first,
                               "runs": runs, "metrics": summarize(runs, directions)}
            for metric, m in workloads[name]["metrics"].items():
                print(f"{name} {metric}: median {m['parent']['median']:.6g} -> "
                      f"{m['change']['median']:.6g} (parent IQR {m['parent']['iqr']:.3g}), "
                      f"change better in {m['change_wins']}/{m['pairs']}, "
                      f"claim_met {m['claim_met']}, within_bound {m['within_bound']}", flush=True)
        doc = bench_document(args.pr, sides, hashes, workloads, machine())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = REPO / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
