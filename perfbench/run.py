#!/usr/bin/env python3
"""driftbound benchmark: the certify and sampling workloads.

    python3 perfbench/run.py [--workload certify|sampling]
                             [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs, each in its own process.  A run
sets the workload up, then repeats whole passes of it until ``--seconds``
have elapsed (at least one pass), checks every pass's outputs, and prints
its metrics by name and unit.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings take the fastest the run saw: ``wall_s`` adds up each timed part
of a pass at the least time it took in the run, because other work on a
shared machine only ever slows a part down (see README.md).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, derived from
spans recorded around every public function of the program (see
``tracing.py``), plus the tracing overhead.  Outputs and the span dump go to
``perfbench_out/`` at the root of the checkout.

Exit code 0 when the run completed (``correct`` may still be false), 2 when
the program cannot be set up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
SETUP_PROBES = 2   # fresh-process set-ups before and again after the timed passes;
                   # setup_s is the median of 2 * SETUP_PROBES + 1

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# (span name, field) pairs reported as ``<span name>.<field>``.
SPAN_METRICS = [
    ("numerics.integrate", "calls"),
    ("numerics.integrate", "self_s"),
    ("numerics.batched_infimum", "calls"),
    ("numerics.batched_infimum", "self_s"),
    ("numerics.golden_section_batch", "self_s"),
    ("numerics.minimize_scalar", "calls"),
    ("minorization.epsilon_lower_bound", "s"),
    ("minorization.uniform_component_band_mass", "s"),
    ("hier_model.assemble_gibbs_bound", "s"),
    ("hier_model.assemble_gibbs_bound", "self_s"),
    ("hier_model.drift_offset_b", "s"),
    ("hier_model.expected_inv_A", "s"),
    ("bound_core.evaluate_bound", "s"),
    ("bound_core.mixing_time_certificate", "s"),
    ("cli.write_csv", "s"),
    ("cli.RunManifest.write", "s"),
    ("simulation.run_ensemble", "s"),
    ("simulation.BinGrid.counts", "s"),
    ("marginal.MarginalKernel.draw_block", "s"),
    ("marginal.MarginalKernel.step_arrays", "calls"),
]
# rate metrics: name -> (count key, span name)
SPAN_RATES = {
    "marginal.run_summary_chain.steps_per_s":
        ("marginal.run_summary_chain.steps", "marginal.run_summary_chain"),
    "simulation.hitting_time_stats.pair_steps_per_s":
        ("simulation.hitting_time_stats.pair_steps", "simulation.hitting_time_stats"),
}
# metrics of one operation, timed in the untraced passes of a traced run:
# name -> (workload, operation, work count per operation or None for a time)
OP_METRICS = {
    "certify.certificate_n100_s": ("certify", "certificate_n100", None),
    "certify.certificate_n6400_s": ("certify", "certificate_n6400", None),
    "sampling.ensemble_chain_steps_per_s": ("sampling", "ensemble", "chain_steps"),
    "sampling.reference_steps_per_s": ("sampling", "reference_chain", "ref_steps"),
}
CRITERION = re.compile(r"acceptance\.criterion_(\d+)_")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{span}.{fld}", "count" if fld == "calls" else "s") for span, fld in SPAN_METRICS]
    names += [("numerics.integrate.evals", "count"),
              ("numerics.RngStream.created", "count"),
              ("numerics.RngStream.setup_s", "s")]
    names += [(name, "1/s") for name in SPAN_RATES]
    names += [(f"acceptance.criterion_{k}.s", "s") for k in wl.ORACLE_CRITERIA]
    names += [(name, "s" if work is None else "1/s") for name, (_, _, work) in OP_METRICS.items()]
    names.append(("trace.overhead_s", "s"))
    return names


def layer_values(agg: dict, counts: dict) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    out = {}
    for span, fld in SPAN_METRICS:
        out[f"{span}.{fld}"] = agg.get(span, {}).get(fld, 0)
    out["numerics.integrate.evals"] = counts.get("numerics.integrate.evals", 0)
    rng = agg.get("numerics.RngStream", {})
    out["numerics.RngStream.created"] = rng.get("calls", 0)
    out["numerics.RngStream.setup_s"] = rng.get("s", 0.0)
    for name, (count_key, span) in SPAN_RATES.items():
        seconds = agg.get(span, {}).get("s", 0.0)
        out[name] = counts.get(count_key, 0) / seconds if seconds > 0 else 0.0
    for span, row in agg.items():
        m = CRITERION.match(span)
        if m:
            out[f"acceptance.criterion_{m.group(1)}.s"] = row["s"]
    return out


def count_signature(agg: dict, counts: dict) -> dict:
    return {**{k: v["calls"] for k, v in agg.items()}, **counts}


def setup_probe_seconds(workload: str, seed: int) -> list[float]:
    """Set the workload up in fresh processes; each reports its own time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise wl.ProgramMissing(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(workload, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have elapsed; in a traced run the
    passes alternate untraced / traced and end on a traced one."""
    passes, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        if trace and index % 2 == 1:
            tracer = Tracer(workload.p.modules)
            with tracer:
                res = workload.run_pass(index, tracer.span)
            traced.append((res, tracer))
        else:
            res = workload.run_pass(index, lambda name: contextlib.nullcontext())
            passes.append(res)
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or index % 2 == 0):
            return passes, traced


def best_pass_s(passes) -> float:
    """A pass with every timed part at the fastest it ran in this run."""
    parts = {name for res in passes for name in res.parts}
    return sum(min(res.parts[name] for res in passes if name in res.parts) for name in parts)


def check_self_times(tracer: Tracer) -> list[str]:
    """Self times inside a certificate (and inside every benchmark operation)
    must add up to its wall time."""
    problems = []
    for i, rec in enumerate(tracer.spans):
        if rec[0] == "hier_model.assemble_gibbs_bound" or rec[0].startswith("bench."):
            wall = rec[2] - rec[1]
            total = tracer.subtree_self_sum(i)
            if abs(total - wall) > 1e-6 * max(1.0, wall):
                problems.append(f"self times under {rec[0]} add to {total!r} s, wall {wall!r} s")
    return problems


def run_one(args) -> int:
    try:
        program = wl.import_program(ROOT)
        workload = wl.WORKLOADS[args.workload](program, args.seed, OUT / args.workload)
    except (wl.ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_times = [setup_s]
    try:
        if not args.trace:
            setup_times += setup_probe_seconds(args.workload, args.seed)
        shutil.rmtree(workload.out_dir, ignore_errors=True)
        workload.out_dir.mkdir(parents=True)
        passes, traced = measure(workload, args.seconds, bool(args.trace))
        if not args.trace:
            setup_times += setup_probe_seconds(args.workload, args.seed)
    except (wl.ProgramMissing, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    every = passes + [res for res, _ in traced]
    problems = [p for res in every for p in res.problems]
    for name in sorted({k for res in every for k in res.blobs}):
        problems += checks.check_identical([res.blobs[name] for res in every
                                               if name in res.blobs], name)
    attempted = sum(res.attempted for res in every)
    failed = sum(res.failed for res in every)

    print(f"{args.workload}: seed {args.seed}, {len(passes)} untraced and {len(traced)} "
          f"traced passes, {attempted} operations attempted, {failed} failed")
    for res in passes:
        ops = ", ".join(f"{k} {v:.4g} s" for k, v in {**res.parts, **res.op_s}.items())
        print(f"  pass {res.wall_s:.4g} s" + (f" ({ops})" if ops else ""))

    if args.trace:
        metrics = traced_metrics(workload, passes, traced, problems)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": best_pass_s(passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(workload, passes, traced, problems) -> dict:
    """Per-layer values of the fastest traced pass, operation metrics of the
    fastest untraced passes, and the overhead between the two."""
    signatures = []
    for res, tracer in traced:
        signatures.append(count_signature(tracer.aggregate(), tracer.counts))
        problems += check_self_times(tracer)
    if any(sig != signatures[0] for sig in signatures):
        problems.append("call counts differ between the traced passes of this run")
    best, tracer = min(traced, key=lambda item: item[0].wall_s)
    found = layer_values(tracer.aggregate(), tracer.counts)
    values = {name: found.get(name, 0) for name, _ in per_layer_names()}
    for name, (wname, op, work) in OP_METRICS.items():
        times = [res.op_s[op] for res in passes if op in res.op_s]
        if wname != workload.name or not times:
            values[name] = 0.0
        elif work is None:
            values[name] = min(times)
        else:
            values[name] = workload.work[work] / min(times)
    fastest_untraced = min(res.wall_s for res in passes)
    values["trace.overhead_s"] = best.wall_s - fastest_untraced
    tracer.dump(OUT / f"trace-{workload.name}.json",
                {"workload": workload.name, "seed": workload.seed,
                 "untraced_wall_s": [r.wall_s for r in passes],
                 "traced_wall_s": [r.wall_s for r, _ in traced]})
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up, and is
    printed only when every workload produced a result."""
    summary = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        summary[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
