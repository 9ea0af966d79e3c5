"""The calls that perfbench/ makes into the package, by their shapes.

The benchmark reaches the program through module attributes and, when
tracing, reads some arguments by name; a change of signature that breaks it
fails here rather than only in a benchmark run.  Likewise a certificate that
the benchmark's own output checks would reject fails here.
"""

import importlib.util
import inspect
import math
import threading
from pathlib import Path

import numpy as np

from driftbound import (
    _marginal,
    acceptance,
    bound_core,
    cli,
    hier_model,
    minorization,
    numerics,
    simulation,
)

ANY = object()


def _bind(fn, *args, **kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def test_workload_call_shapes_bind():
    # perfbench/workloads.py, the chain part of the sampling workload
    _bind(simulation.run_reference_chain, ANY, ANY, ANY, 1_000_000, 100_000)
    _bind(simulation.run_ensemble, ANY, ANY, ANY, ANY, large_set=ANY, bins=ANY, threads=1)
    args = _bind(simulation.hitting_time_stats, 4000, 60, ANY, ANY, ANY, ANY, ANY, seed=1)
    # perfbench/tracing.py counts pair-steps from these two arguments
    assert (args["n_pairs"], args["n_steps"]) == (4000, 60)


def test_chains_setup_calls_keep_their_shapes():
    # perfbench/workloads.py, Chains.__init__: the large set, the small-set
    # level from b and lambda_T, alpha from derive_alpha_lambda, the plan
    cfg = cli.load_config(None, {"seed": 3})
    ds = cfg.resolve_dataset()
    spec = cfg.resolve_large_set(ds)
    assert isinstance(spec, hier_model.LargeSetSpec)
    b = hier_model.drift_offset_b(ds, cfg.model, spec)
    lam = hier_model.lambda_T(spec, cfg.model.V)
    assert b > 0.0 and 0.0 < lam < 1.0
    pair = bound_core.derive_alpha_lambda(
        bound_core.DriftParameters(lam=lam, b_drift=b, d_small=2.5 * b / (1.0 - lam)))
    assert isinstance(pair, tuple) and len(pair) == 2
    alpha, _ = pair
    assert alpha > 1.0
    plan = simulation.SimulationPlan(seed=3, **cfg.plan)
    assert plan.seed == 3 and plan.n_chains >= 1 and plan.n_steps >= 1


def test_traced_arguments_keep_their_names():
    # perfbench/tracing.py counts steps from n_steps and wraps integrate's f
    assert "n_steps" in inspect.signature(_marginal.run_summary_chain).parameters
    assert "f" in inspect.signature(numerics.integrate).parameters


def test_sweep_n_reaches_the_certificate_through_cli(tmp_path, monkeypatch):
    # the certify workload times cli.assemble_gibbs_bound and keys each call
    # by the n of its first positional argument, the dataset
    seen = []
    original = cli.assemble_gibbs_bound

    def timed(*args, **kwargs):
        seen.append(args[0].n)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_gibbs_bound", timed)
    assert cli.main(["sweep-n", "--n-list", "100", "--out", str(tmp_path)]) == 0
    assert seen == [100]


def _perfbench(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_sweep_passes_the_benchmark_checks(tmp_path):
    # the certify workload runs this sweep on the default configuration and
    # rejects the pass when perfbench/checks.py finds a problem in its rows
    checks = _perfbench("checks")
    n_list = [100, 6400]
    assert cli.main(["sweep-n", "--n-list", "100,6400", "--out", str(tmp_path)]) == 0
    rows = checks.parse_sweep_csv((tmp_path / "sweep_n.csv").read_text(encoding="utf-8"))
    cfg = cli.load_config(None, {})
    center = float(cfg.data_source["synth"]["center"])
    assert cfg.large_set_T is None  # so T takes its default, min(delta, center/2)
    T = min(cfg.model.delta_margin, center / 2.0)
    assert checks.check_sweep(rows, n_list, cfg.model.V, T, center) == []


def test_initial_state_carries_what_the_workloads_read():
    # perfbench/workloads.py passes .theta_bar and .A of the start state to
    # expected_drift and the state itself as x0 to run_ensemble
    cfg = cli.load_config(None, {})
    ds = cfg.resolve_dataset()
    x0 = hier_model.initial_state(ds, cfg.model)
    assert type(x0.theta_bar) is float and type(x0.A) is float
    assert math.isfinite(hier_model.expected_drift(x0.theta_bar, x0.A, ds, cfg.model))
    plan = simulation.SimulationPlan(n_chains=2, n_steps=1)
    summary = simulation.run_ensemble(plan, ds, cfg.model, x0, threads=1)
    assert np.all(np.isfinite(summary.mean_f))


def test_dataset_carries_what_the_workloads_read():
    # perfbench/workloads.py passes .n and .delta of the configured dataset
    # to its posterior check, and keys certificates by .n
    ds = cli.load_config(None, {}).resolve_dataset()
    assert type(ds.n) is int
    assert type(ds.delta) is float and type(ds.y_bar) is float


def test_criterion_1_calls_public_functions_from_the_main_thread_only():
    # the tracer keeps one span stack for the process, so a public function
    # called from one of criterion 1's worker threads would corrupt it
    tracing = _perfbench("tracing")
    calls = []

    class ThreadRecorder(tracing.Tracer):
        def _hook_for(self, name):
            def hook(fn, args, kwargs):
                calls.append((name, threading.current_thread()))
                return args, kwargs
            return hook

    modules = [numerics, bound_core, hier_model, minorization, _marginal, simulation, cli,
               acceptance]
    with ThreadRecorder(modules):
        acceptance._criterion_1_abs_z(20_000, 2)
    assert {"hier_model.expected_drift", "numerics.RngStream"} <= {name for name, _ in calls}
    assert [name for name, thread in calls if thread is not threading.main_thread()] == []


# Spans that perfbench/run.py reports but whose functions were deleted on
# purpose, so their metrics read 0.  Moving a span from LIVE_SPANS to here is
# a decision for CHANGES.md, not a side effect of a refactor.
DEAD_SPANS = {
    "numerics.batched_infimum",
    "numerics.golden_section_batch",
    "numerics.minimize_scalar",
    "minorization.epsilon_lower_bound",
    "minorization.uniform_component_band_mass",
}
LIVE_SPANS = {
    "bound_core.evaluate_bound",
    "bound_core.mixing_time_certificate",
    "hier_model.assemble_gibbs_bound",
    "hier_model.drift_offset_b",
    "hier_model.expected_inv_A",
    "numerics.integrate",
    "numerics.RngStream",
    "cli.write_csv",
    "cli.RunManifest.write",
    "simulation.run_ensemble",
    "simulation.BinGrid.counts",
    "simulation.hitting_time_stats",
    "marginal.MarginalKernel.draw_block",
    "marginal.MarginalKernel.step_arrays",
    "marginal.run_summary_chain",
}


def test_every_live_benchmark_span_resolves_to_a_public_function(monkeypatch):
    # perfbench/run.py reports per-layer metrics from spans named after
    # public functions, methods and classes; a span whose function is renamed
    # or made private silently reads 0, so each live one must still be made
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    run = _perfbench("run")
    tracing = _perfbench("tracing")
    reported = {span for span, _ in run.SPAN_METRICS}
    reported |= {span for _, span in run.SPAN_RATES.values()}
    reported.add("numerics.RngStream")  # run.layer_values reads this span by name
    assert reported - DEAD_SPANS == LIVE_SPANS

    made = set()

    class NameRecorder(tracing.Tracer):
        def _wrapped(self, fn, name):
            made.add(name)
            return super()._wrapped(fn, name)

    with NameRecorder([numerics, bound_core, hier_model, minorization, _marginal, simulation,
                       cli, acceptance]):
        pass
    assert LIVE_SPANS <= made, sorted(LIVE_SPANS - made)
    assert not DEAD_SPANS & made
    # acceptance.criterion_{k}_* for each criterion the sampling workload runs
    assert set(run.wl.ORACLE_CRITERIA) == {"1", "2", "5", "6", "8"}
    assert set(run.wl.ORACLE_CRITERIA) <= {m.group(1) for m in map(run.CRITERION.match, made) if m}
