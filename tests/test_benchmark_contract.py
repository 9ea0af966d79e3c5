"""The calls that perfbench/ makes into the package, by their shapes.

The benchmark reaches the program through module attributes and, when
tracing, reads some arguments by name; a change of signature that breaks it
fails here rather than only in a benchmark run.
"""

import inspect

from driftbound import _marginal, cli, numerics, simulation

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
