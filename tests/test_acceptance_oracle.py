"""The criterion-1 oracle at smoke scale, criteria 8 and 9 against a fault,
and stream ownership across criteria.

Criterion 1 reduces each block of latent vectors in one pass and runs its
states on a thread pool; these tests hold the reduction to the materialized
block, the pooled states to a serial run, and the criterion to its recorded
value.  Criteria 8 and 9 must fail when the bound or the certified epsilon
they check is made wrong.  The last tests share one smoke-scale run of
every Monte Carlo criterion that records the streams each one keys, so two
criteria can never again draw the same bits, and pin the name and threshold
each one reports.
"""

import dataclasses
import inspect
import math
import os
import sys
from itertools import combinations

import numpy as np
import pytest

from driftbound import acceptance
from driftbound.simulation import ENSEMBLE_STREAM_BASE, PAIR_STREAM_BASE

SMOKE = 0.02  # every sample count at its floor


@pytest.mark.parametrize("a_val", [1e-4, 0.2, 3.8, 1e4])
def test_latent_summary_matches_the_materialized_block(a_val):
    """w = V/(V+A) runs from near 1 (small A) to near 0 (large A)."""
    cfg, center = acceptance._classic_model()
    ds = acceptance._dataset(cfg, 100, center)
    w = cfg.V / (cfg.V + a_val)
    sd = math.sqrt(a_val * cfg.V / (cfg.V + a_val))
    g = acceptance.RngStream(1, 0).generator
    mu1 = g.normal(ds.y_bar + 2.0, math.sqrt(a_val / ds.n), 2048)
    z = g.standard_normal((2048, ds.n))
    tb1, s1 = acceptance._latent_summary(mu1, z, ds, w, sd)
    theta = mu1[:, None] * w + ds.y[None, :] * (1.0 - w) + sd * z
    # a row mean can sit near zero, so its error is taken relative to the
    # largest |theta| of the row, the size of the terms it sums
    scale = np.abs(theta).max(axis=1)
    assert np.all(np.abs(tb1 - theta.mean(axis=1)) <= 1e-12 * scale)
    var = theta.var(axis=1, ddof=1)
    assert np.all(np.abs(s1 - var) <= 1e-12 * var)


def test_criterion_1_states_do_not_depend_on_the_worker_count():
    n_draws = acceptance._count(1_000_000, SMOKE, floor=20_000)
    serial = acceptance._criterion_1_abs_z(n_draws, 1)  # one thread: the states in turn
    # four workers and a short switch interval, so the states interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = acceptance._criterion_1_abs_z(n_draws, 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(serial) == len(acceptance._STREAMS["1 states"])
    assert pooled == serial


def test_criterion_1_runs_without_sched_getaffinity(monkeypatch):
    # os.sched_getaffinity exists only on Linux; elsewhere the states run on
    # one thread per CPU that os.cpu_count reports
    monkeypatch.delattr(os, "sched_getaffinity")
    workers = []
    abs_z = acceptance._criterion_1_abs_z

    def recording(n_draws, n_workers):
        workers.append(n_workers)
        return abs_z(n_draws, n_workers)

    monkeypatch.setattr(acceptance, "_criterion_1_abs_z", recording)
    result = acceptance.criterion_1_exact_moment_oracle(scale=SMOKE)
    assert workers == [min(len(acceptance._STREAMS["1 states"]), os.cpu_count() or 1)]
    assert result.measured["max_abs_z"] == 3.563


def test_criterion_8_fails_when_the_bound_is_off_by_1e9(monkeypatch):
    evaluate = acceptance.evaluate_bound
    monkeypatch.setattr(acceptance, "evaluate_bound",
                        lambda *args: (1.0 + 1e-9) * evaluate(*args))
    result = acceptance.criterion_8_algebraic_identities(scale=SMOKE)
    assert not result.passed
    assert result.measured["max_direct_rel_err"] == pytest.approx(1e-9, rel=1e-3)


def test_criterion_8_fails_when_the_rate_exceeds_the_unbudgeted_rate(monkeypatch):
    # the identity is checked without the rate's rounding budget, so the
    # budget does not show in max_gamma_rel_err; a reported rate above the
    # unbudgeted one fails the criterion
    derive = acceptance.derived_constants

    def raised(*args):
        dc = derive(*args)
        rate = dc.log_inv_gamma * (1.0 + 1e-9)
        return dataclasses.replace(dc, log_inv_gamma=rate, gamma=math.exp(-rate))

    monkeypatch.setattr(acceptance, "derived_constants", raised)
    result = acceptance.criterion_8_algebraic_identities(scale=SMOKE)
    assert not result.passed
    assert result.measured["max_gamma_rel_err"] <= 1e-15


def test_criterion_9_fails_when_the_overlap_is_below_the_certified_epsilon(monkeypatch):
    certified = []
    assemble = acceptance.assemble_gibbs_bound

    def recording(*args, **kwargs):
        report = assemble(*args, **kwargs)
        certified.append(report.constants.epsilon)
        return report

    monkeypatch.setattr(acceptance, "assemble_gibbs_bound", recording)
    monkeypatch.setattr(acceptance, "overlap_oracle_mc",
                        lambda *args: (0.5 * certified[-1], 0.0))
    result = acceptance.criterion_9_minorization_honesty(scale=SMOKE)
    assert not result.passed
    # the epsilon it reports is the assembled certificate's
    assert [result.measured[f"n{n}"]["eps"] for n in (50, 100)] == [
        float(f"{eps:.4e}") for eps in certified]


@pytest.fixture(scope="module")
def smoke_run():
    """Criteria 1-9 at smoke scale, with the stream keys and plan seeds each
    one used.  Criterion 10 draws only through the CLI's config seed."""
    keys, plans = {}, {}
    current = []

    class Recording(acceptance.RngStream):
        def __init__(self, seed, stream_index=0):
            super().__init__(seed, stream_index)
            if self.seed != acceptance._DATA_SEED:
                keys[current[-1]].add((self.seed, self.stream_index))

    run_ensemble, hitting_time_stats = acceptance.run_ensemble, acceptance.hitting_time_stats

    def ensemble(plan, *args, **kwargs):
        plans[current[-1]].add(plan.seed)
        return run_ensemble(plan, *args, **kwargs)

    def return_times(*args, seed, **kwargs):
        plans[current[-1]].add(seed)
        return hitting_time_stats(*args, seed=seed, **kwargs)

    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "RngStream", Recording)
        mp.setattr(acceptance, "run_ensemble", ensemble)
        mp.setattr(acceptance, "hitting_time_stats", return_times)
        for name, criterion in acceptance.CRITERIA.items():
            if name == "10":
                continue
            current.append(name)
            keys[name], plans[name] = set(), set()
            results[name] = criterion(scale=SMOKE)
    return results, keys, plans


def test_criterion_1_keeps_its_value_at_smoke_scale(smoke_run):
    results, _, _ = smoke_run
    assert results["1"].measured["max_abs_z"] == 3.563
    assert results["1"].passed


def test_criterion_4_reports_its_smallest_clamped_bound(smoke_run):
    # the raw bound stays above 1 through k = 200, so the clamped curve is 1
    # at every step and no binned TV can exceed it: the check is vacuous
    results, _, _ = smoke_run
    assert results["4"].measured["min_clamped_bound"] == 1.0
    assert results["4"].passed


def test_criteria_report_their_names_and_thresholds(smoke_run):
    results, _, _ = smoke_run
    assert [(r.name, r.threshold) for r in results.values()] == [
        ("1 exact-moment oracle",
         "max |z| <= 4.04 (Sidak: family-wise rate of one |z| <= 3 test)"),
        ("2 drift inequality", "0 violations"),
        ("3 constant flatness", "b max/min < 2, eps min/max > 0.5, K_bar max/min < 2"),
        ("4 bound validity", "clamped bound >= empirical TV - 3 SE at every k <= 200"),
        ("5 tail bound",
         "k*pi_hat + sum exits <= certificate exit terms + 3 SE for k <= 10"),
        ("6 posterior functional",
         "h_n <= 2/margin; |h_400 - 1/c| < 0.15/c; |mc - quad| <= 3 SE"),
        ("7 coupling constructions", "TV < 0.05 each; Pr(N_k < j) <= product bound + 3 SE"),
        ("8 algebraic identities",
         "gamma identity and direct bound formula <= 1e-12 relative on 100 sets"),
        ("9 minorization honesty", "certified eps <= overlap + 3 SE at n = 50 and 100"),
    ]
    for result in results.values():
        assert type(result.seconds) is float and result.seconds >= 0.0


def test_criteria_report_their_own_signature():
    # the criterion, not its (passed, measured) body, is what callers see
    for key, criterion in acceptance.CRITERIA.items():
        assert str(inspect.signature(criterion)) == "(scale: 'float' = 1.0) -> 'CriterionResult'"
        assert not hasattr(criterion, "__wrapped__")
        assert criterion.__name__.startswith(f"criterion_{key}_")
        assert criterion.__qualname__ == criterion.__name__
        assert criterion.__module__ == "driftbound.acceptance"
        assert getattr(acceptance, criterion.__name__) is criterion
        assert criterion.__doc__


def test_no_two_criteria_share_a_stream(smoke_run):
    _, keys, plans = smoke_run
    for a, b in combinations(keys, 2):
        assert not keys[a] & keys[b], f"criteria {a} and {b} share {sorted(keys[a] & keys[b])}"
        assert not plans[a] & plans[b], f"criteria {a} and {b} share a plan seed"
    # the table names every stream drawn from, and only those
    table = set()
    for owner, index in acceptance._STREAMS.items():
        indices = index if isinstance(index, range) else [index]
        table |= {(acceptance._MASTER_SEED, i) for i in indices}
    assert set().union(*keys.values()) == table
    assert set().union(*plans.values()) == set(acceptance._PLAN_SEEDS.values())
    # ensemble and pair streams sit above every index in the table
    assert max(i for _, i in table) < min(ENSEMBLE_STREAM_BASE, PAIR_STREAM_BASE)
