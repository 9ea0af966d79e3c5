"""Tests of the benchmark's own checkers and tracer.

Each checker is fed a correct input, which it must accept, and deliberately
wrong inputs, which it must reject.  Run with

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from tracing import Tracer

V, T, CENTER = 8e-4, 0.05, 0.1


def good_sweep():
    lam = checks.lambda_T_closed_form(V, T)
    rows = []
    for n, b, k_bar in ((100, 0.0101, 67422), (6400, 0.0102, 33271)):
        d = 2.5 * b / (1.0 - lam)
        rows.append({"n": n, "lambda_T": lam, "b": b, "d": d, "epsilon": 2.4e-4,
                     "q_mass": 0.999, "gamma": 1.0 - 1e-5, "K_bar": float(k_bar),
                     "N_c": 1e9, "status": "ok"})
    return rows


def sweep_problems(rows):
    return checks.check_sweep(rows, [r["n"] for r in rows], V, T, CENTER)


def test_sweep_accepts_a_sound_certificate():
    assert sweep_problems(good_sweep()) == []


def test_epsilon_ceiling_is_the_two_corner_mu_overlap():
    n, d = 100, 0.05
    hw = math.sqrt(d / n)
    sd = math.sqrt((CENTER - hw) / n)
    grid = np.linspace(-1.0, 1.0, 400_001)
    dens = lambda m: np.exp(-0.5 * (grid - m) ** 2 / sd**2) / (sd * math.sqrt(2 * math.pi))
    overlap = np.minimum(dens(-hw), dens(hw)).sum() * (grid[1] - grid[0])
    assert checks.epsilon_ceiling(n, d, CENTER) == pytest.approx(overlap, rel=1e-6)


@pytest.mark.parametrize("field, value", [
    ("epsilon", 0.9),            # above the overlap ceiling
    ("epsilon", 0.0),
    ("lambda_T", 0.5),
    ("q_mass", 1.5),
    ("gamma", 1.0),
    ("d", 10.0),                 # box reaches A <= 0
])
def test_sweep_rejects_a_wrong_constant(field, value):
    rows = good_sweep()
    rows[0][field] = value
    assert sweep_problems(rows)


def test_sweep_rejects_b_that_grows_with_n():
    rows = good_sweep()
    rows[1]["b"] = 3.0 * rows[0]["b"]
    assert any("flat" in p for p in sweep_problems(rows))


def test_sweep_rejects_k_bar_that_grows_with_n():
    rows = good_sweep()
    rows[1]["K_bar"] = rows[0]["K_bar"] + 1
    assert any("K_bar" in p for p in sweep_problems(rows))


def test_sweep_rejects_missing_rows():
    assert checks.check_sweep(good_sweep()[:1], [100, 6400], V, T, CENTER)


def test_sweep_csv_round_trip():
    header = ",".join(checks.SWEEP_COLUMNS)
    text = f"{header}\n100,0.5,0.01,0.03,0.0002,0.99,0.99999,5,6,ok\n"
    rows = checks.parse_sweep_csv(text)
    assert rows[0]["n"] == 100 and rows[0]["status"] == "ok" and rows[0]["K_bar"] == 5.0
    with pytest.raises(ValueError):
        checks.parse_sweep_csv("n,eps\n1,2\n")


def test_identical_rejects_differing_bytes():
    assert checks.check_identical([b"a", b"a"], "x") == []
    assert checks.check_identical([b"a", b"b"], "x")


def inverse_gamma_case():
    # with V = 0 the A posterior is inverse-gamma(a + (n-1)/2, b + delta/2)
    n, delta, a, b = 100, 9.9, 3.0, 0.2
    shape, scale = a + 0.5 * (n - 1), b + 0.5 * delta
    return (n, delta, 0.0, a, b), shape, scale


def test_posterior_moments_match_the_inverse_gamma_closed_form():
    args, shape, scale = inverse_gamma_case()
    mean_a, mean_inv = checks.posterior_A_moments(*args)
    assert mean_a == pytest.approx(scale / (shape - 1.0), rel=1e-9)
    assert mean_inv == pytest.approx(shape / scale, rel=1e-9)


def test_reference_check_accepts_exact_draws_and_rejects_shifted_ones():
    args, shape, scale = inverse_gamma_case()
    moments = checks.posterior_A_moments(*args)
    draws = scale / np.random.default_rng(5).standard_gamma(shape, 200_000)
    assert checks.check_reference(draws, *moments) == []
    assert checks.check_reference(draws * 1.01, *moments)


def test_ensemble_check():
    hist = np.full((3, 4), 5)
    assert checks.check_ensemble(10.0, 0.1, 10.2, hist, 20) == []
    assert checks.check_ensemble(10.0, 0.1, 10.5, hist, 20)      # 5 SE away
    bad = hist.copy()
    bad[1, 0] = 4
    assert checks.check_ensemble(10.0, 0.1, 10.2, bad, 20)


def good_t_matrix():
    rng = np.random.default_rng(1)
    t = np.cumsum(rng.integers(1, 5, size=(50, 5)), axis=1)
    t -= t[:, :1]
    t[3, 3:] = -1                                                   # censored tail
    return t


def test_return_times_accepts_increasing_times():
    assert checks.check_return_times(good_t_matrix()) == []


def test_return_times_rejects_a_shuffled_matrix():
    t = good_t_matrix()
    np.random.default_rng(2).shuffle(t, axis=1)
    assert checks.check_return_times(t)


def test_return_times_rejects_a_late_first_return_and_a_gap_after_censoring():
    t = good_t_matrix()
    t[0, 0] = 1
    assert checks.check_return_times(t)
    t = good_t_matrix()
    t[3, 4] = 99
    assert checks.check_return_times(t)


def report(*passed):
    return [{"name": f"{k} x", "passed": p} for k, p in zip(("1", "2"), passed)]


def test_validation_check():
    assert checks.check_validation(0, report(True, True), ["1", "2"]) == []
    assert checks.check_validation(3, report(True, False), ["1", "2"]) == []
    assert checks.check_validation(0, report(True, False), ["1", "2"])
    assert checks.check_validation(3, report(True, True), ["1", "2"])
    assert checks.check_validation(0, report(True), ["1", "2"])


TOY_SOURCE = """
def leaf(x):
    return sum(range(x))

def inner(x):
    return leaf(x) + leaf(x)

def outer(x):
    return inner(x) + leaf(x)
"""


def make_toy_package():
    mod = types.ModuleType("toypkg.core")
    exec(compile(TOY_SOURCE, "toypkg/core.py", "exec"), mod.__dict__)
    return mod


def test_tracer_self_times_add_up_and_bindings_are_restored():
    mod = make_toy_package()
    original = mod.leaf
    tracer = Tracer([mod])
    with tracer:
        assert mod.leaf is not original
        with tracer.span("bench.toy"):
            mod.outer(20_000)
    assert mod.leaf is original
    agg = tracer.aggregate()
    assert agg["core.leaf"]["calls"] == 3
    assert agg["core.inner"]["calls"] == 1
    root = next(i for i, rec in enumerate(tracer.spans) if rec[0] == "bench.toy")
    wall = tracer.spans[root][2] - tracer.spans[root][1]
    assert tracer.subtree_self_sum(root) == pytest.approx(wall, rel=1e-9)
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(wall, rel=1e-9)


def test_best_pass_adds_each_part_at_its_fastest():
    passes = [types.SimpleNamespace(parts={"a": 3.0, "b": 1.0}),
              types.SimpleNamespace(parts={"a": 2.0, "b": 1.5}),
              types.SimpleNamespace(parts={"a": 4.0})]
    assert run.best_pass_s(passes) == pytest.approx(3.0)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(run.wl.WORKLOADS)
