"""End-to-end validation suite.

Ten numbered criteria check the package against independent routes: exact
conditional moments against brute-force Monte Carlo on the full kernel,
certificate constants against flatness across sample sizes, bound curves
against empirical binned distances, quadrature functionals against chain
averages, coupling-side inequalities against simulated return times, and
the CLI against byte-level reproducibility.

Each criterion's body returns its verdict and measurements; one runner,
the private decorator ``_criterion``, names, times and records every
criterion, so each public ``criterion_<k>_*`` returns a
:class:`CriterionResult`.  The ``scale`` argument multiplies sample counts
for smoke runs (1.0 reproduces the full-size suite used by the pytest
acceptance module and ``driftbound validate``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .bound_core import (
    DriftParameters,
    MinorizationCertificate,
    derived_constants,
    evaluate_bound,
)
from .hier_model import (
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    data_center,
    default_large_set,
    drift_offset_b,
    drift_value_summary,
    expected_drift,
    expected_inv_A,
    initial_state,
    lambda_T,
    lambda_factor,
    synth_dataset,
)
from .minorization import SmallSetBox, overlap_oracle_mc
from .numerics import RngStream
from .simulation import (
    BinGrid,
    SimulationPlan,
    hitting_time_stats,
    run_ensemble,
    run_reference_chain,
    run_trace_chain,
    split_half_tv,
    tv_from_counts,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

_MASTER_SEED = 20260801
_DATA_SEED = 7

# Every stream a criterion draws from, with its one owner: the stream
# (_MASTER_SEED, index), in index order.  The chains of the ensembles and
# pair simulations take (seed, ENSEMBLE_STREAM_BASE + i) and
# (seed, PAIR_STREAM_BASE + j) from their own plan seeds.  Datasets are
# inputs, not draws: each is synthesized from the stream (_DATA_SEED, 0), so
# criteria that agree on n and the center see the same data.
_STREAMS = {
    "4 reference chain": 1,     # both sample sizes
    "1 state picker": 2,
    "2 states": 3,
    "7 reference chain": 4,
    "7 trace chain": 5,
    "7 restricted chain": 6,
    "5 reference chain": 7,
    "8 parameter sets": 8,
    "6 reference chain": 9,
    "9 overlap n=50": 12,
    "9 overlap n=100": 13,
    "1 states": range(102, 152),
}
_PLAN_SEEDS = {
    "4 ensembles": _MASTER_SEED,    # both sample sizes
    "5 ensemble": _MASTER_SEED + 1,
    "7 return times": _MASTER_SEED + 2,
}


def _stream(owner: str) -> RngStream:
    return RngStream(_MASTER_SEED, _STREAMS[owner])


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: dict
    threshold: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = ", ".join(f"{k}={v}" for k, v in self.measured.items())
        return f"criterion {self.name}: {status} ({details}) [{self.seconds:.1f}s]"


def _count(base: int, scale: float, floor: int = 1000) -> int:
    return max(floor, int(round(base * scale)))


# Desk-scale model configurations.  The tight-band configuration keeps the
# small-set box well inside the retained band at n = 100, which is what
# makes the minorization volume and the decay rate representable and flat;
# the classic configuration exercises the kernel at order-one scales.
def _tight_model() -> tuple[ModelConfig, float]:
    return ModelConfig(V=8e-4, prior_shape_a=3.0, prior_scale_b=0.2, delta_margin=0.08), 0.1


def _classic_model(center: float = 2.0, delta: float = 1.0) -> tuple[ModelConfig, float]:
    return ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=delta), center


def _dataset(cfg: ModelConfig, n: int, center: float):
    return synth_dataset(n, center, cfg, RngStream(_DATA_SEED, 0), exact_center=True)


def _batch_means_se(x: np.ndarray) -> float:
    """Standard error of a chain average from 100 contiguous batch means."""
    means = np.array([b.mean() for b in np.array_split(x, 100)])
    return float(means.std(ddof=1) / math.sqrt(100))


_LATENT_ROWS = 512  # latent vectors held at once by _gibbs_sweeps


def _latent_summary(mu1, z, ds, w, sd):
    """Row means and unbiased variances of ``theta = mu1*w + y*(1-w) + sd*z``
    without forming theta.

    Since ``theta - theta_bar = (1-w)*(y - y_bar) + sd*(z - z_bar)`` row by
    row, with ``delta`` the centered sum of squares of y,

        theta_bar   = mu1*w + (1-w)*y_bar + sd*sum(z)/n
        (n-1)*s^2   = (1-w)^2*delta + 2*(1-w)*sd*(z @ (y - y_bar))
                      + sd^2*(sum(z^2) - sum(z)^2/n),

    so three row reductions of ``z``, one pass over it each, give both.
    """
    n = ds.n
    z_sum = z.sum(axis=1)
    z_sq = np.einsum("ij,ij->i", z, z)
    z_y = np.einsum("ij,j->i", z, ds.y - ds.y_bar)
    tb1 = mu1 * w + (1.0 - w) * ds.y_bar + sd * z_sum / n
    ss = ((1.0 - w) ** 2 * ds.delta + 2.0 * (1.0 - w) * sd * z_y
          + sd * sd * (z_sq - z_sum * z_sum / n))
    return tb1, ss / (n - 1)


def _gibbs_sweeps(theta_bar, A, ds, cfg, m, stream, band=None):
    """``m`` independent full-latent Gibbs sweeps from the state
    (theta_bar, A); returns the length-m arrays (mu', theta_bar', S', A').

    Kept independent of the summary-state recursion on purpose: this is the
    oracle route for the exact-moment formulas and for ``_marginal``.  Each
    sweep draws mu' ~ N(theta_bar, A/n), then every coordinate of the latent
    vector theta' ~ N(mu'*w + y*(1-w), sd^2), w = V/(V+A), sd^2 = A*V/(V+A),
    whose sample mean theta_bar' and variance S' :func:`_latent_summary`
    reduces from the same normals by exact algebra, then A' from its full
    conditional given S'.  No distributional fact about the summary state
    (the laws ``_marginal`` samples from) is used.

    Draw layout (fixed for reproducibility): m normals for mu', the latent
    normals in the row-major order of one (m, n) block, of which only
    ``_LATENT_ROWS`` rows are held at a time, then m standard gammas for A';
    one sweep draws one normal, n normals and one gamma.

    With ``band`` each sweep is the per-sub-step rejection kernel on the
    band: the mu and theta stages cannot leave a band that constrains A
    alone, so they always go through, and an A proposal outside the band is
    dropped and A kept.  Under shared randomness it emits exactly the
    unrestricted sweeps whose proposals stay inside.

    Criterion 1 calls this from its worker threads, so it calls no public
    function of the package on the unrestricted route.
    """
    if band is not None and not band.contains(A):
        raise ModelError("state outside the retained band")
    n, v = ds.n, cfg.V
    g = stream.generator
    mu1 = g.normal(theta_bar, math.sqrt(A / n), m)
    w = v / (v + A)
    sd = math.sqrt(A * v / (v + A))
    tb1 = np.empty(m)
    s1 = np.empty(m)
    z = np.empty((min(m, _LATENT_ROWS), n))
    for r in range(0, m, _LATENT_ROWS):
        rows = slice(r, min(r + _LATENT_ROWS, m))
        block = z[:rows.stop - r]
        g.standard_normal(out=block)
        tb1[rows], s1[rows] = _latent_summary(mu1[rows], block, ds, w, sd)
    beta = cfg.prior_scale_b + 0.5 * (n - 1) * s1
    a1 = beta / g.standard_gamma(cfg.prior_shape_a + 0.5 * (n - 1), m)
    if band is not None:
        a1 = np.where(band.contains(a1), a1, A)
    return mu1, tb1, s1, a1


def _one_step_energy_mc(ds, cfg, center, theta_bar, a_val, n_draws, stream):
    """Monte Carlo mean of the one-sweep energy from (theta_bar, a_val) and
    its standard error, over ``n_draws`` sweeps of :func:`_gibbs_sweeps`
    run in chunks of at most 4e6 latent coordinates.  ``center`` is the
    drift function's center, ``data_center(ds, cfg)``."""
    n = ds.n
    chunk = max(1, 4_000_000 // n)
    total = 0.0
    total_sq = 0.0
    for done in range(0, n_draws, chunk):
        m = min(chunk, n_draws - done)
        _, tb1, _, a1 = _gibbs_sweeps(theta_bar, a_val, ds, cfg, m, stream)
        f = n * ((tb1 - ds.y_bar) ** 2 + (center - a1) ** 2)
        total += float(f.sum())
        total_sq += float((f * f).sum())
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / n_draws)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _criterion(name: str, threshold: str):
    """Turn a check ``body(scale) -> (passed, measured)`` into the criterion
    ``name``: the criterion times the body and returns its
    :class:`CriterionResult` against ``threshold``.

    The criterion takes the body's name, qualified name and docstring, but
    keeps its own annotations and no ``__wrapped__``, so ``inspect`` and
    ``help`` report that it returns a :class:`CriterionResult`."""
    def runner(body):
        def criterion(scale: float = 1.0) -> CriterionResult:
            clock = time.monotonic
            t0 = clock()
            passed, measured = body(scale)
            return CriterionResult(name, passed, measured, threshold, clock() - t0)
        criterion.__name__ = body.__name__
        criterion.__qualname__ = body.__qualname__
        criterion.__doc__ = body.__doc__
        return criterion
    return runner


# Criterion 1's Sidak threshold on the largest of its |z|: the family-wise
# rate over its states is that of one |z| <= 3 test.
_Z_MAX = -ndtri(-0.5 * math.expm1(math.log1p(-2.0 * ndtr(-3.0)) / len(_STREAMS["1 states"])))


def _criterion_1_abs_z(n_draws: int, workers: int) -> list[float]:
    """|z| of the full-kernel Monte Carlo one-sweep energy against the exact
    moment at each of criterion 1's 50 states, in state order.

    All states are picked, and their streams keyed, before any is run; each
    state then draws only from its own stream, so the list does not depend
    on ``workers``, the number of threads the states run on.
    """
    cfg, center = _classic_model()
    ds = _dataset(cfg, 100, center)
    c = data_center(ds, cfg)
    rng = _stream("1 state picker").generator
    states = []
    for index in _STREAMS["1 states"]:
        tb = ds.y_bar + rng.uniform(-3.0, 3.0)
        a_val = rng.uniform(0.2, 2.0 * center - 0.2)
        states.append((tb, a_val, expected_drift(tb, a_val, ds, cfg),
                       RngStream(_MASTER_SEED, index)))

    def abs_z(state):
        tb, a_val, exact, stream = state
        mc, se = _one_step_energy_mc(ds, cfg, c, tb, a_val, n_draws, stream)
        return abs(mc - exact) / se

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(abs_z, states))


@_criterion("1 exact-moment oracle",
            f"max |z| <= {_Z_MAX:.2f} (Sidak: family-wise rate of one |z| <= 3 test)")
def criterion_1_exact_moment_oracle(scale: float = 1.0) -> tuple[bool, dict]:
    """One-sweep expected energy matches a full-kernel Monte Carlo average
    at 50 random states (n=100, center=2, V=1): the largest |z| stays under
    the Sidak threshold whose family-wise rate is that of one |z| <= 3 test.
    The states run on one thread per available CPU; the result is the same
    on any number."""
    n_states = len(_STREAMS["1 states"])
    n_draws = _count(1_000_000, scale, floor=20_000)
    workers = min(n_states, len(os.sched_getaffinity(0)))
    worst = max(_criterion_1_abs_z(n_draws, workers))
    return worst <= _Z_MAX, {"max_abs_z": round(worst, 3), "states": n_states, "draws": n_draws}


@_criterion("2 drift inequality", "0 violations")
def criterion_2_drift_inequality(scale: float = 1.0) -> tuple[bool, dict]:
    """Zero violations of the contraction inequality over 10^4 random band states."""
    cfg, center = _classic_model()
    ds = _dataset(cfg, 100, center)
    spec = default_large_set(ds, cfg)
    b = drift_offset_b(ds, cfg, spec)
    n_states = _count(10_000, scale, floor=2_000)
    rng = _stream("2 states").generator
    tb = ds.y_bar + rng.uniform(-10.0, 10.0, n_states)
    a_val = rng.uniform(spec.a_low, spec.a_high, n_states)
    lhs = expected_drift(tb, a_val, ds, cfg)
    rhs = lambda_factor(a_val, cfg.V) * drift_value_summary(tb, a_val, ds, cfg) + b
    violations = int((lhs > rhs + 1e-9 * (1.0 + np.abs(rhs))).sum())
    return violations == 0, {"violations": violations, "states": n_states, "b": round(b, 5)}


@_criterion("3 constant flatness", "b max/min < 2, eps min/max > 0.5, K_bar max/min < 2")
def criterion_3_constant_flatness(scale: float = 1.0) -> tuple[bool, dict]:
    """b, epsilon, and the step threshold stay flat over n in {100..6400}."""
    cfg, center = _tight_model()
    ns = (100, 400, 1600, 6400)
    datasets = {n: _dataset(cfg, n, center) for n in ns}
    bs = {}
    lam = None
    for n in ns:
        spec = default_large_set(datasets[n], cfg)
        lam = lambda_T(spec, cfg.V)
        bs[n] = drift_offset_b(datasets[n], cfg, spec)
    d_fixed = 1.05 * 2.0 * max(bs.values()) / (1.0 - lam)
    eps = {}
    kbar = {}
    for n in ns:
        report = assemble_gibbs_bound(datasets[n], cfg, d=d_fixed, k_max=1,
                                      mix_target_c=0.25)
        eps[n] = report.constants.epsilon
        kbar[n] = report.K_bar
    b_ratio = max(bs.values()) / min(bs.values())
    eps_ratio = min(eps.values()) / max(eps.values())
    kbar_ratio = max(kbar.values()) / min(kbar.values())
    return (b_ratio < 2.0) and (eps_ratio > 0.5) and (kbar_ratio < 2.0), {
        "b_ratio": round(b_ratio, 4),
        "eps_min_over_max": round(eps_ratio, 4),
        "kbar_ratio": round(kbar_ratio, 4),
    }


@_criterion("4 bound validity", "clamped bound >= empirical TV - 3 SE at every k <= 200")
def criterion_4_bound_validity(scale: float = 1.0) -> tuple[bool, dict]:
    """Clamped certificate dominates the empirical binned distance at every
    step k <= 200 for n in {100, 400}."""
    cfg, center = _tight_model()
    k_max = 200
    n_chains = _count(100_000, scale, floor=5_000)
    ref_steps = _count(10_000_000, scale, floor=200_000)
    ref_burn = _count(1_000_000, scale, floor=20_000)
    worst_margin = math.inf
    for n in (100, 400):
        ds = _dataset(cfg, n, center)
        spec = default_large_set(ds, cfg)
        report = assemble_gibbs_bound(ds, cfg, large_set=spec, k_max=k_max)
        ref_tb, ref_a = run_reference_chain(
            ds, cfg, _stream("4 reference chain"), ref_steps, ref_burn
        )
        bins = BinGrid.equal_mass(ref_tb, ref_a, (64, 64))
        ref_counts = bins.counts(ref_tb, ref_a)
        ref_split = split_half_tv(bins, ref_tb, ref_a)
        plan = SimulationPlan(n_chains=n_chains, n_steps=k_max, seed=_PLAN_SEEDS["4 ensembles"])
        summary = run_ensemble(plan, ds, cfg, initial_state(ds, cfg), bins=bins,
                               record_states=False)
        slack = 3.0 * math.hypot(1.0 / (2.0 * math.sqrt(n_chains)), ref_split)
        for t in range(k_max):
            tv = tv_from_counts(summary.hist_counts[t], ref_counts)
            worst_margin = min(worst_margin,
                               float(report.three_term_clamped[t]) - (tv - slack))
    return worst_margin >= 0.0, {"min_margin": round(worst_margin, 5), "chains": n_chains,
                                 "reference_steps": ref_steps}


@_criterion("5 tail bound", "k*pi_hat + sum exits <= certificate exit terms + 3 SE for k <= 10")
def criterion_5_tail_bound(scale: float = 1.0) -> tuple[bool, dict]:
    """Empirical exit mass stays below the certificate's own exit terms for
    k <= 10."""
    cfg, center = _tight_model()
    ds = _dataset(cfg, 100, center)
    spec = default_large_set(ds, cfg)
    report = assemble_gibbs_bound(ds, cfg, large_set=spec, k_max=10)
    exit_terms = report.term_sqrt + report.term_quadratic

    n_chains = _count(100_000, scale, floor=5_000)
    plan = SimulationPlan(n_chains=n_chains, n_steps=10, seed=_PLAN_SEEDS["5 ensemble"])
    summary = run_ensemble(plan, ds, cfg, initial_state(ds, cfg), large_set=spec,
                           record_states=False)
    exit_freq = 1.0 - summary.in_band_fraction
    exit_se = np.sqrt(np.maximum(exit_freq * (1.0 - exit_freq), 0.0) / n_chains)

    ref_steps = _count(1_000_000, scale, floor=100_000)
    ref_tb, ref_a = run_reference_chain(
        ds, cfg, _stream("5 reference chain"), ref_steps,
        _count(100_000, scale, floor=10_000),
    )
    out = (~spec.contains(ref_a)).astype(float)
    pi_hat = float(out.mean())
    pi_se = _batch_means_se(out)

    worst = -math.inf
    for k in range(1, 11):
        emp = k * pi_hat + float(exit_freq[:k].sum())
        se = math.hypot(k * pi_se, math.sqrt(float((exit_se[:k] ** 2).sum())))
        worst = max(worst, emp - 3.0 * se - float(exit_terms[k - 1]))
    return worst <= 0.0, {"max_excess": round(worst, 5), "pi_hat_exit": round(pi_hat, 6)}


@_criterion("6 posterior functional",
            "h_n <= 2/margin; |h_400 - 1/c| < 0.15/c; |mc - quad| <= 3 SE")
def criterion_6_posterior_functional(scale: float = 1.0) -> tuple[bool, dict]:
    """Quadrature E[1/A]: bounded by 2/margin, near 1/center, and matching a
    long-chain Monte Carlo average."""
    cfg, center = _classic_model(center=1.0, delta=0.9)
    hs = {}
    bound_ok = True
    for n in (100, 400, 1600, 6400):
        ds = _dataset(cfg, n, center)
        hs[n] = expected_inv_A(ds, cfg)
        bound_ok &= hs[n] <= 2.0 / cfg.delta_margin
    near_ok = abs(hs[400] - 1.0 / center) < 0.15 * (1.0 / center)

    ds50 = _dataset(cfg, 50, center)
    steps = _count(1_000_000, scale, floor=100_000)
    tb, aa = run_reference_chain(
        ds50, cfg, _stream("6 reference chain"), steps,
        _count(100_000, scale, floor=10_000),
    )
    inv = 1.0 / aa
    mc = float(inv.mean())
    se = _batch_means_se(inv)
    quad = expected_inv_A(ds50, cfg)
    mc_ok = abs(mc - quad) <= 3.0 * se
    return bound_ok and near_ok and mc_ok, {
        "h": {n: round(v, 4) for n, v in hs.items()},
        "h50_quad": round(quad, 4),
        "h50_mc": round(mc, 4),
        "mc_z": round(abs(mc - quad) / se, 3),
    }


@_criterion("7 coupling constructions", "TV < 0.05 each; Pr(N_k < j) <= product bound + 3 SE")
def criterion_7_constructions(scale: float = 1.0) -> tuple[bool, dict]:
    """Induced and rejection chains are stationary for the band-restricted
    law, and the joint return-time inequality holds empirically."""
    cfg, center = _classic_model()
    ds = _dataset(cfg, 20, center)
    spec = default_large_set(ds, cfg)
    ref_steps = _count(10_000_000, scale, floor=400_000)
    ref_burn = _count(1_000_000, scale, floor=40_000)
    ref_tb, ref_a = run_reference_chain(
        ds, cfg, _stream("7 reference chain"), ref_steps, ref_burn
    )
    keep = spec.contains(ref_a)
    ref_tb, ref_a = ref_tb[keep], ref_a[keep]
    bins = BinGrid.equal_mass(ref_tb, ref_a, (32, 32))
    ref_counts = bins.counts(ref_tb, ref_a)

    n_samples = _count(1_000_000, scale, floor=100_000)
    burn = _count(10_000, scale, floor=2_000)
    tr_tb, tr_a = run_trace_chain(ds, cfg, spec, _stream("7 trace chain"), n_samples, burn)
    rs_tb, rs_a = run_reference_chain(ds, cfg, _stream("7 restricted chain"), n_samples, burn,
                                      band=spec)
    tv_trace = tv_from_counts(bins.counts(tr_tb, tr_a), ref_counts)
    tv_restr = tv_from_counts(bins.counts(rs_tb, rs_a), ref_counts)

    # joint return times under the tight-band certificate at n = 50
    cfg2, center2 = _tight_model()
    ds2 = _dataset(cfg2, 50, center2)
    spec2 = default_large_set(ds2, cfg2)
    bc2 = assemble_gibbs_bound(ds2, cfg2, large_set=spec2, k_max=1).constants
    n_pairs = _count(4_000, scale, floor=500)
    stats = hitting_time_stats(n_pairs, 60, ds2, cfg2, spec2, bc2.d_small, bc2.alpha,
                               seed=_PLAN_SEEDS["7 return times"])
    worst_gap = -math.inf
    for j in range(1, 6):
        for k in (5, 10, 20, 35, 50):
            if k <= j:
                continue
            p, p_se = stats.pr_counts_below(j, k)
            bound, b_se = stats.markov_product_bound(j, k)
            worst_gap = max(worst_gap, p - bound - 3.0 * math.hypot(p_se, b_se) - 1e-9)
    return (tv_trace < 0.05) and (tv_restr < 0.05) and (worst_gap <= 0.0), {
        "tv_trace": round(tv_trace, 4),
        "tv_restricted": round(tv_restr, 4),
        "max_return_excess": round(worst_gap, 6),
        "censored_j5": round(stats.censored_fraction(5), 4),
    }


@_criterion("8 algebraic identities",
            "gamma identity and direct bound formula <= 1e-12 relative on 100 sets")
def criterion_8_algebraic_identities(scale: float = 1.0) -> tuple[bool, dict]:
    """Balanced-rate identity, and the bound against its formula written with
    plain powers, each to 1e-12 relative."""
    rng = _stream("8 parameter sets").generator
    worst_gamma = 0.0
    worst_direct = 0.0
    for _ in range(100):
        lam = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.0, 5.0)
        d = 2.0 * b / (1.0 - lam) * rng.uniform(1.05, 4.0) + rng.uniform(0.1, 2.0)
        eps = rng.uniform(0.01, 0.95)
        q = rng.uniform(0.05, 1.0)
        p = DriftParameters(lam=lam, b_drift=b, d_small=d,
                            initial_drift_expectation=rng.uniform(0.0, 3.0))
        m = MinorizationCertificate(epsilon=eps, q_mass_lower=q)
        dc = derived_constants(p, m)
        other = math.exp(dc.r * math.log(dc.alpha * dc.Lambda) - math.log(dc.alpha))
        worst_gamma = max(worst_gamma, abs(dc.gamma - other) / dc.gamma)
        # the bound is the two-term formula of bound_core
        c0 = 1.0 + p.initial_drift_expectation + b / (1.0 - lam)
        for k in (1, 7, 40):
            rk = dc.r * k
            direct = ((1.0 - eps * q) ** rk
                      + ((dc.alpha * dc.Lambda) ** rk * c0 - dc.alpha ** rk)
                      / (dc.alpha ** k - dc.alpha ** rk))
            got = evaluate_bound(p, m, dc, k)
            worst_direct = max(worst_direct, abs(got - direct) / direct)
    return (worst_gamma <= 1e-12) and (worst_direct <= 1e-12), {
        "max_gamma_rel_err": float(worst_gamma),
        "max_direct_rel_err": float(worst_direct),
    }


@_criterion("9 minorization honesty", "certified eps <= overlap + 3 SE at n = 50 and 100")
def criterion_9_minorization_honesty(scale: float = 1.0) -> tuple[bool, dict]:
    """The certified epsilon never exceeds the Monte Carlo overlap ceiling."""
    cfg, center = _tight_model()
    n_samples = _count(100_000, scale, floor=20_000)
    measured = {}
    passed = True
    for n in (50, 100):
        ds = _dataset(cfg, n, center)
        bc = assemble_gibbs_bound(ds, cfg, k_max=1).constants
        box = SmallSetBox.from_level(bc.d_small, ds, cfg)
        overlap, se = overlap_oracle_mc(box, ds, cfg, _stream(f"9 overlap n={n}"), n_samples)
        measured[f"n{n}"] = {"eps": float(f"{bc.epsilon:.4e}"), "overlap": round(overlap, 5)}
        passed &= bc.epsilon <= overlap + 3.0 * se
    return passed, measured


@_criterion("10 reproducibility", "one digest per artifact over 2 repeat runs")
def criterion_10_reproducibility(scale: float = 1.0) -> tuple[bool, dict]:
    """CLI curve and sweep outputs are byte-identical across repeat runs."""
    from . import cli  # deferred: cli imports this module

    digests: dict[str, set] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        config = cli.default_config_dict()
        config["k_max"] = 25
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        for repeat in (0, 1):
            out = tmp_path / f"curve_{repeat}"
            rc = cli.main(["bound-curve", "--config", str(cfg_path),
                           "--out", str(out)])
            assert rc == 0, f"bound-curve exited {rc}"
            for name in ("bound_curve.csv", "bound_report.json"):
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                digests.setdefault(name, set()).add(digest)
            out = tmp_path / f"sweep_{repeat}"
            rc = cli.main(["sweep-n", "--config", str(cfg_path),
                           "--n-list", "50,100", "--out", str(out)])
            assert rc == 0, f"sweep-n exited {rc}"
            digest = hashlib.sha256((out / "sweep_n.csv").read_bytes()).hexdigest()
            digests.setdefault("sweep_n.csv", set()).add(digest)
    unique = {name: len(vals) for name, vals in digests.items()}
    return all(v == 1 for v in unique.values()), {"distinct_digests": unique}


CRITERIA = {
    "1": criterion_1_exact_moment_oracle,
    "2": criterion_2_drift_inequality,
    "3": criterion_3_constant_flatness,
    "4": criterion_4_bound_validity,
    "5": criterion_5_tail_bound,
    "6": criterion_6_posterior_functional,
    "7": criterion_7_constructions,
    "8": criterion_8_algebraic_identities,
    "9": criterion_9_minorization_honesty,
    "10": criterion_10_reproducibility,
}


def run_all(scale: float = 1.0, only=None, progress=None) -> list[CriterionResult]:
    selected = list(CRITERIA) if not only else [str(k) for k in only]
    unknown = [k for k in selected if k not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}; valid: {list(CRITERIA)}")
    results = []
    for key in selected:
        result = CRITERIA[key](scale=scale)
        results.append(result)
        if progress is not None:
            progress(result.line())
    return results
