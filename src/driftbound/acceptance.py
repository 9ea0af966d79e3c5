"""End-to-end validation suite.

Ten numbered criteria check the package against independent routes: exact
conditional moments against brute-force Monte Carlo on the full kernel,
certificate constants against flatness across sample sizes, bound curves
against empirical binned distances, quadrature functionals against chain
averages, coupling-side inequalities against simulated return times, and
the CLI against byte-level reproducibility.

Each criterion is a function returning a :class:`CriterionResult`; the
``scale`` argument multiplies sample counts for smoke runs (1.0 reproduces
the full-size suite used by the pytest acceptance module and
``driftbound validate``).
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from .bound_core import (
    DriftParameters,
    MinorizationCertificate,
    TailSequence,
    classic_bound,
    derive_alpha_lambda,
    derived_constants,
    evaluate_bound,
)
from .hier_model import (
    ModelConfig,
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
from .minorization import (
    MinorizationError,
    SmallSetBox,
    build_epsilon_report,
)
from .numerics import RngStream
from .simulation import (
    ORACLE_STREAM,
    REFERENCE_STREAM,
    BinGrid,
    SimulationPlan,
    hitting_time_stats,
    run_ensemble,
    run_reference_chain,
    run_restricted_chain,
    run_trace_chain,
    tv_from_counts,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

_MASTER_SEED = 20260801


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


def _dataset(cfg: ModelConfig, n: int, center: float, seed: int = 7):
    return synth_dataset(n, center, cfg, RngStream(seed, 0), exact_center=True)


def _one_step_energy_mc(ds, cfg, theta_bar, a_val, n_draws, stream):
    """Brute-force one-sweep energy average drawing the full latent vector.

    Kept independent of the summary-state recursion on purpose: this is the
    oracle route for the exact-moment formulas.
    """
    n, v = ds.n, cfg.V
    c = data_center(ds, cfg)
    a1 = cfg.prior_shape_a + 0.5 * (n - 1)
    g = stream.generator
    chunk = max(1, 4_000_000 // n)
    total = 0.0
    total_sq = 0.0
    done = 0
    w = v / (v + a_val)
    sd = math.sqrt(a_val * v / (v + a_val))
    while done < n_draws:
        m = min(chunk, n_draws - done)
        mu1 = g.normal(theta_bar, math.sqrt(a_val / n), m)
        theta = mu1[:, None] * w + ds.y[None, :] * (1.0 - w) + sd * g.standard_normal((m, n))
        tb1 = theta.mean(axis=1)
        s1 = theta.var(axis=1, ddof=1)
        beta = cfg.prior_scale_b + 0.5 * (n - 1) * s1
        a_new = beta / g.standard_gamma(a1, m)
        f = n * ((tb1 - ds.y_bar) ** 2 + (c - a_new) ** 2)
        total += float(f.sum())
        total_sq += float((f * f).sum())
        done += m
    mean = total / n_draws
    var = max(total_sq / n_draws - mean * mean, 0.0)
    return mean, math.sqrt(var / n_draws)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1_exact_moment_oracle(scale: float = 1.0) -> CriterionResult:
    """One-sweep expected energy matches a full-kernel Monte Carlo average
    at 50 random states (n=100, center=2, V=1): the largest |z| stays under
    the Sidak threshold whose family-wise rate is that of one |z| <= 3 test."""
    t0 = time.monotonic()
    cfg, center = _classic_model()
    ds = _dataset(cfg, 100, center)
    n_states = 50
    n_draws = _count(1_000_000, scale, floor=20_000)
    rng = RngStream(_MASTER_SEED, ORACLE_STREAM).generator
    worst = 0.0
    for i in range(n_states):
        tb = ds.y_bar + rng.uniform(-3.0, 3.0)
        a_val = rng.uniform(0.2, 2.0 * center - 0.2)
        exact = expected_drift(tb, a_val, ds, cfg)
        stream = RngStream(_MASTER_SEED, ORACLE_STREAM + 100 + i)
        mc, se = _one_step_energy_mc(ds, cfg, tb, a_val, n_draws, stream)
        worst = max(worst, abs(mc - exact) / se)
    alpha = 2.0 * ndtr(-3.0)
    z_max = -ndtri(-0.5 * math.expm1(math.log1p(-alpha) / n_states))
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="1 exact-moment oracle",
        passed=worst <= z_max,
        measured={"max_abs_z": round(worst, 3), "states": n_states, "draws": n_draws},
        threshold=f"max |z| <= {z_max:.2f} (Sidak: family-wise rate of one |z| <= 3 test)",
        seconds=seconds,
    )


def criterion_2_drift_inequality(scale: float = 1.0) -> CriterionResult:
    """Zero violations of the contraction inequality over 10^4 random band states."""
    t0 = time.monotonic()
    cfg, center = _classic_model()
    ds = _dataset(cfg, 100, center)
    spec = default_large_set(ds, cfg)
    b = drift_offset_b(ds, cfg, spec)
    n_states = _count(10_000, scale, floor=2_000)
    rng = RngStream(_MASTER_SEED, ORACLE_STREAM + 1).generator
    tb = ds.y_bar + rng.uniform(-10.0, 10.0, n_states)
    a_val = rng.uniform(spec.a_low, spec.a_high, n_states)
    lhs = expected_drift(tb, a_val, ds, cfg)
    rhs = lambda_factor(a_val, cfg.V) * drift_value_summary(tb, a_val, ds, cfg) + b
    violations = int((lhs > rhs + 1e-9 * (1.0 + np.abs(rhs))).sum())
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="2 drift inequality",
        passed=violations == 0,
        measured={"violations": violations, "states": n_states, "b": round(b, 5)},
        threshold="0 violations",
        seconds=seconds,
    )


def criterion_3_constant_flatness(scale: float = 1.0) -> CriterionResult:
    """b, epsilon, and the step threshold stay flat over n in {100..6400}."""
    t0 = time.monotonic()
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
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="3 constant flatness",
        passed=(b_ratio < 2.0) and (eps_ratio > 0.5) and (kbar_ratio < 2.0),
        measured={
            "b_ratio": round(b_ratio, 4),
            "eps_min_over_max": round(eps_ratio, 4),
            "kbar_ratio": round(kbar_ratio, 4),
        },
        threshold="b max/min < 2, eps min/max > 0.5, K_bar max/min < 2",
        seconds=seconds,
    )


def criterion_4_bound_validity(scale: float = 1.0) -> CriterionResult:
    """Clamped certificate dominates the empirical binned distance at every
    step k <= 200 for n in {100, 400}."""
    t0 = time.monotonic()
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
            ds, cfg, RngStream(_MASTER_SEED, REFERENCE_STREAM), ref_steps, ref_burn
        )
        bins = BinGrid.equal_mass(ref_tb, ref_a, (64, 64))
        ref_counts = bins.counts(ref_tb, ref_a)
        half = ref_tb.size // 2
        ref_split = tv_from_counts(
            bins.counts(ref_tb[:half], ref_a[:half]),
            bins.counts(ref_tb[half:], ref_a[half:]),
        )
        plan = SimulationPlan(n_chains=n_chains, n_steps=k_max, seed=_MASTER_SEED)
        summary = run_ensemble(plan, ds, cfg, initial_state(ds, cfg), bins=bins,
                               record_states=False)
        slack = 3.0 * math.hypot(1.0 / (2.0 * math.sqrt(n_chains)), ref_split)
        for t in range(k_max):
            tv = tv_from_counts(summary.hist_counts[t], ref_counts)
            worst_margin = min(worst_margin,
                               float(report.three_term_clamped[t]) - (tv - slack))
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="4 bound validity",
        passed=worst_margin >= 0.0,
        measured={"min_margin": round(worst_margin, 5), "chains": n_chains,
                  "reference_steps": ref_steps},
        threshold="clamped bound >= empirical TV - 3 SE at every k <= 200",
        seconds=seconds,
    )


def criterion_5_tail_bound(scale: float = 1.0) -> CriterionResult:
    """Empirical exit mass stays below the closed-form budget for k <= 10."""
    t0 = time.monotonic()
    cfg, center = _tight_model()
    ds = _dataset(cfg, 100, center)
    spec = default_large_set(ds, cfg)
    b = drift_offset_b(ds, cfg, spec)
    from .hier_model import tail_probability_bound

    n_chains = _count(100_000, scale, floor=5_000)
    plan = SimulationPlan(n_chains=n_chains, n_steps=10, seed=_MASTER_SEED + 1)
    summary = run_ensemble(plan, ds, cfg, initial_state(ds, cfg), large_set=spec,
                           record_states=False)
    exit_freq = 1.0 - summary.in_band_fraction
    exit_se = np.sqrt(np.maximum(exit_freq * (1.0 - exit_freq), 0.0) / n_chains)

    ref_steps = _count(1_000_000, scale, floor=100_000)
    ref_tb, ref_a = run_reference_chain(
        ds, cfg, RngStream(_MASTER_SEED, REFERENCE_STREAM + 1), ref_steps,
        _count(100_000, scale, floor=10_000),
    )
    out = (~spec.contains(ref_a)).astype(float)
    n_batches = 100
    batches = np.array_split(out, n_batches)
    means = np.array([b_.mean() for b_ in batches])
    pi_hat = float(out.mean())
    pi_se = float(means.std(ddof=1) / math.sqrt(n_batches))

    worst = -math.inf
    for k in range(1, 11):
        emp = k * pi_hat + float(exit_freq[:k].sum())
        se = math.hypot(k * pi_se, math.sqrt(float((exit_se[:k] ** 2).sum())))
        formula = tail_probability_bound(k, ds, cfg, spec, b)
        worst = max(worst, emp - 3.0 * se - formula)
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="5 tail bound",
        passed=worst <= 0.0,
        measured={"max_excess": round(worst, 5), "pi_hat_exit": round(pi_hat, 6)},
        threshold="k*pi_hat + sum exits <= formula + 3 SE for k <= 10",
        seconds=seconds,
    )


def criterion_6_posterior_functional(scale: float = 1.0) -> CriterionResult:
    """Quadrature E[1/A]: bounded by 2/margin, near 1/center, and matching a
    long-chain Monte Carlo average."""
    t0 = time.monotonic()
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
        ds50, cfg, RngStream(_MASTER_SEED, REFERENCE_STREAM + 2), steps,
        _count(100_000, scale, floor=10_000),
    )
    inv = 1.0 / aa
    n_batches = 100
    means = np.array([b_.mean() for b_ in np.array_split(inv, n_batches)])
    mc = float(inv.mean())
    se = float(means.std(ddof=1) / math.sqrt(n_batches))
    quad = expected_inv_A(ds50, cfg)
    mc_ok = abs(mc - quad) <= 3.0 * se
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="6 posterior functional",
        passed=bound_ok and near_ok and mc_ok,
        measured={
            "h": {n: round(v, 4) for n, v in hs.items()},
            "h50_quad": round(quad, 4),
            "h50_mc": round(mc, 4),
            "mc_z": round(abs(mc - quad) / se, 3),
        },
        threshold="h_n <= 2/margin; |h_400 - 1/c| < 0.15/c; |mc - quad| <= 3 SE",
        seconds=seconds,
    )


def criterion_7_constructions(scale: float = 1.0) -> CriterionResult:
    """Induced and rejection chains are stationary for the band-restricted
    law, and the joint return-time inequality holds empirically."""
    t0 = time.monotonic()
    cfg, center = _classic_model()
    ds = _dataset(cfg, 20, center)
    spec = default_large_set(ds, cfg)
    ref_steps = _count(10_000_000, scale, floor=400_000)
    ref_burn = _count(1_000_000, scale, floor=40_000)
    ref_tb, ref_a = run_reference_chain(
        ds, cfg, RngStream(_MASTER_SEED, REFERENCE_STREAM + 3), ref_steps, ref_burn
    )
    keep = spec.contains(ref_a)
    ref_tb, ref_a = ref_tb[keep], ref_a[keep]
    bins = BinGrid.equal_mass(ref_tb, ref_a, (32, 32))
    ref_counts = bins.counts(ref_tb, ref_a)

    n_samples = _count(1_000_000, scale, floor=100_000)
    burn = _count(10_000, scale, floor=2_000)
    tr_tb, tr_a = run_trace_chain(ds, cfg, spec, RngStream(_MASTER_SEED, REFERENCE_STREAM + 4),
                                  n_samples, burn)
    rs_tb, rs_a = run_restricted_chain(ds, cfg, spec,
                                       RngStream(_MASTER_SEED, REFERENCE_STREAM + 5),
                                       n_samples, burn)
    tv_trace = tv_from_counts(bins.counts(tr_tb, tr_a), ref_counts)
    tv_restr = tv_from_counts(bins.counts(rs_tb, rs_a), ref_counts)

    # joint return times under the tight-band certificate at n = 50
    cfg2, center2 = _tight_model()
    ds2 = _dataset(cfg2, 50, center2)
    spec2 = default_large_set(ds2, cfg2)
    b2 = drift_offset_b(ds2, cfg2, spec2)
    lam2 = lambda_T(spec2, cfg2.V)
    d2 = 2.5 * b2 / (1.0 - lam2)
    alpha2, _ = derive_alpha_lambda(DriftParameters(lam=lam2, b_drift=b2, d_small=d2))
    n_pairs = _count(4_000, scale, floor=500)
    stats = hitting_time_stats(n_pairs, 60, ds2, cfg2, spec2, d2, alpha2,
                               seed=_MASTER_SEED + 2)
    worst_gap = -math.inf
    for j in range(1, 6):
        for k in (5, 10, 20, 35, 50):
            if k <= j:
                continue
            p, p_se = stats.pr_counts_below(j, k)
            bound, b_se = stats.markov_product_bound(j, k)
            worst_gap = max(worst_gap, p - bound - 3.0 * math.hypot(p_se, b_se) - 1e-9)
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="7 coupling constructions",
        passed=(tv_trace < 0.05) and (tv_restr < 0.05) and (worst_gap <= 0.0),
        measured={
            "tv_trace": round(tv_trace, 4),
            "tv_restricted": round(tv_restr, 4),
            "max_return_excess": round(worst_gap, 6),
            "censored_j5": round(stats.censored_fraction(5), 4),
        },
        threshold="TV < 0.05 each; Pr(N_k < j) <= product bound + 3 SE",
        seconds=seconds,
    )


def criterion_8_algebraic_identities(scale: float = 1.0) -> CriterionResult:
    """Balanced-rate identity to 1e-12 relative; whole-space reduction exact."""
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(key=np.array([_MASTER_SEED, 8],
                                                            dtype=np.uint64)))
    worst_rel = 0.0
    exact_matches = True
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
        worst_rel = max(worst_rel, abs(dc.gamma - other) / dc.gamma)
        m_full = MinorizationCertificate(epsilon=eps, q_mass_lower=1.0)
        dc_full = derived_constants(p, m_full)
        for k in (1, 7, 40):
            lhs = classic_bound(p, eps, k)
            rhs = evaluate_bound(p, m_full, dc_full, TailSequence.zero(), k)
            exact_matches &= lhs == rhs
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="8 algebraic identities",
        passed=(worst_rel <= 1e-12) and exact_matches,
        measured={"max_gamma_rel_err": float(worst_rel), "reduction_exact": exact_matches},
        threshold="gamma identity <= 1e-12 relative; reduction exact on 100 sets",
        seconds=seconds,
    )


def criterion_9_minorization_honesty(scale: float = 1.0) -> CriterionResult:
    """Quadrature volume never exceeds the Monte Carlo overlap ceiling."""
    t0 = time.monotonic()
    cfg, center = _tight_model()
    n_samples = _count(100_000, scale, floor=20_000)
    measured = {}
    passed = True
    for idx, n in enumerate((50, 100)):
        ds = _dataset(cfg, n, center)
        spec = default_large_set(ds, cfg)
        b = drift_offset_b(ds, cfg, spec)
        d = 2.5 * b / (1.0 - lambda_T(spec, cfg.V))
        box = SmallSetBox.from_level(d, ds, cfg)
        try:
            rep = build_epsilon_report(box, ds, cfg,
                                       RngStream(_MASTER_SEED, ORACLE_STREAM + 10 + idx),
                                       n_samples=n_samples)
            measured[f"n{n}"] = {
                "eps": float(f"{rep.epsilon_quadrature:.4e}"),
                "overlap": round(rep.epsilon_mc_overlap, 5),
            }
            passed &= rep.epsilon_quadrature > 0.0
        except MinorizationError as exc:
            measured[f"n{n}"] = {"guard": str(exc)}
            passed = False
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="9 minorization honesty",
        passed=passed,
        measured=measured,
        threshold="eps_quadrature in (0, overlap + 3 SE] at every configuration",
        seconds=seconds,
    )


def criterion_10_reproducibility(scale: float = 1.0) -> CriterionResult:
    """CLI curve and sweep outputs are byte-identical across repeat runs."""
    from . import cli  # deferred: cli imports this module

    t0 = time.monotonic()
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
    seconds = time.monotonic() - t0
    return CriterionResult(
        name="10 reproducibility",
        passed=all(v == 1 for v in unique.values()),
        measured={"distinct_digests": unique},
        threshold="one digest per artifact over 2 repeat runs",
        seconds=seconds,
    )


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
