import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from driftbound._marginal import MarginalKernel, run_summary_chain
from driftbound.hier_model import (
    LargeSetSpec,
    ModelConfig,
    ModelError,
    data_center,
    default_large_set,
    drift_offset_b,
    expected_drift,
    gibbs_step,
    initial_state,
    lambda_T,
    make_state,
    synth_dataset,
    tail_probability_bound,
)
from driftbound.numerics import RngStream, integrate
from driftbound.simulation import (
    ENSEMBLE_STREAM_BASE,
    BinGrid,
    HittingStats,
    SimulationError,
    SimulationPlan,
    hitting_time_stats,
    run_ensemble,
    run_reference_chain,
    run_restricted_chain,
    run_trace_chain,
    tv_lower_bound_estimate,
)

TIGHT = ModelConfig(V=8e-4, prior_shape_a=3.0, prior_scale_b=0.2, delta_margin=0.08)
CLASSIC = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)


@pytest.fixture(scope="module")
def tight100():
    ds = synth_dataset(100, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    return ds, default_large_set(ds, TIGHT), initial_state(ds, TIGHT)


def test_plan_validation():
    with pytest.raises(SimulationError):
        SimulationPlan(n_chains=0, n_steps=10)
    with pytest.raises(SimulationError):
        SimulationPlan(n_chains=1, n_steps=10, burn_in=10)
    with pytest.raises(SimulationError):
        SimulationPlan(n_chains=1, n_steps=10, record_stride=0)


def test_ensemble_reproducible_and_thread_independent(tight100):
    ds, spec, x0 = tight100
    plan = SimulationPlan(n_chains=6000, n_steps=12, seed=3, record_stride=6)
    bins = BinGrid(theta_cuts=np.linspace(-0.05, 0.05, 7), a_cuts=np.linspace(0.06, 0.14, 7))
    runs = [run_ensemble(plan, ds, TIGHT, x0, large_set=spec, bins=bins, threads=t)
            for t in (1, 1, 4)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].mean_f, other.mean_f)
        assert np.array_equal(runs[0].se_f, other.se_f)
        assert np.array_equal(runs[0].in_band_fraction, other.in_band_fraction)
        assert np.array_equal(runs[0].hist_counts, other.hist_counts)
        assert np.array_equal(runs[0].recorded_theta_bar, other.recorded_theta_bar)
        assert np.array_equal(runs[0].recorded_A, other.recorded_A)


def test_chain_streams_do_not_depend_on_ensemble_width(tight100):
    ds, _, x0 = tight100
    small = run_ensemble(SimulationPlan(n_chains=1, n_steps=6, seed=5, record_stride=1),
                         ds, TIGHT, x0)
    wide = run_ensemble(SimulationPlan(n_chains=3, n_steps=6, seed=5, record_stride=1),
                        ds, TIGHT, x0)
    assert np.array_equal(small.recorded_theta_bar[:, 0], wide.recorded_theta_bar[:, 0])
    assert np.array_equal(small.recorded_A[:, 0], wide.recorded_A[:, 0])


def test_location_update_law_large_sample():
    # the first sub-step draws mu' ~ N(theta_bar, A/n); at theta_bar = 0,
    # A = 1, n = 100 one million draws match (0, 0.01) within 4 SE
    ds = synth_dataset(100, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    kernel = MarginalKernel(ds, CLASSIC)
    g = RngStream(83, 0)
    z, w, gam = kernel.draw_block(g, 1_000_000)
    tb = np.zeros(1_000_000)
    a = np.ones(1_000_000)
    mu1, _, _ = kernel.step_arrays(tb, a, z[:, 0], z[:, 1], z[:, 2], w, gam)
    n_draws = mu1.size
    assert abs(mu1.mean() - 0.0) <= 4.0 * mu1.std() / math.sqrt(n_draws)
    assert abs(mu1.var() - 0.01) <= 4.0 * 0.01 * math.sqrt(2.0 / n_draws)


def test_ensemble_step_one_matches_exact_moment(tight100):
    ds, _, x0 = tight100
    plan = SimulationPlan(n_chains=20_000, n_steps=2, seed=11)
    summary = run_ensemble(plan, ds, TIGHT, x0, record_states=False)
    exact = expected_drift(x0.theta_bar, x0.A, ds, TIGHT)
    assert abs(summary.mean_f[0] - exact) <= 4.0 * summary.se_f[0]


def test_band_fraction_dominated_by_tail_budget(tight100):
    ds, spec, x0 = tight100
    b = drift_offset_b(ds, TIGHT, spec)
    plan = SimulationPlan(n_chains=20_000, n_steps=8, seed=13)
    summary = run_ensemble(plan, ds, TIGHT, x0, large_set=spec, record_states=False)
    for k in range(1, 9):
        budget = tail_probability_bound(k, ds, TIGHT, spec, b)
        assert 1.0 - summary.in_band_fraction[k - 1] <= budget + 1e-12


def test_restricted_step_matches_unrestricted_under_shared_randomness(tight100):
    ds, _, x0 = tight100
    wide = LargeSetSpec(T=1e-9, center=data_center(ds, TIGHT))
    plain = gibbs_step(x0, ds, TIGHT, RngStream(41, 5))
    restricted = gibbs_step(x0, ds, TIGHT, RngStream(41, 5), band=wide)
    assert plain.mu == restricted.mu
    assert np.array_equal(plain.theta, restricted.theta)
    assert plain.A == restricted.A


def test_restricted_step_keeps_a_on_rejection(tight100):
    ds, _, x0 = tight100
    c = data_center(ds, TIGHT)
    narrow = LargeSetSpec(T=c * (1.0 - 1e-9), center=c)
    out = gibbs_step(x0, ds, TIGHT, RngStream(43, 0), band=narrow)
    assert out.A == x0.A
    assert not np.array_equal(out.theta, x0.theta)
    with pytest.raises(ModelError):
        bad = make_state(0.0, c * 3.0, np.full(ds.n, ds.y_bar))
        gibbs_step(bad, ds, TIGHT, RngStream(43, 1), band=narrow)


def test_ensemble_chain_equals_scalar_reference_chain(tight100):
    # the array sweep of run_ensemble and the float sweep of the long-chain
    # loop agree bit for bit on the same stream
    ds, _, x0 = tight100
    plan = SimulationPlan(n_chains=20, n_steps=300, seed=5, record_stride=1)
    summary = run_ensemble(plan, ds, TIGHT, x0)
    for i in range(plan.n_chains):
        tb, aa = run_reference_chain(ds, TIGHT, RngStream(5, ENSEMBLE_STREAM_BASE + i),
                                     plan.n_steps, 0, x0=x0)
        assert np.array_equal(summary.recorded_theta_bar[:, i], tb)
        assert np.array_equal(summary.recorded_A[:, i], aa)


def test_step_arrays_band_equals_restricted_summary_chain(tight100):
    ds, _, x0 = tight100
    c = data_center(ds, TIGHT)
    narrow = LargeSetSpec(T=0.97 * c, center=c)
    kernel = MarginalKernel(ds, TIGHT)
    n_steps = 300
    z, w, gam = kernel.draw_block(RngStream(79, 2), n_steps)
    tb, aa = np.array([x0.theta_bar]), np.array([x0.A])
    path_tb, path_a = [], []
    for t in range(n_steps):
        _, tb, aa = kernel.step_arrays(tb, aa, z[t, 0], z[t, 1], z[t, 2], w[t], gam[t],
                                       band=narrow)
        path_tb.append(tb[0])
        path_a.append(aa[0])
    ref_tb, ref_a, _ = run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps,
                                         RngStream(79, 2), restrict=narrow)
    assert np.array_equal(np.array(path_tb), ref_tb)
    assert np.array_equal(np.array(path_a), ref_a)
    # the band bites: some proposals were rejected, so A repeats
    assert np.count_nonzero(np.diff(ref_a) == 0.0) > 0


@pytest.mark.parametrize("restricted", [False, True])
def test_summary_recursion_has_the_law_of_the_full_sweep(restricted):
    # one step from an off-center state: 200k summary-recursion draws against
    # 20k full-latent sweeps, two-sample KS on theta_bar' and on A'
    ds = synth_dataset(20, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    band = default_large_set(ds, CLASSIC) if restricted else None
    x0 = make_state(0.0, 2.6, ds.y + 0.5)
    kernel = MarginalKernel(ds, CLASSIC)
    n_fast, n_full = 200_000, 20_000
    z, w, gam = kernel.draw_block(RngStream(89, 0), n_fast)
    _, tb1, a1 = kernel.step_arrays(np.full(n_fast, x0.theta_bar), np.full(n_fast, x0.A),
                                    z[:, 0], z[:, 1], z[:, 2], w, gam, band=band)
    stream = RngStream(97, 0)
    full = [gibbs_step(x0, ds, CLASSIC, stream, band=band) for _ in range(n_full)]
    assert ks_2samp(tb1, [x.theta_bar for x in full]).pvalue > 1e-3
    assert ks_2samp(a1, [x.A for x in full]).pvalue > 1e-3
    if restricted:
        # about one proposal in seven leaves [1, 3] from A = 2.6
        assert np.mean(a1 == x0.A) > 0.1


def test_restricted_chain_stays_in_band(tight100):
    ds, spec, _ = tight100
    tb, aa = run_restricted_chain(ds, TIGHT, spec, RngStream(47, 0), 20_000, 1_000)
    assert aa.min() >= spec.a_low and aa.max() <= spec.a_high
    assert tb.size == 20_000


def test_trace_chain_collects_requested_samples():
    ds = synth_dataset(20, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    spec = default_large_set(ds, CLASSIC)
    tb, aa = run_trace_chain(ds, CLASSIC, spec, RngStream(53, 0), 30_000, 2_000)
    assert tb.size == 30_000
    assert np.all((aa >= spec.a_low) & (aa <= spec.a_high))


# ---------------------------------------------------------------------------
# binned distance estimators
# ---------------------------------------------------------------------------


def test_tv_identical_and_disjoint():
    g = RngStream(5, 0).generator
    pts = (g.normal(0, 1, 5_000), g.normal(0, 1, 5_000))
    bins = BinGrid.equal_mass(pts[0], pts[1], (16, 16))
    assert tv_lower_bound_estimate(pts, pts, bins) == 0.0
    shifted = (pts[0] + 100.0, pts[1] + 100.0)
    # a partition that separates the supports realizes the full distance
    separating = BinGrid(theta_cuts=np.array([50.0]), a_cuts=np.array([50.0]))
    assert tv_lower_bound_estimate(pts, shifted, separating) == 1.0
    with pytest.raises(SimulationError):
        tv_lower_bound_estimate((np.array([]), np.array([])), pts, bins)


def _true_tv_1d(loc1, scale1, loc2, scale2):
    def diff(x):
        x = np.asarray(x, dtype=float)
        p = np.exp(-0.5 * ((x - loc1) / scale1) ** 2) / (scale1 * math.sqrt(2 * math.pi))
        q = np.exp(-0.5 * ((x - loc2) / scale2) ** 2) / (scale2 * math.sqrt(2 * math.pi))
        return np.abs(p - q)

    lo = min(loc1 - 10 * scale1, loc2 - 10 * scale2)
    hi = max(loc1 + 10 * scale1, loc2 + 10 * scale2)
    return 0.5 * integrate(diff, lo, hi)


def _tv_noise_allowance(n_cells, na, nb):
    # the folded per-cell noise biases the binned distance upward by about
    # 0.5 * sum_i E|noise_i| <= 0.5 * sqrt(2 B / pi) * sqrt(1/na + 1/nb),
    # on top of the usual O(1/sqrt(n)) fluctuation
    rate = math.sqrt(1.0 / na + 1.0 / nb)
    return 0.5 * math.sqrt(2.0 * n_cells / math.pi) * rate + 1.5 * rate


def test_tv_estimate_is_a_lower_bound_on_known_pairs():
    # second coordinate shared, so the true distance is the first-coordinate
    # distance, computed by quadrature of the density difference
    g = RngStream(59, 0).generator
    n = 200_000
    cases = [(0.0, 1.0, mu, sig) for mu, sig in
             [(0.25, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (0.0, 1.5),
              (0.0, 2.0), (0.5, 1.5), (1.0, 0.7), (0.1, 1.1), (3.0, 0.5)]]
    for loc1, s1, loc2, s2 in cases:
        truth = _true_tv_1d(loc1, s1, loc2, s2)
        sa = (g.normal(loc1, s1, n), g.normal(5.0, 1.0, n))
        sb = (g.normal(loc2, s2, n), g.normal(5.0, 1.0, n))
        bins = BinGrid.equal_mass(np.concatenate([sa[0], sb[0]]),
                                  np.concatenate([sa[1], sb[1]]), (64, 64))
        est = tv_lower_bound_estimate(sa, sb, bins)
        assert est <= truth + _tv_noise_allowance(bins.n_cells, n, n)


def test_tv_frozen_shifted_normal():
    # frozen truth 2*Phi(1/2) - 1 from a 40-digit reference evaluation
    truth = 0.38292492254802621
    g = RngStream(61, 0).generator
    n = 500_000
    sa = (g.normal(0, 1, n), g.normal(0, 1, n))
    sb = (g.normal(1, 1, n), g.normal(0, 1, n))
    bins = BinGrid.equal_mass(sa[0], sa[1], (64, 64))
    est = tv_lower_bound_estimate(sa, sb, bins)
    assert est <= truth + _tv_noise_allowance(bins.n_cells, n, n)
    assert est >= truth - 0.05


def test_almost_complete_band_is_almost_never_left(tight100):
    ds, _, x0 = tight100
    plan = SimulationPlan(n_chains=5_000, n_steps=6, seed=67)
    wide = LargeSetSpec(T=1e-9, center=data_center(ds, TIGHT))
    summary = run_ensemble(plan, ds, TIGHT, x0, large_set=wide, record_states=False)
    assert (1.0 - summary.in_band_fraction).max() <= 1e-3


# ---------------------------------------------------------------------------
# joint return times
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hitting(tight100):
    ds, spec, _ = tight100
    ds50 = synth_dataset(50, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    spec50 = default_large_set(ds50, TIGHT)
    b = drift_offset_b(ds50, TIGHT, spec50)
    d = 2.5 * b / (1.0 - lambda_T(spec50, TIGHT.V))
    from driftbound.bound_core import DriftParameters, derive_alpha_lambda
    alpha, _ = derive_alpha_lambda(DriftParameters(lam=lambda_T(spec50, TIGHT.V),
                                                   b_drift=b, d_small=d))
    stats = hitting_time_stats(800, 40, ds50, TIGHT, spec50, d, alpha, seed=71)
    return stats, d


def test_pairs_starting_inside_hit_immediately(hitting):
    stats, _ = hitting
    # the canonical start has zero energy, so time 0 is a joint return
    assert np.all(stats.t_matrix[:, 0] == 0)
    for k in (1, 5, 40):
        assert np.all(stats.counts_before(k) >= 1)


def test_gaps_at_least_one(hitting):
    stats, _ = hitting
    for pair in range(min(stats.n_pairs, 200)):
        assert np.all(stats.gaps(pair) >= 1)


def test_return_time_markov_bound_holds(hitting):
    stats, _ = hitting
    for j in (1, 2, 3, 4, 5):
        for k in (5, 10, 20, 39):
            if k <= j:
                continue
            p, p_se = stats.pr_counts_below(j, k)
            bound, b_se = stats.markov_product_bound(j, k)
            assert p <= bound + 3.0 * math.hypot(p_se, b_se) + 1e-9


def test_censoring_is_reported_not_raised():
    t = np.array([[0, 2, -1], [1, -1, -1]], dtype=np.int64)
    stats = HittingStats(t_matrix=t, n_steps=5, alpha=1.5)
    assert stats.censored_fraction(3) == 1.0
    assert stats.censored_fraction(2) == pytest.approx(0.5)
    p, _ = stats.pr_counts_below(3, 4)
    assert p == 1.0
