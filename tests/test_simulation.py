import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from driftbound import _marginal
from driftbound._marginal import _BLOCK, _PROBE, _SLICE, MarginalKernel, run_summary_chain
from driftbound.acceptance import _gibbs_sweeps
from driftbound.hier_model import (
    ChainState,
    LargeSetSpec,
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    data_center,
    default_large_set,
    default_small_set_level,
    drift_offset_b,
    expected_drift,
    initial_state,
    lambda_T,
    synth_dataset,
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
    run_trace_chain,
    tv_from_counts,
)
from driftbound.simulation import _draw_streams

TIGHT = ModelConfig(V=8e-4, prior_shape_a=3.0, prior_scale_b=0.2, delta_margin=0.08)
CLASSIC = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)


@pytest.fixture(scope="module")
def tight100():
    ds = synth_dataset(100, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    return ds, default_large_set(ds, TIGHT), initial_state(ds, TIGHT)


@pytest.fixture(scope="module")
def classic20():
    ds = synth_dataset(20, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    return ds, default_large_set(ds, CLASSIC), initial_state(ds, CLASSIC)


def _narrow_band(ds, cfg):
    c = data_center(ds, cfg)
    return LargeSetSpec(T=0.97 * c, center=c)


def test_plan_validation():
    with pytest.raises(SimulationError):
        SimulationPlan(n_chains=0, n_steps=10)
    with pytest.raises(SimulationError):
        SimulationPlan(n_chains=1, n_steps=10, burn_in=10)
    with pytest.raises(SimulationError):
        SimulationPlan(n_chains=1, n_steps=10, record_stride=0)


def test_ensemble_reproducible_across_runs(tight100):
    # 6000 chains span two chunks, so the per-chunk sums are merged
    ds, spec, x0 = tight100
    plan = SimulationPlan(n_chains=6000, n_steps=12, seed=3, record_stride=6)
    bins = BinGrid(theta_cuts=np.linspace(-0.05, 0.05, 7), a_cuts=np.linspace(0.06, 0.14, 7))
    first, again = (run_ensemble(plan, ds, TIGHT, x0, large_set=spec, bins=bins, threads=1)
                    for _ in range(2))
    assert np.array_equal(first.mean_f, again.mean_f)
    assert np.array_equal(first.se_f, again.se_f)
    assert np.array_equal(first.in_band_fraction, again.in_band_fraction)
    assert np.array_equal(first.hist_counts, again.hist_counts)
    assert np.array_equal(first.recorded_theta_bar, again.recorded_theta_bar)
    assert np.array_equal(first.recorded_A, again.recorded_A)


def test_ensemble_refuses_more_than_one_thread(tight100):
    ds, _, x0 = tight100
    plan = SimulationPlan(n_chains=4, n_steps=2, seed=3)
    with pytest.raises(SimulationError, match="threads must be 1"):
        run_ensemble(plan, ds, TIGHT, x0, threads=2)


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
    report = assemble_gibbs_bound(ds, TIGHT, large_set=spec, k_max=8)
    plan = SimulationPlan(n_chains=20_000, n_steps=8, seed=13)
    summary = run_ensemble(plan, ds, TIGHT, x0, large_set=spec, record_states=False)
    for k in range(1, 9):
        budget = report.term_sqrt[k - 1] + report.term_quadratic[k - 1]
        assert 1.0 - summary.in_band_fraction[k - 1] <= budget + 1e-12


def test_restricted_step_matches_unrestricted_under_shared_randomness(tight100):
    ds, _, x0 = tight100
    wide = LargeSetSpec(T=1e-9, center=data_center(ds, TIGHT))
    plain = _gibbs_sweeps(x0.theta_bar, x0.A, ds, TIGHT, 1, RngStream(41, 5))
    restricted = _gibbs_sweeps(x0.theta_bar, x0.A, ds, TIGHT, 1, RngStream(41, 5), band=wide)
    for got, want in zip(restricted, plain):
        assert np.array_equal(got, want)


def test_restricted_step_keeps_a_on_rejection(tight100):
    ds, _, x0 = tight100
    c = data_center(ds, TIGHT)
    narrow = LargeSetSpec(T=c * (1.0 - 1e-9), center=c)
    plain = _gibbs_sweeps(x0.theta_bar, x0.A, ds, TIGHT, 1, RngStream(43, 0))
    out = _gibbs_sweeps(x0.theta_bar, x0.A, ds, TIGHT, 1, RngStream(43, 0), band=narrow)
    # mu', theta_bar' and S' go through; the proposal leaves the band
    for got, want in zip(out[:3], plain[:3]):
        assert np.array_equal(got, want)
    assert not narrow.contains(plain[3][0])
    assert out[3][0] == x0.A
    with pytest.raises(ModelError):
        _gibbs_sweeps(ds.y_bar, c * 3.0, ds, TIGHT, 1, RngStream(43, 1), band=narrow)


def test_ensemble_chain_equals_scalar_reference_chain(tight100):
    # the array sweep of run_ensemble and the float sweep of the long-chain
    # loop agree bit for bit on the same stream
    ds, _, x0 = tight100
    plan = SimulationPlan(n_chains=20, n_steps=300, seed=5, record_stride=1)
    summary = run_ensemble(plan, ds, TIGHT, x0)
    for i in range(plan.n_chains):
        tb, aa = run_reference_chain(ds, TIGHT, RngStream(5, ENSEMBLE_STREAM_BASE + i),
                                     plan.n_steps, 0)
        assert np.array_equal(summary.recorded_theta_bar[:, i], tb)
        assert np.array_equal(summary.recorded_A[:, i], aa)


def test_step_arrays_band_equals_restricted_summary_chain(tight100):
    ds, _, x0 = tight100
    narrow = _narrow_band(ds, TIGHT)
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
    ref_tb, ref_a = run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps,
                                      RngStream(79, 2), band=narrow)
    assert np.array_equal(np.array(path_tb), ref_tb)
    assert np.array_equal(np.array(path_a), ref_a)
    # the band bites: some proposals were rejected, so A repeats
    assert np.count_nonzero(np.diff(ref_a) == 0.0) > 0


@pytest.mark.parametrize("banded", [False, True])
def test_sliced_summary_chain_equals_array_sweep(tight100, classic20, banded):
    # the long-chain loop solves a draw block one window at a time, by
    # fixed-point passes (the tight model, unless a narrow band rejects
    # most proposals) or by the scalar sweep (the classic model); on both
    # routes, for a chain inside the probe window and across the probe and
    # slice boundaries, it follows the array sweep bit for bit
    for (ds, spec, x0), cfg in ((tight100, TIGHT), (classic20, CLASSIC)):
        kernel = MarginalKernel(ds, cfg)
        for band, n_steps in itertools.product(
                (spec, _narrow_band(ds, cfg)) if banded else (None,),
                (1, _PROBE - 1, _PROBE + 1, _SLICE + 17)):
            z, w, gam = kernel.draw_block(RngStream(83, 4), n_steps)
            tb, aa = np.array([x0.theta_bar]), np.array([x0.A])
            path = np.empty((2, n_steps))
            for t in range(n_steps):
                _, tb, aa = kernel.step_arrays(tb, aa, z[t, 0], z[t, 1], z[t, 2], w[t],
                                               gam[t], band=band)
                path[:, t] = tb[0], aa[0]
            ref_tb, ref_a = run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps,
                                              RngStream(83, 4), band=band)
            assert np.array_equal(path[0], ref_tb), (cfg, band, n_steps)
            assert np.array_equal(path[1], ref_a), (cfg, band, n_steps)


@pytest.mark.parametrize("passes", [0, 1])
def test_summary_chain_past_its_pass_budget_finishes_sequentially(tight100, monkeypatch,
                                                                  passes):
    # a window not settled within the pass budget is finished by the scalar
    # sweep from its certified prefix, which must join the passes exactly
    ds, band, x0 = tight100
    kernel = MarginalKernel(ds, TIGHT)
    n_steps = _PROBE + _SLICE + 17
    default = run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps, RngStream(61, 2),
                                band=band)
    monkeypatch.setattr(_marginal, "_PASSES", passes)
    budgeted = run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps, RngStream(61, 2),
                                 band=band)
    assert np.array_equal(default[0], budgeted[0])
    assert np.array_equal(default[1], budgeted[1])


def _count_stage_calls(kernel):
    """Wrap the kernel's stages; returns a log of (route, steps) per call."""
    log = []

    def counted(stage):
        def wrapped(x, *args):
            log.append(("scalar", 1) if isinstance(x, float) else ("pass", x.size))
            return stage(x, *args)
        return wrapped

    for name in ("_scalar_a", "_array_a", "_tb_stage"):
        setattr(kernel, name, counted(getattr(kernel, name)))
    return log


def test_summary_chain_route_is_chosen_by_the_chain(tight100, classic20):
    # the tight model settles its probe window, so a long chain never runs
    # the scalar sweep; the classic model does not, so no pass runs after
    # its probe window and the scalar sweep makes every later step
    ds, _, x0 = tight100
    kernel = MarginalKernel(ds, TIGHT)
    log = _count_stage_calls(kernel)
    run_summary_chain(kernel, (x0.theta_bar, x0.A), 200_000, RngStream(5, 1))
    assert not [c for c in log if c[0] == "scalar"]
    assert log

    ds, _, x0 = classic20
    kernel = MarginalKernel(ds, CLASSIC)
    log = _count_stage_calls(kernel)
    n_steps = _PROBE + 2 * _SLICE
    run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps, RngStream(5, 1))
    passes = [size for route, size in log if route == "pass"]
    assert passes and max(passes) <= _PROBE
    assert sum(size for route, size in log if route == "scalar") >= 2 * (n_steps - _PROBE)


def test_summary_chain_across_a_block_boundary_is_frozen(tight100):
    # a frozen path one draw block and 17 steps long: neither the block
    # boundary nor the slices of a block may move a draw
    ds, _, x0 = tight100
    tb, aa = run_summary_chain(MarginalKernel(ds, TIGHT), (x0.theta_bar, x0.A),
                               _BLOCK + 17, RngStream(97, 3))
    assert hashlib.sha256(tb.tobytes() + aa.tobytes()).hexdigest() == (
        "8e62bf0cf25196262fc7ad2ac7e017984f52e351999d04ab9c70ac15d9454c63")


def test_summary_chain_memory_is_bounded_per_step(tight100):
    # the recorded path is 16 bytes a step and the draw block 40; Python
    # floats for a whole block would add 160 more
    ds, _, x0 = tight100
    kernel = MarginalKernel(ds, TIGHT)
    n_steps = 200_000
    tracemalloc.start()
    try:
        run_summary_chain(kernel, (x0.theta_bar, x0.A), n_steps, RngStream(5, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * n_steps


def test_draw_streams_equal_fresh_stream_blocks(tight100):
    ds, _, _ = tight100
    kernel = MarginalKernel(ds, TIGHT)
    indices = np.array([[3, 9, 4], [ENSEMBLE_STREAM_BASE, 7, 3]])
    draws = _draw_streams(kernel, 13, indices, 25)
    assert draws.shape == (5, 2, 3, 25)
    for pos, i in np.ndenumerate(indices):
        z, w, gam = kernel.draw_block(RngStream(13, int(i)), 25)
        assert np.array_equal(draws[(slice(None),) + pos], np.vstack([z.T, w, gam]))


@pytest.mark.parametrize("restricted", [False, True])
def test_summary_recursion_has_the_law_of_the_full_sweep(restricted):
    # one step from an off-center state: 200k summary-recursion draws against
    # 20k full-latent sweeps, two-sample KS on theta_bar' and on A'
    ds = synth_dataset(20, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    band = default_large_set(ds, CLASSIC) if restricted else None
    x0 = ChainState(theta_bar=ds.y_bar + 0.5, A=2.6)
    kernel = MarginalKernel(ds, CLASSIC)
    n_fast, n_full = 200_000, 20_000
    z, w, gam = kernel.draw_block(RngStream(89, 0), n_fast)
    _, tb1, a1 = kernel.step_arrays(np.full(n_fast, x0.theta_bar), np.full(n_fast, x0.A),
                                    z[:, 0], z[:, 1], z[:, 2], w, gam, band=band)
    _, tb_full, _, a_full = _gibbs_sweeps(x0.theta_bar, x0.A, ds, CLASSIC, n_full,
                                          RngStream(97, 0), band=band)
    assert ks_2samp(tb1, tb_full).pvalue > 1e-3
    assert ks_2samp(a1, a_full).pvalue > 1e-3
    if restricted:
        # about one proposal in seven leaves [1, 3] from A = 2.6
        assert np.mean(a1 == x0.A) > 0.1


def test_restricted_chain_stays_in_band(tight100):
    ds, spec, _ = tight100
    tb, aa = run_reference_chain(ds, TIGHT, RngStream(47, 0), 20_000, 1_000, band=spec)
    assert aa.min() >= spec.a_low and aa.max() <= spec.a_high
    assert tb.size == 20_000
    # a band that misses the canonical start A = center = 0.1
    with pytest.raises(SimulationError, match="outside the retained band"):
        run_reference_chain(ds, TIGHT, RngStream(47, 0), 10, 0,
                            band=LargeSetSpec(T=0.001, center=0.01))


def test_trace_chain_collects_requested_samples():
    ds = synth_dataset(20, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    spec = default_large_set(ds, CLASSIC)
    tb, aa = run_trace_chain(ds, CLASSIC, spec, RngStream(53, 0), 30_000, 2_000)
    assert tb.size == 30_000
    assert np.all((aa >= spec.a_low) & (aa <= spec.a_high))


def test_trace_chain_burn_in_spans_segments():
    # a burn-in longer than the first 1M-step segment: the induced chain is
    # the in-band part of the reference chain on the same stream, from the
    # same step on
    ds = synth_dataset(20, 2.0, CLASSIC, RngStream(7, 0), exact_center=True)
    spec = default_large_set(ds, CLASSIC)
    burn_in = 1_200_000
    tb, aa = run_trace_chain(ds, CLASSIC, spec, RngStream(53, 1), 1000, burn_in)
    ref_tb, ref_a = run_reference_chain(ds, CLASSIC, RngStream(53, 1), 50_000, burn_in)
    keep = spec.contains(ref_a)
    assert np.array_equal(tb, ref_tb[keep][:1000])
    assert np.array_equal(aa, ref_a[keep][:1000])


# ---------------------------------------------------------------------------
# binned distance estimators
# ---------------------------------------------------------------------------


def test_equal_mass_cuts_are_quantiles_of_the_unsorted_sample():
    g = RngStream(5, 3).generator
    tb, a = g.standard_normal(100_001), g.gamma(2.0, size=100_001)
    bins = BinGrid.equal_mass(tb, a, (64, 48))
    assert np.array_equal(bins.theta_cuts, np.unique(np.quantile(tb, np.arange(1, 64) / 64)))
    assert np.array_equal(bins.a_cuts, np.unique(np.quantile(a, np.arange(1, 48) / 48)))


def test_tv_identical_and_disjoint():
    g = RngStream(5, 0).generator
    pts = (g.normal(0, 1, 5_000), g.normal(0, 1, 5_000))
    bins = BinGrid.equal_mass(pts[0], pts[1], (16, 16))
    assert tv_from_counts(bins.counts(*pts), bins.counts(*pts)) == 0.0
    shifted = (pts[0] + 100.0, pts[1] + 100.0)
    # a partition that separates the supports realizes the full distance
    separating = BinGrid(theta_cuts=np.array([50.0]), a_cuts=np.array([50.0]))
    assert tv_from_counts(separating.counts(*pts), separating.counts(*shifted)) == 1.0
    with pytest.raises(SimulationError):
        tv_from_counts(bins.counts(np.array([]), np.array([])), bins.counts(*pts))


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
        est = tv_from_counts(bins.counts(*sa), bins.counts(*sb))
        assert est <= truth + _tv_noise_allowance(bins.n_cells, n, n)


def test_tv_frozen_shifted_normal():
    # frozen truth 2*Phi(1/2) - 1 from a 40-digit reference evaluation
    truth = 0.38292492254802621
    g = RngStream(61, 0).generator
    n = 500_000
    sa = (g.normal(0, 1, n), g.normal(0, 1, n))
    sb = (g.normal(1, 1, n), g.normal(0, 1, n))
    bins = BinGrid.equal_mass(sa[0], sa[1], (64, 64))
    est = tv_from_counts(bins.counts(*sa), bins.counts(*sb))
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
    d = default_small_set_level(b, lambda_T(spec50, TIGHT.V))
    from driftbound.bound_core import DriftParameters, derive_alpha_lambda
    alpha, _ = derive_alpha_lambda(DriftParameters(lam=lambda_T(spec50, TIGHT.V),
                                                   b_drift=b, d_small=d))
    stats = hitting_time_stats(800, 40, ds50, TIGHT, spec50, d, alpha, seed=71)
    return stats, d


def test_pairs_starting_inside_hit_immediately(hitting):
    stats, _ = hitting
    # the canonical start has zero energy, so time 0 is a joint return: t_1 = 0
    assert np.all(stats.t_matrix[:, 0] == 0)


def test_gaps_at_least_one(hitting):
    # with t_0 = -1 every gap t_i - t_{i-1} is >= 1: the uncensored times of
    # each pair strictly increase, and censored entries (-1) only trail them
    stats, _ = hitting
    t = stats.t_matrix
    seen = t >= 0
    assert np.all(seen[:, :-1] >= seen[:, 1:])
    both = seen[:, :-1] & seen[:, 1:]
    assert np.all(np.diff(t, axis=1)[both] >= 1)


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
