import math

import mpmath as mp
import numpy as np
import pytest

from driftbound.hier_model import (
    BoundConstants,
    ChainState,
    Dataset,
    GibbsBoundReport,
    LargeSetSpec,
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    check_data_assumption,
    conditional_S_moments,
    data_center,
    default_large_set,
    drift_offset_b,
    drift_value,
    drift_value_summary,
    expected_drift,
    expected_inv_A,
    extended_bound_general_start,
    gibbs_step,
    in_large_set,
    initial_state,
    lambda_T,
    lambda_factor,
    make_state,
    sufficient_stats,
    synth_dataset,
    tail_probability_bound,
)
from driftbound.numerics import RngStream

CLASSIC = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)
TIGHT = ModelConfig(V=8e-4, prior_shape_a=3.0, prior_scale_b=0.2, delta_margin=0.08)


def classic_data(n=100, center=2.0, seed=7):
    return synth_dataset(n, center, CLASSIC, RngStream(seed, 0), exact_center=True)


def tight_data(n=100, seed=7):
    return synth_dataset(n, 0.1, TIGHT, RngStream(seed, 0), exact_center=True)


# ---------------------------------------------------------------------------
# data handling
# ---------------------------------------------------------------------------


def test_sufficient_stats_examples():
    ds = sufficient_stats([0.0, 0.0, 0.0, 0.0])
    assert ds.y_bar == 0.0 and ds.delta == 0.0
    ds = sufficient_stats([1.0, -1.0])
    assert ds.y_bar == 0.0 and ds.delta == 2.0


def test_sufficient_stats_sampling_check():
    y = RngStream(3, 0).generator.standard_normal(10_000)
    ds = sufficient_stats(y)
    # sample variance of a standard normal has standard error sqrt(2/(n-1))
    assert abs(ds.delta / (ds.n - 1) - 1.0) <= 4.0 * math.sqrt(2.0 / (ds.n - 1))


def test_sufficient_stats_validation():
    with pytest.raises(ModelError):
        sufficient_stats([1.0])
    with pytest.raises(ModelError):
        sufficient_stats([1.0, math.nan])


def test_dataset_cache_consistency_enforced():
    with pytest.raises(ModelError):
        Dataset(y=np.array([1.0, -1.0]), n=2, y_bar=0.5, delta=2.0)
    with pytest.raises(ModelError):
        Dataset(y=np.array([1.0, -1.0]), n=2, y_bar=0.0, delta=1.0)


def test_data_assumption_examples():
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)
    assert check_data_assumption(sufficient_stats([0.0, math.sqrt(6.0)]), cfg)   # 3 >= 2
    assert not check_data_assumption(sufficient_stats([0.0, math.sqrt(3.0)]), cfg)
    # exact boundary: dispersion 2 equals V + margin = 2, kept by the weak >=
    assert check_data_assumption(sufficient_stats([0.0, 2.0]), cfg)


def test_initial_state_branches():
    ds = classic_data()
    x0 = initial_state(ds, CLASSIC)
    assert x0.A == pytest.approx(data_center(ds, CLASSIC), rel=1e-15)
    assert x0.theta_bar == ds.y_bar
    assert drift_value(x0, ds, CLASSIC) == pytest.approx(0.0, abs=1e-20)
    # dispersion 0.5 below V = 1 triggers the fallback branch
    ds2 = sufficient_stats([0.0, 1.0])
    x0 = initial_state(ds2, CLASSIC)
    assert x0.A == pytest.approx(0.5, rel=1e-15)


def test_initial_state_lies_in_any_valid_band():
    ds = classic_data()
    x0 = initial_state(ds, CLASSIC)
    c = data_center(ds, CLASSIC)
    for t in (1e-6, 0.3, 0.9999 * c):
        assert in_large_set(x0, LargeSetSpec(T=t, center=c))


def test_make_state_validation():
    with pytest.raises(ModelError):
        make_state(0.0, -1.0, [0.0, 1.0])
    with pytest.raises(ModelError):
        ChainState(mu=0.0, A=1.0, theta=np.array([0.0, 1.0]), theta_bar=0.2, S=0.5)


def test_synth_dataset_deterministic_and_scaled():
    cfg = CLASSIC
    a = synth_dataset(100, 2.0, cfg, RngStream(9, 0))
    b = synth_dataset(100, 2.0, cfg, RngStream(9, 0))
    assert np.array_equal(a.y, b.y)
    exact = synth_dataset(100, 2.0, cfg, RngStream(9, 0), exact_center=True)
    assert exact.delta / 99.0 == pytest.approx(3.0, rel=1e-12)
    # marginal variance of an observation is V + center
    big = synth_dataset(20_000, 2.0, cfg, RngStream(10, 0))
    assert abs(big.delta / (big.n - 1) - 3.0) <= 4.0 * 3.0 * math.sqrt(2.0 / big.n)


# ---------------------------------------------------------------------------
# energy and contraction factor
# ---------------------------------------------------------------------------


def test_drift_value_direct_example():
    y = np.array([math.sqrt(2.0), -math.sqrt(2.0), math.sqrt(4.0), -math.sqrt(4.0)])
    ds = sufficient_stats(y)  # n=4, y_bar=0, delta=12, dispersion 4
    cfg = ModelConfig(V=2.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)
    assert data_center(ds, cfg) == pytest.approx(2.0)
    assert drift_value_summary(1.0, 3.0, ds, cfg) == pytest.approx(8.0, rel=1e-14)


def test_lambda_factor_examples():
    assert lambda_factor(0.0, 1.0) == 1.0
    assert lambda_factor(1.0, 1.0) == pytest.approx(0.5625, rel=1e-15)
    with pytest.raises(ModelError):
        lambda_factor(-0.5, 1.0)


def test_lambda_factor_strictly_decreasing():
    grid = np.linspace(1e-4, 50.0, 10_000)
    vals = lambda_factor(grid, 1.0)
    assert np.all(np.diff(vals) < 0.0)


def test_lambda_threshold_examples():
    assert lambda_T(LargeSetSpec(T=1.0, center=2.0), 1.0) == pytest.approx(0.5625)
    assert lambda_T(LargeSetSpec(T=2.0, center=3.0), 1.0) == pytest.approx((5.0 / 9.0) ** 2)
    with pytest.raises(ModelError):
        LargeSetSpec(T=0.0, center=2.0)
    with pytest.raises(ModelError):
        LargeSetSpec(T=2.5, center=2.0)


def test_band_membership_boundaries():
    spec = LargeSetSpec(T=1.0, center=2.0)
    ds = classic_data()

    def state_with_a(a):
        return make_state(0.0, a, np.full(ds.n, ds.y_bar))

    assert in_large_set(state_with_a(1.0), spec)
    assert in_large_set(state_with_a(2.0), spec)
    assert not in_large_set(state_with_a(3.0 + 1e-9), spec)


def test_band_membership_is_the_chains_interval_rule():
    # at A = a_high the squared-distance form (c - A)^2 <= (c - T)^2 rounds
    # to "outside" here, while every chain tests a_low <= A <= a_high
    spec = LargeSetSpec(T=1.0376289339251905, center=2.5612608596293565)
    ds = classic_data()
    for a in (spec.a_low, spec.a_high):
        assert in_large_set(make_state(0.0, a, np.full(ds.n, ds.y_bar)), spec)


# ---------------------------------------------------------------------------
# kernel and conditional moments
# ---------------------------------------------------------------------------


def test_gibbs_step_conditional_moment_formulas():
    # one-coordinate conditional mean/variance: ((mu*V + y*A)/(V+A), AV/(V+A))
    assert (0.0 * 1.0 + 2.0 * 1.0) / 2.0 == 1.0
    ds = classic_data(n=50)
    x0 = initial_state(ds, CLASSIC)
    stream = RngStream(17, 0)
    n_rep = 20_000
    mus = np.empty(n_rep)
    a_next = np.empty(n_rep)
    for i in range(n_rep):
        x1 = gibbs_step(x0, ds, CLASSIC, stream)
        mus[i] = x1.mu
        a_next[i] = x1.A
    se = mus.std() / math.sqrt(n_rep)
    assert abs(mus.mean() - x0.theta_bar) <= 4.0 * se
    var_target = x0.A / ds.n
    assert abs(mus.var() - var_target) <= 4.0 * var_target * math.sqrt(2.0 / n_rep)
    # inverse-gamma mean of the variance update, averaged over theta
    s_mean, _, _ = conditional_S_moments(x0.A, ds, CLASSIC)
    a1 = CLASSIC.prior_shape_a + 0.5 * (ds.n - 1)
    target = (CLASSIC.prior_scale_b + 0.5 * (ds.n - 1) * s_mean) / (a1 - 1.0)
    assert abs(a_next.mean() - target) <= 4.0 * a_next.std() / math.sqrt(n_rep)


def test_inverse_gamma_mean_example():
    # shape 3 + (5-1)/2 = 5, scale 2 + (5-1)*1/2 = 4, mean = 4/4 = 1
    assert (2.0 + 2.0) / (3.0 + 2.0 - 1.0) == 1.0


def test_kernel_sees_only_summary_coordinates():
    # two states with equal (theta_bar, A) but different latent vectors
    # produce identical sweeps under shared randomness
    ds = classic_data(n=6)
    theta_a = np.array([1.0, -1.0, 0.5, -0.5, 0.25, -0.25])
    theta_b = np.array([2.0, -2.0, 1.0, -1.0, 0.5, -0.5])
    xa = make_state(0.3, 1.7, theta_a)
    xb = make_state(-4.0, 1.7, theta_b)
    assert xa.theta_bar == xb.theta_bar == 0.0
    ya = gibbs_step(xa, ds, CLASSIC, RngStream(77, 0))
    yb = gibbs_step(xb, ds, CLASSIC, RngStream(77, 0))
    assert ya.mu == yb.mu and ya.A == yb.A
    assert np.array_equal(ya.theta, yb.theta)


def test_leaving_band_raises_energy_component():
    # any A produced outside the band has, by construction, a larger
    # centered-A energy term than any in-band value
    ds = classic_data(n=20)
    spec = default_large_set(ds, CLASSIC)
    c = spec.center
    stream = RngStream(79, 0)
    x = initial_state(ds, CLASSIC)
    worst_inside = (c - spec.T) ** 2
    seen_exit = 0
    for _ in range(4000):
        x = gibbs_step(x, ds, CLASSIC, stream)
        if not in_large_set(x, spec):
            assert (c - x.A) ** 2 > worst_inside
            seen_exit += 1
            x = initial_state(ds, CLASSIC)
    assert seen_exit > 0


def _delta12_five_points():
    # five observations with mean zero and centered sum of squares exactly 12
    return sufficient_stats([math.sqrt(6.0), -math.sqrt(6.0), 0.0, 0.0, 0.0])


def test_conditional_s_moments_closed_forms():
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=0.5)
    ds12 = _delta12_five_points()
    assert ds12.delta == pytest.approx(12.0, rel=1e-14)
    mean, var, second = conditional_S_moments(1.0, ds12, cfg)
    assert mean == pytest.approx(0.5 + 0.25 * 3.0, rel=1e-14)
    assert var == pytest.approx(0.5, rel=1e-14)   # [2*4*0.25 + 4*0.25*0.5*12] / 16
    assert second == pytest.approx(var + mean**2, rel=1e-14)


def test_conditional_s_moments_monte_carlo_oracle():
    ds = _delta12_five_points()
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=0.5)
    a_val, mu_val = 1.0, 0.7
    g = RngStream(23, 0).generator
    n_rep = 1_000_000
    w = cfg.V / (cfg.V + a_val)
    means = mu_val * w + ds.y[None, :] * (1.0 - w)
    sd = math.sqrt(a_val * cfg.V / (cfg.V + a_val))
    theta = means + sd * g.standard_normal((n_rep, 5))
    s = theta.var(axis=1, ddof=1)
    mean, var, _ = conditional_S_moments(a_val, ds, cfg)
    assert abs(s.mean() - mean) <= 4.0 * s.std() / math.sqrt(n_rep)
    centered = (s - s.mean()) ** 2
    se_var = centered.std() / math.sqrt(n_rep)
    assert abs(s.var() - var) <= 4.0 * se_var


def test_conditional_s_moments_vanish_as_a_tends_to_zero():
    ds = classic_data()
    mean, _, _ = conditional_S_moments(1e-10, ds, CLASSIC)
    assert mean < 1e-9
    with pytest.raises(ModelError):
        conditional_S_moments(0.0, ds, CLASSIC)


# ---------------------------------------------------------------------------
# exact expected energy
# ---------------------------------------------------------------------------


def test_expected_drift_symmetry_exact():
    ds = classic_data()
    for t in (0.1, 0.5, 2.7):
        left = expected_drift(ds.y_bar - t, 1.3, ds, CLASSIC)
        right = expected_drift(ds.y_bar + t, 1.3, ds, CLASSIC)
        assert left == right


def test_expected_drift_monte_carlo_one_state():
    ds = classic_data()
    tb, a_val = ds.y_bar + 0.3, 1.0
    exact = expected_drift(tb, a_val, ds, CLASSIC)
    g = RngStream(29, 0).generator
    n_rep = 200_000
    c = data_center(ds, CLASSIC)
    w = CLASSIC.V / (CLASSIC.V + a_val)
    sd = math.sqrt(a_val * CLASSIC.V / (CLASSIC.V + a_val))
    mu1 = g.normal(tb, math.sqrt(a_val / ds.n), n_rep)
    fs = np.empty(n_rep)
    chunk = 40_000
    for lo in range(0, n_rep, chunk):
        hi = min(lo + chunk, n_rep)
        theta = mu1[lo:hi, None] * w + ds.y[None, :] * (1.0 - w) \
            + sd * g.standard_normal((hi - lo, ds.n))
        tb1 = theta.mean(axis=1)
        s1 = theta.var(axis=1, ddof=1)
        beta = CLASSIC.prior_scale_b + 0.5 * (ds.n - 1) * s1
        a_new = beta / g.standard_gamma(CLASSIC.prior_shape_a + 0.5 * (ds.n - 1), hi - lo)
        fs[lo:hi] = ds.n * ((tb1 - ds.y_bar) ** 2 + (c - a_new) ** 2)
    assert abs(fs.mean() - exact) <= 3.0 * fs.std() / math.sqrt(n_rep)


def test_expected_drift_validation():
    ds = classic_data()
    with pytest.raises(ModelError):
        expected_drift(0.0, 0.0, ds, CLASSIC)
    tiny = sufficient_stats([0.0, 1.0, 2.0])
    low_shape = ModelConfig(V=1.0, prior_shape_a=1.0, prior_scale_b=1.0, delta_margin=0.1)
    with pytest.raises(ModelError, match="shape"):
        expected_drift(0.0, 1.0, tiny, low_shape)


def test_contraction_inequality_on_grid():
    ds = classic_data()
    spec = default_large_set(ds, CLASSIC)
    b = drift_offset_b(ds, CLASSIC, spec)
    tb = ds.y_bar + np.linspace(-10.0, 10.0, 100)
    a_val = np.linspace(spec.a_low, spec.a_high, 100)
    tt, aa = np.meshgrid(tb, a_val)
    lhs = expected_drift(tt, aa, ds, CLASSIC)
    rhs = lambda_factor(aa, CLASSIC.V) * drift_value_summary(tt, aa, ds, CLASSIC) + b
    assert np.all(lhs <= rhs + 1e-9 * (1.0 + np.abs(rhs)))


def test_drift_offset_dominates_random_states():
    ds = classic_data()
    spec = default_large_set(ds, CLASSIC)
    b = drift_offset_b(ds, CLASSIC, spec)
    lam_t = lambda_T(spec, CLASSIC.V)
    rng = RngStream(31, 0).generator
    tb = ds.y_bar + rng.uniform(-10.0, 10.0, 10_000)
    a_val = rng.uniform(spec.a_low, spec.a_high, 10_000)
    deficit = expected_drift(tb, a_val, ds, CLASSIC) \
        - lam_t * drift_value_summary(tb, a_val, ds, CLASSIC)
    assert np.all(deficit <= b + 1e-9 * (1.0 + b))
    # at the zero-energy state the one-sweep energy is itself below b
    c = data_center(ds, CLASSIC)
    assert expected_drift(ds.y_bar, c, ds, CLASSIC) <= b


def test_drift_offset_flat_in_n():
    b100 = drift_offset_b(classic_data(100), CLASSIC,
                          default_large_set(classic_data(100), CLASSIC))
    ds6400 = classic_data(6400)
    b6400 = drift_offset_b(ds6400, CLASSIC, default_large_set(ds6400, CLASSIC))
    assert max(b100, b6400) / min(b100, b6400) < 2.0


# ---------------------------------------------------------------------------
# tail budget and posterior functional
# ---------------------------------------------------------------------------


def test_tail_probability_bound_direct():
    # b=1, T=1, center=2, margin=1, V=1, n=100, k=5:
    #   (5/10)*1*3/1 + (30/200)*1/1 = 1.65
    base = np.array([1.0, -1.0] + [0.0] * 98)
    scale = math.sqrt(3.0 * 99.0 / float(((base - base.mean()) ** 2).sum()))
    ds = sufficient_stats(base * scale)
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)
    assert ds.delta / 99.0 == pytest.approx(3.0, rel=1e-12)
    spec = LargeSetSpec(T=1.0, center=data_center(ds, cfg))
    assert tail_probability_bound(5, ds, cfg, spec, 1.0) == pytest.approx(1.65, rel=1e-9)
    assert tail_probability_bound(0, ds, cfg, spec, 1.0) == 0.0


def test_expected_inv_a_against_high_precision_reference():
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=0.9)
    ds = synth_dataset(50, 1.0, cfg, RngStream(7, 0), exact_center=True)
    got = expected_inv_A(ds, cfg)

    mp.mp.dps = 30
    a, b, v, delta, n = map(mp.mpf, (3.0, 2.0, 1.0, ds.delta, 50))

    def kernel(x, power):
        return x**-power * mp.e ** (-b / x) * (v + x) ** (-(n - 1) / 2) \
            * mp.e ** (-delta / (2 * (v + x)))

    pts = [0, mp.mpf("0.5"), 1, 2, 5, mp.inf]
    num = mp.quad(lambda x: kernel(x, a + 2), pts)
    den = mp.quad(lambda x: kernel(x, a + 1), pts)
    assert got == pytest.approx(float(num / den), rel=1e-6)


# ---------------------------------------------------------------------------
# certificate assembly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tight_report():
    ds = tight_data()
    return ds, assemble_gibbs_bound(ds, TIGHT, k_max=40)


def test_assembled_constants_satisfy_invariants(tight_report):
    ds, report = tight_report
    bc = report.constants
    assert 0.0 < bc.lambda_T < 1.0
    assert bc.b_drift > 0.0
    assert bc.d_small > 2.0 * bc.b_drift / (1.0 - bc.lambda_T)
    assert 0.0 < bc.epsilon <= 1.0
    assert 0.0 <= bc.q_mass_lower <= 1.0
    assert bc.alpha > 1.0 and bc.Lambda >= 1.0
    assert 0.0 < bc.r < 1.0
    assert bc.log_inv_gamma > 0.0 and 0.0 < bc.gamma <= 1.0
    assert report.K_bar >= 1 and report.N_c >= report.K_bar
    assert np.all(report.three_term_total >= report.term_geometric)
    assert np.all(report.certificate_clamped <= 1.0)
    assert np.all(np.diff(report.term_geometric) < 0.0)


def test_assembled_bound_recomputed_term_by_term(tight_report):
    ds, report = tight_report
    bc = report.constants
    mp.mp.dps = 40
    eps_q = mp.mpf(bc.epsilon) * mp.mpf(bc.q_mass_lower)
    alpha, cap = mp.mpf(bc.alpha), mp.mpf(bc.Lambda)
    r = mp.mpf(bc.r)
    c0 = 1 + mp.mpf(bc.b_drift) / (1 - mp.mpf(bc.lambda_T))
    for k in (1, 7, 40):
        t1 = (1 - eps_q) ** (r * k)
        t2 = ((alpha * cap) ** (r * k) * c0 - alpha ** (r * k)) / (alpha**k - alpha ** (r * k))
        pi_term = k * mp.mpf(bc.C3) / mp.sqrt(ds.n)
        cum = mp.mpf(bc.C2) * k * (1 + k) / ds.n
        expect = float(t1 + t2 + pi_term + cum)
        assert float(report.certificate_raw[k - 1]) == pytest.approx(expect, rel=1e-10)


def test_assemble_rejects_small_level(tight_report):
    ds, report = tight_report
    bad = 1.9 * report.constants.b_drift / (1.0 - report.constants.lambda_T)
    with pytest.raises(ModelError, match="must exceed"):
        assemble_gibbs_bound(ds, TIGHT, d=bad, k_max=5)


def test_assemble_rejects_box_spill():
    ds = tight_data()
    with pytest.raises(ModelError, match="spills"):
        assemble_gibbs_bound(ds, TIGHT, d=2.0, k_max=5)


def test_assemble_rejects_bad_data():
    low = synth_dataset(50, 0.01, TIGHT, RngStream(5, 0), exact_center=True)
    with pytest.raises(ModelError, match="margin"):
        assemble_gibbs_bound(low, TIGHT, k_max=5)


def test_assemble_order_one_scales_hits_float_rate_floor():
    # at order-one V and center the honest minorization volume sits near
    # 1e-22, so gamma rounds to 1.0 while log(1/gamma) stays positive; the
    # whole certificate must remain finite and internally consistent
    ds = classic_data(n=200)
    report = assemble_gibbs_bound(ds, CLASSIC, k_max=10)
    bc = report.constants
    assert 0.0 < bc.epsilon < 1e-12
    assert bc.q_mass_lower > 0.99
    assert bc.log_inv_gamma > 0.0
    assert 0.0 < bc.gamma <= 1.0
    assert report.K_bar >= 1 and math.isfinite(float(report.N_c))
    assert np.all(np.isfinite(report.certificate_raw))
    assert np.all(report.certificate_clamped <= 1.0)


# ---------------------------------------------------------------------------
# general-start bound
# ---------------------------------------------------------------------------


def test_extended_bound_reduces_at_zero_energy(tight_report):
    ds, report = tight_report
    x0 = initial_state(ds, TIGHT)
    assert drift_value(x0, ds, TIGHT) == 0.0
    for k in (1, 5, 40):
        got = extended_bound_general_start(x0, ds, TIGHT, k, report)
        expect = float(report.term_geometric[k - 1] + report.term_quadratic[k - 1]
                       + report.term_sqrt[k - 1])
        assert got == pytest.approx(expect, rel=1e-12)


def test_extended_bound_monotone_in_start_energy(tight_report):
    ds, report = tight_report
    c = report.constants.center
    vals = []
    for offset in (0.0, 0.005, 0.01):
        x0 = make_state(0.0, c - offset, np.full(ds.n, ds.y_bar))
        vals.append(extended_bound_general_start(x0, ds, TIGHT, 10, report))
    assert vals[0] <= vals[1] <= vals[2]


def test_extended_bound_rejects_outside_margin_band(tight_report):
    ds, report = tight_report
    x_out = make_state(0.0, 1e-4, np.full(ds.n, ds.y_bar))
    with pytest.raises(ModelError, match="outside the large set"):
        extended_bound_general_start(x_out, ds, TIGHT, 3, report)


def test_extended_bound_log_n_steps_suffice_for_order_one_rate():
    # with order-one constants and a moderate band gap, the general-start
    # form drops below 0.25 within O(log n) steps even from a start energy
    # of n/(2 log n); certificate-derived constants reach this regime only
    # past their own (much larger) sample-size threshold
    n = 10_000
    ds = synth_dataset(n, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    gamma = 0.4
    bc = BoundConstants(
        lambda_T=0.1, b_drift=0.02, d_small=0.05, T=0.05, center=0.1,
        epsilon=0.5, q_mass_lower=1.0, alpha=1.2, Lambda=1.1, r=0.5,
        gamma=gamma, log_inv_gamma=-math.log(gamma),
        C1=2.1, C2=0.3, C3=0.3, C4=0.2,
    )
    ks = np.array([1.0])
    report = GibbsBoundReport(
        n=n, constants=bc, k_values=ks, certificate_raw=ks, certificate_clamped=ks,
        term_geometric=ks, term_quadratic=ks, term_sqrt=ks, three_term_total=ks,
        three_term_clamped=ks, K_bar=1, N_c=1, mix_target_c=0.25, h_inv_a=10.0,
        exit_prob_upper=0.0,
    )
    f0 = n / (2.0 * math.log(n))
    x0 = make_state(0.0, 0.1, ds.y_bar + math.sqrt(f0 / n) * np.ones(n))
    assert drift_value(x0, ds, TIGHT) == pytest.approx(f0, rel=1e-9)
    k = int(1.2 * math.log(n))
    val = extended_bound_general_start(x0, ds, TIGHT, k, report)
    assert val < 0.25
