import itertools
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftbound import cli, hier_model
from driftbound.acceptance import _gibbs_sweeps
from driftbound.bound_core import (
    DriftParameters,
    MinorizationCertificate,
    derived_constants,
    evaluate_bound,
)
from driftbound.hier_model import (
    BoundConstants,
    ChainState,
    Dataset,
    GibbsBoundReport,
    LargeSetSpec,
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    bound_terms,
    check_data_assumption,
    conditional_S_moments,
    data_center,
    default_large_set,
    default_small_set_level,
    drift_offset_b,
    drift_value_summary,
    exit_budget,
    expected_drift,
    expected_inv_A,
    initial_state,
    lambda_T,
    lambda_factor,
    synth_dataset,
)
from driftbound.hier_model import _B_ROUNDING, _exact_sum, _log_a_kernel, _log_a_peak
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
    ds = Dataset([0.0, 0.0, 0.0, 0.0])
    assert ds.y_bar == 0.0 and ds.delta == 0.0
    ds = Dataset([1.0, -1.0])
    assert ds.y_bar == 0.0 and ds.delta == 2.0


def test_sufficient_stats_sampling_check():
    y = RngStream(3, 0).generator.standard_normal(10_000)
    ds = Dataset(y)
    # sample variance of a standard normal has standard error sqrt(2/(n-1))
    assert abs(ds.delta / (ds.n - 1) - 1.0) <= 4.0 * math.sqrt(2.0 / (ds.n - 1))


def test_sufficient_stats_validation():
    with pytest.raises(ModelError):
        Dataset([1.0])
    with pytest.raises(ModelError):
        Dataset([1.0, math.nan])
    with pytest.raises(ModelError):
        Dataset(np.zeros((2, 2)))


def test_dataset_statistics_are_the_exact_sums():
    # y_bar and delta are the two fsum expressions, bit for bit, on
    # ill-conditioned data (the spread is 1e-8 of the offset, so a naive sum
    # of squares would lose most digits) and on standard normals, some of
    # whose terms x have x*x != x**2 (delta's terms are libm pow squares)
    normals = RngStream(5, 1).generator.standard_normal(20_000)
    for y in (1e8 + RngStream(5, 0).generator.standard_normal(1000), normals):
        ds = Dataset(y)
        mean = math.fsum(y.tolist()) / y.size
        assert ds.n == y.size
        assert ds.y_bar == mean
        assert ds.delta == math.fsum((v - mean) ** 2 for v in y.tolist())
    mean = math.fsum(normals.tolist()) / normals.size
    assert any((v - mean) * (v - mean) != (v - mean) ** 2 for v in normals.tolist())


def _assert_exact_sum(x):
    """_exact_sum(x) has the bits of the exact sum rounded once (a Fraction
    total, rounded by int true division) and of math.fsum wherever fsum
    returns; where the exact total rounds past the float range both raise."""
    x = np.asarray(x, dtype=float)
    try:
        exact = float(sum(map(Fraction, x.tolist())))
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(x)
        return
    got = _exact_sum(x)
    assert got.hex() == exact.hex()
    try:
        fsum = math.fsum(x.tolist())
    except OverflowError:  # fsum's intermediate overflow on a representable sum
        return
    assert got.hex() == fsum.hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
       st.booleans())
def test_exact_sum_is_fsum_on_any_finite_doubles(xs, cancel):
    # hypothesis' floats span the whole exponent range, subnormals, signed
    # zeros and the extremes; appending the negations (rotated, so the
    # order differs) makes the total cancel exactly
    if cancel:
        xs = xs + [-v for v in xs[1:] + xs[:1]]
    _assert_exact_sum(xs)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(1, 100_000), st.integers(0, 1000), st.integers(0, 2**32 - 1))
@example(100_000, 1000, 0)
def test_exact_sum_is_fsum_on_wide_exponent_spreads(n, spread, seed):
    # exponents spread over up to 2001 binades, one term in a hundred a zero,
    # a subnormal or the smallest normal, and half of the second half
    # cancelling the first exactly; |x| < 16*2^1000, so no total overflows
    g = np.random.default_rng(seed)
    x = np.ldexp(g.standard_normal(n), g.integers(-spread, spread + 1, n))
    special = g.random(n) < 0.01
    x[special] = g.choice([0.0, -0.0, 5e-324, -2.5e-323, 2.2250738585072014e-308],
                          int(special.sum()))
    half = n // 2
    partner = x[half:2 * half]
    cancel = g.random(half) < 0.5
    partner[cancel] = -x[:half][cancel]
    assert _exact_sum(x).hex() == math.fsum(x.tolist()).hex()


def test_exact_sum_overflow_and_fsum_intermediate_overflow():
    with pytest.raises(OverflowError):
        _exact_sum(np.array([1.7e308, 1.7e308]))
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert _exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308
    # a total just past the largest double that rounds back down to it
    top = np.nextafter(np.inf, 0.0)
    half_ulp = np.ldexp(1.0, 1023 - 53)
    assert _exact_sum(np.array([top, half_ulp * 0.75])) == top


def test_float_power_squares_are_libm_pow():
    # delta's terms: float_power is libm pow per element, as math.pow and
    # Python's float ** are, while x*x rounds differently on some of them
    x = RngStream(5, 2).generator.standard_normal(1_000_000)
    pow_squares = np.fromiter(map(math.pow, x.tolist(), itertools.repeat(2.0)), float, x.size)
    assert np.array_equal(np.float_power(x, 2.0), pow_squares)
    assert np.any(x * x != pow_squares)


@pytest.mark.parametrize("ys, name", [
    ([1e308, 1e308], "y_bar"),
    ([1e200, -1e200], "delta"),
    ([1.7e308, 1.7e308, -1.7e308], "delta"),   # y - y_bar itself overflows
])
def test_overflowing_statistics_are_a_model_error(ys, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no float_power RuntimeWarning either
        with pytest.raises(ModelError, match=f"^{name} overflows"):
            Dataset(ys)


def test_data_assumption_examples():
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)
    assert check_data_assumption(Dataset([0.0, math.sqrt(6.0)]), cfg)   # 3 >= 2
    assert not check_data_assumption(Dataset([0.0, math.sqrt(3.0)]), cfg)
    # exact boundary: dispersion 2 equals V + margin = 2, kept by the weak >=
    assert check_data_assumption(Dataset([0.0, 2.0]), cfg)


def test_initial_state_branches():
    ds = classic_data()
    x0 = initial_state(ds, CLASSIC)
    assert x0.A == pytest.approx(data_center(ds, CLASSIC), rel=1e-15)
    assert x0.theta_bar == ds.y_bar
    assert drift_value_summary(x0.theta_bar, x0.A, ds, CLASSIC) == pytest.approx(0.0, abs=1e-20)
    # dispersion 0.5 below V = 1 triggers the fallback branch
    ds2 = Dataset([0.0, 1.0])
    x0 = initial_state(ds2, CLASSIC)
    assert x0.A == pytest.approx(0.5, rel=1e-15)


def test_initial_state_lies_in_any_valid_band():
    ds = classic_data()
    x0 = initial_state(ds, CLASSIC)
    c = data_center(ds, CLASSIC)
    for t in (1e-6, 0.3, 0.9999 * c):
        assert LargeSetSpec(T=t, center=c).contains(x0.A)


def test_chain_state_validation():
    with pytest.raises(ModelError):
        ChainState(theta_bar=0.0, A=-1.0)


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
    ds = Dataset(y)  # n=4, y_bar=0, delta=12, dispersion 4
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
    assert spec.contains(1.0)
    assert spec.contains(2.0)
    assert not spec.contains(3.0 + 1e-9)


def test_band_membership_is_the_chains_interval_rule():
    # at A = a_high the squared-distance form (c - A)^2 <= (c - T)^2 rounds
    # to "outside" here, while every chain tests a_low <= A <= a_high
    spec = LargeSetSpec(T=1.0376289339251905, center=2.5612608596293565)
    for a in (spec.a_low, spec.a_high):
        assert spec.contains(a)


# ---------------------------------------------------------------------------
# kernel and conditional moments
# ---------------------------------------------------------------------------


def test_gibbs_sweeps_conditional_moment_formulas():
    # one-coordinate conditional mean/variance: ((mu*V + y*A)/(V+A), AV/(V+A))
    assert (0.0 * 1.0 + 2.0 * 1.0) / 2.0 == 1.0
    ds = classic_data(n=50)
    x0 = initial_state(ds, CLASSIC)
    n_rep = 20_000
    mus, _, _, a_next = _gibbs_sweeps(x0.theta_bar, x0.A, ds, CLASSIC, n_rep, RngStream(17, 0))
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


def test_leaving_band_raises_energy_component():
    # any A produced outside the band has, by construction, a larger
    # centered-A energy term than any in-band value
    ds = classic_data(n=20)
    spec = default_large_set(ds, CLASSIC)
    c = spec.center
    stream = RngStream(79, 0)
    x0 = initial_state(ds, CLASSIC)
    tb, a = x0.theta_bar, x0.A
    worst_inside = (c - spec.T) ** 2
    seen_exit = 0
    for _ in range(4000):
        _, tb1, _, a1 = _gibbs_sweeps(tb, a, ds, CLASSIC, 1, stream)
        tb, a = float(tb1[0]), float(a1[0])
        if not spec.contains(a):
            assert (c - a) ** 2 > worst_inside
            seen_exit += 1
            tb, a = x0.theta_bar, x0.A
    assert seen_exit > 0


def _delta12_five_points():
    # five observations with mean zero and centered sum of squares exactly 12
    return Dataset([math.sqrt(6.0), -math.sqrt(6.0), 0.0, 0.0, 0.0])


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
    tiny = Dataset([0.0, 1.0, 2.0])
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


def _mp_energy(ds, cfg):
    """The one-sweep expected energy E[f'] at theta_bar = y_bar, in mpmath,
    with the second moment of A' expanded as the formulas read."""
    n, v, a, b0 = (mp.mpf(x) for x in (ds.n, cfg.V, cfg.prior_shape_a, cfg.prior_scale_b))
    delta = mp.mpf(ds.delta)
    c = delta / (n - 1) - v
    a1 = a + (n - 1) / 2

    def energy(A):
        A = mp.mpf(A)
        s2, rho = A * v / (v + A), A / (v + A)
        s_mean = s2 + rho**2 * delta / (n - 1)
        s_second = (2 * (n - 1) * s2**2 + 4 * rho**2 * s2 * delta) / (n - 1) ** 2 + s_mean**2
        e_beta = b0 + (n - 1) * s_mean / 2
        e_beta2 = b0**2 + b0 * (n - 1) * s_mean + (n - 1) ** 2 * s_second / 4
        e_a1 = e_beta / (a1 - 1)
        e_a1_sq = e_beta2 / ((a1 - 1) * (a1 - 2))
        return s2 + (v / (v + A)) ** 2 * A + n * (c * c - 2 * c * e_a1 + e_a1_sq)

    return energy


def _mp_gain(ds, cfg):
    """The band gain E[f'] - lambda_factor(A)*f at theta_bar = y_bar, in mpmath."""
    v = mp.mpf(cfg.V)
    c = mp.mpf(ds.delta) / (ds.n - 1) - v
    energy = _mp_energy(ds, cfg)

    def gain(A):
        A = mp.mpf(A)
        lam = (v * (v + 2 * A) / (v + A) ** 2) ** 2
        return energy(A) - lam * ds.n * (c - A) ** 2

    return gain


def _mp_band_sup(gain, lo, hi):
    """Dense scan of the band, then golden-section refinement of the best cell."""
    xs = [lo + (hi - lo) * mp.mpf(i) / 400 for i in range(401)]
    vals = [gain(x) for x in xs]
    i = max(range(401), key=vals.__getitem__)
    left, right = xs[max(i - 1, 0)], xs[min(i + 1, 400)]
    inv_phi = (mp.sqrt(5) - 1) / 2
    for _ in range(120):
        c, d = right - inv_phi * (right - left), left + inv_phi * (right - left)
        if gain(c) > gain(d):
            right = d
        else:
            left = c
    return max(vals[i], gain((left + right) / 2))


BAND_CASES = [(cfg, n) for cfg in ("tight", "classic") for n in (20, 100, 6400)]


def _band_case(cfg_name, n):
    ds = tight_data(n) if cfg_name == "tight" else classic_data(n)
    cfg = TIGHT if cfg_name == "tight" else CLASSIC
    return ds, cfg, default_large_set(ds, cfg)


@pytest.mark.parametrize("cfg_name", ["tight", "classic"])
@pytest.mark.parametrize("n", [100, 6400])
def test_expected_drift_full_precision_on_the_band(cfg_name, n):
    # the variance part n*E[(A'-c)^2] is a sum of nonnegative terms; the
    # expanded n*(c^2 - 2c E[A'] + E[A'^2]) cancels to 1.7e-12 relative at n=6400
    ds, cfg, spec = _band_case(cfg_name, n)
    a_grid = np.linspace(spec.a_low, spec.a_high, 41)
    got = expected_drift(ds.y_bar, a_grid, ds, cfg)
    mp.mp.dps = 40
    energy = _mp_energy(ds, cfg)
    for A, value in zip(a_grid, got):
        exact = energy(A)
        assert abs((mp.mpf(value) - exact) / exact) <= 5e-14


@pytest.mark.parametrize("cfg_name,n", BAND_CASES + [("classic", 102_400)])
def test_drift_offset_against_high_precision_supremum(cfg_name, n):
    ds, cfg, spec = _band_case(cfg_name, n)
    b = drift_offset_b(ds, cfg, spec)
    mp.mp.dps = 30
    sup = _mp_band_sup(_mp_gain(ds, cfg), mp.mpf(spec.a_low), mp.mpf(spec.a_high))
    assert sup <= b <= sup * (1 + mp.mpf(_B_ROUNDING))


def _kept_roots(monkeypatch, ds, cfg, spec):
    """The band points where drift_offset_b evaluates the gain after its
    five nodes: the interior maxima it found."""
    calls = []
    original = hier_model.expected_drift

    def recorded(theta_bar, A, ds, cfg):
        calls.append(np.atleast_1d(A).copy())
        return original(theta_bar, A, ds, cfg)

    monkeypatch.setattr(hier_model, "expected_drift", recorded)
    drift_offset_b(ds, cfg, spec)
    monkeypatch.undo()
    nodes = calls[0]
    assert len(nodes) == 5 and (nodes[0], nodes[-1]) == (spec.a_low, spec.a_high)
    assert len(calls) <= 2
    return calls[1] if len(calls) == 2 else np.array([])


ROOT_CASES = BAND_CASES + [("classic", 5), ("classic", 102_400)]


@pytest.mark.parametrize("cfg_name,n", ROOT_CASES)
def test_drift_offset_keeps_only_falling_zeros_of_the_slope(monkeypatch, cfg_name, n):
    # every root kept is a local maximum of the gain: g' > 0 just below it
    # and g' < 0 just above it, at 30 digits
    ds, cfg, spec = _band_case(cfg_name, n)
    roots = _kept_roots(monkeypatch, ds, cfg, spec)
    assert len(roots) == (cfg_name == "classic")
    mp.mp.dps = 30
    gain = _mp_gain(ds, cfg)
    step = mp.mpf(1e-6) * (spec.a_high - spec.a_low)
    for root in roots:
        assert spec.a_low < root < spec.a_high
        assert mp.diff(gain, root - step) > 0 > mp.diff(gain, root + step)


@pytest.mark.parametrize("cfg_name,n", ROOT_CASES)
def test_drift_offset_misses_no_local_maximum_of_a_band_grid(monkeypatch, cfg_name, n):
    # each local maximum of the gain on a 401-point band grid, at 30 digits,
    # has a kept root within one grid step
    ds, cfg, spec = _band_case(cfg_name, n)
    roots = _kept_roots(monkeypatch, ds, cfg, spec)
    mp.mp.dps = 30
    gain = _mp_gain(ds, cfg)
    lo, hi = mp.mpf(spec.a_low), mp.mpf(spec.a_high)
    xs = [lo + (hi - lo) * mp.mpf(i) / 400 for i in range(401)]
    vals = [gain(x) for x in xs]
    peaks = [i for i in range(1, 400) if vals[i - 1] <= vals[i] >= vals[i + 1]]
    for i in peaks:
        assert any(xs[i - 1] < root < xs[i + 1] for root in roots)
    assert len(peaks) == len(roots)


def test_drift_offset_makes_no_numpy_polynomial_call(monkeypatch):
    # the quartic and its cubic are plain float algebra: every function and
    # class of numpy.polynomial, and np.roots, raises while drift_offset_b runs
    import numpy.polynomial as npp

    cases = [_band_case("classic", 100), _band_case("tight", 100)]
    expected = [drift_offset_b(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.polynomial called")

    for mod in (npp, npp.polynomial, npp.chebyshev, npp.legendre, npp.laguerre,
                npp.hermite, npp.hermite_e, npp.polyutils):
        for name, obj in list(vars(mod).items()):
            if callable(obj) and getattr(obj, "__module__", "").startswith("numpy.polynomial"):
                monkeypatch.setattr(mod, name, refuse)
    monkeypatch.setattr(hier_model, "Polynomial", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    assert [drift_offset_b(*case) for case in cases] == expected


@pytest.mark.parametrize("cfg_name,n", BAND_CASES)
def test_drift_gain_times_fourth_power_is_a_quartic(cfg_name, n):
    # the candidate set of drift_offset_b is complete only if g(A)*(V+A)^4 is
    # a polynomial of degree <= 4: its interpolant at five Chebyshev nodes
    # must reproduce it everywhere else on the band
    ds, cfg, spec = _band_case(cfg_name, n)

    def scaled_gain(A):
        f_val = drift_value_summary(ds.y_bar, A, ds, cfg)
        gain = expected_drift(ds.y_bar, A, ds, cfg) - lambda_factor(A, cfg.V) * f_val
        return gain * (cfg.V + A) ** 4

    quartic = np.polynomial.Chebyshev.interpolate(scaled_gain, 4,
                                                  domain=[spec.a_low, spec.a_high])
    a_grid = np.linspace(spec.a_low, spec.a_high, 202)[1:-1]
    direct = scaled_gain(a_grid)
    assert np.max(np.abs(quartic(a_grid) - direct)) <= 1e-10 * np.max(np.abs(direct))


def test_theta_bar_reduction_identity():
    # the theta_bar^2 coefficient of the gain, n*[(V/(V+A))^2 - lambda_factor],
    # is <= 0 for every A >= 0, with equality at A = 0
    for v in (8e-4, 1.0, 50.0):
        a_grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 400)])
        w_sq = (v / (v + a_grid)) ** 2
        lam = lambda_factor(a_grid, v)
        assert w_sq[0] == lam[0] == 1.0
        assert np.all(w_sq <= lam * (1.0 + 1e-15))
    # and the gain at an off-center theta_bar falls below its value at y_bar
    ds, cfg, spec = _band_case("classic", 100)
    a_grid = np.linspace(spec.a_low, spec.a_high, 50)
    for off in (0.25, 1.0, 10.0):
        gains = [expected_drift(tb, a_grid, ds, cfg)
                 - lambda_factor(a_grid, cfg.V) * drift_value_summary(tb, a_grid, ds, cfg)
                 for tb in (ds.y_bar, ds.y_bar + off)]
        assert np.all(gains[1] <= gains[0])


# ---------------------------------------------------------------------------
# tail budget and posterior functional
# ---------------------------------------------------------------------------


def test_exit_budget_direct():
    # b=1, T=1, center=2, margin=1, V=1, n=100, k=5:
    #   5*sqrt(1/100)*3/1 + (1/2)*5*6/100 = 1.65
    base = np.array([1.0, -1.0] + [0.0] * 98)
    scale = math.sqrt(3.0 * 99.0 / float(((base - base.mean()) ** 2).sum()))
    ds = Dataset(base * scale)
    cfg = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)
    assert ds.delta / 99.0 == pytest.approx(3.0, rel=1e-12)
    spec = LargeSetSpec(T=1.0, center=data_center(ds, cfg))
    c2, c3 = exit_budget(cfg, spec, 1.0)
    assert (c2, c3) == pytest.approx((0.5, 3.0), rel=1e-9)
    bc = BoundConstants(
        lambda_T=0.5, b_drift=1.0, d_small=5.0, T=1.0, center=2.0,
        epsilon=0.5, q_mass_lower=1.0, alpha=1.2, Lambda=1.1, r=0.5,
        gamma=0.5, log_inv_gamma=math.log(2.0), C1=4.0, C2=c2, C3=c3, f0=0.0,
    )

    def budget(k):
        _, quadratic, sqrt = bound_terms(bc, ds.n, k)
        return quadratic + sqrt

    assert budget(5) == pytest.approx(1.65, rel=1e-9)
    assert budget(0) == 0.0
    assert np.all(np.diff(budget(np.arange(11))) > 0.0)


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


@pytest.mark.parametrize("cfg_name,n", BAND_CASES)
def test_log_a_peak_is_the_exact_critical_point(cfg_name, n):
    ds, cfg, _ = _band_case(cfg_name, n)
    mode, peak, curv = _log_a_peak(ds, cfg)
    mp.mp.dps = 30
    p, b0, v = (mp.mpf(x) for x in (cfg.prior_shape_a + 1.0, cfg.prior_scale_b, cfg.V))
    m, delta = mp.mpf(ds.n - 1) / 2, mp.mpf(ds.delta)

    def kernel(A):
        return -p * mp.log(A) - b0 / A - m * mp.log(v + A) - delta / (2 * (v + A))

    root = mp.findroot(lambda A: mp.diff(kernel, A), mp.mpf(mode))
    assert abs(mode - root) <= 1e-10 * root
    assert peak == pytest.approx(float(_log_a_kernel(mode, cfg.prior_shape_a + 1.0, ds, cfg)))
    assert curv < 0.0
    assert curv == pytest.approx(float(mp.diff(kernel, mp.mpf(mode), 2)), rel=1e-10)


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
    assert bc.d_small == default_small_set_level(bc.b_drift, bc.lambda_T)
    assert 0.0 < bc.epsilon <= 1.0
    assert 0.0 <= bc.q_mass_lower <= 1.0
    assert bc.alpha > 1.0 and bc.Lambda >= 1.0
    assert 0.0 < bc.r < 1.0
    assert bc.log_inv_gamma > 0.0 and 0.0 < bc.gamma <= 1.0
    assert report.K_bar >= 1 and report.N_c >= report.K_bar
    assert np.all(report.three_term_total >= report.term_geometric)
    assert np.all(report.certificate_clamped <= 1.0)
    assert np.all(np.diff(report.term_geometric) < 0.0)


@pytest.mark.parametrize("n", [100, 25600])
def test_band_mass_is_the_uniform_component_mass(n):
    # the certified band mass is the direct quadrature, bit for bit
    from driftbound import minorization

    ds = tight_data(n)
    bc = assemble_gibbs_bound(ds, TIGHT, k_max=1).constants
    box = minorization.SmallSetBox.from_level(bc.d_small, ds, TIGHT)
    _, q = minorization.uniform_component(box, ds, TIGHT, default_large_set(ds, TIGHT))
    assert bc.q_mass_lower == q


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


def test_raw_bound_and_three_term_curve_share_their_exit_terms():
    # the raw certificate is the restricted chain's coupling bound from the
    # start plus the curve's own exit terms, bit for bit, at every step, for
    # the canonical start and for one of positive energy
    cfg = cli.load_config(None, {})
    ds = cfg.resolve_dataset()
    off_center = ChainState(ds.y_bar + 0.01, data_center(ds, cfg.model) - 0.005)
    for start in (None, off_center):
        report = assemble_gibbs_bound(ds, cfg.model, k_max=100, start=start)
        bc = report.constants
        assert (bc.f0 > 0.0) == (start is not None)
        p = DriftParameters(lam=bc.lambda_T, b_drift=bc.b_drift, d_small=bc.d_small,
                            initial_drift_expectation=bc.f0)
        m = MinorizationCertificate(epsilon=bc.epsilon, q_mass_lower=bc.q_mass_lower)
        dc = derived_constants(p, m)
        exit_terms = report.term_sqrt + report.term_quadratic
        for k in range(1, 101):
            assert report.certificate_raw[k - 1] == evaluate_bound(p, m, dc, k) + exit_terms[k - 1]


def test_assemble_rejects_small_level(tight_report):
    ds, report = tight_report
    bad = 1.9 * report.constants.b_drift / (1.0 - report.constants.lambda_T)
    with pytest.raises(ModelError, match="must exceed"):
        assemble_gibbs_bound(ds, TIGHT, d=bad, k_max=5)


def test_assemble_rejects_box_spill():
    ds = tight_data()
    with pytest.raises(ModelError, match="spills"):
        assemble_gibbs_bound(ds, TIGHT, d=2.0, k_max=5)


def test_assemble_rejects_off_center_large_set():
    # the small set {f <= d} sits at the data center 0.1; a band centered
    # elsewhere used to certify a box around the wrong point
    ds = tight_data()
    with pytest.raises(ModelError, match="data center"):
        assemble_gibbs_bound(ds, TIGHT, large_set=LargeSetSpec(T=0.05, center=0.2), k_max=5)


def test_assemble_makes_no_quadrature(monkeypatch):
    # the S factor is a closed form, and the mu factor and the band mass are
    # panel brackets; every quadrature, through numerics.integrate or any
    # name bound to it, runs numerics._adaptive_gk
    from driftbound import numerics

    calls = []
    original = numerics._adaptive_gk

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(numerics, "_adaptive_gk", counted)
    assemble_gibbs_bound(tight_data(), TIGHT, k_max=5)
    assert calls == []


def test_rate_is_at_most_the_50_digit_rate():
    # log(1/gamma) is lowered by its rounding budget, max(1e-12, 16u/log(alpha)),
    # so it lies below the rate evaluated at 50 digits from the same
    # constants, and gamma is taken from it; near the floor 2b/(1 - lambda)
    # alpha tends to 1 and the budget grows with the rounding of log(alpha)
    default = cli.load_config(None, {})
    for ds, cfg in ((default.resolve_dataset(), default.model), (classic_data(n=200), CLASSIC)):
        bc = assemble_gibbs_bound(ds, cfg, k_max=1).constants
        floor = 2.0 * bc.b_drift / (1.0 - bc.lambda_T)
        minor = MinorizationCertificate(epsilon=bc.epsilon, q_mass_lower=bc.q_mass_lower)
        for d in (bc.d_small, floor * (1 + 1e-4), floor * (1 + 1e-6)):
            dc = derived_constants(DriftParameters(lam=bc.lambda_T, b_drift=bc.b_drift,
                                                   d_small=d), minor)
            with mp.workdps(50):
                lam, b, d = (mp.mpf(x) for x in (bc.lambda_T, bc.b_drift, d))
                alpha = (1 + d) / (1 + 2 * b + lam * d)
                log_keep = mp.log1p(-mp.mpf(bc.epsilon) * mp.mpf(bc.q_mass_lower))
                rate = -log_keep * mp.log(alpha) / (mp.log(alpha * (1 + 2 * (lam * d + b)))
                                                     - log_keep)
                budget = max(mp.mpf(1e-12), 16 * mp.mpf(2) ** -53 / mp.log(alpha))
                assert rate * (1 - 2 * budget) <= dc.log_inv_gamma <= rate
            assert dc.gamma == math.exp(-dc.log_inv_gamma)
        assert derived_constants(DriftParameters(lam=bc.lambda_T, b_drift=bc.b_drift,
                                                 d_small=bc.d_small), minor).log_inv_gamma \
            == bc.log_inv_gamma


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
# the certificate's start
# ---------------------------------------------------------------------------


def test_canonical_start_is_the_default_bit_for_bit(tight_report):
    ds, report = tight_report
    x0 = initial_state(ds, TIGHT)
    assert drift_value_summary(x0.theta_bar, x0.A, ds, TIGHT) == 0.0
    got = assemble_gibbs_bound(ds, TIGHT, k_max=40, start=x0)
    assert report.constants.f0 == 0.0
    for name in GibbsBoundReport.__dataclass_fields__:
        want, have = getattr(report, name), getattr(got, name)
        if isinstance(want, np.ndarray):
            want, have = want.tobytes(), have.tobytes()
        assert have == want, name


def test_bound_is_monotone_in_start_energy(tight_report):
    # at k = 10 the totals are those of the former general-start form
    # (C1 + f0)*gamma^k + C2*k(1+k)/n + C3*k/sqrt(n) + f0*k/(n*gap^2),
    # frozen from an evaluation with the band mass and the mu factor from
    # their panel brackets and the rate lowered by its rounding budget
    ds, _ = tight_report
    c = data_center(ds, TIGHT)
    frozen = (9.626834672107876, 9.729333399794722, 10.036829582855265)
    reports = []
    for offset, expect in zip((0.0, 0.005, 0.01), frozen):
        report = assemble_gibbs_bound(ds, TIGHT, k_max=40,
                                      start=ChainState(theta_bar=ds.y_bar, A=c - offset))
        assert report.three_term_total[9] == pytest.approx(expect, rel=1e-14, abs=0.0)
        reports.append(report)
    for lo, hi in zip(reports, reports[1:]):
        assert lo.constants.f0 < hi.constants.f0
        assert np.all(lo.three_term_total < hi.three_term_total)
        assert np.all(lo.certificate_raw < hi.certificate_raw)
        assert (lo.K_bar, lo.N_c) == (hi.K_bar, hi.N_c)


def test_start_outside_the_band_rejected():
    # the drift inequality and the exit budget hold on the certificate's own
    # band [T, 2*center - T]; at T = 0.09 a start at A = 0.085 lies outside
    # it although it lies above delta_margin = 0.08
    for n, T, A in ((100, None, 1e-4), (100, None, 0.2), (6400, 0.09, 0.085)):
        ds = tight_data(n)
        spec = None if T is None else LargeSetSpec(T=T, center=data_center(ds, TIGHT))
        with pytest.raises(ModelError, match="outside the retained band"):
            assemble_gibbs_bound(ds, TIGHT, large_set=spec, k_max=5,
                                 start=ChainState(theta_bar=ds.y_bar, A=A))


def test_log_n_steps_suffice_for_order_one_rate():
    # with order-one constants and a moderate band gap (1/gap^2 = 0.2), the
    # bound from a start energy of n/(2 log n) drops below 0.25 within
    # O(log n) steps; certificate-derived constants reach this regime only
    # past their own (much larger) sample-size threshold
    n = 10_000
    ds = synth_dataset(n, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    f0 = n / (2.0 * math.log(n))
    x0 = ChainState(theta_bar=ds.y_bar + math.sqrt(f0 / n), A=data_center(ds, TIGHT))
    assert drift_value_summary(x0.theta_bar, x0.A, ds, TIGHT) == pytest.approx(f0, rel=1e-9)
    gamma = 0.4
    center = 2.5
    bc = BoundConstants(
        lambda_T=0.1, b_drift=0.02, d_small=0.05, T=center - math.sqrt(5.0), center=center,
        epsilon=0.5, q_mass_lower=1.0, alpha=1.2, Lambda=1.1, r=0.5,
        gamma=gamma, log_inv_gamma=-math.log(gamma),
        C1=2.1, C2=0.3, C3=0.3, f0=f0,
    )
    assert 1.0 / (bc.center - bc.T) ** 2 == pytest.approx(0.2, rel=1e-12)
    k = int(1.2 * math.log(n))
    assert sum(bound_terms(bc, n, k)) < 0.25
