import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate
from scipy.special import gammainc, gammaincc, gammaln
from scipy.stats import chi2

from driftbound.bound_core import BoundError
from driftbound.hier_model import _B_ROUNDING
from driftbound.hier_model import (
    BoundConstants,
    LargeSetSpec,
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    data_center,
    default_large_set,
    default_small_set_level,
    drift_offset_b,
    drift_value_summary,
    expected_drift,
    lambda_T,
    lambda_factor,
    synth_dataset,
)
from driftbound.minorization import (
    MinorizationError,
    SmallSetBox,
    _edge_bounds,
    _mu_factor,
    _pair_overlap,
    _s_crossings,
    _s_panels,
    _s_shift_scale,
    _theta_bar_overlap,
    overlap_oracle_mc,
    uniform_component,
)
from driftbound.numerics import NumericsError, RngStream

TIGHT = ModelConfig(V=8e-4, prior_shape_a=3.0, prior_scale_b=0.2, delta_margin=0.08)
CLASSIC = ModelConfig(V=1.0, prior_shape_a=3.0, prior_scale_b=2.0, delta_margin=1.0)


@pytest.fixture(scope="module")
def tight100():
    ds = synth_dataset(100, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    spec = default_large_set(ds, TIGHT)
    b = drift_offset_b(ds, TIGHT, spec)
    d = default_small_set_level(b, lambda_T(spec, TIGHT.V))
    return ds, spec, d


def test_box_validation():
    with pytest.raises(MinorizationError):
        SmallSetBox(halfwidth=0.3, A_center=0.2, theta_bar_center=0.0)
    with pytest.raises(MinorizationError):
        SmallSetBox(halfwidth=0.0, A_center=0.5, theta_bar_center=0.0)
    with pytest.raises(MinorizationError):
        SmallSetBox.from_level(0.0, synth_dataset(10, 0.1, TIGHT, RngStream(7, 0)), TIGHT)
    box = SmallSetBox(halfwidth=0.1, A_center=0.2, theta_bar_center=0.0)
    assert (box.a_low, box.a_high) == pytest.approx((0.1, 0.3))


def test_box_from_level(tight100):
    ds, _, d = tight100
    box = SmallSetBox.from_level(d, ds, TIGHT)
    assert box.halfwidth == math.sqrt(d / ds.n)
    assert box.A_center == data_center(ds, TIGHT)
    assert box.theta_bar_center == ds.y_bar


def test_collapsed_box_volume_is_nearly_full(tight100):
    ds, spec, _ = tight100
    box = SmallSetBox.from_level(1e-12, ds, TIGHT)
    eps = uniform_component(box, ds, TIGHT, spec)[0]
    # singleton infima integrate the exact conditional densities
    assert 0.95 < eps <= 1.0


def test_volume_nonincreasing_in_box_width(tight100):
    ds, spec, d = tight100
    values = []
    for factor in (0.1, 0.3, 0.6, 1.0, 1.5):
        box = SmallSetBox.from_level(d * factor, ds, TIGHT)
        values.append(uniform_component(box, ds, TIGHT, spec)[0])
    for wide, narrow in zip(values[1:], values[:-1]):
        assert wide <= narrow * (1.0 + 1e-6)
    assert all(0.0 < v <= 1.0 for v in values)


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * math.pi * var)


def _endpoint_infimum(density, box, x):
    """The smaller of density(a_low, x) and density(a_high, x), pointwise in
    x: the infimum over the box's A side for the three families here."""
    return np.minimum(density(box.a_low, x), density(box.a_high, x))


def _mu_family(box, n):
    """Density family N(theta_bar0, A0/n; mu) at the corner farthest from
    mu, vectorized in (A0, mu)."""
    tb_c, hw = box.theta_bar_center, box.halfwidth

    def density(a0, mu):
        a0 = np.asarray(a0, dtype=float)
        mu = np.asarray(mu, dtype=float)
        tb_far = np.where(mu >= tb_c, tb_c - hw, tb_c + hw)
        return _normal_pdf(mu, tb_far, a0 / n)

    return density


def _s_family(ds, cfg):
    """Density family f_S(A; s) of the reduced S law, vectorized in (A, s):
    S = m + (s2/r) chi2_r, with r = n-1 and (m, s2) from _s_shift_scale."""
    half = 0.5 * (ds.n - 1)

    def density(a, s):
        m, s2 = _s_shift_scale(a, ds, cfg)
        scale = (ds.n - 1) / s2
        w = (np.asarray(s, dtype=float) - m) * scale
        w_safe = np.where(w > 0.0, w, 1.0)
        # log of the chi2_r density at w, plus the Jacobian log(scale)
        log_pdf = ((half - 1.0) * np.log(w_safe) - 0.5 * w_safe - half * math.log(2.0)
                   - gammaln(half))
        return np.where(w > 0.0, np.exp(log_pdf + np.log(scale)), 0.0)

    return density


def _theta_bar_density(mu: float, ds, cfg):
    """Density family of the post-update theta_bar given mu, vectorized in
    (A, theta_bar): N((mu*V + y_bar*A)/(V+A), A*V/((V+A)*n))."""
    n, v = ds.n, cfg.V

    def density(a, tb):
        a = np.asarray(a, dtype=float)
        mean = (mu * v + ds.y_bar * a) / (v + a)
        var = a * v / ((v + a) * n)
        return _normal_pdf(tb, mean, var)

    return density


def _compare_with_dense_grid(dens, box, x) -> int:
    """Check that a dense 4097-point A-grid never goes below the endpoint
    minimum; returns how many points were compared."""
    grid = np.linspace(box.a_low, box.a_high, 4097)
    grid_min = dens(grid[:, None], x[None, :]).min(axis=0)
    endpoint_min = _endpoint_infimum(dens, box, x)
    # below 1e-300 subnormal rounding makes the comparison meaningless
    kept = endpoint_min > 1e-300
    assert np.all(grid_min[kept] >= endpoint_min[kept] * (1.0 - 1e-12))
    return int(kept.sum())


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 100, 6400])
def test_endpoint_infima_match_dense_grid(cfg, center, n):
    ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
    compared = {"s": 0, "mu": 0, "theta_bar": 0}
    for frac in (0.002, 0.02, 0.3, 0.9):
        # equal halfwidths frac * center on both sides of the box
        box = SmallSetBox.from_level(n * (frac * center) ** 2, ds, cfg)
        a_ends = np.array([box.a_low, box.a_high])

        # S stage, over the S-factor's integration range
        s2 = a_ends * cfg.V / (cfg.V + a_ends)
        m = (a_ends / (cfg.V + a_ends)) ** 2 * ds.delta / (n - 1)
        s_hi = float(np.max(m + s2) + 14.0 * np.max(s2) * math.sqrt(2.0 / (n - 1)))
        s = np.linspace(float(np.min(m)), s_hi, 301)[1:]
        compared["s"] += _compare_with_dense_grid(_s_family(ds, cfg), box, s)

        # mu stage, over the mu integration range
        sd = math.sqrt(box.a_high / n)
        hw = box.halfwidth + 12.0 * sd
        mu = np.linspace(box.theta_bar_center - hw, box.theta_bar_center + hw, 301)
        compared["mu"] += _compare_with_dense_grid(_mu_family(box, n), box, mu)

        # theta_bar stage, at several mu, over each F(mu) integration range
        sd_tb = math.sqrt(float(np.max(s2)) / n)
        for mu0 in mu[::60]:
            means = (mu0 * cfg.V + ds.y_bar * a_ends) / (cfg.V + a_ends)
            tb = np.linspace(means.min() - 12.0 * sd_tb, means.max() + 12.0 * sd_tb, 301)
            compared["theta_bar"] += _compare_with_dense_grid(
                _theta_bar_density(mu0, ds, cfg), box, tb)
    assert min(compared.values()) > 100, compared


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 100, 6400])
def test_certificate_mu_panel_masses_are_the_endpoint_infimum_integrals(cfg, center, n):
    # each mass of the mu bracket is the integral over its panel of the
    # corner infimum of the family the dense-grid test checks, and of its
    # mirror image below y_bar, where the far corner switches
    ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
    compared = 0
    for frac in (0.002, 0.02, 0.3, 0.9):
        box = SmallSetBox.from_level(n * (frac * center) ** 2, ds, cfg)
        _, _, mu, mass = _mu_factor(box, ds, cfg)
        assert mu[0] == ds.y_bar and np.all(np.diff(mu) > 0.0)

        def corner(x):
            return float(_endpoint_infimum(_mu_family(box, n), box, x))

        for lo, hi, m in zip(mu[:-1], mu[1:], mass):
            if m < 1e-300:
                continue
            for a, b in ((lo, hi), (2.0 * ds.y_bar - hi, 2.0 * ds.y_bar - lo)):
                ref, _ = sp_integrate.quad(corner, a, b, epsabs=0.0, epsrel=1e-13)
                assert m == pytest.approx(ref, rel=1e-10, abs=0.0)
            compared += 1
    assert compared > 100


def test_edge_bounds_bracket_rising_and_falling_integrals():
    # x^2 rises and exp(-x) falls on [0, 1]; with panel masses the widths,
    # the lower and upper sums bracket each integral, in rows of one array
    x = np.linspace(0.0, 1.0, 17)
    lower, upper = _edge_bounds(np.array([x**2, np.exp(-x)]))
    assert lower.shape == upper.shape == (2, 16)
    widths = np.diff(x)
    for row, exact in enumerate((1.0 / 3.0, 1.0 - math.exp(-1.0))):
        assert widths @ lower[row] < exact < widths @ upper[row]


def _s_range(box, ds, cfg):
    """Endpoint shifts and scales of the S law, and the S-factor range."""
    m, s2 = _s_shift_scale(np.array([box.a_low, box.a_high]), ds, cfg)
    width = float(np.max(s2)) * math.sqrt(2.0 / (ds.n - 1))
    return m, s2, float(np.max(m)), float(np.max(m + s2)) + 14.0 * width


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 100, 6400])
def test_s_crossings_are_the_sign_changes_of_the_log_density_ratio(cfg, center, n):
    found = 0
    for frac in (0.002, 0.02, 0.3, 0.9):
        ds, box = _box(cfg, center, n, frac)
        m, s2, s_lo, s_hi = _s_range(box, ds, cfg)
        crossings = [s_lo + t for t in _s_crossings(m, s2, n - 1, s_hi)]
        # the band-mass panels below and above s* meet at the crossing
        _, edges, _ = _s_panels(box, ds, cfg)
        assert edges[0, 0] == s_lo and edges[1, -1] == pytest.approx(s_hi, rel=1e-15)
        assert all(edges[0, -1] == c == edges[1, 0] for c in crossings)

        # at s_lo the upper law's density is 0, so the ratio is +inf there
        s = np.linspace(s_lo, s_hi, 200_001)
        step = s[1] - s[0]
        r = n - 1
        log_ratio = (chi2.logpdf((s - m[0]) * (r / s2[0]), r) + math.log(r / s2[0])
                     - chi2.logpdf((s - m[1]) * (r / s2[1]), r) - math.log(r / s2[1]))
        flips = np.flatnonzero(np.sign(log_ratio[:-1]) != np.sign(log_ratio[1:]))
        # every sign change sits next to a returned crossing, and every
        # returned crossing next to a sign change
        for i in flips:
            assert any(s[i] - step <= c <= s[i + 1] + step for c in crossings), s[i]
        for c in crossings:
            assert any(s[i] - step <= c <= s[i + 1] + step for i in flips), c
        found += len(crossings)
    assert found > 0


def _mp_s_integral(box, ds, cfg, s_lo, s_hi, weight=lambda s: 1, **quad_options):
    """integral over [s_lo, s_hi] of min(f_lo, f_hi) of the reduced S law
    times weight(s) by 40-digit quadrature (mp.quad, tanh-sinh unless
    quad_options say otherwise), from the same float shifts and scales;
    split at the crossing, found by bisection in log(s - s_lo), at points
    closing in on it, and every two standard deviations of either law.
    Call it inside mp.workdps(40) to keep all the digits."""
    m, s2 = _s_shift_scale(np.array([box.a_low, box.a_high]), ds, cfg)
    with mp.workdps(40):
        r = mp.mpf(ds.n - 1)
        half = r / 2
        ends = [(mp.mpf(float(mi)), r / mp.mpf(float(si))) for mi, si in zip(m, s2)]
        const = -half * mp.log(2) - mp.loggamma(half)

        def log_f(s, mi, k):
            return half * mp.log(k) + (half - 1) * mp.log(s - mi) - k * (s - mi) / 2 + const

        def log_ratio(u):
            s = lo + mp.exp(u)
            return log_f(s, *ends[0]) - log_f(s, *ends[1])

        lo, hi = mp.mpf(s_lo), mp.mpf(s_hi)
        edges = {lo, hi}
        u_a, u_b = mp.log(hi - lo) - 300, mp.log(hi - lo)
        if log_ratio(u_b) < 0:
            for _ in range(400):
                u_mid = (u_a + u_b) / 2
                u_a, u_b = (u_mid, u_b) if log_ratio(u_mid) > 0 else (u_a, u_mid)
            x, sd = lo + mp.exp(u_a), mp.sqrt(2 * r) / ends[1][1]
            edges.update(e for j in range(8) for e in (x, x - sd / 4**j, x + sd / 4**j)
                         if lo < e < hi)
        for mi, k in ends:
            mean, sd = mi + r / k, mp.sqrt(2 * r) / k
            edges.update(e for e in (mean + j * sd for j in range(-40, 41, 2)) if lo < e < hi)
        return mp.quad(lambda s: mp.exp(min(log_f(s, *e) for e in ends)) * weight(s),
                       sorted(edges), **quad_options)


def _mp_s_factor(box, ds, cfg, s_lo, s_hi):
    return float(_mp_s_integral(box, ds, cfg, s_lo, s_hi))


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 100, 1600, 6400])
def test_s_factor_matches_mpmath(cfg, center, n):
    # the certificate's own small set, or halfwidth 0.9 * center where that
    # one would reach A <= 0 (classic at n = 5)
    ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
    spec = default_large_set(ds, cfg)
    d = default_small_set_level(drift_offset_b(ds, cfg, spec), lambda_T(spec, cfg.V))
    if d >= n * center**2:
        d = n * (0.9 * center) ** 2
    box = SmallSetBox.from_level(d, ds, cfg)
    _, _, lo, hi = _s_range(box, ds, cfg)
    assert _s_panels(box, ds, cfg)[0] == pytest.approx(_mp_s_factor(box, ds, cfg, lo, hi),
                                                       rel=1e-13, abs=0.0)


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
def test_s_factor_matches_mpmath_at_large_n(cfg, center):
    # here an adaptive quadrature of the same integrand stops 1.7e-6 (tight)
    # and 6.4e-5 (classic) below the reference, far outside its own error
    # estimate; the closed form has no stopping rule to get wrong
    ds, box = _box(cfg, center, 1_000_000, 0.002)
    _, _, lo, hi = _s_range(box, ds, cfg)
    assert _s_panels(box, ds, cfg)[0] == pytest.approx(_mp_s_factor(box, ds, cfg, lo, hi),
                                                       rel=1e-13, abs=0.0)


def _box(cfg, center, n, frac):
    """Dataset and box with equal halfwidths frac * center on both sides."""
    ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
    return ds, SmallSetBox.from_level(n * (frac * center) ** 2, ds, cfg)


def _mu_grid(box, ds, points):
    """mu across the mu-factor integration range, plus y_bar itself."""
    hw = box.halfwidth + 12.0 * math.sqrt(box.a_high / ds.n)
    return np.append(np.linspace(ds.y_bar - hw, ds.y_bar + hw, points), ds.y_bar)


def _mp_endpoint_normals(mu, box, ds, cfg):
    """(mean, variance) of the theta_bar density at a_low and at a_high."""
    n, v, ybar, mu = mp.mpf(ds.n), mp.mpf(cfg.V), mp.mpf(ds.y_bar), mp.mpf(mu)
    return [((mu * v + ybar * a) / (v + a), a * v / ((v + a) * n))
            for a in (mp.mpf(box.a_low), mp.mpf(box.a_high))]


def _mp_crossings(mu, box, ds, cfg):
    """Crossing points x_a < x_b of the two endpoint densities, by the
    textbook quadratic formula (its cancellation is harmless at 50 digits)."""
    (m1, v1), (m2, v2) = _mp_endpoint_normals(mu, box, ds, cfg)
    a = 1 / (2 * v2) - 1 / (2 * v1)
    b = m1 / v1 - m2 / v2
    c = m2**2 / (2 * v2) - m1**2 / (2 * v1) + mp.log(v2 / v1) / 2
    root = mp.sqrt(b * b - 4 * a * c)
    return sorted([(-b - root) / (2 * a), (-b + root) / (2 * a)])


def _mp_overlap(mu, box, ds, cfg):
    """F(mu) and z_a = (x_a - m_hi)/sd_hi; call it inside mp.workdps."""
    (m1, v1), (m2, v2) = _mp_endpoint_normals(mu, box, ds, cfg)
    x_a, x_b = _mp_crossings(mu, box, ds, cfg)
    s1, s2 = mp.sqrt(v1), mp.sqrt(v2)
    z_a, z_b = (x_a - m2) / s2, (x_b - m2) / s2
    # even at 50 digits 1 - ncdf(z) cancels for z beyond ~15, so every
    # upper-tail mass is taken as a lower-tail one
    middle = mp.ncdf(-z_a) - mp.ncdf(-z_b) if z_a > 0 else mp.ncdf(z_b) - mp.ncdf(z_a)
    return mp.ncdf((x_a - m1) / s1) + mp.ncdf((m1 - x_b) / s1) + middle, z_a


@pytest.mark.parametrize("cfg,center,n,frac,upper_tail", [
    (TIGHT, 0.1, 100, 1e-6, False),  # near-equal variances: one root runs off far
    (TIGHT, 0.1, 100, 0.3, False),
    (TIGHT, 0.1, 6400, 0.9, False),
    (CLASSIC, 2.0, 5, 0.9, False),
    (CLASSIC, 2.0, 100, 0.9, True),  # both roots in the wide density's upper tail
], ids=["collapsed", "tight100", "tight6400", "classic5", "classic100"])
def test_theta_bar_overlap_matches_mpmath(cfg, center, n, frac, upper_tail):
    ds, box = _box(cfg, center, n, frac)
    mu = _mu_grid(box, ds, 41)
    got = _theta_bar_overlap(box, ds, cfg)(mu)
    with mp.workdps(50):
        ref = [_mp_overlap(m, box, ds, cfg) for m in mu]
    f_ref = np.array([float(f) for f, _ in ref])
    kept = f_ref > 1e-300
    assert kept.sum() > 20
    assert np.all(np.abs(got[kept] / f_ref[kept] - 1.0) <= 1e-12)
    # equal means at mu = y_bar, where the parabola's linear term vanishes
    assert got[-1] == pytest.approx(f_ref[-1], rel=1e-12)
    # F is symmetric about y_bar: the grid is, up to the rounding of mu
    assert np.allclose(got[:41], got[40::-1], rtol=1e-11, atol=0.0)
    if upper_tail:
        assert any(float(z_a) > 1.0 for f, z_a in ref if f > 1e-300)


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 100, 6400])
def test_theta_bar_overlap_matches_scipy_quad(cfg, center, n):
    ds, box = _box(cfg, center, n, 0.3)
    mu = _mu_grid(box, ds, 9)
    got = _theta_bar_overlap(box, ds, cfg)(mu)
    for m, f in zip(mu, got):
        with mp.workdps(50):
            x_a, x_b = (float(x) for x in _mp_crossings(m, box, ds, cfg))
        dens = _theta_bar_density(float(m), ds, cfg)
        sd = math.sqrt(box.a_high * cfg.V / ((cfg.V + box.a_high) * n))
        means = [(m * cfg.V + ds.y_bar * a) / (cfg.V + a) for a in (box.a_low, box.a_high)]
        lo, hi = min(means + [x_a]) - 40.0 * sd, max(means + [x_b]) + 40.0 * sd
        ref, _ = sp_integrate.quad(lambda x: float(_endpoint_infimum(dens, box, x)),
                                   lo, hi, points=[x_a, x_b], epsabs=0.0,
                                   epsrel=1e-12, limit=500)
        if ref > 1e-300:
            assert f == pytest.approx(ref, rel=1e-9)


def _mp_mu_factor(box, ds, cfg):
    """The mu factor over the bracket's range, twice the integral over
    0 <= x = mu - y_bar <= 12 sd_hi, with its error estimate, by 30-digit
    Gauss-Legendre quadrature of degree 3, split at the kink, every half
    sd_hi and, below that, every sd_lo^2/hw, the length over which the
    corner normal falls by e at x = 0."""
    with mp.workdps(30):
        n = mp.mpf(ds.n)
        a_lo, a_hi = mp.mpf(box.a_low), mp.mpf(box.a_high)
        tb_c, hw = mp.mpf(box.theta_bar_center), mp.mpf(box.halfwidth)
        sd = mp.sqrt(a_hi / n)
        r = mp.sqrt(mp.log(a_hi / a_lo) * a_lo * a_hi / (n * (a_hi - a_lo)))

        def integrand(x):
            corner = min(mp.npdf(x + hw, 0, mp.sqrt(a / n)) for a in (a_lo, a_hi))
            return corner * _mp_overlap(tb_c + x, box, ds, cfg)[0]

        fold = a_lo / (n * hw)
        edges = ({sd * j / 2 for j in range(25)}
                 | {fold * j for j in range(1, 9) if fold * j < sd / 2}
                 | ({r - hw} if 0 < r - hw < 12 * sd else set()))
        value, err = mp.quad(integrand, sorted(edges), method="gauss-legendre", maxdegree=3,
                             error=True)
        return float(2 * value), float(2 * err)


def test_mu_factor_matches_mpmath():
    # the mu factor's bracket contains the 30-digit value, with room for its
    # error estimate, on both models at levels 2.5 to 6 times
    # b/(1 - lambda_T), with the gap stated in the module docstring
    for cfg, center, n in ((TIGHT, 0.1, 100), (TIGHT, 0.1, 6400), (CLASSIC, 2.0, 200)):
        ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
        spec = default_large_set(ds, cfg)
        floor = drift_offset_b(ds, cfg, spec) / (1.0 - lambda_T(spec, cfg.V))
        for mult in (2.5, 4.0, 6.0):
            box = SmallSetBox.from_level(mult * floor, ds, cfg)
            lower, upper, _, _ = _mu_factor(box, ds, cfg)
            ref, err = _mp_mu_factor(box, ds, cfg)
            assert err <= 1e-5 * ref
            assert lower <= ref - err and ref + err <= upper
            assert upper - lower <= 3e-3 * lower


def test_factor_that_underflows_is_named(tight100):
    # at halfwidth 0.9 of the center the S factor underflows to 0 while the
    # mu factor is about 2e-19
    ds, spec, _ = tight100
    box = SmallSetBox.from_level(ds.n * (0.9 * 0.1) ** 2, ds, TIGHT)
    assert _s_panels(box, ds, TIGHT)[0] == 0.0 < _mu_factor(box, ds, TIGHT)[0]
    with pytest.raises(MinorizationError, match="S factor = 0.0"):
        uniform_component(box, ds, TIGHT, spec)


def test_box_off_y_bar_is_refused(tight100):
    # the mu bracket doubles its half range by the symmetry of F about y_bar
    ds, spec, d = tight100
    box = SmallSetBox.from_level(d, ds, TIGHT)
    off = SmallSetBox(box.halfwidth, box.A_center, ds.y_bar + box.halfwidth)
    with pytest.raises(MinorizationError, match="centered at y_bar"):
        uniform_component(off, ds, TIGHT, spec)


def test_epsilon_needs_n_at_least_five():
    ds = synth_dataset(4, 0.1, TIGHT, RngStream(7, 0), exact_center=True)
    box = SmallSetBox.from_level(4 * 0.05 ** 2, ds, TIGHT)
    with pytest.raises(MinorizationError, match="n=4"):
        uniform_component(box, ds, TIGHT, default_large_set(ds, TIGHT))


def test_quadrature_volume_below_mc_overlap(tight100):
    ds, spec, d = tight100
    box = SmallSetBox.from_level(d, ds, TIGHT)
    eps = uniform_component(box, ds, TIGHT, spec)[0]
    overlap, se = overlap_oracle_mc(box, ds, TIGHT, RngStream(13, 2), 20_000)
    assert eps <= overlap + 3.0 * se
    assert eps > 0.0


def test_identical_states_overlap_exactly_one(tight100):
    ds, _, _ = tight100
    state = (ds.y_bar, data_center(ds, TIGHT))
    est, se = _pair_overlap(state, state, ds, TIGHT, RngStream(19, 0), 5_000)
    assert est == 1.0
    assert se == 0.0


def test_pair_overlap_symmetric_within_error(tight100):
    ds, _, d = tight100
    hw = math.sqrt(d / ds.n)
    c = data_center(ds, TIGHT)
    a_state = (ds.y_bar - hw, c)
    b_state = (ds.y_bar + hw, c)
    e1, s1 = _pair_overlap(a_state, b_state, ds, TIGHT, RngStream(19, 1), 50_000)
    e2, s2 = _pair_overlap(b_state, a_state, ds, TIGHT, RngStream(19, 2), 50_000)
    assert 0.0 < e1 < 1.0 and 0.0 < e2 < 1.0
    assert abs(e1 - e2) <= 4.0 * math.hypot(s1, s2)


def test_band_mass_bounds(tight100):
    ds, spec, d = tight100
    box = SmallSetBox.from_level(d, ds, TIGHT)
    _, q = uniform_component(box, ds, TIGHT, spec)
    assert 0.0 <= q <= 1.0
    assert q > 0.9
    wide = LargeSetSpec(T=1e-7, center=spec.center)
    # the widened band still cuts the far upper tail, so the mass is close
    # to one only up to that genuine tail contribution
    assert uniform_component(box, ds, TIGHT, wide)[1] == pytest.approx(1.0, abs=1e-4)


def _mp_band_tail(ds, cfg, spec):
    """tail(s) = P(A < T) + P(A > 2c - T) for the component's A, inverse-gamma
    with shape a + r/2 and scale b + r s/2 given S = s; call it inside
    mp.workdps."""
    a1 = mp.mpf(cfg.prior_shape_a) + mp.mpf(ds.n - 1) / 2
    b, half = mp.mpf(cfg.prior_scale_b), mp.mpf(ds.n - 1) / 2
    t_low, t_high = mp.mpf(spec.a_low), mp.mpf(spec.a_high)

    def tail(s):
        beta = b + half * s
        return (mp.gammainc(a1, beta / t_low, mp.inf, regularized=True)
                + mp.gammainc(a1, 0, beta / t_high, regularized=True))

    return tail


@pytest.mark.parametrize("cfg,center,gap", [(TIGHT, 0.1, 2e-3), (CLASSIC, 2.0, 0.1)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 20, 100, 200])
def test_band_mass_bracket_holds(cfg, center, gap, n):
    # the panel bracket lies below a 40-digit band mass, by at most the
    # gap stated in the module docstring, relative to 1 - q
    for frac in (0.002, 0.02, 0.1, 0.3):
        ds, box = _box(cfg, center, n, frac)
        spec = default_large_set(ds, cfg)
        q = uniform_component(box, ds, cfg, spec)[1]
        _, _, s_lo, s_hi = _s_range(box, ds, cfg)
        with mp.workdps(40):
            # the integrand is smooth between the splits, where Gauss-Legendre
            # of degree 3 (21 abscissae a split) meets a stated error estimate
            # in a fraction of the time tanh-sinh takes to reach 40 digits
            (num, num_err), (den, den_err) = (
                _mp_s_integral(box, ds, cfg, s_lo, s_hi, weight, method="gauss-legendre",
                               maxdegree=3, error=True)
                for weight in (_mp_band_tail(ds, cfg, spec), lambda s: 1))
            assert num_err <= 1e-12 * num and den_err <= 1e-12 * den
            q_ref = 1 - num / den
            assert q_ref < 1 - mp.mpf(1e-6)  # so the bracket's gap is resolved
            assert q <= q_ref
            assert q_ref - q <= gap * (1 - q_ref)


@pytest.mark.parametrize("factor", [0.3, 1.0])
def test_uniform_component_epsilon_does_not_depend_on_the_band(tight100, factor):
    # the band enters only the band mass; the volume is the box's alone
    ds, spec, d = tight100
    box = SmallSetBox.from_level(d * factor, ds, TIGHT)
    wide = LargeSetSpec(T=1e-7, center=spec.center)
    eps, q = uniform_component(box, ds, TIGHT, spec)
    eps_wide, q_wide = uniform_component(box, ds, TIGHT, wide)
    assert eps == eps_wide
    assert q < q_wide


def _quadrature_band_mass(box, ds, cfg, spec):
    """The band mass that the panel bracket bounds: one minus the integral
    of min(f_lo, f_hi) * tail over the S range, divided by the integral of
    min(f_lo, f_hi), each by scipy's adaptive quadrature with a 1e-11
    relative target, split at both laws' means and at the crossing."""
    m, s2, s_lo, s_hi = _s_range(box, ds, cfg)
    crossings = [s_lo + t for t in _s_crossings(m, s2, ds.n - 1, s_hi)]
    points = sorted({float(x) for x in (*(m + s2), *crossings) if s_lo < x < s_hi})
    dens = _s_family(ds, cfg)
    a1, half = cfg.prior_shape_a + 0.5 * (ds.n - 1), 0.5 * (ds.n - 1)

    def tail(s):
        beta = cfg.prior_scale_b + half * s
        return gammaincc(a1, beta / spec.a_low) + gammainc(a1, beta / spec.a_high)

    num, den = (sp_integrate.quad(lambda s: float(_endpoint_infimum(dens, box, s) * w(s)),
                                  s_lo, s_hi, points=points, epsabs=0.0, epsrel=1e-11,
                                  limit=1000)[0]
                for w in (tail, lambda s: 1.0))
    return 1.0 - num / den


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(v=_log_uniform(1e-4, 10.0), a=_log_uniform(0.1, 10.0), b=_log_uniform(1e-3, 10.0),
       margin=_log_uniform(1e-3, 1.5), center=_log_uniform(0.01, 10.0),
       n=_log_uniform(5.0, 20_000.0).map(int), t_frac=st.floats(0.01, 0.9),
       d_mult=st.floats(0.9, 6.0))
def test_certificate_invariants_over_the_model_space(v, a, b, margin, center, n, t_frac,
                                                     d_mult):
    # the result is a certificate or a typed failure, never another
    # exception, a numpy warning or a NaN.  The margin is a multiple of the
    # center, the band's T a fraction of it, and d a multiple of the floor
    # 2b/(1 - lambda_T); the margin and d are also drawn past their limits
    cfg = ModelConfig(V=v, prior_shape_a=a, prior_scale_b=b, delta_margin=margin * center)
    ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
    c = data_center(ds, cfg)
    spec = LargeSetSpec(T=t_frac * c, center=c)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = lambda_T(spec, v)
            d = d_mult * 2.0 * drift_offset_b(ds, cfg, spec) / (1.0 - lam)
            report = assemble_gibbs_bound(ds, cfg, large_set=spec, d=d, k_max=5)
    except (ModelError, MinorizationError, BoundError, NumericsError):
        return
    bc = report.constants
    assert not any(math.isnan(getattr(bc, name)) for name in BoundConstants.__dataclass_fields__)
    assert not np.any(np.isnan(report.certificate_raw))

    box = SmallSetBox.from_level(d, ds, cfg)
    assert 0.0 < bc.epsilon <= math.erfc(box.halfwidth / math.sqrt(2.0 * box.a_low / n))
    lower, upper, _, _ = _mu_factor(box, ds, cfg)
    assert lower <= upper
    assert bc.epsilon == min(_s_panels(box, ds, cfg)[0] * lower, 1.0)
    assert 0.0 < bc.q_mass_lower <= 1.0
    q_quad = _quadrature_band_mass(box, ds, cfg, spec)
    assert bc.q_mass_lower <= q_quad + 1e-9 * (1.0 - q_quad)
    u = v * v + 2.0 * v * spec.T
    assert bc.lambda_T == pytest.approx((u / (u + spec.T**2)) ** 2, rel=1e-12, abs=0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(center=_log_uniform(0.01, 10.0), v_frac=_log_uniform(0.01, 10.0),
       a=_log_uniform(2.0, 10.0), b_frac=_log_uniform(1e-3, 10.0),
       n=_log_uniform(5.0, 100_000.0).map(int), t_frac=st.floats(0.01, 0.9))
def test_drift_offset_against_a_band_grid_over_the_model_space(center, v_frac, a, b_frac, n,
                                                               t_frac):
    # b is at least the gain's maximum on a 401-point band grid and at most
    # that maximum, refined by golden section, raised by the whole rounding
    # budget.  V and the prior scale are multiples of the center and the
    # prior shape exceeds 2; there, 96 of the 200 draws have their maximum
    # inside the band
    cfg = ModelConfig(V=v_frac * center, prior_shape_a=a, prior_scale_b=b_frac * center,
                      delta_margin=center)
    try:
        ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
        c = data_center(ds, cfg)
        spec = LargeSetSpec(T=t_frac * c, center=c)
        b = drift_offset_b(ds, cfg, spec)
    except ModelError:
        return

    def gain(A):
        f_val = drift_value_summary(ds.y_bar, A, ds, cfg)
        return expected_drift(ds.y_bar, A, ds, cfg) - lambda_factor(A, cfg.V) * f_val

    grid = np.linspace(spec.a_low, spec.a_high, 401)
    values = gain(grid)
    i = int(np.argmax(values))
    assert b >= values[i]
    left, right = grid[max(i - 1, 0)], grid[min(i + 1, 400)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        lower, upper = right - inv_phi * (right - left), left + inv_phi * (right - left)
        if gain(lower) > gain(upper):
            right = upper
        else:
            left = lower
    assert b <= max(values[i], gain(0.5 * (left + right))) * (1.0 + _B_ROUNDING)
