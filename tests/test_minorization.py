import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from driftbound import cli, minorization
from driftbound.hier_model import (
    LargeSetSpec,
    ModelConfig,
    assemble_gibbs_bound,
    data_center,
    default_large_set,
    default_small_set_level,
    drift_offset_b,
    lambda_T,
    synth_dataset,
)
from driftbound.minorization import (
    MinorizationError,
    SmallSetBox,
    _endpoint_infimum,
    _mu_factor,
    _mu_inf_density,
    _normal_pdf,
    _pair_overlap,
    _s_density,
    _theta_bar_overlap,
    overlap_oracle_mc,
    uniform_component,
)
from driftbound.numerics import RngStream

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
        compared["s"] += _compare_with_dense_grid(_s_density(box, ds, cfg), box, s)

        # mu stage, over the mu integration range
        sd = math.sqrt(box.a_high / n)
        hw = box.halfwidth + 12.0 * sd
        mu = np.linspace(box.theta_bar_center - hw, box.theta_bar_center + hw, 301)
        compared["mu"] += _compare_with_dense_grid(_mu_inf_density(box, n), box, mu)

        # theta_bar stage, at several mu, over each F(mu) integration range
        sd_tb = math.sqrt(float(np.max(s2)) / n)
        for mu0 in mu[::60]:
            means = (mu0 * cfg.V + ds.y_bar * a_ends) / (cfg.V + a_ends)
            tb = np.linspace(means.min() - 12.0 * sd_tb, means.max() + 12.0 * sd_tb, 301)
            compared["theta_bar"] += _compare_with_dense_grid(
                _theta_bar_density(mu0, ds, cfg), box, tb)
    assert min(compared.values()) > 100, compared


def _certificate_integrands(monkeypatch, box, ds, cfg, spec):
    """The integrands of the three quadratures of one uniform_component call,
    in call order: the S factor, the mu factor and the band mass."""
    integrands = []
    real = minorization.integrate

    def recording(f, a, b, breakpoints=None):
        integrands.append(f)
        return real(f, a, b, breakpoints)

    monkeypatch.setattr(minorization, "integrate", recording)
    uniform_component(box, ds, cfg, spec)
    monkeypatch.undo()
    assert len(integrands) == 3
    return integrands


@pytest.mark.parametrize("cfg,center", [(TIGHT, 0.1), (CLASSIC, 2.0)],
                         ids=["tight", "classic"])
@pytest.mark.parametrize("n", [5, 100, 6400])
def test_certificate_s_infimum_is_the_endpoint_infimum_bitwise(monkeypatch, cfg, center, n):
    # the S factor's integrand is the endpoint infimum of the one written
    # S density, bit for bit, on both sides of the chi-square support
    ds = synth_dataset(n, center, cfg, RngStream(7, 0), exact_center=True)
    spec = default_large_set(ds, cfg)
    for frac in (0.002, 0.02):
        box = SmallSetBox.from_level(n * (frac * center) ** 2, ds, cfg)
        s_factor_integrand = _certificate_integrands(monkeypatch, box, ds, cfg, spec)[0]
        a_ends = np.array([box.a_low, box.a_high])
        s2 = a_ends * cfg.V / (cfg.V + a_ends)
        m = (a_ends / (cfg.V + a_ends)) ** 2 * ds.delta / (n - 1)
        # the S-factor range, extended below both shifts by its own length
        s_hi = float(np.max(m + s2) + 14.0 * np.max(s2) * math.sqrt(2.0 / (n - 1)))
        s = np.linspace(2.0 * float(np.max(m)) - s_hi, s_hi, 401)
        expected = _endpoint_infimum(_s_density(box, ds, cfg), box, s)
        assert s_factor_integrand(s).tobytes() == expected.tobytes()
        # the chi-square argument is <= 0 at some abscissae for each endpoint
        assert np.any(s <= m[0]) and np.any(s <= m[1])
        assert np.any(expected == 0.0) and np.any(expected > 0.0)


def test_one_certificate_evaluates_the_s_density_once_per_abscissa_array(monkeypatch):
    # the band-mass quadrature reads the S factor's infimum values where the
    # two quadratures share an abscissa array
    cfg = cli.ExperimentConfig.from_dict(cli.default_config_dict())
    ds = cfg.resolve_dataset(n=100)
    evaluations = Counter()
    real = minorization._s_endpoint_density

    def counting(a, ds, cfg):
        density = real(a, ds, cfg)

        def counted(s):
            evaluations[float(a), s.tobytes()] += 1
            return density(s)

        return counted

    monkeypatch.setattr(minorization, "_s_endpoint_density", counting)
    assemble_gibbs_bound(ds, cfg.model, k_max=5)
    endpoints = {a for a, _ in evaluations}
    arrays = {s for _, s in evaluations}
    assert len(endpoints) == 2 and len(arrays) > 1
    assert len(evaluations) == 2 * len(arrays)
    assert max(evaluations.values()) == 1, sorted(evaluations.values())


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
    got = _theta_bar_overlap(mu, box, ds, cfg)
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
    got = _theta_bar_overlap(mu, box, ds, cfg)
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
    """The mu factor by 30-digit tanh-sinh quadrature, split at every kink."""
    with mp.workdps(30):
        n = mp.mpf(ds.n)
        a_lo, a_hi = mp.mpf(box.a_low), mp.mpf(box.a_high)
        tb_c, hw = mp.mpf(box.theta_bar_center), mp.mpf(box.halfwidth)
        sd = mp.sqrt(a_hi / n)
        r = mp.sqrt(mp.log(a_hi / a_lo) * a_lo * a_hi / (n * (a_hi - a_lo)))

        def integrand(mu):
            far = tb_c - hw if mu >= tb_c else tb_c + hw
            corner = min(mp.npdf(mu, far, mp.sqrt(a / n)) for a in (a_lo, a_hi))
            return corner * _mp_overlap(mu, box, ds, cfg)[0]

        edges = sorted([tb_c - hw - 12 * sd, tb_c - hw + r, tb_c, tb_c + hw - r,
                        tb_c + hw + 12 * sd])
        return float(mp.quad(integrand, edges))


def test_mu_factor_matches_mpmath(tight100):
    ds, _, d = tight100
    box = SmallSetBox.from_level(d, ds, TIGHT)
    assert _mu_factor(box, ds, TIGHT) == pytest.approx(_mp_mu_factor(box, ds, TIGHT),
                                                       rel=1e-12)


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
