"""Minorization volume for the Gibbs kernel over a small-set box.

The kernel from any state in the box {|theta_bar - y_bar| <= hw,
|A - A_center| <= hw} is bounded below by a common component built by
integrating infima of the sweep's conditional densities in reverse order:
the A-update density is state-free given S (contributes factor one), the
(theta_bar, S) stage factorizes into a theta_bar factor F(mu) and an S
factor, and the mu stage contributes the infimum of N(theta_bar0, A0/n)
over the box corners.  The volume is the product

    epsilon = [ integral of inf_A f_S ]
              * [ integral over mu of F(mu) * inf_(tb0,A0) N(tb0, A0/n; mu) ]

with F(mu) = integral over theta_bar of inf_A N(mean(mu,A), var(A); theta_bar).

Every infimum over the A side of the box is attained at a_low or a_high,
so each is the smaller of the two endpoint values.  Write u = A/(V+A),
which increases with A.  Each A-family below rises and then falls (in A0
for the mu stage, in u for the other two), so its infimum over an interval
sits at an endpoint:

* mu stage.  With sigma^2 = A0/n and y the distance from mu to the far
  corner, d/dsigma^2 log N(y; 0, sigma^2) is proportional to
  y^2 - sigma^2, which changes sign once, from + to -.
* theta_bar stage.  The density is N(mu + u*c, V*u/n; theta_bar); with
  x = theta_bar - mu and c = y_bar - mu its log g satisfies
  2u^2 g'(u) = (n/V)(x^2 - c^2 u^2) - u, which is >= 0 at u = 0 and
  strictly decreasing.
* S stage.  The density is that of k*u^2 + (V*u/r) * chi2_r with
  r = n-1 and k = delta/r; on its support s > k*u^2 its log h satisfies
  u^2 (s - k u^2) h'(u) = r s^2/(2V) - (r s/2) u - (r/2 - 2) k u^3
  - (r k^2/(2V)) u^4, which is > 0 at u = 0 and strictly decreasing when
  r >= 4.  Past s = k*u^2 the density is 0, below any positive value.
  For r < 4 the u^3 coefficient is positive and the argument fails, so
  the construction requires n >= 5.

F(mu) is then the overlap of the endpoint densities N(m_i, v_i), with
m_i = mu + u_i*c, v_i = V*u_i/n and v_lo < v_hi.  In t = theta_bar - m_lo,
with dv = v_hi - v_lo and delta = m_hi - m_lo formed from u_hi - u_lo
without cancellation, 2 v_lo v_hi log(N_lo/N_hi) = -dv t^2 - 2 v_lo delta t
+ v_lo (delta^2 + v_hi log(v_hi/v_lo)) has roots t_a < 0 < t_b; N_lo is
the smaller density outside them and N_hi inside, so with normal CDFs Phi_i

    F = Phi_lo(t_a) + [1 - Phi_lo(t_b)] + [Phi_hi(t_b) - Phi_hi(t_a)].

The roots are q/A and C/q with q = -(B + sign(B) sqrt(disc))/2, accurate as
dv -> 0, and a CDF difference in the upper tail is taken between upper
tails; F then matches a 50-digit evaluation to 2e-13 relative down to 1e-300.
The mu integrand is smooth between its kinks, which are the quadrature's
breakpoints: theta_bar_center, where the far corner y_far switches, and
y_far -+ r, where N(y_far, a_low/n) and N(y_far, a_high/n) cross,
r^2 = log(a_high/a_low) a_low a_high / (n (a_high - a_low)).

Error budget: F is exact up to rounding; the mu and S factors are
Gauss-Kronrod quadratures with a 1e-8 relative target on smooth panels (the
mu factor matches a 30-digit quadrature to 3e-14 at n = 100 on the default
tight config); truncating the mu and S ranges only lowers the bound.

Cost: a certificate makes three quadratures, of the S factor, the mu factor
and the band mass.  The band mass integrates inf_A f_S times a tail weight
over the S factor's range and breakpoints, so its abscissa arrays are
nearly always the S factor's; it reads the S factor's infimum values there
and evaluates the S density, whose endpoint constants are formed once per
certificate, only on arrays the S factor never reached.

The S density used here is the law of the shifted, scaled chi-square part of
the theta-update quadratic form with the O(1/sqrt(n)) data-coupled cross
term dropped; epsilon is therefore an approximate lower bound.  The
certificate path (assemble_gibbs_bound) does not guard it; acceptance
criterion 9 checks the assembled certificate's epsilon against the
importance-sampling overlap oracle on the exact kernel (overlap_oracle_mc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, ndtr

from .hier_model import Dataset, LargeSetSpec, ModelConfig, data_center
from .numerics import RngStream, integrate

__all__ = [
    "MinorizationError",
    "SmallSetBox",
    "uniform_component",
    "overlap_oracle_mc",
]


class MinorizationError(Exception):
    """The minorization construction or its overlap oracle failed."""


@dataclass(frozen=True)
class SmallSetBox:
    """Square coordinate box enclosing the sublevel set {f <= d}.

    Both sides have halfwidth sqrt(d/n) when built from a level d (see
    :meth:`from_level`).  The A side must stay positive for the conditional
    densities to exist.
    """

    halfwidth: float
    A_center: float
    theta_bar_center: float

    def __post_init__(self):
        if not (self.halfwidth > 0.0):
            raise MinorizationError("box halfwidth must be positive")
        if not (self.A_center - self.halfwidth > 0.0):
            raise MinorizationError(
                f"A box reaches a nonpositive value: center={self.A_center!r}, "
                f"halfwidth={self.halfwidth!r}"
            )

    @staticmethod
    def from_level(d: float, ds: Dataset, cfg: ModelConfig) -> "SmallSetBox":
        """The box around (y_bar, data center) enclosing {f <= d}."""
        if d <= 0.0:
            raise MinorizationError(f"small-set level must be positive, got {d!r}")
        return SmallSetBox(
            halfwidth=math.sqrt(d / ds.n),
            A_center=data_center(ds, cfg),
            theta_bar_center=ds.y_bar,
        )

    @property
    def a_low(self) -> float:
        return self.A_center - self.halfwidth

    @property
    def a_high(self) -> float:
        return self.A_center + self.halfwidth


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def _s_shift_scale(a, ds: Dataset, cfg: ModelConfig):
    """Shift m and scale s2 of the reduced S law at A = a (a number or an
    array): S = m + (s2/r) * chi2_r with r = n-1."""
    v = cfg.V
    a = np.asarray(a, dtype=float)
    return (a / (v + a)) ** 2 * ds.delta / (ds.n - 1), a * v / (v + a)


def _s_endpoint_density(a, ds: Dataset, cfg: ModelConfig):
    """f_S(a; s) of the reduced S law as a function of s, with the constants
    of a (a number, or an array broadcast against s) formed once."""
    df = ds.n - 1
    half = 0.5 * df
    m, s2 = _s_shift_scale(a, ds, cfg)
    scale = df / s2
    log_scale = np.log(scale)
    log_2_half = half * math.log(2.0)
    log_gamma_half = gammaln(half)

    def density(s):
        w = (np.asarray(s, dtype=float) - m) * scale
        w_safe = np.where(w > 0.0, w, 1.0)
        # log of the chi2_df density at w, plus the Jacobian log(scale)
        log_pdf = (half - 1.0) * np.log(w_safe) - 0.5 * w_safe - log_2_half - log_gamma_half
        return np.where(w > 0.0, np.exp(log_pdf + log_scale), 0.0)

    return density


def _s_density(box: SmallSetBox, ds: Dataset, cfg: ModelConfig):
    """Density family f_S(A; s) of the reduced S law, vectorized in (A, s)."""
    return lambda a, s: _s_endpoint_density(a, ds, cfg)(s)


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * math.pi * var)


def _endpoint_infimum(density, box: SmallSetBox, x):
    """inf over A in [a_low, a_high] of density(A, x), pointwise in x; exact
    for the three families here (see the module docstring)."""
    return np.minimum(density(box.a_low, x), density(box.a_high, x))


# ---------------------------------------------------------------------------
# the three factors
# ---------------------------------------------------------------------------

def _s_infimum(box, ds, cfg):
    """inf_A f_S(A; s) as an integrand over s, and its integration range
    (s_lo, s_hi, breakpoints).

    Each endpoint's density constants are formed once, and the values at
    every abscissa array the integrand is called with are kept for the
    integrand's lifetime, so a second quadrature that shares panels with the
    first reads them instead of evaluating the density again.
    """
    n = ds.n
    if n < 5:
        raise MinorizationError(
            f"the endpoint infimum of the S density needs n >= 5, got n={n}"
        )
    m_ends, s2_ends = _s_shift_scale(np.array([box.a_low, box.a_high]), ds, cfg)
    width = float(np.max(s2_ends)) * math.sqrt(2.0 / (n - 1))
    s_lo = float(np.max(m_ends))
    s_hi = float(np.max(m_ends + s2_ends)) + 14.0 * width
    breaks = sorted(set(float(x) for x in (m_ends + s2_ends) if s_lo < x < s_hi))

    dens_lo = _s_endpoint_density(box.a_low, ds, cfg)
    dens_hi = _s_endpoint_density(box.a_high, ds, cfg)
    kept = {}

    def infimum(s):
        key = s.tobytes()
        if key not in kept:
            kept[key] = np.minimum(dens_lo(s), dens_hi(s))
        return kept[key]

    return infimum, (s_lo, s_hi, breaks)


def _theta_bar_overlap(mu, box, ds, cfg):
    """F(mu) in closed form, vectorized in mu (see the module docstring)."""
    n, v = ds.n, cfg.V
    a_lo, a_hi = box.a_low, box.a_high
    du = v * (a_hi - a_lo) / ((v + a_lo) * (v + a_hi))  # u_hi - u_lo, u = A/(V+A)
    v_lo = a_lo * v / ((v + a_lo) * n)
    dv = v * du / n                                     # v_hi - v_lo
    v_hi = v_lo + dv
    log_ratio = math.log1p(dv / v_lo)                   # log(v_hi / v_lo)
    delta = (ds.y_bar - np.asarray(mu, dtype=float)) * du  # m_hi - m_lo

    # 2*v_lo*v_hi*log(N_lo/N_hi) = -dv*t^2 + b*t + c, with two real roots
    b = -2.0 * v_lo * delta
    c = v_lo * (delta**2 + v_hi * log_ratio)
    root_disc = 2.0 * np.sqrt(v_lo * v_hi * (delta**2 + dv * log_ratio))
    q = -0.5 * (b + np.copysign(root_disc, b))
    r1, r2 = -q / dv, c / q
    t_a, t_b = np.minimum(r1, r2), np.maximum(r1, r2)

    # the minimum is N_lo outside [t_a, t_b] and N_hi inside
    sd_lo, sd_hi = math.sqrt(v_lo), math.sqrt(v_hi)
    tails_lo = ndtr(t_a / sd_lo) + ndtr(-t_b / sd_lo)
    z_a, z_b = (t_a - delta) / sd_hi, (t_b - delta) / sd_hi
    # a CDF difference is taken in the tail where both terms are small
    middle_hi = np.where(z_a > 0.0, ndtr(-z_a) - ndtr(-z_b), ndtr(z_b) - ndtr(z_a))
    return tails_lo + middle_hi


def _mu_inf_density(box, n):
    """Per-mu infimum over box corners of N(theta_bar0, A0/n; mu)."""
    tb_c, hw = box.theta_bar_center, box.halfwidth

    def dens(a0, mu):
        a0 = np.asarray(a0, dtype=float)
        mu = np.asarray(mu, dtype=float)
        tb_far = np.where(mu >= tb_c, tb_c - hw, tb_c + hw)
        return _normal_pdf(mu, tb_far, a0 / n)

    return dens


def _mu_factor(box, ds, cfg) -> float:
    """Integral over mu of F(mu) times the corner infimum of N(theta_bar0,
    A0/n; mu), truncated 12 standard deviations beyond the corner means."""
    n = ds.n
    tb_c, hw = box.theta_bar_center, box.halfwidth
    a_lo, a_hi = box.a_low, box.a_high
    mu_dens = _mu_inf_density(box, n)
    sd_max = math.sqrt(a_hi / n)
    lo = tb_c - hw - 12.0 * sd_max
    hi = tb_c + hw + 12.0 * sd_max
    # kinks of the corner infimum at y_far -+ r (see the module docstring)
    r = math.sqrt(math.log(a_hi / a_lo) * (a_lo * a_hi / n) / (a_hi - a_lo))

    def integrand(mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        return _endpoint_infimum(mu_dens, box, mu) * _theta_bar_overlap(mu, box, ds, cfg)

    return integrate(integrand, lo, hi, breakpoints=[tb_c - hw + r, tb_c, tb_c + hw - r])


def uniform_component(
    box: SmallSetBox,
    ds: Dataset,
    cfg: ModelConfig,
    large_set: LargeSetSpec,
) -> tuple[float, float]:
    """Volume epsilon and band mass of the uniform component; the band-mass
    quadrature reuses the S factor's infimum values.

    epsilon is the product of the S factor (a quadrature of the endpoint
    infimum of the S density) and the mu factor (one quadrature of
    closed-form terms), capped at 1.  The endpoint infima are exact by the
    argument in the module docstring, which needs n >= 5 (smaller n raises
    MinorizationError, as does a volume that is not positive).

    The component's A-coordinate is exactly inverse-gamma with shape
    a + (n-1)/2 and scale b + (n-1)S/2 under the component's S law, so the
    band mass is one minus the S-weighted inverse-gamma tail ratio

        integral inf_S * tail(S) / integral inf_S,

    where tail(S) = P(A < T) + P(A > 2*center - T) in closed form.
    """
    s_inf, (s_lo, s_hi, breaks) = _s_infimum(box, ds, cfg)
    s_factor = integrate(s_inf, s_lo, s_hi, breakpoints=breaks)
    eps = s_factor * _mu_factor(box, ds, cfg)
    if not (eps > 0.0):  # so s_factor > 0 too
        raise MinorizationError(f"degenerate small set: epsilon = {eps!r}")
    n = ds.n
    a1 = cfg.prior_shape_a + 0.5 * (n - 1)
    t_low, t_high = large_set.a_low, large_set.a_high

    def tail(s):
        beta = cfg.prior_scale_b + 0.5 * (n - 1) * s
        below = gammaincc(a1, beta / t_low)   # A < T  <=>  gamma draw > beta/T
        above = gammainc(a1, beta / t_high)   # A > 2c-T  <=>  gamma draw < beta/(2c-T)
        return below + above

    num = integrate(lambda s: s_inf(s) * tail(s), s_lo, s_hi, breakpoints=breaks)
    frac_out = min(max(num / s_factor, 0.0), 1.0)
    return min(eps, 1.0), 1.0 - frac_out


# ---------------------------------------------------------------------------
# Monte Carlo overlap oracle
# ---------------------------------------------------------------------------


def _corner_states(box: SmallSetBox) -> list[tuple[float, float]]:
    tb_c, a_c, hw = box.theta_bar_center, box.A_center, box.halfwidth
    return [
        (tb_c - hw, a_c - hw),
        (tb_c - hw, a_c + hw),
        (tb_c + hw, a_c - hw),
        (tb_c + hw, a_c + hw),
        (tb_c, a_c),
    ]


def _pair_overlap(
    src: tuple[float, float],
    dst: tuple[float, float],
    ds: Dataset,
    cfg: ModelConfig,
    stream: RngStream,
    n_samples: int,
) -> tuple[float, float]:
    """Importance-sampling estimate of integral min(p_src, p_dst).

    Draws one-sweep proposals (mu', theta') from the kernel at ``src`` and
    averages min(1, p_dst/p_src).  The A'-update density has parameters
    depending on the proposal only, so it cancels from the ratio and is
    never drawn.  All density ratios are accumulated in log space.
    """
    n, v = ds.n, cfg.V
    y = ds.y
    tb1, a1 = src
    tb2, a2 = dst
    s2_1 = a1 * v / (v + a1)
    s2_2 = a2 * v / (v + a2)
    g = stream.generator

    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_max = max(1, 4_000_000 // n)
    while done < n_samples:
        m = min(chunk_max, n_samples - done)
        mu = g.normal(tb1, math.sqrt(a1 / n), m)
        means1 = (mu[:, None] * v + y[None, :] * a1) / (v + a1)
        theta = means1 + math.sqrt(s2_1) * g.standard_normal((m, n))
        means2 = (mu[:, None] * v + y[None, :] * a2) / (v + a2)

        log_r = (
            -0.5 * (mu - tb2) ** 2 * (n / a2)
            + 0.5 * (mu - tb1) ** 2 * (n / a1)
            - 0.5 * math.log(a2 / a1)
        )
        log_r += (
            -0.5 * ((theta - means2) ** 2).sum(axis=1) / s2_2
            + 0.5 * ((theta - means1) ** 2).sum(axis=1) / s2_1
            - 0.5 * n * math.log(s2_2 / s2_1)
        )
        if not np.all(np.isfinite(log_r)):
            raise MinorizationError("non-finite density ratio in overlap oracle")
        w = np.exp(np.minimum(log_r, 0.0))
        total += float(w.sum())
        total_sq += float((w * w).sum())
        done += m

    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    se = math.sqrt(var / n_samples)
    return mean, se


def overlap_oracle_mc(
    box: SmallSetBox,
    ds: Dataset,
    cfg: ModelConfig,
    stream: RngStream,
    n_samples: int,
) -> tuple[float, float]:
    """Minimum pairwise kernel overlap over the box's corner states.

    Estimates integral min(p(x_j,.), p(x_j',.)) for every unordered pair of
    the four corners plus the center by importance sampling on the exact
    one-sweep density, and returns the smallest estimate with its standard
    error.  Any two-state overlap upper-bounds the all-state infimum, so
    this is the independent ceiling the quadrature bound must stay under.
    """
    if n_samples < 2:
        raise MinorizationError("need at least 2 samples")
    corners = _corner_states(box)
    best: tuple[float, float] | None = None
    for i in range(len(corners)):
        for j in range(i + 1, len(corners)):
            est, se = _pair_overlap(corners[i], corners[j], ds, cfg, stream, n_samples)
            if best is None or est < best[0]:
                best = (est, se)
    assert best is not None
    return best
