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

The mu factor.  F(mu) is symmetric about y_bar and falls in |mu - y_bar|:
by the layer-cake formula it is the integral over levels h > 0 of the
length of {N(0, v_lo) > h} meet {N(delta, v_hi) > h}, delta = (y_bar - mu)
(u_hi - u_lo), two intervals centered at 0 and delta whose overlap shrinks
as |delta| grows.  The box is centered at y_bar, so the corner infimum is a
function of y = |mu - y_bar| + hw, the distance to the far corner:
N(0, a_high/n) below the crossing r, r^2 = log(a_high/a_low) a_low a_high /
(n (a_high - a_low)), and N(0, a_low/n) past it.  So the mu factor is twice
the integral over y >= hw.  On _PANELS equal panels of [hw, hw + 12 sd_hi],
sd_hi = sqrt(a_high/n), with r as one more edge inside, each corner mass
m_j is an upper-tail difference of one normal CDF and F lies between its
edge values (_edge_bounds): 2 sum_j m_j F(far edge_j) <= mu factor <=
2 sum_j m_j F(near edge_j), and epsilon takes the lower sum.

The S infimum min(f_lo, f_hi) of the endpoint densities has a kink where
they cross.  Both the shift m = k u^2 and the scale s2 = V u of the S law
grow with A, so m_lo < m_hi and, with rho_i = r/s2_i, rho_lo > rho_hi.
On the common support s > m_hi, D = log f_lo - log f_hi has

    D'(s) = (r/2 - 1) [1/(s - m_lo) - 1/(s - m_hi)] - (rho_lo - rho_hi)/2,

which increases in s, so D is convex and has at most two zeros.  D'
vanishes only where (s - m_lo)(s - m_hi) = 2(r/2 - 1)(m_lo - m_hi)/(rho_lo
- rho_hi) < 0, between m_lo and m_hi, below the support; so D' < 0 there and
D falls from +inf at m_hi, where f_hi vanishes, to -inf.  The densities
cross exactly once, at s*, with f_hi the smaller below it and f_lo above.
Over the S range [s_lo, s_hi], with s_lo = m_hi, the S factor is therefore

    F_hi(x) + Q_lo(x) - Q_lo(s_hi),    x = min(s*, s_hi),

with F_i and Q_i = 1 - F_i the regularized lower and upper incomplete gamma
functions at (r/2)(s - m_i)/s2_i, the CDF and the tail of the law at A_i.
x minimizes F_hi(x) + Q_lo(x), whose slope is f_hi - f_lo, so an error in
x raises the value, and only at second order.  s* is found by Newton steps
on D in log(s - m_hi).

The band mass q.  Given S = s the component's A is inverse-gamma with shape
a1 = a + r/2 and scale beta(s) = b + r s/2; it leaves the band [T, 2c - T]
with probability below(s) + above(s), where below(s) = Q(a1, beta(s)/T)
falls in s and above(s) = P(a1, beta(s)/(2c - T)) rises.  So on each of the
_PANELS equal panels [s_j, s_j+1] that cut [s_lo, x] and [x, s_hi] each
is at most its larger edge value (_edge_bounds), and q = 1 - sum_j m_j
[below(s_j) + above(s_j+1)] / sum_j m_j is a lower bound on the band mass up
to rounding, with m_j the panel's CDF difference of f_hi below s* and of
f_lo above it (between upper tails past the median).  The edges are offsets
from s_lo, so an s* within a float spacing of m_hi keeps its mass.

Error budget: there is no quadrature.  F and the S factor are closed forms
and the mu factor and q lower sides of panel brackets, exact up to rounding.
Against 40-digit quadratures split at s* and around both laws' means, the S
factor is within 4e-14 from n = 5 to 6400 and 7e-14 at n = 1e6, on the
tight and classic configs, wherever it exceeds 1e-30.  The mu bracket's
relative gap is 1.5e-3 to 2.9e-3 at n = 100 and 1.8e-4 to 2.8e-4 at
n = 6400 (tight), 1.8e-3 to 2.1e-3 at n = 200 (classic), at levels 2.5 to 6
times b/(1 - lambda_T), with a 30-digit value inside it; its budget is 3e-3.
q lies below the band mass by 4.4e-4 to 1.8e-3 of 1 - q (tight) and 1.6e-2
to 9.1e-2 (classic), from n = 5 to 200 at box halfwidths 0.002 to 0.3 of the
center.  Truncating the mu and S ranges only lowers the bound.

Cost: the mu factor evaluates F (its box constants formed once) at each of
its _PANELS + 1 or + 2 edges and two normal tails a panel; the S factor and
q take four incomplete gamma functions an edge.

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
from scipy.special import gammainc, gammaincc, ndtr

from .hier_model import Dataset, LargeSetSpec, ModelConfig, data_center
from .numerics import RngStream

__all__ = [
    "MinorizationError",
    "SmallSetBox",
    "uniform_component",
    "overlap_oracle_mc",
]


# equal panels of the S range on each side of s* and of the mu factor's half
# range; 128 keeps the mu bracket's gap within 3e-3 and K_bar within 0.1 %
_PANELS = 128


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
# the reduced S law
# ---------------------------------------------------------------------------


def _s_shift_scale(a, ds: Dataset, cfg: ModelConfig):
    """Shift m and scale s2 of the reduced S law at A = a (a number or an
    array): S = m + (s2/r) * chi2_r with r = n-1."""
    v = cfg.V
    a = np.asarray(a, dtype=float)
    return (a / (v + a)) ** 2 * ds.delta / (ds.n - 1), a * v / (v + a)


# ---------------------------------------------------------------------------
# the three factors
# ---------------------------------------------------------------------------

def _s_crossings(m_ends, s2_ends, r: int, s_hi: float) -> list[float]:
    """Where the two endpoint S densities cross below s_hi, as offsets
    t = s - m_hi above the upper shift, from the shifts m and scales s2 of
    their laws at (a_low, a_high).

    D = log f_lo - log f_hi falls from +inf to -inf on the support (see the
    module docstring), so there is one crossing, or none if it lies past
    s_hi.  It is found by Newton's method on D in log t, kept inside a bracket
    that shrinks at every step and bisected when a step would leave it.  The
    offset stays precise where s* is within a float spacing of m_hi.
    """
    half = 0.5 * r
    m_lo, m_hi = (float(m) for m in m_ends)
    rho_lo, rho_hi = (r / float(s2) for s2 in s2_ends)
    log_rho_ratio = math.log(rho_lo / rho_hi)
    dm, drho = m_hi - m_lo, rho_lo - rho_hi

    def d_and_slope(t):
        d = (half * log_rho_ratio + (half - 1.0) * math.log1p(dm / t)
             - 0.5 * (drho * t + rho_lo * dm))
        return d, -(half - 1.0) * dm / (t + dm) - 0.5 * drho * t  # slope in log t

    t = s_hi - m_hi
    d, slope = d_and_slope(t)
    if d >= 0.0:
        return []
    lo, hi = 0.0, t
    for _ in range(100):
        if d > 0.0:
            lo = t
        else:
            hi = t
        t_next = math.exp(min(math.log(t) - d / slope, math.log(hi)))
        if abs(t_next - t) <= 1e-13 * t:
            break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        t = t_next
        d, slope = d_and_slope(t)
    return [t]


def _s_panels(box, ds, cfg):
    """The S factor, and the S range cut into _PANELS equal panels on each
    side of the crossing s*: their edges s (row 0 below s*, row 1 above) and
    the mass of inf_A f_S on each (see the module docstring)."""
    n = ds.n
    if n < 5:
        raise MinorizationError(
            f"the endpoint infimum of the S density needs n >= 5, got n={n}"
        )
    m_ends, s2_ends = _s_shift_scale(np.array([box.a_low, box.a_high]), ds, cfg)
    width = float(np.max(s2_ends)) * math.sqrt(2.0 / (n - 1))
    s_lo = float(np.max(m_ends))
    s_hi = float(np.max(m_ends + s2_ends)) + 14.0 * width
    t_hi = s_hi - s_lo
    crossings = _s_crossings(m_ends, s2_ends, n - 1, s_hi)
    t_x = crossings[0] if crossings else t_hi  # x = min(s*, s_hi) as an offset
    t = np.array([np.linspace(0.0, t_x, _PANELS + 1), np.linspace(t_x, t_hi, _PANELS + 1)])

    # the CDF and tail of f_hi, the smaller density below s*, and of f_lo
    # above (module docstring): P and Q(r/2, (r/2)(s - m_i)/s2_i)
    half = 0.5 * (n - 1)
    w = half * (t + np.array([[0.0], [m_ends[1] - m_ends[0]]])) / s2_ends[::-1, None]
    cdf, tail = gammainc(half, w), gammaincc(half, w)
    s_factor = float(cdf[0, -1] + tail[1, 0] - tail[1, -1])
    # past the median a CDF difference is taken between upper tails
    mass = np.where(cdf[:, :-1] > 0.5, tail[:, :-1] - tail[:, 1:], cdf[:, 1:] - cdf[:, :-1])
    return s_factor, s_lo + t, mass


def _theta_bar_overlap(box, ds, cfg):
    """F(mu) in closed form as a function of mu, vectorized, with the box
    constants formed once (see the module docstring)."""
    n, v = ds.n, cfg.V
    a_lo, a_hi = box.a_low, box.a_high
    du = v * (a_hi - a_lo) / ((v + a_lo) * (v + a_hi))  # u_hi - u_lo, u = A/(V+A)
    v_lo = a_lo * v / ((v + a_lo) * n)
    dv = v * du / n                                     # v_hi - v_lo
    v_hi = v_lo + dv
    log_ratio = math.log1p(dv / v_lo)                   # log(v_hi / v_lo)
    sd_lo, sd_hi = math.sqrt(v_lo), math.sqrt(v_hi)
    y_bar, b_scale, v_prod = ds.y_bar, -2.0 * v_lo, v_lo * v_hi
    c_shift, disc_shift = v_hi * log_ratio, dv * log_ratio

    def overlap(mu):
        delta = (y_bar - np.asarray(mu, dtype=float)) * du  # m_hi - m_lo
        delta_sq = delta**2
        # 2*v_lo*v_hi*log(N_lo/N_hi) = -dv*t^2 + b*t + c, with two real roots
        b = b_scale * delta
        c = v_lo * (delta_sq + c_shift)
        root_disc = 2.0 * np.sqrt(v_prod * (delta_sq + disc_shift))
        q = -0.5 * (b + np.copysign(root_disc, b))
        r1, r2 = -q / dv, c / q
        t_a, t_b = np.minimum(r1, r2), np.maximum(r1, r2)

        # the minimum is N_lo outside [t_a, t_b] and N_hi inside
        tails_lo = ndtr(t_a / sd_lo) + ndtr(-t_b / sd_lo)
        z_a, z_b = (t_a - delta) / sd_hi, (t_b - delta) / sd_hi
        # a CDF difference is taken in the tail where both terms are small
        middle_hi = np.where(z_a > 0.0, ndtr(-z_a) - ndtr(-z_b), ndtr(z_b) - ndtr(z_a))
        return tails_lo + middle_hi

    return overlap


def _edge_bounds(f):
    """Per panel, the smaller and the larger of f's values at its two edges,
    from f at the edges (last axis).  Where f is monotone on a panel, rising
    or falling, it lies between them, so for panel masses m_j >= 0 of a
    measure, sum_j m_j lower_j <= integral of f <= sum_j m_j upper_j."""
    left, right = f[..., :-1], f[..., 1:]
    return np.minimum(left, right), np.maximum(left, right)


def _mu_factor(box, ds, cfg):
    """The mu factor's panel bracket: its lower and upper sums, the panels'
    edges mu >= y_bar and the corner infimum's mass on each (see the module
    docstring).  The mu factor is the lower sum."""
    if box.theta_bar_center != ds.y_bar:
        raise MinorizationError("the mu factor's bracket needs a box centered at y_bar")
    n, hw, a_lo, a_hi = ds.n, box.halfwidth, box.a_low, box.a_high
    sd_lo, sd_hi = math.sqrt(a_lo / n), math.sqrt(a_hi / n)
    # y = |mu - y_bar| + hw, the distance to the far corner, and its kink r
    y = hw + np.linspace(0.0, 12.0 * sd_hi, _PANELS + 1)
    r = math.sqrt(math.log(a_hi / a_lo) * (a_lo * a_hi / n) / (a_hi - a_lo))
    if hw < r < y[-1]:
        y = np.union1d(y, r)
    sd = np.where(y[:-1] < r, sd_hi, sd_lo)
    mass = ndtr(-y[:-1] / sd) - ndtr(-y[1:] / sd)  # between upper tails
    mu = ds.y_bar + (y - hw)
    lower, upper = _edge_bounds(_theta_bar_overlap(box, ds, cfg)(mu))
    return 2.0 * float(mass @ lower), 2.0 * float(mass @ upper), mu, mass


def uniform_component(
    box: SmallSetBox,
    ds: Dataset,
    cfg: ModelConfig,
    large_set: LargeSetSpec,
) -> tuple[float, float]:
    """Volume epsilon and band mass of the uniform component.

    epsilon is the product of the S factor (the integral of the endpoint
    infimum of the S density, in closed form) and the mu factor (the lower
    side of its panel bracket), capped at 1.  The endpoint infima are exact
    by the argument in the module docstring, which needs n >= 5 (smaller n
    raises MinorizationError, as does a factor or a volume that is not
    positive, naming which).

    The component's A-coordinate is exactly inverse-gamma with shape
    a + (n-1)/2 and scale b + (n-1)S/2 under the component's S law, so the
    band mass is one minus the S-weighted inverse-gamma tail ratio

        integral inf_S * tail(S) / integral inf_S,

    where tail(S) = P(A < T) + P(A > 2*center - T) in closed form.  The
    returned band mass is a proven lower bound on it, from a panel bracket
    of the ratio with closed-form masses (see the module docstring).
    """
    s_factor, s, mass = _s_panels(box, ds, cfg)
    mu_factor = _mu_factor(box, ds, cfg)[0]
    eps = s_factor * mu_factor
    for name, value in (("S factor", s_factor), ("mu factor", mu_factor), ("epsilon", eps)):
        if not (value > 0.0):
            raise MinorizationError(f"degenerate small set: {name} = {value!r}")
    a1 = cfg.prior_shape_a + 0.5 * (ds.n - 1)
    beta = cfg.prior_scale_b + 0.5 * (ds.n - 1) * s
    # A < T <=> a gamma draw > beta/T, which falls in S, and A > 2c - T <=> a
    # draw < beta/(2c - T), which rises: each at most its larger edge value
    tail = (_edge_bounds(gammaincc(a1, beta / large_set.a_low))[1]
            + _edge_bounds(gammainc(a1, beta / large_set.a_high))[1])
    return min(eps, 1.0), 1.0 - float(np.sum(mass * tail) / np.sum(mass))


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
    this is the independent ceiling the certified volume must stay under.
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
