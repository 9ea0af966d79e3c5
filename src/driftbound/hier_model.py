"""Two-level normal location model with unknown random-effect variance.

Observation i is normal around a latent mean theta_i with known variance V;
the theta_i share a normal population law N(mu, A) with flat prior on mu and
an inverse-gamma(a, b) prior on A.  The deterministic-scan Gibbs sweep
updates mu, then every theta_i, then A, and reads the state only through
the latent mean theta_bar and A, so a :class:`ChainState` is that pair.
The sweep is sampled elsewhere: on the summary state by ``_marginal``, and
with every latent coordinate drawn by the oracle in ``acceptance``.

This module owns the data handling, the chain state, the energy function

    f(x) = n*(theta_bar - y_bar)^2 + n*((delta/(n-1) - V) - A)^2,

its exact one-step conditional expectation (composed from closed-form
conditional moments, no sampling), the contraction factor and its threshold
version on the retained A-band, the closed-form drift offset, the
certificate's exit budget and the one evaluator of the bound's terms, the
end-to-end certificate assembly, which takes the chain's start and carries
its energy through every term, and the posterior functional E[1/A], which
no certificate constant uses: only ``bound-curve``'s report and acceptance
criterion 6 compute it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .bound_core import (
    DriftParameters,
    MinorizationCertificate,
    derived_constants,
    evaluate_bound,
    mixing_time_certificate,
)
from .numerics import RngStream, integrate_halfline

__all__ = [
    "ModelError",
    "Dataset",
    "ModelConfig",
    "ChainState",
    "LargeSetSpec",
    "BoundConstants",
    "GibbsBoundReport",
    "check_data_assumption",
    "initial_state",
    "drift_value_summary",
    "lambda_factor",
    "lambda_T",
    "default_large_set",
    "default_small_set_level",
    "conditional_S_moments",
    "expected_drift",
    "drift_offset_b",
    "exit_budget",
    "bound_terms",
    "expected_inv_A",
    "assemble_gibbs_bound",
    "synth_dataset",
]

_REL_TOL = 1e-12
# Relative rounding budget of the drift offset: the certified b lies in
# [sup, sup*(1 + _B_ROUNDING)] for the true supremum sup.  The gain's variance
# part is formed as n*(Var[A'] + (E[A'] - c)^2), a sum of nonnegative terms
# with no cancellation: on 41 band points expected_drift matches a 40-digit
# reference to 9.9e-15 relative at n = 6400 and 6.6e-16 at n = 100.  The
# gain E[f'] - lambda_factor*f cancels further as n grows: at its maximum on
# 800 random configurations with n up to 1e5 it is within 1.2e-12 relative
# of a 30-digit value.  Raising the computed maximum by half the budget
# covers an error of up to 5e-10 on either side, 400 times that.
_B_ROUNDING = 1e-9
# drift_offset_b's five Chebyshev-Lobatto nodes on [-1, 1], and the inverse of
# their Vandermonde matrix: it maps a quartic's values there to its power
# coefficients in x
_LOBATTO = np.array([-1.0, -math.sqrt(0.5), 0.0, math.sqrt(0.5), 1.0])
_QUARTIC_FROM_NODES = np.linalg.inv(np.vander(_LOBATTO, 5, increasing=True))
# _exact_sum splits each 53-bit significand into three limbs of this width
_LIMB_BITS = 18
_LIMB_MASK = (1 << _LIMB_BITS) - 1


class ModelError(Exception):
    """Model input or derived quantity violates its contract."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Observations ``y`` and the three numbers the model reads from them:
    the size ``n``, the sample mean ``y_bar`` and the centered sum of
    squares ``delta`` = sum_i (y_i - y_bar)^2, derived once from ``y`` with
    exactly accumulated sums.  ``Dataset(y)`` is the only constructor.

    Both sums are :func:`_exact_sum`: the exact sum of the doubles, rounded
    once, which is the one number ``math.fsum`` returns as well.  Each
    double is an integer q with |q| < 2^53 times 2^(e-53); q splits into
    three 18-bit limbs, and per exponent e a float64 ``np.bincount`` adds
    each limb over the sample.  Every partial sum there is an integer below
    n*2^18 in magnitude, so it is exact while that stays within 2^53, that
    is for n < 2^35.  The buckets are combined in a Python int and rounded
    by int true division, which CPython rounds correctly.

    Each term of ``delta`` is ``np.float_power(y_i - y_bar, 2.0)``, which
    calls libm ``pow`` per element, the function behind Python's float
    ``**``: ``x*x`` and ``np.power`` round differently on about 1 in 1,200
    standard normals, so either would move ``delta`` in its last bit.  A
    ``y_bar`` or ``delta`` past the float range raises :class:`ModelError`.
    """

    y: np.ndarray
    n: int = field(init=False)
    y_bar: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        arr = _frozen(self.y)
        if arr.ndim != 1 or arr.size < 2:
            raise ModelError(f"need a 1-D sample with n >= 2, got shape {arr.shape!r}")
        if not np.all(np.isfinite(arr)):
            raise ModelError("observations must be finite")
        n = int(arr.size)
        try:
            mean = _exact_sum(arr) / n
        except OverflowError:
            raise ModelError("y_bar overflows: the observations sum past the float range") \
                from None
        try:
            with np.errstate(over="raise"):
                delta = _exact_sum(np.float_power(arr - mean, 2.0))
        except (FloatingPointError, OverflowError):
            raise ModelError("delta overflows: the squared deviations sum past the float range") \
                from None
        object.__setattr__(self, "y", arr)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "y_bar", mean)
        object.__setattr__(self, "delta", delta)


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of the finite doubles ``x``, by the limb
    argument in :class:`Dataset`'s docstring; raises ``OverflowError`` when
    the exact total rounds past the float range."""
    mant, exp = np.frexp(x)
    q = np.ldexp(mant, 53).astype(np.int64)  # x = q * 2**(exp - 53), |q| < 2**53
    lo = int(exp.min())
    bucket = np.subtract(exp, lo, dtype=np.intp)
    # q = l0 + l1*2**18 + l2*2**36, l0 and l1 in [0, 2**18), l2 in [-2**17, 2**17)
    limbs = (q & _LIMB_MASK, (q >> _LIMB_BITS) & _LIMB_MASK, q >> 2 * _LIMB_BITS)
    s0, s1, s2 = (np.bincount(bucket, weights=limb).tolist() for limb in limbs)
    total = 0
    for a, b, c in zip(reversed(s0), reversed(s1), reversed(s2)):  # bucket k weighs 2**k
        total = (total << 1) + int(a) + (int(b) << _LIMB_BITS) + (int(c) << 2 * _LIMB_BITS)
    scale = lo - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


@dataclass(frozen=True)
class ModelConfig:
    """Known observation variance, inverse-gamma prior constants, and the
    margin by which the data dispersion must exceed V."""

    V: float
    prior_shape_a: float
    prior_scale_b: float
    delta_margin: float

    def __post_init__(self):
        for name in ("V", "prior_shape_a", "prior_scale_b", "delta_margin"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ModelError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class ChainState:
    """One chain state by its two summaries: the latent mean ``theta_bar``
    and the population variance ``A``, the only coordinates the Gibbs sweep
    reads."""

    theta_bar: float
    A: float

    def __post_init__(self):
        if not math.isfinite(self.theta_bar):
            raise ModelError(f"theta_bar must be finite, got {self.theta_bar!r}")
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise ModelError(f"A must be positive and finite, got {self.A!r}")


@dataclass(frozen=True)
class LargeSetSpec:
    """Retained A-band [T, 2*center - T] around center = delta/(n-1) - V.

    States with A below T contract too weakly; states above the mirror
    threshold are discarded as well so that leaving the band provably
    increases the energy.
    """

    T: float
    center: float

    def __post_init__(self):
        if not (0.0 < self.T < self.center):
            raise ModelError(f"need 0 < T < center, got T={self.T!r}, center={self.center!r}")

    @property
    def a_low(self) -> float:
        return self.T

    @property
    def a_high(self) -> float:
        return 2.0 * self.center - self.T

    def contains(self, A):
        """Band membership a_low <= A <= a_high, elementwise for arrays."""
        return (self.a_low <= A) & (A <= self.a_high)


@dataclass(frozen=True)
class BoundConstants:
    """Full certificate constants for one dataset/config/threshold triple
    and one start, whose energy is ``f0``."""

    lambda_T: float
    b_drift: float
    d_small: float
    T: float
    center: float
    epsilon: float
    q_mass_lower: float
    alpha: float
    Lambda: float
    r: float
    gamma: float
    log_inv_gamma: float
    C1: float
    C2: float
    C3: float
    f0: float


@dataclass(frozen=True)
class GibbsBoundReport:
    """Certificate constants plus evaluated bound curves and step thresholds.

    ``term_geometric``/``term_quadratic``/``term_sqrt`` are the three-term
    curve (C1 + f0)*gamma^k + C2*k(1+k)/n + f0*k/(n*gap^2) + C3*k/sqrt(n)
    split by term, from :func:`bound_terms`, for the start of energy f0;
    ``certificate_raw`` (not clamped) is the restricted chain's
    coupling-form bound from that start plus the same exit terms
    ``term_sqrt + term_quadratic``.  ``K_bar`` and ``N_c`` read only
    C1..C3: they are the thresholds of the canonical start (f0 = 0),
    whatever the start.  The posterior functional E[1/A] is no part of a
    certificate: ``bound-curve`` computes it with :func:`expected_inv_A`
    for its report alone.
    """

    n: int
    constants: BoundConstants
    k_values: np.ndarray
    certificate_raw: np.ndarray
    certificate_clamped: np.ndarray
    term_geometric: np.ndarray
    term_quadratic: np.ndarray
    term_sqrt: np.ndarray
    three_term_total: np.ndarray
    three_term_clamped: np.ndarray
    K_bar: int
    N_c: int
    mix_target_c: float

    def __post_init__(self):
        for name in ("k_values", "certificate_raw", "certificate_clamped",
                     "term_geometric", "term_quadratic", "term_sqrt",
                     "three_term_total", "three_term_clamped"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


# ---------------------------------------------------------------------------
# data handling
# ---------------------------------------------------------------------------


def check_data_assumption(ds: Dataset, cfg: ModelConfig) -> bool:
    """True when the dispersion margin holds: delta/(n-1) >= V + delta_margin."""
    return ds.delta / (ds.n - 1) >= cfg.V + cfg.delta_margin


def data_center(ds: Dataset, cfg: ModelConfig) -> float:
    """The drift-function center delta/(n-1) - V."""
    return ds.delta / (ds.n - 1) - cfg.V


def initial_state(ds: Dataset, cfg: ModelConfig) -> ChainState:
    """Canonical start: theta_bar = y_bar, and A at the centered dispersion
    (falling back to the raw dispersion when the margin fails)."""
    c = data_center(ds, cfg)
    a0 = c if c > 0.0 else ds.delta / (ds.n - 1)
    if a0 <= 0.0:
        raise ModelError("degenerate sample: zero dispersion leaves no valid starting A")
    return ChainState(theta_bar=ds.y_bar, A=a0)


def synth_dataset(
    n: int,
    center: float,
    cfg: ModelConfig,
    stream: RngStream,
    exact_center: bool = False,
) -> Dataset:
    """Draw observations from the model with population variance ``center``.

    The marginal variance of each observation is V + center.  With
    ``exact_center`` the draws are affinely rescaled around their mean so the
    realized dispersion satisfies delta/(n-1) == V + center exactly, which
    pins every derived constant across sample-size sweeps.
    """
    if n < 2:
        raise ModelError(f"need n >= 2, got {n!r}")
    if center <= 0.0:
        raise ModelError(f"center must be positive, got {center!r}")
    g = stream.generator
    theta = g.normal(0.0, math.sqrt(center), n)
    y = theta + g.normal(0.0, math.sqrt(cfg.V), n)
    if exact_center:
        mean = y.mean()
        spread = float(((y - mean) ** 2).sum())
        if spread <= 0.0:
            raise ModelError("degenerate synthetic draw cannot be rescaled")
        y = mean + (y - mean) * math.sqrt((center + cfg.V) * (n - 1) / spread)
    return Dataset(y)


# ---------------------------------------------------------------------------
# energy function and contraction factor
# ---------------------------------------------------------------------------


def drift_value_summary(theta_bar, A, ds: Dataset, cfg: ModelConfig):
    """Energy n*((theta_bar - y_bar)^2 + (center - A)^2); array-friendly."""
    c = data_center(ds, cfg)
    theta_bar = np.asarray(theta_bar, dtype=float)
    A = np.asarray(A, dtype=float)
    out = ds.n * ((theta_bar - ds.y_bar) ** 2 + (c - A) ** 2)
    return float(out) if out.ndim == 0 else out


def lambda_factor(A, V: float):
    """Squared contraction coefficient ((V^2+2VA)/(V^2+2VA+A^2))^2.

    Equals 1 only at A = 0 and decreases strictly in A; array-friendly.
    """
    A = np.asarray(A, dtype=float)
    if np.any(A < 0.0):
        raise ModelError("A must be >= 0")
    num = V * V + 2.0 * V * A
    out = (num / (num + A * A)) ** 2
    return float(out) if out.ndim == 0 else out


def lambda_T(spec: LargeSetSpec, V: float) -> float:
    """Contraction threshold on the retained band: lambda_factor at A = T."""
    out = float(lambda_factor(spec.T, V))
    if not out < 1.0:
        raise ModelError("threshold contraction factor must be < 1")
    return out


def default_large_set(ds: Dataset, cfg: ModelConfig) -> LargeSetSpec:
    """Default threshold T = min(delta_margin, center/2)."""
    c = data_center(ds, cfg)
    if c <= 0.0:
        raise ModelError("data fail the dispersion margin; no retained band exists")
    return LargeSetSpec(T=min(cfg.delta_margin, 0.5 * c), center=c)


def default_small_set_level(b: float, lam_t: float) -> float:
    """Small-set level 2.5*b/(1-lambda_T), a quarter above the required floor."""
    return 2.5 * b / (1.0 - lam_t)


# ---------------------------------------------------------------------------
# exact conditional moments
# ---------------------------------------------------------------------------


def conditional_S_moments(A, ds: Dataset, cfg: ModelConfig):
    """Exact conditional moments of S = sum_i (theta'_i - theta_bar')^2/(n-1)
    after the theta-update, given the current A (mu-independent).

    Writing s2 = A*V/(V+A) and rho = A/(V+A):

        E[S]   = s2 + rho^2 * delta/(n-1)
        Var[S] = (2*(n-1)*s2^2 + 4*rho^2*s2*delta) / (n-1)^2

    The variance splits the centered quadratic form into its chi-square part
    (variance 2(n-1)s2^2) and the data-coupled linear part (variance
    4 rho^2 s2 delta); the cross term has odd Gaussian moments and vanishes.
    Returns (mean, variance, second moment); array-friendly in A.
    """
    A = np.asarray(A, dtype=float)
    if np.any(A <= 0.0):
        raise ModelError("A must be positive")
    n, V = ds.n, cfg.V
    s2 = A * V / (V + A)
    rho = A / (V + A)
    mean = s2 + rho**2 * ds.delta / (n - 1)
    var = (2.0 * (n - 1) * s2**2 + 4.0 * rho**2 * s2 * ds.delta) / (n - 1) ** 2
    second = var + mean**2
    if mean.ndim == 0:
        return float(mean), float(var), float(second)
    return mean, var, second


def expected_drift(theta_bar, A, ds: Dataset, cfg: ModelConfig):
    """Exact one-sweep conditional expectation of the energy from (theta_bar, A).

    Composed in reverse sweep order from closed forms: the inverse-gamma mean
    and variance of the A-update (through the mean and variance of S), the
    exact S moments, the normal moments of the updated theta mean, and the mu-update
    law N(theta_bar, A/n).  The kernel sees the state only through
    (theta_bar, A), so this is a function of those two coordinates alone.
    Array-friendly; broadcasts theta_bar against A.
    """
    A = np.asarray(A, dtype=float)
    theta_bar = np.asarray(theta_bar, dtype=float)
    if np.any(A <= 0.0):
        raise ModelError("A must be positive")
    n, V = ds.n, cfg.V
    a1 = cfg.prior_shape_a + 0.5 * (n - 1)
    if a1 <= 2.0:
        raise ModelError("posterior shape a + (n-1)/2 must exceed 2 for second moments")
    c = data_center(ds, cfg)

    s_mean, s_var, _ = conditional_S_moments(A, ds, cfg)

    # A' | S is inverse-gamma with shape a1 and scale beta = b + (n-1)S/2, so
    # Var[A'] = Var[beta]/((a1-1)(a1-2)) + E[beta]^2/((a1-1)^2 (a1-2)).  The
    # variance part is n*E[(A'-c)^2] = n*(Var[A'] + (E[A']-c)^2), a sum of two
    # nonnegative terms: expanding the square instead would cancel terms of
    # size n*c^2 down to one of size c^2.
    e_beta = cfg.prior_scale_b + 0.5 * (n - 1) * s_mean
    var_beta = 0.25 * (n - 1) ** 2 * s_var
    var_a1 = (var_beta + e_beta**2 / (a1 - 1.0)) / ((a1 - 1.0) * (a1 - 2.0))
    e_a1 = e_beta / (a1 - 1.0)

    s2 = A * V / (V + A)
    w = V / (V + A)
    e_mu_sq = (theta_bar - ds.y_bar) ** 2 + A / n
    part_mean = s2 + n * w**2 * e_mu_sq
    part_var = n * (var_a1 + (e_a1 - c) ** 2)
    out = part_mean + part_var
    return float(out) if out.ndim == 0 else out


def drift_offset_b(
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
) -> float:
    """Drift offset: supremum over the retained band of the exact one-sweep
    energy gain beyond the pointwise contraction, in closed form.

    theta_bar enters the gain only through n*[(V/(V+A))^2 - lambda_factor(A)]
    * (theta_bar - y_bar)^2.  Since lambda_factor(A) = (V(V+2A)/(V+A)^2)^2,
    the bracket is <= 0 exactly when V^2 (V+A)^2 <= V^2 (V+2A)^2, i.e. when
    (V+A)^2 <= (V+2A)^2, which holds for every A >= 0; so the supremum sits
    at theta_bar = y_bar.  Maximizing against the pointwise factor dominates
    the threshold-factor deficit as well, since lambda_factor(A) <= lambda_T
    on the band.

    At theta_bar = y_bar every term of the gain g(A) is a polynomial over
    (V+A)^4, so P(A) = g(A)*(V+A)^4 has degree <= 4.  With A = m + h*x on
    x in [-1, 1] (m the band's midpoint, h its half width), one gain call at
    the five Chebyshev-Lobatto nodes ``_LOBATTO`` (the end nodes are exactly
    a_low and a_high) gives P's power coefficients c_0..c_4 in x through the
    constant inverse ``_QUARTIC_FROM_NODES``.  g' = C/(V+A)^5 with
    C = P'(A)(V+A) - 4P(A), and h*C is the cubic in x

        (u c_1 - 4h c_0) + (2u c_2 - 3h c_1) x + (3u c_3 - 2h c_2) x^2
                                                 + (4u c_4 - h c_3) x^3,

    u = V + m, whose x^4 terms cancel.  The roots of C' split [-1, 1] into
    pieces on which C is monotone; only a piece where C falls from > 0 to
    <= 0 holds a local maximum of g, and bisection inside that bracket,
    down to adjacent floats, finds it.  The supremum is the largest g among the band ends
    (the end nodes' values) and those roots, evaluated by one more gain call.

    A root off by delta lowers g(root) by about |g''(root)| delta^2 / 2, so
    the root's float error enters only at second order: on 800 random
    configurations (n up to 1e5) the true gain at each kept root lies within
    1.3e-19 relative of a 30-digit supremum.  What remains is the gain's own
    rounding, up to 1.2e-12 relative there; on the tests' band cases (n = 5
    to 102,400) the computed maximum lies within 7.6e-13 relative of the
    30-digit supremum.  The result is raised by half the rounding budget
    ``_B_ROUNDING``, 5e-10, which covers either sign of that error.
    """
    v = cfg.V

    def gain(A):
        f_val = drift_value_summary(ds.y_bar, A, ds, cfg)
        return expected_drift(ds.y_bar, A, ds, cfg) - lambda_factor(A, v) * f_val

    lo, hi = spec.a_low, spec.a_high
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * _LOBATTO
    nodes[0], nodes[-1] = lo, hi
    g_nodes = gain(nodes)
    c0, c1, c2, c3, c4 = (_QUARTIC_FROM_NODES @ (g_nodes * (v + nodes) ** 4)).tolist()
    u = v + mid
    k0 = u * c1 - 4.0 * half * c0
    k1 = 2.0 * u * c2 - 3.0 * half * c1
    k2 = 3.0 * u * c3 - 2.0 * half * c2
    k3 = 4.0 * u * c4 - half * c3

    def cubic(x):
        return k0 + x * (k1 + x * (k2 + x * k3))

    # the roots of C' = k1 + 2 k2 x + 3 k3 x^2, by the cancellation-free
    # quadratic formula, cut [-1, 1] into pieces on which C is monotone
    disc = k2 * k2 - 3.0 * k3 * k1
    if k3 == 0.0:
        turns = [-0.5 * k1 / k2] if k2 != 0.0 else []
    elif disc >= 0.0:
        q = -(k2 + math.copysign(math.sqrt(disc), k2))
        turns = [q / (3.0 * k3), k1 / q] if q != 0.0 else [0.0]
    else:
        turns = []
    edges = [-1.0, *sorted(x for x in turns if -1.0 < x < 1.0), 1.0]
    roots = []
    for left, right in zip(edges[:-1], edges[1:]):
        if not cubic(left) > 0.0 >= cubic(right):
            continue
        # bisection down to adjacent floats keeps C(left) > 0 >= C(right)
        x = 0.5 * (left + right)
        while x not in (left, right):
            if cubic(x) > 0.0:
                left = x
            else:
                right = x
            x = 0.5 * (left + right)
        roots.append(min(max(mid + half * x, lo), hi))
    candidates = [g_nodes[0], g_nodes[-1]]
    if roots:
        candidates.extend(gain(np.array(roots)))
    b_sup = float(max(candidates))
    if not (np.all(np.isfinite(g_nodes)) and np.all(np.isfinite(candidates)) and b_sup >= 0.0):
        raise ModelError(f"drift offset supremum is not a finite nonnegative value: {b_sup!r}")
    return b_sup * (1.0 + 0.5 * _B_ROUNDING)


def exit_budget(
    cfg: ModelConfig,
    spec: LargeSetSpec,
    b: float,
) -> tuple[float, float]:
    """Constants (C2, C3) of the certificate's budget for leaving the
    retained band; :func:`bound_terms` evaluates it.

    With gap = center - T, the stationary mass outside the band is bounded
    per step by C3/sqrt(n) with C3 = sqrt(b)*(2V/delta_margin + 1)/gap, and
    the chain's own exits through step k by C2*k(1+k)/n with
    C2 = b/(2 gap^2), plus f0*k/(n gap^2) for a start of energy f0 (in the
    band E[f(X_i)] <= f0 + i*b, and outside it f >= n*gap^2).
    """
    gap = spec.center - spec.T
    spread = 2.0 * cfg.V / cfg.delta_margin + 1.0
    return b / (2.0 * gap**2), math.sqrt(b) * spread / gap


def bound_terms(constants: BoundConstants, n: int, k):
    """The three terms ((C1 + f0)*gamma^k, C2*k(1+k)/n + f0*k/(n*gap^2),
    C3*k/sqrt(n)) of the bound at step k for sample size n, start energy f0
    and gap = center - T: the restricted chain's geometric decay, the
    chain's own exits from the band through step k, and k steps of
    stationary mass outside it.  At f0 = 0 the start adds exact zeros.
    Array-friendly in k.
    """
    gap = constants.center - constants.T
    return ((constants.C1 + constants.f0) * np.exp(-constants.log_inv_gamma * k),
            constants.C2 * k * (1.0 + k) / n + constants.f0 * k / (n * gap**2),
            constants.C3 * k / math.sqrt(n))


# ---------------------------------------------------------------------------
# posterior functional E[1/A]
# ---------------------------------------------------------------------------


def _log_a_kernel(A, power: float, ds: Dataset, cfg: ModelConfig):
    A = np.asarray(A, dtype=float)
    return (
        -power * np.log(A)
        - cfg.prior_scale_b / A
        - 0.5 * (ds.n - 1) * np.log(cfg.V + A)
        - 0.5 * ds.delta / (cfg.V + A)
    )


def _log_a_peak(ds: Dataset, cfg: ModelConfig) -> tuple[float, float, float]:
    """Mode, peak value and curvature of ``_log_a_kernel(A, a+1)``.

    The log-kernel tends to -inf at A -> 0 and A -> inf, so its peak is a
    critical point.  Multiplying the derivative
    -(a+1)/A + b/A^2 - (n-1)/(2(V+A)) + delta/(2(V+A)^2) by A^2 (V+A)^2 gives
    a cubic, and the mode is its positive root of highest kernel value (the
    real part of a complex root is merely one more point that cannot beat
    the peak).  The curvature is the exact second derivative there, negative
    at the maximum.
    """
    a, v, b, n = cfg.prior_shape_a, cfg.V, cfg.prior_scale_b, ds.n
    A = Polynomial([0.0, 1.0])
    cubic = (-(a + 1.0) * A * (v + A) ** 2 + b * (v + A) ** 2
             - 0.5 * (n - 1) * A**2 * (v + A) + 0.5 * ds.delta * A**2)
    roots = cubic.roots().real
    roots = roots[roots > 0.0]
    values = _log_a_kernel(roots, a + 1.0, ds, cfg)
    i = int(np.argmax(values))
    mode = float(roots[i])
    curv = ((a + 1.0) / mode**2 - 2.0 * b / mode**3
            + 0.5 * (n - 1) / (v + mode) ** 2 - ds.delta / (v + mode) ** 3)
    return mode, float(values[i]), curv


def expected_inv_A(ds: Dataset, cfg: ModelConfig) -> float:
    """Posterior expectation of 1/A as a ratio of two half-line integrals.

    Integrating the latent means and mu out of the joint density leaves
    one-dimensional integrals over A whose integrands involve
    (V+A)^(-(n-1)/2); all evaluation happens in log space against the
    denominator's peak value so the n ~ thousands regime cannot underflow.
    The quadrature breakpoints sit around that peak, spaced by the width the
    peak's curvature gives.
    """
    a = cfg.prior_shape_a
    mode, peak, curv = _log_a_peak(ds, cfg)
    width = 1.0 / math.sqrt(-curv)
    breaks = sorted(
        {mode + s * width for s in (-32, -8, -2, 0, 2, 8, 32) if mode + s * width > 0.0}
    )

    def num(A):
        return np.exp(_log_a_kernel(A, a + 2.0, ds, cfg) - peak)

    def den(A):
        return np.exp(_log_a_kernel(A, a + 1.0, ds, cfg) - peak)

    den_val = integrate_halfline(den, breakpoints=breaks)
    num_val = integrate_halfline(num, breakpoints=breaks)
    if den_val <= 0.0:
        raise ModelError("posterior normalizer integrated to a nonpositive value")
    return num_val / den_val


# ---------------------------------------------------------------------------
# certificate assembly
# ---------------------------------------------------------------------------


def assemble_gibbs_bound(
    ds: Dataset,
    cfg: ModelConfig,
    large_set: LargeSetSpec | None = None,
    d: float | None = None,
    k_max: int = 200,
    mix_target_c: float = 0.25,
    *,
    start: ChainState | None = None,
) -> GibbsBoundReport:
    """Compute every certificate constant and the bound curves up to k_max
    for a chain started at ``start`` (default :func:`initial_state`).

    The minorization volume comes from the product-of-infima construction
    over the small-set box, and the mass of the constructed uniform
    component on the retained band is bounded below panel by panel in
    closed form (:func:`minorization.uniform_component`); the exit terms
    come from :func:`exit_budget` and :func:`bound_terms`.
    ``large_set`` must be centered at the data center, as the small set is;
    d defaults to :func:`default_small_set_level`.  ``start`` must lie in
    the retained band, where the drift inequality and the exit budget hold;
    its energy f0 enters the coupling bound and :func:`bound_terms`.
    """
    from . import minorization  # local import; minorization depends on this module

    if not check_data_assumption(ds, cfg):
        raise ModelError("data fail the dispersion margin; no certificate is available")
    spec = large_set if large_set is not None else default_large_set(ds, cfg)
    c = data_center(ds, cfg)
    if abs(spec.center - c) > _REL_TOL * c:
        raise ModelError(f"large set centered at {spec.center!r}, not at the data center "
                         f"{c!r} where the small set {{f <= d}} sits")
    if start is None:
        start = initial_state(ds, cfg)
    if not spec.contains(start.A):
        raise ModelError(f"start A={start.A!r} lies outside the retained band "
                         f"[{spec.a_low!r}, {spec.a_high!r}]")
    f0 = drift_value_summary(start.theta_bar, start.A, ds, cfg)
    lam_t = lambda_T(spec, cfg.V)
    b = drift_offset_b(ds, cfg, spec)
    if d is None:
        d = default_small_set_level(b, lam_t)
    floor = 2.0 * b / (1.0 - lam_t)
    if not (d > floor):
        raise ModelError(f"small-set level d={d!r} must exceed 2*b/(1-lambda_T)={floor!r}")
    gap = c - spec.T
    if d > ds.n * gap**2:
        raise ModelError(f"small-set box spills outside the retained band: d={d!r} exceeds "
                         f"n*(center - T)^2={ds.n * gap**2!r}; increase n or lower d")

    box = minorization.SmallSetBox.from_level(d, ds, cfg)
    eps, q = minorization.uniform_component(box, ds, cfg, spec)
    if q <= 0.0:
        raise ModelError("no positive lower bound on the uniform-component band mass")

    p = DriftParameters(lam=lam_t, b_drift=b, d_small=d, initial_drift_expectation=f0)
    m = MinorizationCertificate(epsilon=eps, q_mass_lower=q)
    dc = derived_constants(p, m)

    c1 = 2.0 + b / (1.0 - lam_t)
    c2, c3 = exit_budget(cfg, spec, b)
    constants = BoundConstants(
        lambda_T=lam_t, b_drift=b, d_small=d, T=spec.T, center=c,
        epsilon=eps, q_mass_lower=q,
        alpha=dc.alpha, Lambda=dc.Lambda, r=dc.r, gamma=dc.gamma,
        log_inv_gamma=dc.log_inv_gamma,
        C1=c1, C2=c2, C3=c3, f0=f0,
    )

    ks = np.arange(1, k_max + 1)
    term_geo, term_quad, term_sqrt = bound_terms(constants, ds.n, ks)
    three_term_total = term_geo + term_quad + term_sqrt
    # the restricted chain's coupling bound plus the same exit terms
    raw = np.array([evaluate_bound(p, m, dc, int(k)) for k in ks]) + (term_sqrt + term_quad)

    k_bar, n_c = mixing_time_certificate(c1, c2, c3, dc.log_inv_gamma, mix_target_c)
    return GibbsBoundReport(
        n=ds.n,
        constants=constants,
        k_values=ks.astype(float),
        certificate_raw=raw,
        certificate_clamped=np.clip(raw, 0.0, 1.0),
        term_geometric=term_geo,
        term_quadratic=term_quad,
        term_sqrt=term_sqrt,
        three_term_total=three_term_total,
        three_term_clamped=np.clip(three_term_total, 0.0, 1.0),
        K_bar=k_bar,
        N_c=n_c,
        mix_target_c=mix_target_c,
    )
