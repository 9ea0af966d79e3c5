"""Two-level normal location model with unknown random-effect variance.

Observation i is normal around a latent mean theta_i with known variance V;
the theta_i share a normal population law N(mu, A) with flat prior on mu and
an inverse-gamma(a, b) prior on A.  The deterministic-scan Gibbs sweep
updates mu, then every theta_i, then A.

This module owns the data handling, the Gibbs kernel, the energy function

    f(x) = n*(theta_bar - y_bar)^2 + n*((delta/(n-1) - V) - A)^2,

its exact one-step conditional expectation (composed from closed-form
conditional moments, no sampling), the contraction factor and its threshold
version on the retained A-band, the numeric drift offset, exit-probability
tail bounds, the posterior functional E[1/A], and the end-to-end certificate
assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bound_core import (
    DriftParameters,
    MinorizationCertificate,
    TailSequence,
    derived_constants,
    evaluate_bound,
    mixing_time_certificate,
)
from .numerics import RngStream, integrate_halfline, minimize_scalar

__all__ = [
    "ModelError",
    "Dataset",
    "ModelConfig",
    "ChainState",
    "LargeSetSpec",
    "BoundConstants",
    "GibbsBoundReport",
    "sufficient_stats",
    "check_data_assumption",
    "initial_state",
    "make_state",
    "drift_value",
    "drift_value_summary",
    "lambda_factor",
    "lambda_T",
    "default_large_set",
    "in_large_set",
    "gibbs_step",
    "conditional_S_moments",
    "expected_drift",
    "drift_offset_b",
    "tail_probability_bound",
    "expected_inv_A",
    "assemble_gibbs_bound",
    "extended_bound_general_start",
    "synth_dataset",
]

_REL_TOL = 1e-12


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
    """Observations with cached sufficient statistics.

    ``y_bar`` is the sample mean and ``delta`` the centered sum of squares
    sum_i (y_i - y_bar)^2; both must be consistent with ``y`` to 1e-12
    relative error.  Build instances through :func:`sufficient_stats`.
    """

    y: np.ndarray
    n: int
    y_bar: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "y", _frozen(self.y))
        if self.n < 2 or self.y.shape != (self.n,):
            raise ModelError(f"need at least two observations, got n={self.n!r}")
        if not np.all(np.isfinite(self.y)):
            raise ModelError("observations must be finite")
        mean = math.fsum(self.y.tolist()) / self.n
        delta = math.fsum((yi - mean) ** 2 for yi in self.y.tolist())
        scale = max(1.0, abs(mean))
        if abs(mean - self.y_bar) > _REL_TOL * scale:
            raise ModelError(f"cached y_bar={self.y_bar!r} inconsistent with data (got {mean!r})")
        if abs(delta - self.delta) > _REL_TOL * max(1.0, delta):
            raise ModelError(f"cached delta={self.delta!r} inconsistent with data (got {delta!r})")
        if self.delta < 0.0:
            raise ModelError("delta must be >= 0")

    @property
    def center(self) -> float:
        """delta/(n-1) - V is the natural A-scale only jointly with a config;
        this is the data part delta/(n-1)."""
        return self.delta / (self.n - 1)


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
    """One chain state (mu, A, theta vector) with cached summaries.

    ``theta_bar`` is the mean of theta and ``S`` the sample variance
    sum_i (theta_i - theta_bar)^2 / (n-1).  The Gibbs kernel touches the
    state only through (theta_bar, A); theta is carried for full-state
    operations such as the per-coordinate updates.
    """

    mu: float
    A: float
    theta: np.ndarray
    theta_bar: float
    S: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))
        if not (self.A > 0.0 and math.isfinite(self.A)):
            raise ModelError(f"A must be positive and finite, got {self.A!r}")
        n = self.theta.size
        if n < 2:
            raise ModelError("theta must have length >= 2")
        tb = math.fsum(self.theta.tolist()) / n
        s = math.fsum((t - tb) ** 2 for t in self.theta.tolist()) / (n - 1)
        if abs(tb - self.theta_bar) > _REL_TOL * max(1.0, abs(tb)):
            raise ModelError(f"cached theta_bar={self.theta_bar!r} inconsistent (got {tb!r})")
        if abs(s - self.S) > _REL_TOL * max(1.0, s):
            raise ModelError(f"cached S={self.S!r} inconsistent (got {s!r})")


def make_state(mu: float, A: float, theta: Sequence[float] | np.ndarray) -> ChainState:
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    tb = math.fsum(theta.tolist()) / n
    s = math.fsum((t - tb) ** 2 for t in theta.tolist()) / (n - 1)
    return ChainState(mu=float(mu), A=float(A), theta=theta, theta_bar=tb, S=s)


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
    """Full certificate constants for one dataset/config/threshold triple."""

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
    C4: float


@dataclass(frozen=True)
class GibbsBoundReport:
    """Certificate constants plus evaluated bound curves and step thresholds.

    ``certificate_raw`` is the coupling-form bound (not clamped);
    ``term_geometric``/``term_quadratic``/``term_sqrt`` are the three-term
    curve C1*gamma^k + C2*k(1+k)/n + C3*k/sqrt(n) split by term.
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
    h_inv_a: float
    exit_prob_upper: float

    def __post_init__(self):
        for name in ("k_values", "certificate_raw", "certificate_clamped",
                     "term_geometric", "term_quadratic", "term_sqrt",
                     "three_term_total", "three_term_clamped"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


# ---------------------------------------------------------------------------
# data handling
# ---------------------------------------------------------------------------


def sufficient_stats(y: Sequence[float] | np.ndarray) -> Dataset:
    """Dataset with exactly accumulated mean and centered sum of squares."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ModelError(f"need a 1-D sample with n >= 2, got shape {arr.shape!r}")
    if not np.all(np.isfinite(arr)):
        raise ModelError("observations must be finite")
    n = int(arr.size)
    mean = math.fsum(arr.tolist()) / n
    delta = math.fsum((v - mean) ** 2 for v in arr.tolist())
    return Dataset(y=arr, n=n, y_bar=mean, delta=delta)


def check_data_assumption(ds: Dataset, cfg: ModelConfig) -> bool:
    """True when the dispersion margin holds: delta/(n-1) >= V + delta_margin."""
    return ds.delta / (ds.n - 1) >= cfg.V + cfg.delta_margin


def data_center(ds: Dataset, cfg: ModelConfig) -> float:
    """The drift-function center delta/(n-1) - V."""
    return ds.delta / (ds.n - 1) - cfg.V


def initial_state(ds: Dataset, cfg: ModelConfig) -> ChainState:
    """Canonical start: theta pinned at y_bar (so theta_bar = y_bar exactly),
    A at the centered dispersion (falling back to the raw dispersion when the
    margin fails), mu = 0 since the first sweep overwrites it."""
    c = data_center(ds, cfg)
    a0 = c if c > 0.0 else ds.delta / (ds.n - 1)
    if a0 <= 0.0:
        raise ModelError("degenerate sample: zero dispersion leaves no valid starting A")
    theta = np.full(ds.n, ds.y_bar)
    return ChainState(mu=0.0, A=a0, theta=theta, theta_bar=ds.y_bar, S=0.0)


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
    return sufficient_stats(y)


# ---------------------------------------------------------------------------
# energy function and contraction factor
# ---------------------------------------------------------------------------


def drift_value(x: ChainState, ds: Dataset, cfg: ModelConfig) -> float:
    return drift_value_summary(x.theta_bar, x.A, ds, cfg)


def drift_value_summary(theta_bar, A, ds: Dataset, cfg: ModelConfig):
    """Energy n*(theta_bar - y_bar)^2 + n*(center - A)^2; array-friendly."""
    c = data_center(ds, cfg)
    theta_bar = np.asarray(theta_bar, dtype=float)
    A = np.asarray(A, dtype=float)
    out = ds.n * (theta_bar - ds.y_bar) ** 2 + ds.n * (c - A) ** 2
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
    if spec.T <= 0.0:
        raise ModelError("T must be positive")
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


def in_large_set(x: ChainState, spec: LargeSetSpec) -> bool:
    """Whether the state's A lies in the band (:meth:`LargeSetSpec.contains`)."""
    return bool(spec.contains(x.A))


# ---------------------------------------------------------------------------
# Gibbs kernel
# ---------------------------------------------------------------------------


def gibbs_step(
    x: ChainState,
    ds: Dataset,
    cfg: ModelConfig,
    stream: RngStream,
    band: LargeSetSpec | None = None,
) -> ChainState:
    """One full sweep: mu, then each theta_i, then A.

    Draw layout per sweep (fixed for reproducibility): one standard normal
    for mu, n standard normals for theta, one standard gamma for A.

    With ``band`` this is the per-sub-step rejection kernel on the band: the
    mu and theta stages cannot leave a band that constrains A alone, so they
    always go through, and an A proposal outside the band is dropped and the
    previous A kept.  Under shared randomness it emits exactly the
    unrestricted sweep whenever the proposal stays inside.
    """
    if band is not None and not in_large_set(x, band):
        raise ModelError("state outside the retained band")
    g = stream.generator
    n, V = ds.n, cfg.V
    mu1 = x.theta_bar + math.sqrt(x.A / n) * g.standard_normal()
    w = V / (V + x.A)
    means = mu1 * w + ds.y * (1.0 - w)
    sd = math.sqrt(x.A * V / (V + x.A))
    theta1 = means + sd * g.standard_normal(n)
    tb1 = float(theta1.mean())
    s1 = float(((theta1 - tb1) ** 2).sum()) / (n - 1)
    beta = cfg.prior_scale_b + 0.5 * (n - 1) * s1
    a1 = cfg.prior_shape_a + 0.5 * (n - 1)
    A1 = beta / g.standard_gamma(a1)
    if band is not None and not band.contains(A1):
        A1 = x.A
    return make_state(mu1, A1, theta1)


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

    Composed in reverse sweep order from closed forms: inverse-gamma first and
    second moments of the A-update (linear/quadratic in S), the exact S
    moments, the normal moments of the updated theta mean, and the mu-update
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

    s_mean, _, s_second = conditional_S_moments(A, ds, cfg)
    s_mean = np.asarray(s_mean, dtype=float)
    s_second = np.asarray(s_second, dtype=float)

    # A' | S is inverse-gamma with shape a1 and scale beta = b + (n-1)S/2.
    e_beta = cfg.prior_scale_b + 0.5 * (n - 1) * s_mean
    e_beta2 = (
        cfg.prior_scale_b**2
        + cfg.prior_scale_b * (n - 1) * s_mean
        + 0.25 * (n - 1) ** 2 * s_second
    )
    e_a1 = e_beta / (a1 - 1.0)
    e_a1_sq = e_beta2 / ((a1 - 1.0) * (a1 - 2.0))

    s2 = A * V / (V + A)
    w = V / (V + A)
    e_mu_sq = (theta_bar - ds.y_bar) ** 2 + A / n
    part_mean = s2 + n * w**2 * e_mu_sq
    part_var = n * (c * c - 2.0 * c * e_a1 + e_a1_sq)
    out = part_mean + np.maximum(part_var, 0.0)
    return float(out) if out.ndim == 0 else out


def drift_offset_b(
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
    safety: float = 1.01,
    grid_points: int = 2001,
) -> float:
    """Numeric drift offset: supremum over the retained band of the exact
    one-sweep energy gain beyond the pointwise contraction.

    The supremum over theta_bar collapses to theta_bar = y_bar because the
    theta_bar^2 coefficient gap n*[(V/(V+A))^2 - lambda_factor(A)] is <= 0
    for every A >= 0; that reduction is re-verified numerically on a grid.
    Maximizing against the pointwise factor dominates the threshold-factor
    deficit as well, since lambda_factor(A) <= lambda_T on the band.  The
    result is inflated by ``safety`` to absorb optimizer tolerance.
    """
    v = cfg.V

    def neg_deficit(A):
        f_val = drift_value_summary(ds.y_bar, A, ds, cfg)
        return -(expected_drift(ds.y_bar, A, ds, cfg) - lambda_factor(A, v) * f_val)

    _, neg_sup = minimize_scalar(neg_deficit, spec.a_low, spec.a_high,
                                 tol=1e-10 * (spec.a_high - spec.a_low),
                                 grid_points=grid_points)
    b_sup = -neg_sup
    if not (math.isfinite(b_sup) and b_sup >= 0.0):
        raise ModelError(f"drift offset supremum is not a finite nonnegative value: {b_sup!r}")

    # guard for the theta_bar reduction
    a_grid = np.linspace(spec.a_low, spec.a_high, 9)
    for off in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        tb = ds.y_bar + off
        dev = expected_drift(tb, a_grid, ds, cfg) - lambda_factor(a_grid, v) * drift_value_summary(
            tb, a_grid, ds, cfg
        )
        if np.any(dev > b_sup + 1e-9 * (1.0 + b_sup)):
            raise ModelError("theta_bar reduction failed: off-center state beats the supremum")
    return b_sup * safety


def tail_probability_bound(
    k: int,
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
    b: float,
) -> float:
    """Budget for k steps of exit probability mass, from the canonical start:

        (k/sqrt(n)) * sqrt(b)*(2V/delta_margin + 1)/(center - T)
          + (k(1+k)/(2n)) * b/(center - T)^2
    """
    if k < 0:
        raise ModelError("k must be >= 0")
    gap = spec.center - spec.T
    if gap == 0.0:
        raise ModelError("center == T leaves a zero-width band")
    n = ds.n
    lin = (k / math.sqrt(n)) * math.sqrt(b) * (2.0 * cfg.V / cfg.delta_margin + 1.0) / abs(gap)
    quad = (k * (1.0 + k) / (2.0 * n)) * b / gap**2
    return lin + quad


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


def expected_inv_A(ds: Dataset, cfg: ModelConfig) -> float:
    """Posterior expectation of 1/A as a ratio of two half-line integrals.

    Integrating the latent means and mu out of the joint density leaves
    one-dimensional integrals over A whose integrands involve
    (V+A)^(-(n-1)/2); all evaluation happens in log space against the
    denominator's peak value so the n ~ thousands regime cannot underflow.
    """
    a = cfg.prior_shape_a
    c_hat = data_center(ds, cfg)
    hi = 50.0 * (abs(c_hat) + cfg.V + cfg.prior_scale_b + 1.0)
    lo = min(1e-6, 1e-4 * hi)

    mode, neg_peak = minimize_scalar(
        lambda A: -_log_a_kernel(A, a + 1.0, ds, cfg), lo, hi, tol=1e-12 * hi
    )
    peak = -neg_peak
    h = max(1e-6 * mode, 1e-12)
    curv = (
        _log_a_kernel(mode - h, a + 1.0, ds, cfg)
        - 2.0 * _log_a_kernel(mode, a + 1.0, ds, cfg)
        + _log_a_kernel(mode + h, a + 1.0, ds, cfg)
    ) / h**2
    width = 1.0 / math.sqrt(-curv) if curv < 0.0 else 0.1 * mode
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
) -> GibbsBoundReport:
    """Compute every certificate constant and the bound curves up to k_max.

    The minorization volume comes from the product-of-infima construction
    over the small-set box, and the mass of the constructed uniform
    component on the retained band is evaluated directly by quadrature (the
    one-step exit device is also computed and the better of the two lower
    bounds is kept).  The default small-set level is d = 2.5*b/(1-lambda_T).
    """
    from . import minorization  # local import; minorization depends on this module

    if not check_data_assumption(ds, cfg):
        raise ModelError("data fail the dispersion margin; no certificate is available")
    spec = large_set if large_set is not None else default_large_set(ds, cfg)
    lam_t = lambda_T(spec, cfg.V)
    b = drift_offset_b(ds, cfg, spec)
    if d is None:
        d = 2.5 * b / (1.0 - lam_t)
    if not (d > 2.0 * b / (1.0 - lam_t)):
        raise ModelError(
            f"small-set level d={d!r} must exceed 2*b/(1-lambda_T)="
            f"{2.0 * b / (1.0 - lam_t)!r}"
        )
    c = spec.center
    halfwidth = math.sqrt(d / ds.n)
    if halfwidth > c - spec.T:
        raise ModelError(
            f"small-set box (halfwidth {halfwidth!r}) spills outside the retained band "
            f"(gap {c - spec.T!r}); increase n or lower d"
        )

    box = minorization.SmallSetBox(
        theta_bar_halfwidth=halfwidth,
        A_halfwidth=halfwidth,
        A_center=c,
        theta_bar_center=ds.y_bar,
    )
    eps = minorization.epsilon_lower_bound(box, ds, cfg)

    # one-step exit probability bound from the small set (drift + Markov)
    exit_up = (lam_t * d + b) / (ds.n * (c - spec.T) ** 2)
    q_remark = minorization.q_mass_lower_bound(eps, exit_up)
    q_direct = minorization.uniform_component_band_mass(box, ds, cfg, spec)
    q = max(q_remark, q_direct)
    if q <= 0.0:
        raise ModelError("no positive lower bound on the uniform-component band mass")

    p = DriftParameters(lam=lam_t, b_drift=b, d_small=d, initial_drift_expectation=0.0)
    m = MinorizationCertificate(epsilon=eps, q_mass_lower=q)
    dc = derived_constants(p, m)

    gap = c - spec.T
    c1 = 2.0 + b / (1.0 - lam_t)
    c2 = b / (2.0 * gap**2)
    c3 = math.sqrt(b) * (2.0 * cfg.V / cfg.delta_margin + 1.0) / gap
    c4 = 1.0 / gap**2
    pi_exit = math.sqrt(b / ds.n) * (2.0 * cfg.V / cfg.delta_margin + 1.0) / gap
    tails = TailSequence(
        pi_exit_bound=pi_exit,
        cumulative_exit_bound=lambda k: c2 * k * (1.0 + k) / ds.n,
    )

    ks = np.arange(1, k_max + 1)
    raw = np.array([evaluate_bound(p, m, dc, tails, int(k)) for k in ks])
    term_geo = c1 * np.exp(-dc.log_inv_gamma * ks)
    term_quad = c2 * ks * (1.0 + ks) / ds.n
    term_sqrt = c3 * ks / math.sqrt(ds.n)
    three_term_total = term_geo + term_quad + term_sqrt

    k_bar, n_c = mixing_time_certificate(
        c1, c2, c3, dc.gamma, mix_target_c, log_inv_gamma=dc.log_inv_gamma
    )
    h = expected_inv_A(ds, cfg)

    constants = BoundConstants(
        lambda_T=lam_t, b_drift=b, d_small=d, T=spec.T, center=c,
        epsilon=eps, q_mass_lower=q,
        alpha=dc.alpha, Lambda=dc.Lambda, r=dc.r, gamma=dc.gamma,
        log_inv_gamma=dc.log_inv_gamma,
        C1=c1, C2=c2, C3=c3, C4=c4,
    )
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
        h_inv_a=h,
        exit_prob_upper=exit_up,
    )


def extended_bound_general_start(
    x0: ChainState,
    ds: Dataset,
    cfg: ModelConfig,
    k: int,
    report: GibbsBoundReport,
) -> float:
    """Bound for a chain started at any state of the margin band A in
    [delta_margin, 2*center - delta_margin]:

        (C1 + f(x0)) * gamma^k + C2*k(1+k)/n + C3*k/sqrt(n) + C4*f(x0)*k/n

    The C4 term keeps the start-energy contribution of the step-wise exit
    budget E[f at step i] <= f(x0) + i*b, whence C4 = 1/(center - T)^2.
    """
    if k < 0:
        raise ModelError("k must be >= 0")
    c = report.constants.center
    margin_band = LargeSetSpec(T=min(cfg.delta_margin, c * (1.0 - 1e-12)), center=c)
    if not in_large_set(x0, margin_band):
        raise ModelError("no bound available outside the large set")
    f0 = drift_value(x0, ds, cfg)
    bc = report.constants
    geo = (bc.C1 + f0) * math.exp(-bc.log_inv_gamma * k)
    return geo + bc.C2 * k * (1.0 + k) / ds.n + bc.C3 * k / math.sqrt(ds.n) + bc.C4 * f0 * k / ds.n
