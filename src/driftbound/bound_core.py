"""Model-agnostic total-variation convergence certificates.

A Markov chain that contracts a nonnegative energy function on a designated
subset of the state space (``E[f(X_1)|X_0=x] <= lambda*f(x) + b`` there) and
admits a uniform kernel component ``epsilon * Q`` on the sublevel set
``{f <= d}`` yields an explicit bound on the distance to stationarity of the
chain restricted to that subset:

    (1 - eps*Q_mass)^(r*k)
      + [ (alpha*Lambda)^(r*k) * (1 + E_init[f] + b/(1-lambda)) - alpha^(r*k) ]
        / (alpha^k - alpha^(r*k))

with ``alpha^-1 = (1 + 2b + lambda*d)/(1 + d)`` and
``Lambda = 1 + 2(lambda*d + b)``.  The free exponent ``r`` defaults to the
value that balances the two geometric rates, giving a single decay factor
``gamma = (1 - eps*Q_mass)^r = alpha^-1 (alpha*Lambda)^r``.

With the whole space as that subset this is the classic certificate.  A
model whose contraction holds on a proper subset adds its own budget for
leaving it (for the hierarchical model, ``hier_model.bound_terms``).

Everything is evaluated in log space so certificates stay finite for step
counts up to 10**6 and beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BoundError",
    "DriftParameters",
    "MinorizationCertificate",
    "DerivedConstants",
    "derive_alpha_lambda",
    "derived_constants",
    "evaluate_bound",
    "mixing_time_certificate",
]


class BoundError(Exception):
    """A certificate input violates its contract."""


@dataclass(frozen=True)
class DriftParameters:
    """Energy-contraction constants plus the small-set level.

    ``d_small`` must exceed ``2*b_drift/(1-lam)``; below that threshold the
    derived constant alpha degenerates to <= 1 and no certificate exists.
    ``initial_drift_expectation`` is the energy of the (point-mass) initial
    distribution.
    """

    lam: float
    b_drift: float
    d_small: float
    initial_drift_expectation: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise BoundError(f"lambda must lie in (0,1), got {self.lam!r}")
        if not (self.b_drift >= 0.0 and math.isfinite(self.b_drift)):
            raise BoundError(f"b_drift must be finite and >= 0, got {self.b_drift!r}")
        if not (self.d_small > 2.0 * self.b_drift / (1.0 - self.lam)):
            raise BoundError(
                f"d_small must exceed 2*b/(1-lambda) = "
                f"{2.0 * self.b_drift / (1.0 - self.lam)!r}, got {self.d_small!r}"
            )
        if not (self.initial_drift_expectation >= 0.0):
            raise BoundError("initial_drift_expectation must be >= 0")


@dataclass(frozen=True)
class MinorizationCertificate:
    """Uniform-component volume and a lower bound on its mass on the good set."""

    epsilon: float
    q_mass_lower: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise BoundError(f"epsilon must lie in (0,1], got {self.epsilon!r}")
        if not (0.0 <= self.q_mass_lower <= 1.0):
            raise BoundError(f"q_mass_lower must lie in [0,1], got {self.q_mass_lower!r}")
        if not (self.epsilon * self.q_mass_lower < 1.0):
            raise BoundError("epsilon * q_mass_lower must be < 1")


@dataclass(frozen=True)
class DerivedConstants:
    """alpha, Lambda, and the balanced exponent r with its rate gamma.

    ``log_inv_gamma`` carries log(1/gamma) exactly.  For very small
    minorization mass the true gamma sits within one ulp of 1 and the float
    field rounds to 1.0; the strict inequality gamma < 1 is then certified
    by log_inv_gamma > 0, which never rounds away.
    """

    alpha: float
    Lambda: float
    r: float
    gamma: float
    log_inv_gamma: float

    def __post_init__(self):
        if not (self.alpha > 1.0):
            raise BoundError(f"alpha must exceed 1, got {self.alpha!r}")
        if not (self.Lambda >= 1.0):
            raise BoundError(f"Lambda must be >= 1, got {self.Lambda!r}")
        if not (0.0 < self.r < 1.0):
            raise BoundError(f"r must lie in (0,1), got {self.r!r}")
        if not (self.log_inv_gamma > 0.0):
            raise BoundError(f"log(1/gamma) must be positive, got {self.log_inv_gamma!r}")
        if not (0.0 < self.gamma <= 1.0):
            raise BoundError(f"gamma must lie in (0,1], got {self.gamma!r}")
        if abs(math.exp(-self.log_inv_gamma) - self.gamma) > 1e-12:
            raise BoundError("gamma and log_inv_gamma are inconsistent")


def derive_alpha_lambda(p: DriftParameters) -> tuple[float, float]:
    """Closed forms alpha^-1 = (1+2b+lambda*d)/(1+d) and Lambda = 1+2(lambda*d+b)."""
    inv_alpha = (1.0 + 2.0 * p.b_drift + p.lam * p.d_small) / (1.0 + p.d_small)
    if inv_alpha >= 1.0:
        raise BoundError("small set too small relative to drift constants (alpha <= 1)")
    lam_cap = 1.0 + 2.0 * (p.lam * p.d_small + p.b_drift)
    return 1.0 / inv_alpha, lam_cap


def derived_constants(
    p: DriftParameters,
    m: MinorizationCertificate,
) -> DerivedConstants:
    """Assemble DerivedConstants from drift and minorization certificates.

    The balancing exponent r = log(alpha) / log(alpha*Lambda/(1-eps*q))
    makes the two geometric factors coincide, and the identity
    gamma = (1-eps*q)^r == alpha^-1 (alpha*Lambda)^r is verified to 1e-12
    relative.  The rate log(1/gamma) = -r log(1-eps*q) is then lowered by a
    relative budget for its rounding, and gamma is taken from the lowered
    rate.

    The budget is max(1e-12, 16u/log(alpha)) with u = 2^-53.  The float
    alpha takes five roundings of sums of nonnegative terms, so log(alpha)
    is off by at most 5u absolute, which is 5u/log(alpha) relative and
    grows without bound as alpha -> 1.  Lambda takes three more roundings
    and the product one, so log(alpha*Lambda), and with it the denominator
    of r, is off by at most 9u/log(alpha*Lambda) <= 9u/log(alpha) relative.
    The other roundings (the two logarithms, log1p of the rounded eps*q,
    the quotient and the product) add a few u and the conditioning of
    log1p(-eps*q), about 1 for small eps*q.  So the rate is off by at most
    14u/log(alpha) plus a term independent of alpha that stays below 1e-13
    unless eps*q is within about 1e-3 of 1; each side of the max covers the
    sum where it is the larger.  At the default level alpha - 1 is about
    0.01, 16u/log(alpha) is 1.8e-13, and the budget is 1e-12; the float
    rate there is within 4e-14 of the exact one on the default and classic
    configs.
    """
    alpha, lam_cap = derive_alpha_lambda(p)
    eps_q = m.epsilon * m.q_mass_lower
    if eps_q <= 0.0:
        raise BoundError("no minorization mass (eps_q <= 0)")
    if eps_q >= 1.0:
        raise BoundError(f"eps_q must be < 1, got {eps_q!r}")
    log_keep = math.log1p(-eps_q)  # log(1 - eps*q)
    log_alpha = math.log(alpha)
    if not log_alpha > 0.0:
        raise BoundError(f"alpha must exceed 1, got {alpha!r}")
    r = log_alpha / (math.log(alpha * lam_cap) - log_keep)
    gamma = math.exp(r * log_keep)
    other = math.exp(r * math.log(alpha * lam_cap) - log_alpha)
    if abs(gamma - other) > 1e-12 * abs(gamma):
        raise BoundError("balanced-rate identity failed beyond 1e-12 relative error")
    log_inv_gamma = -r * log_keep * (1.0 - max(1e-12, 16.0 * 2.0**-53 / log_alpha))
    return DerivedConstants(
        alpha=alpha, Lambda=lam_cap, r=r, gamma=math.exp(-log_inv_gamma),
        log_inv_gamma=log_inv_gamma,
    )


def evaluate_bound(
    p: DriftParameters,
    m: MinorizationCertificate,
    dc: DerivedConstants,
    k: int,
) -> float:
    """Raw certificate value at step k (not clamped to [0,1]) for the chain
    restricted to the subset where the contraction holds: the module's
    two-term formula, with no exit terms.

    All powers are computed as exp(k*log(.)); the coupling ratio is reduced
    so that every exponent is nonpositive, which keeps the evaluation finite
    for k up to 10**6 and beyond.
    """
    if not (isinstance(k, (int,)) and k >= 1):
        raise BoundError(f"k must be a positive integer, got {k!r}")
    eps_q = m.epsilon * m.q_mass_lower
    if eps_q <= 0.0:
        raise BoundError("no minorization mass (eps_q <= 0)")

    log_alpha = math.log(dc.alpha)
    log_alpha_lam = math.log(dc.alpha * dc.Lambda)
    term1 = math.exp(dc.r * k * math.log1p(-eps_q))

    c0 = 1.0 + p.initial_drift_expectation + p.b_drift / (1.0 - p.lam)
    # [ (aL)^{rk} c0 - a^{rk} ] / (a^k - a^{rk}), divided through by a^k:
    e_num = math.exp(dc.r * k * log_alpha_lam - k * log_alpha + math.log(c0))
    e_sub = math.exp((dc.r - 1.0) * k * log_alpha)
    term2 = (e_num - e_sub) / (1.0 - e_sub)
    return term1 + term2


def mixing_time_certificate(
    C1: float,
    C2: float,
    C3: float,
    log_inv_gamma: float,
    c: float,
) -> tuple[int, int]:
    """Step and sample-size thresholds certifying distance <= c.

    Splitting the three-term bound C1*gamma^k + C2*k(1+k)/n + C3*k/sqrt(n)
    into equal budgets of c/3 gives a step count
    ``K_bar = ceil[(log C1 - log(c/3)) / log(1/gamma)]`` (at least 1) and a
    sample-size threshold
    ``N_c = ceil max{1, (K_bar*3*C3/c)^2, 3*C2*K_bar*(K_bar+1)/c}``
    past which K_bar steps suffice.  The rate enters as log(1/gamma), which
    stays positive where gamma itself rounds to 1.0.
    """
    if not log_inv_gamma > 0.0:
        raise BoundError(f"log(1/gamma) must be positive, got {log_inv_gamma!r}")
    if not (C1 > 0.0 and C2 > 0.0 and C3 > 0.0):
        raise BoundError("C1, C2, C3 must be positive")
    if not (0.0 < c < 1.0):
        raise BoundError(f"c must lie in (0,1), got {c!r}")
    steps = (math.log(C1) - math.log(c / 3.0)) / log_inv_gamma
    if not math.isfinite(steps):
        raise BoundError(f"K_bar overflowed: log(1/gamma) = {log_inv_gamma!r} is too small")
    k_bar = max(1, math.ceil(steps))
    # products, not ** 2: a float power raises OverflowError instead of
    # returning inf
    c3_root = k_bar * 3.0 * C3 / c
    n_c = max(1.0, c3_root * c3_root, 3.0 * C2 * k_bar * (k_bar + 1.0) / c)
    if not math.isfinite(n_c):
        raise BoundError(f"N_c overflowed at K_bar = {k_bar:.3g}")
    return k_bar, math.ceil(n_c)
