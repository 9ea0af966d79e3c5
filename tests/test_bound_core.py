import math

import mpmath as mp
import numpy as np
import pytest

from driftbound import bound_core
from driftbound.bound_core import (
    BoundError,
    DerivedConstants,
    DriftParameters,
    MinorizationCertificate,
    derive_alpha_lambda,
    derived_constants,
    evaluate_bound,
    mixing_time_certificate,
)


def _params(lam=0.5, b=1.0, d=10.0, e0=0.0):
    return DriftParameters(lam=lam, b_drift=b, d_small=d, initial_drift_expectation=e0)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_drift_parameter_bounds():
    with pytest.raises(BoundError):
        DriftParameters(lam=1.0, b_drift=1.0, d_small=10.0)
    with pytest.raises(BoundError):
        DriftParameters(lam=0.5, b_drift=-0.1, d_small=10.0)
    # the small-set level must strictly exceed 2*b/(1-lambda); 4 sits on it
    with pytest.raises(BoundError, match="2\\*b"):
        DriftParameters(lam=0.5, b_drift=1.0, d_small=4.0)


def test_minorization_certificate_bounds():
    with pytest.raises(BoundError):
        MinorizationCertificate(epsilon=0.0)
    with pytest.raises(BoundError):
        MinorizationCertificate(epsilon=1.0, q_mass_lower=1.0)
    with pytest.raises(BoundError):
        MinorizationCertificate(epsilon=0.5, q_mass_lower=1.5)


def test_derived_constants_consistency_check():
    with pytest.raises(BoundError):
        DerivedConstants(alpha=1.5, Lambda=2.0, r=0.5, gamma=0.9, log_inv_gamma=0.5)
    with pytest.raises(BoundError):
        DerivedConstants(alpha=1.5, Lambda=2.0, r=1.2, gamma=0.9,
                         log_inv_gamma=-math.log(0.9))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_alpha_lambda_examples():
    alpha, lam_cap = derive_alpha_lambda(_params(0.5, 1.0, 10.0))
    assert alpha == pytest.approx(11.0 / 8.0, rel=1e-15)
    assert lam_cap == pytest.approx(13.0, rel=1e-15)

    alpha, lam_cap = derive_alpha_lambda(_params(0.9, 0.1, 4.0))
    assert 1.0 / alpha == pytest.approx(0.96, rel=1e-14)
    assert lam_cap == pytest.approx(8.4, rel=1e-14)


def test_alpha_error_when_small_set_too_small():
    class Stub:
        lam, b_drift, d_small = 0.5, 1.0, 3.0  # violates the level threshold

    with pytest.raises(BoundError, match="small set too small"):
        derive_alpha_lambda(Stub())


def _balanced(eps=0.5, q=1.0):
    """derived_constants at alpha = 1.375 and Lambda = 13, both exact."""
    return derived_constants(_params(0.5, 1.0, 10.0), MinorizationCertificate(eps, q))


def test_optimal_r_frozen_oracle():
    # frozen from a 40-digit reference evaluation of both closed forms
    dc = _balanced()
    assert (dc.alpha, dc.Lambda) == (1.375, 13.0)
    assert dc.r == pytest.approx(0.089039355567371063, rel=1e-13)
    assert dc.gamma == pytest.approx(0.94014855565830643, rel=1e-13)
    other = (1.0 / 1.375) * (1.375 * 13.0) ** dc.r
    assert abs(dc.gamma - other) <= 1e-12 * dc.gamma


def test_optimal_r_direct_evaluation():
    dc = _balanced()
    assert dc.r == pytest.approx(math.log(1.375) / math.log(1.375 * 13.0 / 0.5), rel=1e-15)
    assert dc.gamma == pytest.approx(0.5 ** dc.r, rel=1e-15)
    assert dc.log_inv_gamma == pytest.approx(dc.r * math.log(2.0), rel=1e-15)


def test_optimal_r_rejects_degenerate_mass():
    with pytest.raises(BoundError, match="no minorization mass"):
        _balanced(q=0.0)

    class Whole:  # a full-mass certificate that MinorizationCertificate refuses
        epsilon, q_mass_lower = 1.0, 1.0

    with pytest.raises(BoundError, match="eps_q must be < 1"):
        derived_constants(_params(0.5, 1.0, 10.0), Whole())


def test_rate_that_rounding_swamps_is_refused(monkeypatch):
    # alpha that rounds to 1 has no rate, and one ulp above 1 the rounding
    # budget 16u/log(alpha) exceeds the rate itself: both are typed failures
    for alpha, message in ((1.0, "alpha must exceed 1"),
                           (1.0 + 2.0**-52, "log\\(1/gamma\\) must be positive")):
        monkeypatch.setattr(bound_core, "derive_alpha_lambda", lambda p, a=alpha: (a, 13.0))
        with pytest.raises(BoundError, match=message):
            derived_constants(_params(0.5, 1.0, 10.0), MinorizationCertificate(0.5, 1.0))


def test_balanced_identity_randomized():
    rng = np.random.default_rng(8)
    for _ in range(50):
        lam = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.0, 5.0)
        d = 2.0 * b / (1.0 - lam) * rng.uniform(1.05, 4.0) + rng.uniform(0.1, 2.0)
        eps_q = rng.uniform(0.005, 0.99)
        p = _params(lam, b, d)
        dc = derived_constants(p, MinorizationCertificate(epsilon=eps_q, q_mass_lower=1.0))
        # both sides without the rate's rounding budget, which the reported
        # gamma carries
        balanced = math.exp(dc.r * math.log1p(-eps_q))
        other = math.exp(dc.r * math.log(dc.alpha * dc.Lambda) - math.log(dc.alpha))
        assert abs(balanced - other) <= 1e-12 * balanced
        assert dc.log_inv_gamma <= -dc.r * math.log1p(-eps_q)


# ---------------------------------------------------------------------------
# bound evaluation
# ---------------------------------------------------------------------------


def _mp_bound(lam, b, d, e0, eps_q, k):
    mp.mp.dps = 40
    lam, b, d, e0, eps_q = map(mp.mpf, (lam, b, d, e0, eps_q))
    alpha = (1 + d) / (1 + 2 * b + lam * d)
    cap = 1 + 2 * (lam * d + b)
    r = mp.log(alpha) / mp.log(alpha * cap / (1 - eps_q))
    c0 = 1 + e0 + b / (1 - lam)
    t1 = (1 - eps_q) ** (r * k)
    t2 = ((alpha * cap) ** (r * k) * c0 - alpha ** (r * k)) / (alpha**k - alpha ** (r * k))
    return t1, t2


def test_bound_frozen_oracle_k100():
    p = _params(0.5, 1.0, 10.0, 0.0)
    m = MinorizationCertificate(epsilon=0.5, q_mass_lower=1.0)
    dc = derived_constants(p, m)
    val = evaluate_bound(p, m, dc, 100)
    # frozen from a 40-digit term-by-term reference evaluation
    assert val == pytest.approx(0.0083504197998679341, rel=1e-12)
    t1, t2 = _mp_bound(0.5, 1.0, 10.0, 0.0, 0.5, 100)
    assert val == pytest.approx(float(t1 + t2), rel=1e-12)
    assert float(t1) == pytest.approx(0.0020876049500295555, rel=1e-12)
    assert float(t2) == pytest.approx(0.0062628148498383785, rel=1e-12)


def test_bound_decays_beyond_crossover():
    p = _params(0.5, 1.0, 10.0)
    m = MinorizationCertificate(epsilon=0.5, q_mass_lower=1.0)
    dc = derived_constants(p, m)
    ks = [1, 2, 5, 10, 20, 50, 100, 300, 1000, 10_000, 100_000, 1_000_000]
    vals = [evaluate_bound(p, m, dc, k) for k in ks]
    peak = int(np.argmax(vals))
    assert all(vals[i] >= vals[i + 1] for i in range(peak, len(vals) - 1))
    assert vals[-1] < 1e-12
    assert all(math.isfinite(v) for v in vals)


def test_classic_bound_k1_positive_finite():
    # the classic certificate: the whole space as the good set and full
    # minorization mass
    p = _params(0.5, 1.0, 10.0)
    m = MinorizationCertificate(epsilon=0.5, q_mass_lower=1.0)
    val = evaluate_bound(p, m, derived_constants(p, m), 1)
    assert math.isfinite(val) and val > 0.0


def test_bound_monotone_in_mass_offset_and_start():
    rng = np.random.default_rng(21)
    for _ in range(40):
        lam = rng.uniform(0.1, 0.9)
        b = rng.uniform(0.1, 3.0)
        d = 2.0 * (b * 1.3) / (1.0 - lam) * rng.uniform(1.1, 2.5)
        k = int(rng.integers(2, 200))
        eps_q = rng.uniform(0.05, 0.9)

        def value(b_=b, e0=0.0, eq=eps_q):
            p = _params(lam, b_, d, e0)
            m = MinorizationCertificate(epsilon=eq, q_mass_lower=1.0)
            return evaluate_bound(p, m, derived_constants(p, m), k)

        assert value(eq=min(eps_q * 1.1, 0.95)) <= value() * (1.0 + 1e-12)
        assert value(b_=b * 1.2) >= value() * (1.0 - 1e-12)
        assert value(e0=1.0) >= value()


def test_no_overflow_for_huge_k():
    p = _params(0.9, 0.5, 50.0)
    m = MinorizationCertificate(epsilon=1e-6, q_mass_lower=0.5)
    dc = derived_constants(p, m)
    for k in (1, 1000, 1_000_000):
        v = evaluate_bound(p, m, dc, k)
        assert math.isfinite(v) and v >= 0.0


def test_evaluate_bound_k_validation():
    p = _params()
    m = MinorizationCertificate(epsilon=0.5, q_mass_lower=1.0)
    dc = derived_constants(p, m)
    with pytest.raises(BoundError):
        evaluate_bound(p, m, dc, 0)


# ---------------------------------------------------------------------------
# mixing-time certificate
# ---------------------------------------------------------------------------


def test_mixing_certificate_frozen():
    # frozen: ceil(6.80239.../0.0615105...) = 111
    k_bar, n_c = mixing_time_certificate(3.0, 1.0, 1.0, math.log(1.0 / 0.94035), 0.01)
    assert k_bar == 111
    assert n_c == math.ceil(max(1.0, (111 * 3.0 / 0.01) ** 2, 3.0 * 111 * 112 / 0.01))


def test_mixing_certificate_sample_size_covers_the_quadratic_term():
    # C2*k(1+k)/n <= c/3 binds here: K_bar = 35 needs n >= 3*100*35*36/0.25,
    # far beyond the (35*3*0.01/0.25)^2 = 17.64 of the C3 term
    c = 0.25
    k_bar, n_c = mixing_time_certificate(3.0, 100.0, 0.01, math.log(1.0 / 0.9), c)
    assert k_bar == 35
    assert n_c == 1_512_000
    assert 100.0 * k_bar * (1 + k_bar) / n_c <= c / 3.0
    assert 0.01 * k_bar / math.sqrt(n_c) <= c / 3.0


def test_mixing_certificate_small_target_gap():
    k_bar, _ = mixing_time_certificate(0.5, 1.0, 1.0, math.log(1.0 / 0.5), 0.6)
    assert k_bar >= 1


def test_mixing_certificate_diverges_as_gamma_tends_to_one():
    k_small, _ = mixing_time_certificate(3.0, 1.0, 1.0, math.log(1.0 / 0.9), 0.1)
    k_big, _ = mixing_time_certificate(3.0, 1.0, 1.0, math.log(1.0 / (1.0 - 1e-9)), 0.1)
    assert k_big > 1e8 * k_small


def test_mixing_certificate_overflow_is_a_typed_error_naming_the_threshold():
    # at log(1/gamma) = 5.2e-253, K_bar is about 1e253 and fits a float,
    # but (K_bar*3*C3/c)^2 does not; below about 1e-308 K_bar itself does not
    with pytest.raises(BoundError, match="N_c overflowed"):
        mixing_time_certificate(3.0, 1.0, 1.0, 5.2e-253, 0.25)
    for log_inv_gamma in (1e-310, 5e-324):
        with pytest.raises(BoundError, match="K_bar overflowed"):
            mixing_time_certificate(3.0, 1.0, 1.0, log_inv_gamma, 0.25)


def test_mixing_certificate_log_rate_path():
    # gamma = 1 leaves no rate; a log rate of 1e-12, where gamma rounds to
    # 1.0, still certifies
    with pytest.raises(BoundError):
        mixing_time_certificate(3.0, 1.0, 1.0, math.log(1.0 / 1.0), 0.25)
    k_bar, n_c = mixing_time_certificate(3.0, 1.0, 1.0, 1e-12, 0.25)
    assert k_bar > 1e12 and n_c > k_bar
