import heapq
import math
import re

import numpy as np
import pytest

from driftbound import cli, minorization, numerics
from driftbound.numerics import (
    NumericsError,
    QuadratureError,
    RngStream,
    integrate,
    integrate_halfline,
    integrate_with_error,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_polynomial_integral_exact():
    assert integrate(lambda x: x**2, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_standard_normal_mass():
    val = integrate(lambda x: np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi), -8.0, 8.0)
    assert val == pytest.approx(1.0, abs=1e-9)


def _inv_gamma_pdf(shape, scale):
    const = scale**shape / math.gamma(shape)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return const * x ** (-shape - 1.0) * np.exp(-scale / x)

    return pdf


def test_inverse_gamma_normalization_halfline():
    # closed-form normalizing constant: the density integrates to one
    assert integrate_halfline(_inv_gamma_pdf(5.0, 4.0)) == pytest.approx(1.0, abs=1e-8)


def test_halfline_exponential_and_gamma_mean():
    assert integrate_halfline(lambda x: np.exp(-x)) == pytest.approx(1.0, abs=1e-9)
    assert integrate_halfline(lambda x: x * np.exp(-x)) == pytest.approx(1.0, abs=1e-9)
    # inverse-gamma(3, 2) mean = scale/(shape-1) = 1
    pdf = _inv_gamma_pdf(3.0, 2.0)
    assert integrate_halfline(lambda x: np.asarray(x) * pdf(x)) == pytest.approx(1.0, abs=1e-8)


# twenty closed-form integrals used to check that reported error estimates
# are conservative (true error <= estimate, estimate <= tolerance target)
_CLOSED_FORMS = [
    (lambda x: x**2, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: x**7, 0.0, 1.0, 1.0 / 8.0),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: np.cos(3.0 * x), 0.0, 1.0, math.sin(3.0) / 3.0),
    (lambda x: 1.0 / (1.0 + x**2), -1.0, 1.0, math.pi / 2.0),
    (lambda x: np.sqrt(x), 0.0, 4.0, 16.0 / 3.0),
    (lambda x: np.log(x), 1.0, math.e, 1.0),
    (lambda x: x * np.exp(-(x**2)), 0.0, 3.0, 0.5 * (1.0 - math.exp(-9.0))),
    (lambda x: np.cosh(x), -1.0, 1.0, 2.0 * math.sinh(1.0)),
    (lambda x: 1.0 / x, 1.0, 10.0, math.log(10.0)),
    (lambda x: np.sin(10.0 * x), 0.0, 2.0, (1.0 - math.cos(20.0)) / 10.0),
    (lambda x: np.exp(-x) * np.sin(x), 0.0, 10.0,
     0.5 * (1.0 - math.exp(-10.0) * (math.sin(10.0) + math.cos(10.0)))),
    (lambda x: x**3 - 2.0 * x, -2.0, 3.0, 65.0 / 4.0 - 5.0),
    (lambda x: np.abs(x), -1.0, 2.0, 2.5),
    (lambda x: 1.0 / np.sqrt(1.0 + x), 0.0, 3.0, 2.0),
    (lambda x: np.exp(-5.0 * x), 0.0, 10.0, (1.0 - math.exp(-50.0)) / 5.0),
    (lambda x: x / (1.0 + x**4), 0.0, 1.0, math.atan(1.0) / 2.0),
    (lambda x: np.exp(-50.0 * (x - 0.3) ** 2), 0.0, 1.0,
     math.sqrt(math.pi / 50.0) / 2.0 * (math.erf(math.sqrt(50.0) * 0.7)
                                        + math.erf(math.sqrt(50.0) * 0.3))),
    (lambda x: np.tanh(x), 0.0, 2.0, math.log(math.cosh(2.0))),
]


@pytest.mark.parametrize("f,a,b,exact", _CLOSED_FORMS)
def test_error_estimates_are_conservative(f, a, b, exact):
    val, err = integrate_with_error(f, a, b)
    assert abs(val - exact) <= err
    assert err <= 1e-8 * abs(val)


def test_nonconvergence_carries_best_estimate(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureError, match="within 4 subdivisions") as err:
        integrate(lambda x: np.sin(37.0 * x) ** 2, 0.0, 3.0)
    assert math.isfinite(err.value.best_estimate)
    assert err.value.error_estimate > 0.0


def test_integrate_rejects_bad_interval():
    with pytest.raises(NumericsError):
        integrate(lambda x: x, 1.0, 1.0)
    with pytest.raises(NumericsError):
        integrate(lambda x: x, 0.0, math.inf)


def test_integrate_reports_nonfinite_abscissa():
    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.5, np.nan, 1.0)

    with pytest.raises(NumericsError, match="non-finite"):
        integrate(f, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_overflowing_panel_sum_is_a_typed_failure():
    # every value is finite, but the Kronrod sum of the one panel overflows;
    # the typed error is the only output, with no numpy overflow warning
    with pytest.raises(NumericsError, match=r"overflowed on the panel \[0\.0, 10\.0\]"):
        integrate(lambda x: np.full_like(x, 1e308), 0.0, 10.0)
    # +inf and -inf in one panel give its sums inf - inf: the value is
    # named, again with no numpy warning
    with pytest.raises(NumericsError, match=r"non-finite value at x="):
        integrate(lambda x: np.where(x < 5.0, np.inf, -np.inf), 0.0, 10.0)


def test_integrand_of_wrong_shape_rejected():
    with pytest.raises(NumericsError, match="shape"):
        integrate(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(NumericsError, match="shape"):
        integrate_halfline(lambda x: np.exp(-x)[:-1])


# ---------------------------------------------------------------------------
# one integrand call per refinement step, bit for bit
# ---------------------------------------------------------------------------

# The adaptive loop as it was when each panel took its own integrand call:
# the reference that the batched loop must reproduce bit for bit.


def _sequential_gk15(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * numerics._NODES
    y = numerics._eval_array(f, x)
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise NumericsError(f"integrand returned a non-finite value at x={bad!r}")
    k = half * float(numerics._KRONROD_W @ y)
    g = half * float(numerics._GAUSS_W @ y[numerics._GAUSS_IDX])
    return k, abs(k - g)


def _sequential_gk(f, a, b, breakpoints=None):
    edges = [a, b]
    if breakpoints:
        edges.extend(p for p in breakpoints if a < p < b)
    edges = sorted(set(edges))
    heap = []
    total_val = 0.0
    total_err = 0.0
    for i in range(len(edges) - 1):
        val, err = _sequential_gk15(f, edges[i], edges[i + 1])
        heapq.heappush(heap, (-err, i, edges[i], edges[i + 1], val, err))
        total_val += val
        total_err += err
    tie = len(heap)
    n_panels = len(heap)
    while total_err > max(numerics._ABS_FLOOR, numerics._REL_TOL * abs(total_val)):
        if n_panels >= numerics._MAX_PANELS:
            raise QuadratureError("did not converge", total_val, total_err)
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError("interval collapsed", total_val, total_err)
        v1, e1 = _sequential_gk15(f, lo, mid)
        v2, e2 = _sequential_gk15(f, mid, hi)
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, tie, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, tie + 1, mid, hi, v2, e2))
        tie += 2
        n_panels += 1
    total_val = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    return total_val, total_err


def _peaked(x):
    return np.exp(-0.5 * ((x - 0.3) / 0.003) ** 2) + 1.0 / (1.0 + x**2)


_PEAKED = (_peaked, -1.0, 2.0, [0.29, 0.3, 1.5])


def _captured_integrals(monkeypatch, module, run):
    """The (f, a, b, breakpoints) of every ``module.integrate`` call made by run()."""
    calls = []
    real = module.integrate

    def recording(f, a, b, breakpoints=None):
        calls.append((f, a, b, breakpoints))
        return real(f, a, b, breakpoints)

    with monkeypatch.context() as m:
        m.setattr(module, "integrate", recording)
        run()
    return calls


@pytest.fixture(scope="module")
def certificate_integrals(tmp_path_factory):
    """The three certificate quadratures of the default config at n = 100
    and 6400, as the certify sweep makes them."""
    out = tmp_path_factory.mktemp("sweep")
    with pytest.MonkeyPatch.context() as mp:
        calls = _captured_integrals(
            mp, minorization,
            lambda: cli.main(["sweep-n", "--n-list", "100,6400", "--out", str(out)]),
        )
    assert len(calls) == 6
    return calls


def _halfline_integral(monkeypatch):
    pdf = _inv_gamma_pdf(5.0, 4.0)
    (call,) = _captured_integrals(monkeypatch, numerics, lambda: integrate_halfline(pdf))
    return call


def _assert_bitwise(f, a, b, breakpoints):
    batched = integrate_with_error(f, a, b, breakpoints)
    sequential = _sequential_gk(f, float(a), float(b), breakpoints)
    assert [v.hex() for v in batched] == [v.hex() for v in sequential]


@pytest.mark.parametrize("f,a,b,exact", _CLOSED_FORMS)
def test_batched_closed_forms_match_sequential_bitwise(f, a, b, exact):
    _assert_bitwise(f, a, b, None)


def test_batched_peaked_and_halfline_match_sequential_bitwise(monkeypatch):
    _assert_bitwise(*_PEAKED)
    _assert_bitwise(*_halfline_integral(monkeypatch))


def test_batched_certificate_integrals_match_sequential_bitwise(certificate_integrals):
    for call in certificate_integrals:
        _assert_bitwise(*call)


def _counted(f):
    record = {"calls": 0, "points": 0}

    def counting(x):
        record["calls"] += 1
        record["points"] += x.size
        return f(x)

    return counting, record


def _assert_one_call_per_step(f, a, b, breakpoints):
    counting, record = _counted(f)
    integrate_with_error(counting, a, b, breakpoints)
    initial = len({a, b, *(p for p in breakpoints or () if a < p < b)}) - 1
    splits, rest = divmod(record["points"] // 15 - initial, 2)
    assert record["points"] % 15 == 0 and rest == 0
    assert splits > 0
    assert record["calls"] == 1 + splits


def test_one_integrand_call_per_refinement_step(certificate_integrals):
    _assert_one_call_per_step(*_PEAKED)
    for call in certificate_integrals:
        _assert_one_call_per_step(*call)


def test_nonfinite_value_deep_in_the_refinement_names_its_panel():
    # the peak at 0.3 is split seven times before the halves of
    # [0.296875, 0.3125] are evaluated; only the center of the right half,
    # 0.30859375, is NaN
    lo, hi = 0.3046875, 0.3125

    def f(x):
        return np.where(x == 0.5 * (lo + hi), np.nan, np.exp(-0.5 * ((x - 0.3) / 0.003) ** 2))

    counting, record = _counted(f)
    with pytest.raises(NumericsError, match="non-finite") as batched:
        integrate(counting, 0.0, 1.0)
    assert record["calls"] == 8
    bad = float(re.search(r"x=np\.float64\((.*)\)", str(batched.value)).group(1))
    assert lo < bad < hi
    with pytest.raises(NumericsError) as sequential:
        _sequential_gk(f, 0.0, 1.0)
    assert str(batched.value) == str(sequential.value)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


def test_stream_determinism_and_independence():
    a = RngStream(42, 7).generator.normal(0.0, 1.0, 1000)
    b = RngStream(42, 7).generator.normal(0.0, 1.0, 1000)
    c = RngStream(42, 8).generator.normal(0.0, 1.0, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_key_validation():
    with pytest.raises(NumericsError):
        RngStream(-1, 0)
    with pytest.raises(NumericsError):
        RngStream(0, 2**64)
    with pytest.raises(NumericsError):
        list(RngStream.each(0, [1, 2**64]))


def _uint32s(g):
    return g.integers(0, 2**32, 3, dtype=np.uint32)


def test_rekeyed_streams_equal_fresh_streams():
    # each stream starts where the last one left the shared generator: an
    # odd number of uint32s leaves half a 64-bit word buffered, which a
    # re-keyed stream must not hand out as its own first uint32
    indices = [0, 5, 2**64 - 1, 5, 123_456_789]
    for i, stream in zip(indices, RngStream.each(11, indices)):
        assert (stream.seed, stream.stream_index) == (11, i)
        g, fresh = stream.generator, RngStream(11, i).generator
        assert np.array_equal(_uint32s(g), _uint32s(fresh))
        assert np.array_equal(g.standard_normal(7), fresh.standard_normal(7))
        assert np.array_equal(g.standard_gamma(2.5, 5), fresh.standard_gamma(2.5, 5))
        assert np.array_equal(g.chisquare(98, 3), fresh.chisquare(98, 3))
        assert np.array_equal(_uint32s(g), _uint32s(fresh))


# The moment checks below draw in the idioms the samplers use on keyed
# streams: normal(mean, sd), standard_gamma(shape)/rate, and the
# inverse gamma as scale / standard_gamma(shape).


@pytest.mark.parametrize("mean,var", [
    (0.0, 1.0), (1.0, 1.0), (-2.0, 0.25), (0.0, 9.0), (5.0, 4.0),
    (0.3, 0.01), (-0.7, 2.5), (10.0, 0.5), (0.0, 100.0), (1e3, 1.0),
])
def test_normal_moments(mean, var):
    g = RngStream(3, hash((mean, var)) % 2**63).generator
    x = g.normal(mean, math.sqrt(var), 1_000_000)
    se_mean = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - mean) <= 4.0 * se_mean
    m2 = x**2
    assert abs(m2.mean() - (var + mean**2)) <= 4.0 * m2.std() / math.sqrt(x.size)


@pytest.mark.parametrize("shape,rate", [
    (0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (3.0, 2.0), (5.0, 4.0),
    (10.0, 1.0), (0.7, 3.0), (52.5, 1.0), (4.0, 10.0), (1.5, 0.2),
])
def test_gamma_moments(shape, rate):
    g = RngStream(5, hash((shape, rate)) % 2**63).generator
    x = g.standard_gamma(shape, 1_000_000) / rate
    se_mean = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - shape / rate) <= 4.0 * se_mean
    m2 = x**2
    exact_m2 = shape * (shape + 1.0) / rate**2
    assert abs(m2.mean() - exact_m2) <= 4.0 * m2.std() / math.sqrt(x.size)


@pytest.mark.parametrize("shape,scale", [
    (3.0, 1.0), (4.0, 2.0), (5.0, 4.0), (6.0, 1.0), (8.0, 3.0),
    (10.0, 10.0), (4.5, 0.5), (7.0, 2.5), (12.0, 6.0), (20.0, 5.0),
])
def test_inverse_gamma_moments(shape, scale):
    g = RngStream(7, hash((shape, scale)) % 2**63).generator
    x = scale / g.standard_gamma(shape, 1_000_000)
    se_mean = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - scale / (shape - 1.0)) <= 4.0 * se_mean
    m2 = x**2
    exact_m2 = scale**2 / ((shape - 1.0) * (shape - 2.0))
    assert abs(m2.mean() - exact_m2) <= 4.0 * m2.std() / math.sqrt(x.size)


def test_inverse_gamma_frozen_examples():
    # mean = scale/(shape-1) = 1 and second moment = 16/12 = 4/3 for (5, 4)
    x = 4.0 / RngStream(11, 0).generator.standard_gamma(5.0, 1_000_000)
    assert abs(x.mean() - 1.0) <= 3.0 * x.std() / math.sqrt(x.size)
    m2 = x**2
    assert abs(m2.mean() - 4.0 / 3.0) <= 3.0 * m2.std() / math.sqrt(x.size)
    z = RngStream(11, 1).generator.normal(0.0, 1.0, 1_000_000)
    assert abs(z.var() - 1.0) <= 3.0 * math.sqrt(2.0 / z.size)
