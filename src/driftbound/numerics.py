"""Deterministic numerical kernels shared by the whole package.

Adaptive Gauss-Kronrod quadrature (finite interval and half line) and
seeded random streams.  Everything here is pure given its inputs; randomness
lives only inside :class:`RngStream`, which wraps a counter-based generator
keyed by ``(seed, stream_index)`` so equal keys replay the same sequence bit
for bit and distinct indices give independent streams.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NumericsError",
    "QuadratureError",
    "RngStream",
    "integrate",
    "integrate_with_error",
    "integrate_halfline",
]


class NumericsError(Exception):
    """A numerical routine could not satisfy its contract."""


class QuadratureError(NumericsError):
    """Adaptive quadrature ran out of subdivisions.

    Carries the best estimate reached so far and its error estimate so the
    caller can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(f"{message} (best={best_estimate!r}, err={error_estimate!r})")
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

_U64 = 2**64


def _check_key(seed: int, stream_index: int) -> tuple[int, int]:
    if not (0 <= int(seed) < _U64) or not (0 <= int(stream_index) < _U64):
        raise NumericsError("seed and stream_index must be unsigned 64-bit integers")
    return int(seed), int(stream_index)


class RngStream:
    """Reproducible random stream keyed by ``(seed, stream_index)``.

    Backed by the Philox counter-based bit generator, whose 128-bit key is
    exactly the pair (seed, stream_index): distinct keys give statistically
    independent streams without any coordination.  A stream is stateful and
    must be owned by a single consumer at a time.
    """

    __slots__ = ("seed", "stream_index", "_generator")

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed, self.stream_index = _check_key(seed, stream_index)
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    @classmethod
    def each(cls, seed: int, indices):
        """Yield the stream ``(seed, i)`` for each ``i`` in ``indices``, in turn.

        One Philox is re-keyed per index: key ``(seed, i)``, counter zero and
        empty output buffers, the state a fresh ``RngStream(seed, i)`` starts
        in, so every stream draws the same values bit for bit without the cost
        of building a generator.  The same object is yielded each time, so a
        consumer must be done with one stream before it asks for the next.
        """
        stream = cls(seed)
        bit_generator = stream._generator.bit_generator
        fresh = bit_generator.state
        key = fresh["state"]["key"]
        for i in indices:
            _, stream.stream_index = _check_key(seed, i)
            key[1] = stream.stream_index
            bit_generator.state = fresh
            yield stream

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes on [-1, 1] (positive half) with weights; the embedded
# 7-point Gauss rule lives on the odd-indexed nodes.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])                       # 15 sorted nodes
_KRONROD_W = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)                                      # odd positions
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])


def _eval_array(f: Callable, x: np.ndarray) -> np.ndarray:
    """Call the vectorized integrand f on an array of abscissae."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise NumericsError(f"integrand must be vectorized: shape {y.shape} for {x.shape}")
    return y


def _gk15(f: Callable, panels: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Gauss-Kronrod 7-15 on each (lo, hi) panel, all abscissae in one call
    of f: returns (kronrod value, error estimate) per panel, in panel order.

    Each panel's sums are its own 15- and 7-term dot products scaled by its
    own half-width, so a panel's result does not depend on which panels
    share the call.  The error estimate is |K15 - G7|, which in practice
    overstates the true K15 error by a wide margin; conservatism is
    deliberate because the estimates feed certificate constants.

    A non-finite integrand value raises NumericsError naming its abscissa;
    a panel sum that overflows although every value is finite raises one
    naming the panel.
    """
    halves = [0.5 * (hi - lo) for lo, hi in panels]
    mids = [0.5 * (hi + lo) for lo, hi in panels]
    x = np.array(mids)[:, None] + np.array(halves)[:, None] * _NODES
    y = _eval_array(f, x.ravel()).reshape(x.shape)
    out = []
    # every Kronrod weight is positive, so a non-finite value makes its
    # panel's sums, and so its error estimate, non-finite: the values are
    # searched only then.  numpy's overflow and inf - inf warnings are
    # silenced, so the typed error is the only output.
    with np.errstate(over="ignore", invalid="ignore"):
        # the sums stay per row: one matrix product y @ _KRONROD_W adds in
        # another order, and differed from the per-row sums in 16,208 of
        # 29,629 random panels (numpy 2.4, x86-64), which would move outputs
        for (lo, hi), half, yk in zip(panels, halves, y):
            # yk[_GAUSS_IDX] is a contiguous copy; a strided y[:, _GAUSS_IDX]
            # row would be summed in another order
            k = half * float(_KRONROD_W @ yk)
            g = half * float(_GAUSS_W @ yk[_GAUSS_IDX])
            err = abs(k - g)
            if not math.isfinite(err):
                finite = np.isfinite(y)
                if not finite.all():
                    bad = x[~finite][0]
                    raise NumericsError(f"integrand returned a non-finite value at x={bad!r}")
                raise NumericsError(
                    f"quadrature sum overflowed on the panel [{lo!r}, {hi!r}], "
                    "where every integrand value is finite"
                )
            out.append((k, err))
    return out


# The tolerance contract of every integral: convergence is declared when the
# accumulated error estimate drops below max(_ABS_FLOOR, _REL_TOL*|result|).
# The floor sits near machine zero, so the rule is relative even for the
# mu factor of the minorization volume, which can lie many orders of
# magnitude below 1.
_REL_TOL = 1e-8
_ABS_FLOOR = 1e-300
_MAX_PANELS = 1_000_000


def _adaptive_gk(
    f: Callable,
    a: float,
    b: float,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float, float]:
    edges = [a, b]
    if breakpoints:
        edges.extend(p for p in breakpoints if a < p < b)
    edges = sorted(set(edges))

    # heap entries: (-err, tie_breaker, lo, hi, val, err)
    heap = []
    total_val = 0.0
    total_err = 0.0
    spans = list(zip(edges[:-1], edges[1:]))
    for i, ((lo, hi), (val, err)) in enumerate(zip(spans, _gk15(f, spans))):
        heapq.heappush(heap, (-err, i, lo, hi, val, err))
        total_val += val
        total_err += err

    tie = len(heap)
    n_panels = len(heap)
    while total_err > max(_ABS_FLOOR, _REL_TOL * abs(total_val)):
        if n_panels >= _MAX_PANELS:
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_PANELS} subdivisions",
                total_val,
                total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                "quadrature interval collapsed below floating-point resolution",
                total_val,
                total_err,
            )
        (v1, e1), (v2, e2) = _gk15(f, [(lo, mid), (mid, hi)])
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, tie, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, tie + 1, mid, hi, v2, e2))
        tie += 2
        n_panels += 1
    # Recompute totals from the heap to shed cancellation from the running sums.
    total_val = math.fsum(item[4] for item in heap)
    total_err = math.fsum(item[5] for item in heap)
    return total_val, total_err


def integrate_with_error(
    f: Callable,
    a: float,
    b: float,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Adaptive integral of f on [a, b]: returns (value, error estimate).

    f takes a 1-D array of abscissae and returns its values there, with the
    same shape.  It must be elementwise: its value at x may not depend on
    the other abscissae of the call, because one call carries every panel
    of a refinement step (all starting panels, then both halves of each
    split).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise NumericsError(f"need finite a < b, got a={a!r}, b={b!r}")
    return _adaptive_gk(f, float(a), float(b), breakpoints)


def integrate(
    f: Callable,
    a: float,
    b: float,
    breakpoints: Sequence[float] | None = None,
) -> float:
    """Adaptive integral of f on [a, b], to an error estimate of 1e-8 relative.

    f must be elementwise, as :func:`integrate_with_error` states.
    """
    return integrate_with_error(f, a, b, breakpoints)[0]


def integrate_halfline(
    f: Callable,
    breakpoints: Sequence[float] | None = None,
) -> float:
    """Integral of f over (0, inf) via the substitution u = x/(1+x).

    The image integral is ``f(u/(1-u)) / (1-u)^2`` on (0, 1); Kronrod nodes
    never touch the endpoints, so f is only evaluated at interior points.
    f must be elementwise, as :func:`integrate_with_error` states.
    Optional breakpoints (in the original variable) are mapped through the
    substitution, which lets callers pre-split around known sharp modes.
    """

    def g(u):
        u = np.asarray(u, dtype=float)
        x = u / (1.0 - u)
        return _eval_array(f, x) / (1.0 - u) ** 2

    mapped = None
    if breakpoints:
        mapped = [p / (1.0 + p) for p in breakpoints if p > 0.0]
    return integrate(g, 0.0, 1.0, mapped)
