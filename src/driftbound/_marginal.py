"""Exact summary-state recursion for the Gibbs sweep.

The sweep's conditional law depends on the current state only through
(theta_bar, A), and every simulated diagnostic in this package is a
function of (theta_bar, A); pushing the chain down to the summaries
(mu, theta_bar, S, A) is therefore lossless and removes the factor-n cost
of drawing latent mean vectors.  Given (theta_bar, A):

    mu'  = theta_bar + sqrt(A/n) * Z0
    tb'  = (mu'*V + y_bar*A)/(V+A) + sqrt(s2/n) * Z1,   s2 = A*V/(V+A)
    Ssum = (sqrt(rho^2 * delta) + sqrt(s2) * Z2)^2 + s2 * W,
           W ~ chisq(n-2),  rho = A/(V+A)
    S'   = Ssum/(n-1)
    A'   = (b + Ssum/2) / G,   G ~ gamma(a + (n-1)/2, 1)

The Ssum form is the exact law of the centered quadratic form of the
updated latent means: their centered mean vector has squared norm
rho^2 * delta (the mu' contribution cancels in centering), and isotropic
noise splits into its component along that vector (Z2) plus an orthogonal
chi-square remainder with n-2 degrees of freedom.

Per-step draw layout (fixed; reproducibility depends on it):
three standard normals (Z0, Z1, Z2), one chi-square, one standard gamma.

The long-chain loop :func:`run_summary_chain` records the state after every
step; burn-in and the induced chain on a band are a slice and a mask of
that path, taken by its callers (see simulation).

It solves each slice of the path as the bitwise fixed point of the sweep
applied across time.  A' does not depend on theta_bar, so the A path is
settled first, then the theta_bar path, which is affine given A.  A pass
recomputes every step from its predecessor in the current guess; with the
slice's start held, the first step is exact after one pass, and a pass
whose first changed bit is at step d certifies every step up to d, so each
pass certifies at least one more step.  A pass that changes no bit (the
values compared as int64) leaves a path that satisfies the recursion at
every step, which by induction from the start is the sequential path, bit
for bit.  Where the sweep contracts fast (the tight model), a slice
settles in 11-15 passes a stage; where it does not (the classic V = 1
model takes 50-170), the scalar sweep is faster.  Each chain picks its route
from its own first window: if that settles within the pass budget, later
slices are solved by passes, and a slice that runs past the budget is
finished by the scalar sweep from its certified prefix; otherwise the
chain keeps the scalar sweep.  The route never changes the path.
"""

from __future__ import annotations

import math

import numpy as np

from .hier_model import Dataset, LargeSetSpec, ModelConfig
from .numerics import RngStream


def _make_stages(sqrt, n, v, ybar, sqrt_delta, b_prior):
    """The sweep split into its A stage and its theta_bar stage.

    ``a_stage`` maps A to the A' proposal from the draws (Z2, W, G); it does
    not read theta_bar.  Given the pre-step A, the theta_bar stage is affine:
    ``tb_terms`` gives its terms ``(k, e, va, h)`` from (A, Z0, Z1), and
    ``tb_stage`` maps theta_bar to ``((theta_bar + k)*V + e)/va + h``, with
    ``theta_bar + k`` the location mu'.

    ``sqrt`` is ``math.sqrt`` for Python floats and ``np.sqrt`` for arrays;
    both round correctly, so the two paths agree bit for bit.  The square
    is written ``root * root`` because a float's ``root ** 2`` goes through
    libm ``pow``, which can miss the correctly rounded product by one ulp.
    """

    def a_stage(a, z2, w, gam):
        va = v + a
        s2 = a * v / va
        root = a / va * sqrt_delta + sqrt(s2) * z2
        return (b_prior + 0.5 * (root * root + s2 * w)) / gam

    def tb_terms(a, z0, z1):
        va = v + a
        return sqrt(a / n) * z0, ybar * a, va, sqrt(a * v / va / n) * z1

    def tb_stage(tb, k, e, va, h):
        return ((tb + k) * v + e) / va + h

    return a_stage, tb_terms, tb_stage


class MarginalKernel:
    """The summary-state sweep and its per-step draw layout.

    The sweep's two stages (see :func:`_make_stages`) are built once from
    the model constants, the A stage for Python floats and for arrays;
    :meth:`step_arrays` and :func:`run_summary_chain` both run them.
    """

    __slots__ = ("a1", "df", "_scalar_a", "_array_a", "_tb_terms", "_tb_stage")

    def __init__(self, ds: Dataset, cfg: ModelConfig):
        self.a1 = cfg.prior_shape_a + 0.5 * (ds.n - 1)
        self.df = ds.n - 2
        consts = (ds.n, cfg.V, ds.y_bar, math.sqrt(ds.delta), cfg.prior_scale_b)
        self._scalar_a = _make_stages(math.sqrt, *consts)[0]
        self._array_a, self._tb_terms, self._tb_stage = _make_stages(np.sqrt, *consts)

    def draw_block(self, stream: RngStream, n_steps: int):
        """Draws for ``n_steps`` sweeps in the documented per-step order."""
        g = stream.generator
        z = g.standard_normal((n_steps, 3))
        w = g.chisquare(self.df, n_steps) if self.df > 0 else np.zeros(n_steps)
        gam = g.standard_gamma(self.a1, n_steps)
        return z, w, gam

    def step_arrays(self, tb, a, z0, z1, z2, w, gam, band: LargeSetSpec | None = None):
        """One sweep applied elementwise across chains; returns (mu', tb', A').

        With ``band``, an A' landing outside it is rejected and A kept (the
        per-sub-step rejection kernel, see :func:`run_summary_chain`).
        """
        k, e, va, h = self._tb_terms(a, z0, z1)
        return tb + k, self._tb_stage(tb, k, e, va, h), self._a_arrays(a, z2, w, gam, band)

    def _a_arrays(self, a, z2, w, gam, band):
        """The A stage on arrays, with the band rejection of step_arrays."""
        a_new = self._array_a(a, z2, w, gam)
        return a_new if band is None else np.where(band.contains(a_new), a_new, a)


# draws per block of the long-chain loop; a block boundary fixes where the
# normals of one block end and its chi-squares begin, so it never moves
_BLOCK = 1_000_000
# steps per slice of a block: the window one set of fixed-point passes
# solves, and the most steps turned into Python floats at a time; a slice
# only bounds memory and work, so it moves no draw
_SLICE = 16_384
# steps of a chain's first window, whose passes pick the chain's route
_PROBE = 4_096
# fixed-point passes a window may take per stage before the scalar sweep
# finishes it; the tight model settles in 11-15, the classic in 50-170
_PASSES = 32


def _settle(path, stage, passes):
    """Fixed-point passes ``path[t+1] = stage(path[t], t)`` on ``path[1:]``
    with ``path[0]`` held, in place, from the guess ``path[0]`` at every
    step; returns how many leading steps are certified equal to the
    sequential recursion.

    A pass recomputes every uncertified step from its predecessor.  If its
    first changed bit is at step d, steps up to d read certified inputs
    and so are certified too; a pass that changes no bit leaves a fixed
    point, which by induction from ``path[0]`` is the sequential path.
    """
    done, n = 0, path.size - 1
    path[1:] = path[0]
    for _ in range(passes):
        new = stage(path[done:n], slice(done, n))
        changed = new.view(np.int64) != path[done + 1:].view(np.int64)
        path[done + 1:] = new
        d = int(changed.argmax())
        done = done + d + 1 if changed[d] else n
        if done == n:
            break
    return done


def _solve_slice(kernel, z, w, gam, band, passes, pa, ptb):
    """Solve one slice: ``pa`` and ``ptb`` hold the start state at [0] and
    receive the path after each step.  The A path settles first, since A'
    does not depend on theta_bar; then the affine theta_bar path.  A stage
    not settled within ``passes`` is finished by the scalar sweep from its
    certified prefix.  Returns whether both stages settled."""
    z2 = z[:, 2]
    ca = _settle(pa, lambda a, cut: kernel._a_arrays(a, z2[cut], w[cut], gam[cut], band),
                 passes)
    if ca < pa.size - 1:
        lo, hi = (band.a_low, band.a_high) if band is not None else (-math.inf, math.inf)
        a_stage, a, out = kernel._scalar_a, float(pa[ca]), []
        for z2_t, w_t, gam_t in zip(z2[ca:].tolist(), w[ca:].tolist(), gam[ca:].tolist()):
            a_new = a_stage(a, z2_t, w_t, gam_t)
            if lo <= a_new <= hi:
                a = a_new
            out.append(a)
        pa[ca + 1:] = out

    terms = kernel._tb_terms(pa[:-1], z[:, 0], z[:, 1])
    tb_stage = kernel._tb_stage
    ctb = _settle(ptb, lambda tb, cut: tb_stage(tb, *(x[cut] for x in terms)), passes)
    if ctb < ptb.size - 1:
        tb, out = float(ptb[ctb]), []
        for k, e, va, h in zip(*(x[ctb:].tolist() for x in terms)):
            tb = tb_stage(tb, k, e, va, h)
            out.append(tb)
        ptb[ctb + 1:] = out
    return ca == ctb == pa.size - 1


def run_summary_chain(
    kernel: MarginalKernel,
    start: tuple[float, float],
    n_steps: int,
    stream: RngStream,
    band: LargeSetSpec | None = None,
):
    """Sequential summary chain; returns the (theta_bar, A) path after each
    of its ``n_steps`` steps as two arrays, the final state last.

    With ``band``, the per-sub-step rejection construction: an A' proposal
    landing outside the band is discarded and A kept (the mu and theta
    stages cannot leave a band that constrains A alone).

    The path is solved one ``_SLICE`` of a draw block at a time, as the
    bitwise fixed point of the sweep applied across the slice (see
    :func:`_settle`): first the A path, then the theta_bar path.  The
    chain's first ``_PROBE`` steps pick its route: if they settle within
    ``_PASSES`` passes, every later slice is solved by passes; otherwise
    the chain keeps the scalar sweep.  Both routes give the same bits as
    the step-by-step sweep, and the draw sequence matches draw_block.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    out_tb = np.empty(n_steps + 1)
    out_a = np.empty(n_steps + 1)
    out_tb[0], out_a[0] = start
    passes = _PASSES
    for done in range(0, n_steps, _BLOCK):
        m = min(_BLOCK, n_steps - done)
        z, w, gam = kernel.draw_block(stream, m)
        s = 0
        while s < m:
            e = min(m, _PROBE if done + s == 0 else s + _SLICE)
            path = slice(done + s, done + e + 1)
            settled = _solve_slice(kernel, z[s:e], w[s:e], gam[s:e], band, passes,
                                   out_a[path], out_tb[path])
            if done + s == 0 and not settled:
                passes = 0
            s = e
    return out_tb[1:], out_a[1:]
