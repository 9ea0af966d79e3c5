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
"""

from __future__ import annotations

import math

import numpy as np

from .hier_model import Dataset, LargeSetSpec, ModelConfig
from .numerics import RngStream


def _make_sweep(sqrt, n, v, ybar, sqrt_delta, b_prior):
    """The sweep (theta_bar, A) -> (mu', theta_bar', A') from its draws.

    ``sqrt`` is ``math.sqrt`` for Python floats and ``np.sqrt`` for arrays;
    both round correctly, so the two paths agree bit for bit.  The square
    is written ``root * root`` because a float's ``root ** 2`` goes through
    libm ``pow``, which can miss the correctly rounded product by one ulp.
    """

    def sweep(tb, a, z0, z1, z2, w, gam):
        va = v + a
        mu1 = tb + sqrt(a / n) * z0
        s2 = a * v / va
        tb1 = (mu1 * v + ybar * a) / va + sqrt(s2 / n) * z1
        root = a / va * sqrt_delta + sqrt(s2) * z2
        ssum = root * root + s2 * w
        return mu1, tb1, (b_prior + 0.5 * ssum) / gam

    return sweep


class MarginalKernel:
    """The summary-state sweep and its per-step draw layout.

    The sweep is built once from the model constants, for Python floats
    (:func:`run_summary_chain`) and for arrays (:meth:`step_arrays`).
    """

    __slots__ = ("a1", "df", "_scalar_sweep", "_array_sweep")

    def __init__(self, ds: Dataset, cfg: ModelConfig):
        self.a1 = cfg.prior_shape_a + 0.5 * (ds.n - 1)
        self.df = ds.n - 2
        consts = (ds.n, cfg.V, ds.y_bar, math.sqrt(ds.delta), cfg.prior_scale_b)
        self._scalar_sweep = _make_sweep(math.sqrt, *consts)
        self._array_sweep = _make_sweep(np.sqrt, *consts)

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
        mu1, tb1, a_new = self._array_sweep(tb, a, z0, z1, z2, w, gam)
        if band is not None:
            a_new = np.where(band.contains(a_new), a_new, a)
        return mu1, tb1, a_new


# draws per block of the long-chain loop; a block boundary fixes where the
# normals of one block end and its chi-squares begin, so it never moves
_BLOCK = 1_000_000
# steps per slice of a block turned into Python floats at a time; a slice
# only bounds memory, so it moves no draw
_SLICE = 65_536


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
    stages cannot leave a band that constrains A alone).  The inner loop
    runs the kernel's sweep on Python floats from pre-drawn blocks, one
    ``_SLICE`` of a block at a time; the draw sequence matches draw_block
    exactly.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    sweep = kernel._scalar_sweep
    lo, hi = (band.a_low, band.a_high) if band is not None else (-math.inf, math.inf)
    out_tb = np.empty(n_steps)
    out_a = np.empty(n_steps)
    tb, a = float(start[0]), float(start[1])
    for done in range(0, n_steps, _BLOCK):
        m = min(_BLOCK, n_steps - done)
        z, w, gam = kernel.draw_block(stream, m)
        for s in range(0, m, _SLICE):
            # no name holds a slice's lists, so they are freed before the next
            cut = slice(s, s + _SLICE)
            for t, (z0, z1, z2, wi, gi) in enumerate(
                    zip(z[cut, 0].tolist(), z[cut, 1].tolist(), z[cut, 2].tolist(),
                        w[cut].tolist(), gam[cut].tolist()), done + s):
                _, tb, a_new = sweep(tb, a, z0, z1, z2, wi, gi)
                if lo <= a_new <= hi:
                    a = a_new
                out_tb[t] = tb
                out_a[t] = a
    return out_tb, out_a
