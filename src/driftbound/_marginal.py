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
"""

from __future__ import annotations

import math

import numpy as np

from .hier_model import Dataset, LargeSetSpec, ModelConfig, data_center
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
    """The summary-state sweep, its per-step draw layout and the energy.

    The sweep is built once from the model constants, for Python floats
    (:func:`run_summary_chain`) and for arrays (:meth:`step_arrays`).
    """

    __slots__ = ("n", "ybar", "center", "a1", "df", "_scalar_sweep", "_array_sweep")

    def __init__(self, ds: Dataset, cfg: ModelConfig):
        self.n = ds.n
        self.ybar = ds.y_bar
        self.center = data_center(ds, cfg)
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

    def energy(self, tb, a):
        """The drift function n*((theta_bar - y_bar)^2 + (center - A)^2)."""
        return self.n * ((tb - self.ybar) ** 2 + (self.center - a) ** 2)


def run_summary_chain(
    kernel: MarginalKernel,
    start: tuple[float, float],
    n_steps: int,
    stream: RngStream,
    burn_in: int = 0,
    thin: int = 1,
    restrict: LargeSetSpec | None = None,
    keep_only_in: LargeSetSpec | None = None,
):
    """Sequential summary chain; returns recorded (theta_bar, A) arrays.

    ``restrict`` applies the per-sub-step rejection construction: an A'
    proposal landing outside the band is discarded and A kept (the mu and
    theta stages cannot leave a band that constrains A alone).
    ``keep_only_in`` instead records only the steps whose state lies in the
    band ("stopping the clock"): the recorded sequence is the induced chain
    on the band.  Recording starts after ``burn_in`` steps, every ``thin``-th
    eligible step.  The inner loop runs the kernel's sweep on Python floats
    from pre-drawn blocks; the draw sequence matches draw_block exactly.

    Returns ``(theta_bar_records, a_records, (theta_bar, a))`` with the
    final state last so callers can continue the chain.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if restrict is not None and keep_only_in is not None:
        raise ValueError("restrict and keep_only_in are mutually exclusive")
    sweep = kernel._scalar_sweep
    lo = hi = None
    if restrict is not None:
        lo, hi = restrict.a_low, restrict.a_high
    klo = khi = None
    if keep_only_in is not None:
        klo, khi = keep_only_in.a_low, keep_only_in.a_high

    cap = n_steps if keep_only_in is not None else max(0, (n_steps - burn_in + thin - 1) // thin)
    out_tb = np.empty(cap)
    out_a = np.empty(cap)
    n_rec = 0

    tb, a = float(start[0]), float(start[1])
    block = 1_000_000
    done = 0
    next_record = burn_in
    while done < n_steps:
        m = min(block, n_steps - done)
        z, w, gam = kernel.draw_block(stream, m)
        draws = zip(z[:, 0].tolist(), z[:, 1].tolist(), z[:, 2].tolist(),
                    w.tolist(), gam.tolist())
        for t, (z0, z1, z2, wi, gi) in enumerate(draws, done):
            _, tb, a_new = sweep(tb, a, z0, z1, z2, wi, gi)
            if lo is None or lo <= a_new <= hi:
                a = a_new
            if t >= next_record:
                if klo is not None:
                    if klo <= a <= khi:
                        out_tb[n_rec] = tb
                        out_a[n_rec] = a
                        n_rec += 1
                    next_record = t + 1
                else:
                    out_tb[n_rec] = tb
                    out_a[n_rec] = a
                    n_rec += 1
                    next_record = t + thin
        done += m
    return out_tb[:n_rec].copy(), out_a[:n_rec].copy(), (tb, a)
