"""Chain ensembles and the coupling-side constructions as executable objects.

Everything here rides on the exact summary-state recursion (see _marginal):
ensembles of independent chains, single long reference chains standing in
for the stationary law (with a band, the per-sub-step rejection chain), the
induced chain on the retained band ("stopping the clock"), binned
total-variation lower bounds, and joint return-time statistics for an
independent pair of restricted chains.

Reproducibility contract: every chain owns the stream
(seed, stream base + chain index) with a fixed per-step draw layout, chunk
boundaries are fixed constants, and cross-chunk reductions either use exact
integer arithmetic or sum per-chunk rows in a fixed order, so results are
byte-identical across repeat runs.  A long chain's path does not depend on
the route its loop takes (fixed-point passes or the scalar sweep, see
_marginal): both give the sequential sweep's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._marginal import MarginalKernel, run_summary_chain
from .hier_model import (
    ChainState,
    Dataset,
    LargeSetSpec,
    ModelConfig,
    drift_value_summary,
    initial_state,
)
from .numerics import RngStream

__all__ = [
    "SimulationError",
    "SimulationPlan",
    "EnsembleSummary",
    "BinGrid",
    "HittingStats",
    "run_ensemble",
    "run_reference_chain",
    "run_trace_chain",
    "tv_from_counts",
    "split_half_tv",
    "hitting_time_stats",
    "DATA_STREAM",
    "REFERENCE_STREAM",
    "ENSEMBLE_STREAM_BASE",
    "PAIR_STREAM_BASE",
]

# Fixed stream-index allocation under one master seed.
DATA_STREAM = 0
REFERENCE_STREAM = 1
ENSEMBLE_STREAM_BASE = 1_000_000
PAIR_STREAM_BASE = 3_000_000

# chains per work unit; fixed because the energy sums are formed per chunk,
# so another width would round them differently
_CHUNK = 4096
_J_MAX = 5  # joint returns recorded per pair


def _draw_streams(kernel: MarginalKernel, seed: int, indices: np.ndarray, n_steps: int):
    """Draw blocks of ``n_steps`` sweeps for the streams (seed, i), i in
    ``indices``; returns (Z0, Z1, Z2, W, G) stacked along a leading axis of
    length 5, each shaped ``indices.shape + (n_steps,)``."""
    out = np.empty((5, indices.size, n_steps))
    for j, stream in enumerate(RngStream.each(seed, indices.ravel().tolist())):
        z, w, gam = kernel.draw_block(stream, n_steps)
        out[:3, j] = z.T
        out[3, j] = w
        out[4, j] = gam
    return out.reshape((5,) + indices.shape + (n_steps,))


class SimulationError(Exception):
    """Simulation input or resource contract violated."""


@dataclass(frozen=True)
class SimulationPlan:
    n_chains: int
    n_steps: int
    burn_in: int = 0
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if self.n_chains < 1 or self.n_steps < 1:
            raise SimulationError("n_chains and n_steps must be >= 1")
        if not (0 <= self.burn_in < self.n_steps):
            raise SimulationError("burn_in must satisfy 0 <= burn_in < n_steps")
        if self.record_stride < 1:
            raise SimulationError("record_stride must be >= 1")


@dataclass(frozen=True)
class BinGrid:
    """Rectangular (theta_bar, A) partition given by interior cut points.

    Cell (i, j) collects points with theta_cuts[i-1] <= tb < theta_cuts[i]
    (open-ended outermost cells), so every point lands in exactly one cell
    and binned measures are honest pushforwards.
    """

    theta_cuts: np.ndarray
    a_cuts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta_cuts", np.asarray(self.theta_cuts, dtype=float))
        object.__setattr__(self, "a_cuts", np.asarray(self.a_cuts, dtype=float))

    @property
    def shape(self) -> tuple[int, int]:
        return self.theta_cuts.size + 1, self.a_cuts.size + 1

    @property
    def n_cells(self) -> int:
        nx, ny = self.shape
        return nx * ny

    def cell_index(self, theta_bar, a) -> np.ndarray:
        ix = np.searchsorted(self.theta_cuts, theta_bar, side="right")
        iy = np.searchsorted(self.a_cuts, a, side="right")
        return ix * (self.a_cuts.size + 1) + iy

    def counts(self, theta_bar, a) -> np.ndarray:
        flat = self.cell_index(np.asarray(theta_bar), np.asarray(a))
        return np.bincount(flat, minlength=self.n_cells)

    @staticmethod
    def equal_mass(theta_bar, a, shape: tuple[int, int] = (64, 64)) -> "BinGrid":
        """Cuts at marginal quantiles of a reference sample."""
        nx, ny = shape
        if nx < 2 or ny < 2:
            raise SimulationError("need at least a 2x2 grid")
        qx = np.quantile(np.asarray(theta_bar, dtype=float), np.arange(1, nx) / nx)
        qy = np.quantile(np.asarray(a, dtype=float), np.arange(1, ny) / ny)
        return BinGrid(theta_cuts=np.unique(qx), a_cuts=np.unique(qy))


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-step aggregates plus stride-sampled state records for an ensemble."""

    mean_f: np.ndarray
    se_f: np.ndarray
    in_band_fraction: np.ndarray | None
    hist_counts: np.ndarray | None
    recorded_steps: tuple[int, ...]
    recorded_theta_bar: np.ndarray | None
    recorded_A: np.ndarray | None


def run_ensemble(
    plan: SimulationPlan,
    ds: Dataset,
    cfg: ModelConfig,
    x0: ChainState,
    large_set: LargeSetSpec | None = None,
    bins: BinGrid | None = None,
    threads: int = 1,
    record_states: bool = True,
) -> EnsembleSummary:
    """Independent chains from x0; chain i owns stream (seed, base + i).

    Aggregates are collected per step for all chains: energy mean and its
    standard error, the fraction inside the retained band (when a band is
    given), and binned state counts (when a grid is given, enabling
    per-step distance estimates without storing raw states).  States are
    additionally recorded every ``record_stride`` steps after burn-in when
    ``record_states`` is set.

    The chains run in chunks of ``_CHUNK``, one after another on the
    calling thread.  ``threads`` must be 1; it stays only because the
    benchmark (``perfbench/workloads.py``) passes it.
    """
    if threads != 1:
        raise SimulationError(f"threads must be 1, got {threads!r}")
    kernel = MarginalKernel(ds, cfg)
    n_steps, n_chains = plan.n_steps, plan.n_chains

    rec_steps = tuple(
        t for t in range(1, n_steps + 1)
        if t > plan.burn_in and (t - plan.burn_in) % plan.record_stride == 0
    ) if record_states else ()
    rec_index = {t: r for r, t in enumerate(rec_steps)}

    n_chunks = (n_chains + _CHUNK - 1) // _CHUNK
    sum_f = np.zeros((n_chunks, n_steps))
    sum_f_sq = np.zeros((n_chunks, n_steps))
    band_counts = np.zeros(n_steps, dtype=np.int64)
    hist = np.zeros((n_steps, bins.n_cells), dtype=np.int64) if bins is not None else None
    rec_tb = np.empty((len(rec_steps), n_chains)) if rec_steps else None
    rec_a = np.empty((len(rec_steps), n_chains)) if rec_steps else None

    for chunk_id in range(n_chunks):
        lo = chunk_id * _CHUNK
        hi = min(lo + _CHUNK, n_chains)
        draws = _draw_streams(kernel, plan.seed, ENSEMBLE_STREAM_BASE + np.arange(lo, hi),
                              n_steps)
        tb = np.full(hi - lo, x0.theta_bar)
        a = np.full(hi - lo, x0.A)
        for t in range(n_steps):
            _, tb, a = kernel.step_arrays(tb, a, *draws[:, :, t])
            f = drift_value_summary(tb, a, ds, cfg)
            sum_f[chunk_id, t] = f.sum()
            sum_f_sq[chunk_id, t] = (f * f).sum()
            if large_set is not None:
                band_counts[t] += int(large_set.contains(a).sum())
            if bins is not None:
                hist[t] += bins.counts(tb, a)
            r = rec_index.get(t + 1)
            if r is not None:
                rec_tb[r, lo:hi] = tb
                rec_a[r, lo:hi] = a

    total_f = sum_f.sum(axis=0)
    total_f_sq = sum_f_sq.sum(axis=0)
    mean_f = total_f / n_chains
    var_f = np.maximum(total_f_sq / n_chains - mean_f**2, 0.0)
    se_f = np.sqrt(var_f / n_chains)
    return EnsembleSummary(
        mean_f=mean_f,
        se_f=se_f,
        in_band_fraction=(band_counts / n_chains) if large_set is not None else None,
        hist_counts=hist,
        recorded_steps=rec_steps,
        recorded_theta_bar=rec_tb,
        recorded_A=rec_a,
    )


# ---------------------------------------------------------------------------
# long single chains
# ---------------------------------------------------------------------------


def run_reference_chain(
    ds: Dataset,
    cfg: ModelConfig,
    stream: RngStream,
    n_steps: int,
    burn_in: int,
    band: LargeSetSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Long single chain from the canonical start standing in for the
    stationary law; returns the ``n_steps`` (theta_bar, A) samples after
    ``burn_in``.  With ``band`` it is the per-sub-step rejection chain on
    that band, which must hold the start."""
    x = initial_state(ds, cfg)
    if band is not None and not band.contains(x.A):
        raise SimulationError("start state lies outside the retained band")
    tb, a = run_summary_chain(MarginalKernel(ds, cfg), (x.theta_bar, x.A), burn_in + n_steps,
                              stream, band=band)
    return tb[burn_in:], a[burn_in:]


def run_trace_chain(
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
    stream: RngStream,
    n_samples: int,
    burn_in: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Induced chain on the band: run the unrestricted chain from the
    canonical start and keep only its in-band states after ``burn_in``
    steps, re-indexed consecutively, until n_samples are held."""
    x = initial_state(ds, cfg)
    kernel = MarginalKernel(ds, cfg)
    cap = 50 * n_samples + burn_in
    tb_parts: list[np.ndarray] = []
    a_parts: list[np.ndarray] = []
    got = 0
    used = 0
    seg = max(2 * n_samples, 1_000_000)
    state = (x.theta_bar, x.A)
    while got < n_samples:
        if used >= cap:
            raise SimulationError(
                f"chain visited the band only {got} times in {used} steps; "
                f"needed {n_samples}"
            )
        m = min(seg, cap - used)
        tb, a = run_summary_chain(kernel, state, m, stream)
        state = (tb[-1], a[-1])
        skip = max(burn_in - used, 0)
        used += m
        keep = spec.contains(a[skip:])
        tb_parts.append(tb[skip:][keep])
        a_parts.append(a[skip:][keep])
        got += tb_parts[-1].size
    return np.concatenate(tb_parts)[:n_samples], np.concatenate(a_parts)[:n_samples]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def tv_from_counts(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Half L1 distance between two binned empirical measures.

    Binning is a measurable map, so the binned distance between two state
    samples can only fall below the true total-variation distance between
    their laws (up to sampling noise in the empirical measures).
    """
    na = counts_a.sum()
    nb = counts_b.sum()
    if na == 0 or nb == 0:
        raise SimulationError("empty sample set")
    return 0.5 * float(np.abs(counts_a / na - counts_b / nb).sum())


def split_half_tv(bins: BinGrid, tb: np.ndarray, a: np.ndarray) -> float:
    """Binned distance between the first and second halves of one chain's
    samples, the sampling-noise floor of a reference chain."""
    half = tb.size // 2
    return tv_from_counts(bins.counts(tb[:half], a[:half]), bins.counts(tb[half:], a[half:]))


# ---------------------------------------------------------------------------
# joint return times for an independent pair of restricted chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HittingStats:
    """Times t_1 < t_2 < ... at which an independent pair of restricted
    chains sits jointly inside the sublevel set {f <= d}.

    ``t_matrix[p, i]`` is the (i+1)-th joint-return time of pair p, or -1
    when it was not reached within n_steps (censored).  Gaps are taken with
    the convention t_0 = -1, so r_1 = t_1 + 1 and every gap is >= 1; the
    gap product prod_i alpha^{r_i} = alpha^(t_j + 1) then dominates alpha^j
    almost surely, which is what makes the Markov-inequality bound on
    {fewer than j returns before step k} = {t_j >= k} valid even for pairs
    that start inside the set (t_1 = 0).
    """

    t_matrix: np.ndarray
    n_steps: int
    alpha: float

    @property
    def n_pairs(self) -> int:
        return self.t_matrix.shape[0]

    @property
    def j_max(self) -> int:
        return self.t_matrix.shape[1]

    def censored_fraction(self, j: int) -> float:
        self._check_j(j)
        return float((self.t_matrix[:, j - 1] < 0).mean())

    def pr_counts_below(self, j: int, k: int) -> tuple[float, float]:
        """Empirical P(N_k < j) with binomial standard error."""
        self._check_j(j)
        if not (1 <= k <= self.n_steps):
            raise SimulationError(f"k must lie in [1, {self.n_steps}], got {k!r}")
        tj = self.t_matrix[:, j - 1]
        hit = (tj < 0) | (tj >= k)  # censored pairs have t_j >= n_steps >= k
        p = float(hit.mean())
        se = math.sqrt(max(p * (1.0 - p), 0.0) / self.n_pairs)
        return p, se

    def markov_product_bound(self, j: int, k: int) -> tuple[float, float]:
        """Estimate of [E prod_i alpha^{r_i} - alpha^j] / (alpha^k - alpha^j).

        The product over the first j gaps equals alpha^(t_j + 1); it is
        averaged over the uncensored pairs (censoring is reported separately
        through :meth:`censored_fraction`) and the standard error of the
        resulting ratio is returned with it.
        """
        self._check_j(j)
        if k <= j:
            raise SimulationError("need k > j")
        tj = self.t_matrix[:, j - 1]
        ok = tj >= 0
        if not np.any(ok):
            raise SimulationError("all pairs censored; cannot estimate the bound")
        vals = np.power(self.alpha, tj[ok].astype(float) + 1.0)
        denom = self.alpha**k - self.alpha**j
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.inf
        return (mean - self.alpha**j) / denom, se / denom

    def _check_j(self, j: int) -> None:
        if not (1 <= j <= self.j_max):
            raise SimulationError(f"j must lie in [1, {self.j_max}], got {j!r}")


def hitting_time_stats(
    n_pairs: int,
    n_steps: int,
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
    d_small: float,
    alpha: float,
    seed: int,
) -> HittingStats:
    """Simulate independent pairs of band-restricted chains from the
    canonical start and record the first five (``_J_MAX``) joint returns to
    the sublevel set {f <= d_small}.

    Pair p drives its two chains with streams (seed, PAIR_STREAM_BASE + 2p)
    and (seed, PAIR_STREAM_BASE + 2p + 1).  Time starts at m = 0 with the
    start state itself eligible, so a pair started inside the set has
    t_1 = 0.
    """
    if alpha <= 1.0:
        raise SimulationError(f"alpha must exceed 1, got {alpha!r}")
    if n_pairs < 1 or n_steps < 1:
        raise SimulationError("n_pairs and n_steps must be >= 1")
    start = initial_state(ds, cfg)
    if not spec.contains(start.A):
        raise SimulationError("start state lies outside the retained band")
    kernel = MarginalKernel(ds, cfg)
    t_matrix = np.full((n_pairs, _J_MAX), -1, dtype=np.int64)
    for base in range(0, n_pairs, _CHUNK):
        pairs = np.arange(base, min(base + _CHUNK, n_pairs))
        # both chains of every pair step at once: side on axis 0, pair on axis 1
        streams = PAIR_STREAM_BASE + 2 * pairs + np.arange(2)[:, None]
        draws = _draw_streams(kernel, seed, streams, n_steps)
        tb = np.full(streams.shape, start.theta_bar)
        aa = np.full(streams.shape, start.A)
        hits = np.zeros(pairs.size, dtype=np.int64)
        # the state at time 0 is the first opportunity for a joint return
        for t in range(n_steps):
            if t:
                _, tb, aa = kernel.step_arrays(tb, aa, *draws[..., t - 1], band=spec)
            both = (drift_value_summary(tb, aa, ds, cfg) <= d_small).all(axis=0)
            sel = np.nonzero(both & (hits < _J_MAX))[0]
            t_matrix[base + sel, hits[sel]] = t
            hits[sel] += 1

    return HittingStats(t_matrix=t_matrix, n_steps=n_steps, alpha=alpha)
