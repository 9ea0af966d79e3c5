"""Chain ensembles and the coupling-side constructions as executable objects.

Everything here rides on the exact summary-state recursion (see _marginal):
ensembles of independent chains, single long reference chains standing in
for the stationary law, the induced chain on the retained band ("stopping
the clock"), the per-sub-step rejection chain, binned total-variation lower
bounds, and joint return-time statistics for an independent pair of
restricted chains.

Reproducibility contract: every chain owns the stream
(seed, stream base + chain index) with a fixed per-step draw layout, chunk
boundaries are fixed constants, and cross-chunk reductions either use exact
integer arithmetic or ordered slot merges, so results are byte-identical
across repeat runs and across worker counts.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._marginal import MarginalKernel, run_summary_chain
from .hier_model import (
    ChainState,
    Dataset,
    LargeSetSpec,
    ModelConfig,
    in_large_set,
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
    "run_restricted_chain",
    "run_trace_chain",
    "tv_lower_bound_estimate",
    "tv_from_counts",
    "hitting_time_stats",
    "DATA_STREAM",
    "REFERENCE_STREAM",
    "ORACLE_STREAM",
    "ENSEMBLE_STREAM_BASE",
    "PAIR_STREAM_BASE",
]

# Fixed stream-index allocation under one master seed.
DATA_STREAM = 0
REFERENCE_STREAM = 1
ORACLE_STREAM = 2
ENSEMBLE_STREAM_BASE = 1_000_000
PAIR_STREAM_BASE = 3_000_000

_CHUNK = 4096  # chains per work unit; fixed so threading cannot change results


def _draw_streams(kernel: MarginalKernel, seed: int, indices: np.ndarray, n_steps: int):
    """Draw blocks of ``n_steps`` sweeps for the streams (seed, i), i in
    ``indices``; returns (Z0, Z1, Z2, W, G) stacked along a leading axis of
    length 5, each shaped ``indices.shape + (n_steps,)``."""
    out = np.empty((5, indices.size, n_steps))
    for j, i in enumerate(indices.ravel().tolist()):
        z, w, gam = kernel.draw_block(RngStream(seed, i), n_steps)
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

    plan: SimulationPlan
    steps: np.ndarray
    mean_f: np.ndarray
    se_f: np.ndarray
    in_band_fraction: np.ndarray | None
    hist_counts: np.ndarray | None
    bins: BinGrid | None
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
    """
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
    lock = threading.Lock()

    def work(chunk_id: int) -> None:
        lo = chunk_id * _CHUNK
        hi = min(lo + _CHUNK, n_chains)
        m = hi - lo
        draws = _draw_streams(kernel, plan.seed, ENSEMBLE_STREAM_BASE + np.arange(lo, hi),
                              n_steps)
        tb = np.full(m, x0.theta_bar)
        a = np.full(m, x0.A)
        local_band = np.zeros(n_steps, dtype=np.int64)
        local_hist = (
            np.zeros((n_steps, bins.n_cells), dtype=np.int64) if bins is not None else None
        )
        for t in range(n_steps):
            _, tb, a = kernel.step_arrays(tb, a, *draws[:, :, t])
            f = kernel.energy(tb, a)
            sum_f[chunk_id, t] = f.sum()
            sum_f_sq[chunk_id, t] = (f * f).sum()
            if large_set is not None:
                local_band[t] = int(large_set.contains(a).sum())
            if bins is not None:
                local_hist[t] = bins.counts(tb, a)
            r = rec_index.get(t + 1)
            if r is not None:
                rec_tb[r, lo:hi] = tb
                rec_a[r, lo:hi] = a
        with lock:
            if large_set is not None:
                band_counts[:] += local_band
            if bins is not None:
                hist[:] += local_hist

    if threads <= 1:
        for cid in range(n_chunks):
            work(cid)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, range(n_chunks)))

    total_f = sum_f.sum(axis=0)
    total_f_sq = sum_f_sq.sum(axis=0)
    mean_f = total_f / n_chains
    var_f = np.maximum(total_f_sq / n_chains - mean_f**2, 0.0)
    se_f = np.sqrt(var_f / n_chains)
    return EnsembleSummary(
        plan=plan,
        steps=np.arange(1, n_steps + 1),
        mean_f=mean_f,
        se_f=se_f,
        in_band_fraction=(band_counts / n_chains) if large_set is not None else None,
        hist_counts=hist,
        bins=bins,
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
    x0: ChainState | None = None,
    thin: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Long single chain standing in for the stationary law; returns
    post-burn-in (theta_bar, A) samples."""
    x = x0 if x0 is not None else initial_state(ds, cfg)
    kernel = MarginalKernel(ds, cfg)
    tb, a, _ = run_summary_chain(kernel, (x.theta_bar, x.A), burn_in + n_steps, stream,
                                 burn_in=burn_in, thin=thin)
    return tb, a


def run_restricted_chain(
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
    stream: RngStream,
    n_steps: int,
    burn_in: int,
    x0: ChainState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain under the per-sub-step rejection kernel on the retained band."""
    x_start = x0 if x0 is not None else initial_state(ds, cfg)
    if not in_large_set(x_start, spec):
        raise SimulationError("start state lies outside the retained band")
    kernel = MarginalKernel(ds, cfg)
    tb, a, _ = run_summary_chain(kernel, (x_start.theta_bar, x_start.A), burn_in + n_steps,
                                 stream, burn_in=burn_in, restrict=spec)
    return tb, a


def run_trace_chain(
    ds: Dataset,
    cfg: ModelConfig,
    spec: LargeSetSpec,
    stream: RngStream,
    n_samples: int,
    burn_in: int,
    x0: ChainState | None = None,
    max_steps: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Induced chain on the band: run the unrestricted chain and keep only
    the in-band steps, re-indexed consecutively, until n_samples are held."""
    x = x0 if x0 is not None else initial_state(ds, cfg)
    kernel = MarginalKernel(ds, cfg)
    cap = max_steps if max_steps is not None else 50 * n_samples + burn_in
    tb_parts: list[np.ndarray] = []
    a_parts: list[np.ndarray] = []
    got = 0
    used = 0
    seg = max(2 * n_samples, 1_000_000)
    state = (x.theta_bar, x.A)
    first = True
    while got < n_samples:
        if used >= cap:
            raise SimulationError(
                f"chain visited the band only {got} times in {used} steps; "
                f"needed {n_samples}"
            )
        m = min(seg, cap - used)
        tb, a, state = run_summary_chain(
            kernel, state, m, stream,
            burn_in=burn_in if first else 0,
            keep_only_in=spec,
        )
        first = False
        used += m
        tb_parts.append(tb)
        a_parts.append(a)
        got += tb.size
    tb_all = np.concatenate(tb_parts)[:n_samples]
    a_all = np.concatenate(a_parts)[:n_samples]
    return tb_all, a_all


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _as_pairs(samples) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(samples, tuple) and len(samples) == 2:
        tb, a = np.asarray(samples[0], dtype=float), np.asarray(samples[1], dtype=float)
    else:
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise SimulationError("samples must be (theta_bar, A) arrays or an (N,2) array")
        tb, a = arr[:, 0], arr[:, 1]
    if tb.size == 0:
        raise SimulationError("empty sample set")
    return tb, a


def tv_from_counts(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """Half L1 distance between two binned empirical measures."""
    na = counts_a.sum()
    nb = counts_b.sum()
    if na == 0 or nb == 0:
        raise SimulationError("empty sample set")
    return 0.5 * float(np.abs(counts_a / na - counts_b / nb).sum())


def tv_lower_bound_estimate(samples_a, samples_b, bins: BinGrid) -> float:
    """Binned empirical total-variation distance between two state samples.

    Binning is a measurable map, so the binned distance can only fall below
    the true total-variation distance between the underlying laws (up to
    sampling noise in the empirical measures).
    """
    tb_a, a_a = _as_pairs(samples_a)
    tb_b, a_b = _as_pairs(samples_b)
    return tv_from_counts(bins.counts(tb_a, a_a), bins.counts(tb_b, a_b))


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

    def counts_before(self, k: int) -> np.ndarray:
        """N_k per pair: number of recorded joint returns strictly before k."""
        t = self.t_matrix
        return ((t >= 0) & (t < k)).sum(axis=1)

    def gaps(self, pair: int) -> np.ndarray:
        """Return-time gaps r_i = t_i - t_{i-1} (t_0 = -1) for one pair,
        up to the last uncensored return; every gap is >= 1."""
        t = self.t_matrix[pair]
        t = t[t >= 0]
        return np.diff(np.concatenate(([-1], t)))

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
    j_max: int = 5,
    x0: ChainState | None = None,
) -> HittingStats:
    """Simulate independent pairs of band-restricted chains and record the
    first ``j_max`` joint returns to the sublevel set {f <= d_small}.

    Pair p drives its two chains with streams (seed, PAIR_STREAM_BASE + 2p)
    and (seed, PAIR_STREAM_BASE + 2p + 1).  Time starts at m = 0 with the
    start state itself eligible, so a pair started inside the set has
    t_1 = 0.
    """
    if alpha <= 1.0:
        raise SimulationError(f"alpha must exceed 1, got {alpha!r}")
    if n_pairs < 1 or n_steps < 1 or j_max < 1:
        raise SimulationError("n_pairs, n_steps, j_max must be >= 1")
    start = x0 if x0 is not None else initial_state(ds, cfg)
    if not in_large_set(start, spec):
        raise SimulationError("start state lies outside the retained band")
    kernel = MarginalKernel(ds, cfg)
    t_matrix = np.full((n_pairs, j_max), -1, dtype=np.int64)
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
            both = (kernel.energy(tb, aa) <= d_small).all(axis=0)
            sel = np.nonzero(both & (hits < j_max))[0]
            t_matrix[base + sel, hits[sel]] = t
            hits[sel] += 1

    return HittingStats(t_matrix=t_matrix, n_steps=n_steps, alpha=alpha)
