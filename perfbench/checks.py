"""Output checks for the benchmark workloads: certify, and the chains and
oracles parts of sampling.

Every checker returns a list of problems (empty when the output passes).
The references are computed here, apart from the program, or are
properties any correct output must have; none is a stored copy of an
earlier output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

SWEEP_COLUMNS = ["n", "lambda_T", "b", "d", "epsilon", "q_mass", "gamma", "K_bar", "N_c", "status"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def parse_sweep_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != SWEEP_COLUMNS:
        raise ValueError(f"unexpected sweep_n.csv header {reader.fieldnames!r}")
    rows = []
    for raw in reader:
        row = {k: float(raw[k]) for k in SWEEP_COLUMNS[:-1]}
        row["n"] = int(raw["n"])
        row["status"] = raw["status"]
        rows.append(row)
    return rows


def lambda_T_closed_form(V: float, T: float) -> float:
    """Large-set contraction ((V^2 + 2VT) / (V^2 + 2VT + T^2))^2."""
    u = V * V + 2.0 * V * T
    return (u / (u + T * T)) ** 2


def epsilon_ceiling(n: int, d: float, center: float) -> float:
    """Overlap of the mu-update laws N(y_bar -/+ hw, a_low/n) from two box
    corners, hw = sqrt(d/n), a_low = center - hw.

    A minorization volume can never exceed the overlap of the kernels from
    two states of the small set, and that overlap can never exceed the
    overlap of their mu marginals, which is 2*Phi(-hw/sqrt(a_low/n)).
    """
    hw = math.sqrt(d / n)
    a_low = center - hw
    return math.erfc(hw / math.sqrt(2.0 * a_low / n))


def check_sweep(rows: list[dict], n_list: list[int], V: float, T: float,
                center: float) -> list[str]:
    """Certificate rows of one sweep against method-level properties.

    Rows whose status is not ``ok`` are failed operations, counted by the
    caller; the checks cover the rows that report ``ok``.
    """
    problems = []
    if [r["n"] for r in rows] != list(n_list):
        return [f"sweep rows cover n={[r['n'] for r in rows]}, expected {list(n_list)}"]
    ok = [r for r in rows if r["status"] == "ok"]
    lam = lambda_T_closed_form(V, T)
    for r in ok:
        n = r["n"]
        if not (0.0 < r["d"] < n * center * center):
            problems.append(f"n={n}: small-set level d={r['d']!r} puts the box outside A > 0")
            continue
        ceiling = epsilon_ceiling(n, r["d"], center)
        if not (0.0 < r["epsilon"] <= ceiling):
            problems.append(f"n={n}: epsilon {r['epsilon']!r} outside (0, {ceiling!r}]")
        if not math.isclose(r["lambda_T"], lam, rel_tol=1e-12):
            problems.append(f"n={n}: lambda_T {r['lambda_T']!r} != closed form {lam!r}")
        if not (0.0 < r["q_mass"] <= 1.0):
            problems.append(f"n={n}: q {r['q_mass']!r} outside (0, 1]")
        if not (0.0 < r["gamma"] < 1.0):
            problems.append(f"n={n}: gamma {r['gamma']!r} outside (0, 1)")
    if len(ok) >= 2:
        bs = [r["b"] for r in ok]
        if not (min(bs) > 0.0 and max(bs) / min(bs) < 2.0):
            problems.append(f"b is not flat in n: {bs!r}")
        first, last = ok[0], ok[-1]
        if last["K_bar"] > first["K_bar"]:
            problems.append(
                f"K_bar grows with n: {first['K_bar']!r} at n={first['n']} -> "
                f"{last['K_bar']!r} at n={last['n']}"
            )
    return problems


def check_identical(blobs: list[bytes], what: str) -> list[str]:
    """Every pass of one run must write the same bytes."""
    if len(set(blobs)) > 1:
        return [f"{what} differs between the {len(blobs)} passes of this run"]
    return []


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def posterior_A_moments(n: int, delta: float, V: float, a: float, b: float) -> tuple[float, float]:
    """E[A] and E[1/A] under the marginal posterior of A, by scipy quad.

    With a flat prior on mu and an inverse-gamma(a, b) prior on A, the
    observations integrate to the density
    A^-(a+1) exp(-b/A) (V+A)^-((n-1)/2) exp(-delta / (2 (V+A))).
    """
    from scipy import integrate as sp_integrate  # only the checks need it

    def log_kernel(A):
        return (-(a + 1.0) * math.log(A) - b / A
                - 0.5 * (n - 1) * math.log(V + A) - 0.5 * delta / (V + A))

    # the mode of the kernel above for V = 0 is a good centre; quad is given
    # the scale explicitly so the narrow peak cannot be missed at large n
    shape = a + 0.5 * (n - 1)
    scale = b + 0.5 * delta
    mode = scale / (shape + 1.0)
    width = mode / math.sqrt(shape)
    peak = max(log_kernel(mode + k * width) for k in (-1, 0, 1) if mode + k * width > 0)
    lo = max(mode - 40.0 * width, 1e-12 * mode)
    hi = mode + 400.0 * width
    points = [mode + k * width for k in (-4, -1, 0, 1, 4) if lo < mode + k * width < hi]

    def moment(power):
        val, _ = sp_integrate.quad(lambda A: A ** power * math.exp(log_kernel(A) - peak),
                                   lo, hi, points=points, limit=400,
                                   epsabs=0.0, epsrel=1e-11)
        return val

    z = moment(0)
    return moment(1) / z, moment(-1) / z


def batch_means(x: np.ndarray, n_batches: int = 100) -> tuple[float, float]:
    """Mean and batch-means standard error."""
    means = np.array([b.mean() for b in np.array_split(np.asarray(x, dtype=float), n_batches)])
    return float(np.mean(x)), float(means.std(ddof=1) / math.sqrt(n_batches))


def check_reference(a_samples: np.ndarray, mean_A: float, mean_inv_A: float,
                    z_max: float = 4.0) -> list[str]:
    """Reference-chain averages of A and 1/A against the quadrature values."""
    problems = []
    for label, values, exact in (("A", a_samples, mean_A), ("1/A", 1.0 / a_samples, mean_inv_A)):
        mc, se = batch_means(values)
        if not (se > 0.0) or abs(mc - exact) > z_max * se:
            problems.append(f"reference mean of {label} {mc!r} vs quadrature {exact!r} "
                            f"(batch SE {se!r})")
    return problems


def check_ensemble(mean_f1: float, se_f1: float, exact_f1: float, hist_counts: np.ndarray,
                   n_chains: int, z_max: float = 4.0) -> list[str]:
    """Step-1 mean energy against the exact one-sweep moment; histogram mass."""
    problems = []
    if not (se_f1 > 0.0) or abs(mean_f1 - exact_f1) > z_max * se_f1:
        problems.append(f"step-1 mean energy {mean_f1!r} vs exact {exact_f1!r} (SE {se_f1!r})")
    sums = np.asarray(hist_counts).sum(axis=1)
    bad = np.nonzero(sums != n_chains)[0]
    if bad.size:
        problems.append(f"histogram counts at step {int(bad[0]) + 1} sum to {int(sums[bad[0]])}, "
                        f"not {n_chains}")
    return problems


def check_return_times(t_matrix: np.ndarray) -> list[str]:
    """Pairs start inside the set (t_1 = 0); uncensored times strictly
    increase, and a censored entry (-1) is followed only by censored ones."""
    t = np.asarray(t_matrix)
    problems = []
    if not np.all(t[:, 0] == 0):
        problems.append(f"{int(np.sum(t[:, 0] != 0))} pairs have t_1 != 0")
    seen = t >= 0
    both = seen[:, 1:] & seen[:, :-1]
    bad = np.any((both & (t[:, 1:] <= t[:, :-1])) | (seen[:, 1:] & ~seen[:, :-1]), axis=1)
    if np.any(bad):
        p = int(np.argmax(bad))
        problems.append(f"{int(bad.sum())} pairs have return times that do not strictly "
                        f"increase, e.g. pair {p}: {t[p].tolist()}")
    return problems


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def check_validation(exit_code: int, report: list[dict], criteria: list[str]) -> list[str]:
    """The report covers exactly the selected criteria, and the exit code is
    0 when every criterion passed and 3 (validation failure) otherwise.

    A criterion that did not pass is a failed operation, counted by the
    caller, not a problem of this check.
    """
    problems = []
    numbers = [str(r.get("name", "")).split(" ", 1)[0] for r in report]
    if numbers != list(criteria):
        problems.append(f"report covers criteria {numbers}, expected {list(criteria)}")
    expected = 0 if all(r.get("passed") is True for r in report) else 3
    if exit_code != expected:
        problems.append(f"validate exited {exit_code}, expected {expected}")
    return problems
