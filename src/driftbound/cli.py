"""Command-line interface: data synthesis, certificate curves, sample-size
sweeps, ensemble simulations, and the validation suite.

Commands
--------
synth-data   draw observations from the model and write one value per line
bound-curve  emit the three-term bound curve per step as CSV
sweep-n      recompute certificate constants across sample sizes
simulate     ensemble run with per-step distance estimates next to the bound
validate     run the acceptance suite and write a machine-readable report

Every command resolves one JSON config (``--config``; a built-in desk-scale
default otherwise), honors ``--seed``/``--out`` overrides (``bound-curve``
also ``--k-max``), and writes a run manifest with content digests of every
emitted file.  Stream indices under the master seed are fixed: 0 data
synthesis, 1 reference chain, 1_000_000 + i ensemble chain i, 3_000_000 +
2p (+1) the two chains of pair p.  ``validate`` draws from the streams of ``acceptance._STREAMS``
under that module's own seed.

Exit codes: 0 success (all criteria pass for ``validate``), 1 config error
(a malformed command line included), 2 numerical failure (for ``sweep-n``:
any failed row), 3 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, acceptance
from .bound_core import BoundError
from .hier_model import (
    Dataset,
    GibbsBoundReport,
    LargeSetSpec,
    ModelConfig,
    ModelError,
    assemble_gibbs_bound,
    check_data_assumption,
    data_center,
    default_large_set,
    drift_value_summary,
    expected_inv_A,
    initial_state,
    synth_dataset,
)
from .minorization import MinorizationError
from .numerics import NumericsError, RngStream
from .simulation import (
    DATA_STREAM,
    REFERENCE_STREAM,
    BinGrid,
    SimulationError,
    SimulationPlan,
    run_ensemble,
    run_reference_chain,
    split_half_tv,
    tv_from_counts,
)

__all__ = ["main", "ExperimentConfig", "RunManifest", "default_config_dict"]

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERICAL = 2
_EXIT_VALIDATION = 3

_SYNTH_RESAMPLES = 100  # synth-data draws tried before giving up


class ConfigError(Exception):
    """Invalid experiment configuration; the message names the violated rule."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def default_config_dict() -> dict:
    """Built-in desk-scale configuration (synthetic data, tight retained band)."""
    return {
        "model": {"V": 8e-4, "a": 3.0, "b": 0.2, "delta": 0.08},
        "data": {"synth": {"n": 100, "center": 0.1, "exact_center": True}},
        "large_set_T": None,
        "small_set_d": None,
        "k_max": 100,
        "seed": 20260801,
        "threads": 1,
        "plan": {"n_chains": 20000, "n_steps": 50, "burn_in": 0, "record_stride": 10},
        "reference": {"n_steps": 1000000, "burn_in": 100000},
        "mix_target_c": 0.25,
        "validate_scale": 1.0,
    }


def _number(value, key: str) -> float:
    """A JSON number as a finite float; booleans, strings, null and
    non-finite values (Infinity, NaN, or past the float range) are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _integer(value, key: str) -> int:
    """A finite JSON number with an integral value, as an int."""
    if not _number(value, key).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved, validated experiment configuration.  ``threads`` must be 1;
    it stays only because the benchmark (``perfbench/workloads.py``) reads it."""

    model: ModelConfig
    data_source: dict
    large_set_T: float | None
    small_set_d: float | None
    k_max: int
    seed: int
    threads: int
    plan: dict
    reference: dict
    mix_target_c: float
    validate_scale: float
    raw: dict = field(repr=False)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        defaults = default_config_dict()
        merged = dict(defaults)
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            if key in ("model", "plan", "reference"):
                if not isinstance(value, dict):
                    raise ConfigError(f"config.{key} must be a JSON object, got {value!r}")
                bad = set(value) - set(defaults[key])
                if bad:
                    raise ConfigError(f"unknown {key} keys: {sorted(bad)}")
                merged[key] = {**merged[key], **value}
            else:
                merged[key] = value

        data = merged["data"]
        if not isinstance(data, dict) or len(data) != 1 or next(iter(data)) not in ("synth", "file"):
            raise ConfigError("config.data must contain exactly one of 'synth' or 'file'")
        if "synth" in data:
            synth = data["synth"]
            if not isinstance(synth, dict):
                raise ConfigError(f"data.synth must be a JSON object, got {synth!r}")
            bad = set(synth) - set(defaults["data"]["synth"])
            if bad:
                raise ConfigError(f"unknown data.synth keys: {sorted(bad)}")
            if _integer(synth.get("n", 0), "data.synth.n") < 2:
                raise ConfigError("data.synth.n must be an integer >= 2")
            if not (_number(synth.get("center", 0.0), "data.synth.center") > 0.0):
                raise ConfigError("data.synth.center must be positive")
            if not isinstance(synth.get("exact_center", False), bool):
                raise ConfigError("data.synth.exact_center must be true or false, "
                                  f"got {synth['exact_center']!r}")
        elif not isinstance(data["file"], str):
            raise ConfigError(f"data.file must be a path string, got {data['file']!r}")

        given = {k: _number(v, f"model.{k}") for k, v in merged["model"].items()}
        try:
            model = ModelConfig(V=given["V"], prior_shape_a=given["a"],
                                prior_scale_b=given["b"], delta_margin=given["delta"])
        except ModelError as exc:
            raise ConfigError(f"config.model: {exc}") from exc

        levels = {key: None if merged[key] is None else _number(merged[key], key)
                  for key in ("large_set_T", "small_set_d")}
        for key, value in levels.items():
            if value is not None and not value > 0.0:
                raise ConfigError(f"{key} must be positive when given")
        ints = {key: _integer(merged[key], key) for key in ("k_max", "seed", "threads")}
        if ints["k_max"] < 1:
            raise ConfigError("k_max must be >= 1")
        if not (0 <= ints["seed"] < 2**64):
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if ints["threads"] != 1:
            raise ConfigError(f"threads must be 1 (ensembles run on one thread), "
                              f"got {ints['threads']}")
        mix_target_c = _number(merged["mix_target_c"], "mix_target_c")
        if not (0.0 < mix_target_c < 1.0):
            raise ConfigError("mix_target_c must lie in (0, 1)")
        validate_scale = _number(merged["validate_scale"], "validate_scale")
        if not validate_scale > 0.0:
            raise ConfigError("validate_scale must be positive")
        plan = {k: _integer(v, f"plan.{k}") for k, v in merged["plan"].items()}
        try:
            SimulationPlan(**plan)
        except SimulationError as exc:
            raise ConfigError(f"config.plan: {exc}") from exc
        ref = {k: _integer(v, f"reference.{k}") for k, v in merged["reference"].items()}
        if ref["n_steps"] < 1 or ref["burn_in"] < 0:
            raise ConfigError("reference.n_steps must be >= 1 and burn_in >= 0")

        return ExperimentConfig(
            model=model,
            data_source=data,
            **levels,
            **ints,
            plan=plan,
            reference=ref,
            mix_target_c=mix_target_c,
            validate_scale=validate_scale,
            raw=merged,
        )

    def resolve_dataset(self, n: int | None = None) -> Dataset:
        """The configured observations; ``n`` replaces the synthetic sample
        size, as ``sweep-n`` does for each row."""
        if "file" in self.data_source:
            return load_observations(Path(self.data_source["file"]))
        synth = self.data_source["synth"]
        return synth_dataset(
            int(synth["n"] if n is None else n),
            float(synth["center"]),
            self.model,
            RngStream(self.seed, DATA_STREAM),
            exact_center=bool(synth.get("exact_center", False)),
        )

    def resolve_large_set(self, ds: Dataset) -> LargeSetSpec:
        center = data_center(ds, self.model)
        if self.large_set_T is not None:
            if not (self.large_set_T < center):
                raise ConfigError(
                    f"large_set_T={self.large_set_T!r} violates 0 < T < center={center!r}"
                )
            return LargeSetSpec(T=self.large_set_T, center=center)
        return default_large_set(ds, self.model)


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    return ExperimentConfig.from_dict(doc)


def load_observations(path: Path) -> Dataset:
    """One numeric value per line, or a JSON array of numbers."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path!s}: {exc}") from exc
    if text.lstrip().startswith("["):
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"data file {path!s} is not valid JSON: {exc}") from exc
        if not isinstance(values, list):
            raise ConfigError("JSON data file must contain an array of numbers")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"data file {path!s}: entry {v!r} is not a number")
    else:
        values = text.split()
    ys = []
    for v in values:
        try:
            y = float(v)
        except ValueError:
            raise ConfigError(f"data file {path!s}: value {v!r} is not a number") from None
        except OverflowError:  # a JSON integer past the float range
            y = math.inf
        if not math.isfinite(y):
            raise ConfigError(f"data file {path!s}: value {v!r} is not a finite number")
        ys.append(y)
    if len(ys) < 2:
        raise ConfigError(f"data file {path!s} holds {len(ys)} values; need at least 2")
    return Dataset(ys)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    version: str
    seed: int
    config: dict
    wall_clock_s: float
    artifacts: list[dict]

    @staticmethod
    def write(out_dir: Path, command: str, cfg: ExperimentConfig, started: float,
              files: list[Path]) -> Path:
        manifest = RunManifest(
            command=command,
            version=__version__,
            seed=cfg.seed,
            config=cfg.raw,
            wall_clock_s=time.monotonic() - started,
            artifacts=[{"path": f.name, "sha256": _sha256(f)} for f in sorted(files)],
        )
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def _assemble(cfg: ExperimentConfig, ds: Dataset, k_max: int | None = None) -> GibbsBoundReport:
    return assemble_gibbs_bound(
        ds,
        cfg.model,
        large_set=cfg.resolve_large_set(ds),
        d=cfg.small_set_d,
        k_max=k_max if k_max is not None else cfg.k_max,
        mix_target_c=cfg.mix_target_c,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth_data(cfg: ExperimentConfig, n: int, center: float, out_file: Path) -> int:
    """Draw from the model until the dispersion margin holds; write the file."""
    started = time.monotonic()
    for attempt in range(_SYNTH_RESAMPLES):
        stream = RngStream(cfg.seed, DATA_STREAM + 10_000 * attempt)
        ds = synth_dataset(n, center, cfg.model, stream)
        if check_data_assumption(ds, cfg.model):
            out_file.parent.mkdir(parents=True, exist_ok=True)
            out_file.write_text(
                "\n".join(format(v, ".17g") for v in ds.y.tolist()) + "\n",
                encoding="utf-8", newline="\n",
            )
            RunManifest.write(out_file.parent, "synth-data", cfg, started, [out_file])
            print(f"wrote {n} observations to {out_file} "
                  f"(dispersion {ds.delta / (n - 1):.6g}, attempt {attempt + 1})")
            return _EXIT_OK
    print(
        f"error: no draw satisfied dispersion >= V + delta = "
        f"{cfg.model.V + cfg.model.delta_margin:.6g} after {_SYNTH_RESAMPLES} resamples",
        file=sys.stderr,
    )
    return _EXIT_NUMERICAL


def cmd_bound_curve(cfg: ExperimentConfig, out_dir: Path) -> int:
    started = time.monotonic()
    ds = cfg.resolve_dataset()
    report = _assemble(cfg, ds)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "bound_curve.csv"
    rows = zip(
        report.k_values.astype(int),
        report.term_geometric,
        report.term_quadratic,
        report.term_sqrt,
        report.three_term_total,
        report.three_term_clamped,
    )
    write_csv(csv_path, ["k", "term1", "term2", "tail", "total", "clamped_total"], rows)

    report_path = out_dir / "bound_report.json"
    report_path.write_text(_report_json(report, expected_inv_A(ds, cfg.model)),
                           encoding="utf-8")
    RunManifest.write(out_dir, "bound-curve", cfg, started, [csv_path, report_path])
    print(f"wrote {csv_path} and {report_path} (K_bar={report.K_bar}, N_c={report.N_c})")
    return _EXIT_OK


def _report_json(report: GibbsBoundReport, posterior_mean_inv_a: float) -> str:
    doc = {
        "n": report.n,
        "constants": asdict(report.constants),
        "K_bar": report.K_bar,
        "N_c": report.N_c,
        "mix_target_c": report.mix_target_c,
        "posterior_mean_inv_A": posterior_mean_inv_a,
        "k": [int(k) for k in report.k_values],
        "certificate_raw": list(map(float, report.certificate_raw)),
        "certificate_clamped": list(map(float, report.certificate_clamped)),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_sweep_n(cfg: ExperimentConfig, n_list: list[int], out_dir: Path) -> int:
    """One certificate row per sample size, fixed center, shared small-set level.

    The level d comes from the config when pinned and otherwise from the
    certificate of the first row that certifies (its default level), then
    stays fixed so the sweep probes how the remaining constants move with n
    alone.  Every row and the manifest are written even when some rows
    fail; the exit code is then _EXIT_NUMERICAL.
    """
    if "file" in cfg.data_source:
        raise ConfigError("sweep-n synthesises its data for each n; "
                          "use a data.synth config, not data.file")
    started = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    d_fixed = cfg.small_set_d
    nan = float("nan")
    for n in n_list:
        try:
            ds = cfg.resolve_dataset(n)
            report = assemble_gibbs_bound(
                ds, cfg.model,
                large_set=cfg.resolve_large_set(ds),
                d=d_fixed, k_max=1, mix_target_c=cfg.mix_target_c,
            )
            bc = report.constants
            d_fixed = bc.d_small
            rows.append([n, bc.lambda_T, bc.b_drift, bc.d_small, bc.epsilon,
                         bc.q_mass_lower, bc.gamma, report.K_bar, report.N_c, "ok"])
        except (ModelError, BoundError, MinorizationError, NumericsError) as exc:
            print(f"n={n}: failed ({exc})", file=sys.stderr)
            rows.append([n, nan, nan, nan, nan, nan, nan, 0, 0, "failed"])
    csv_path = out_dir / "sweep_n.csv"
    write_csv(
        csv_path,
        ["n", "lambda_T", "b", "d", "epsilon", "q_mass", "gamma", "K_bar", "N_c", "status"],
        rows,
    )
    RunManifest.write(out_dir, "sweep-n", cfg, started, [csv_path])
    n_ok = sum(1 for r in rows if r[-1] == "ok")
    print(f"wrote {csv_path} ({n_ok}/{len(rows)} rows ok)")
    return _EXIT_OK if n_ok == len(rows) else _EXIT_NUMERICAL


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Ensemble run: per-step binned distance to a reference chain, next to
    the certificate curve, plus the raw recorded states."""
    started = time.monotonic()
    ds = cfg.resolve_dataset()
    spec = cfg.resolve_large_set(ds)
    x0 = initial_state(ds, cfg.model)
    report = _assemble(cfg, ds, k_max=cfg.plan["n_steps"])

    ref_tb, ref_a = run_reference_chain(
        ds, cfg.model, RngStream(cfg.seed, REFERENCE_STREAM),
        cfg.reference["n_steps"], cfg.reference["burn_in"],
    )
    bins = BinGrid.equal_mass(ref_tb, ref_a, (64, 64))
    ref_counts = bins.counts(ref_tb, ref_a)
    ref_split_tv = split_half_tv(bins, ref_tb, ref_a)

    plan = SimulationPlan(seed=cfg.seed, **cfg.plan)
    summary = run_ensemble(plan, ds, cfg.model, x0, large_set=spec, bins=bins,
                           threads=cfg.threads)

    out_dir.mkdir(parents=True, exist_ok=True)
    se_ens = 1.0 / (2.0 * math.sqrt(plan.n_chains))
    tv_rows = []
    # step 0: the ensemble is the point mass at the start state
    x0_counts = np.zeros(bins.n_cells, dtype=np.int64)
    x0_counts[bins.cell_index(np.array([x0.theta_bar]), np.array([x0.A]))[0]] = 1
    tv_rows.append([0, tv_from_counts(x0_counts, ref_counts), 0.0, ref_split_tv, 1.0])
    for t in range(plan.n_steps):
        tv = tv_from_counts(summary.hist_counts[t], ref_counts)
        tv_rows.append([t + 1, tv, se_ens, ref_split_tv,
                        float(report.three_term_clamped[t])])
    tv_path = out_dir / "tv_vs_k.csv"
    write_csv(
        tv_path,
        ["k", "tv_lower_bound", "standard_error", "reference_split_tv", "bound_clamped"],
        tv_rows,
    )

    ens_path = out_dir / "ensemble.csv"
    ens_rows = []
    if summary.recorded_theta_bar is not None:
        for r, step in enumerate(summary.recorded_steps):
            tb_row = summary.recorded_theta_bar[r]
            a_row = summary.recorded_A[r]
            f_row = drift_value_summary(tb_row, a_row, ds, cfg.model)
            inb = spec.contains(a_row)
            for chain in range(plan.n_chains):
                ens_rows.append([chain, step, tb_row[chain], a_row[chain],
                                 f_row[chain], bool(inb[chain])])
    write_csv(ens_path, ["chain", "step", "theta_bar", "A", "f_value", "in_large_set"],
              ens_rows)

    agg_path = out_dir / "simulate_summary.json"
    agg = {
        "n": ds.n,
        "n_chains": plan.n_chains,
        "n_steps": plan.n_steps,
        "mean_f": list(map(float, summary.mean_f)),
        "se_f": list(map(float, summary.se_f)),
        "exit_frequency": list(map(float, 1.0 - summary.in_band_fraction)),
        "reference_steps": cfg.reference["n_steps"],
        "reference_split_tv": ref_split_tv,
    }
    agg_path.write_text(json.dumps(agg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    RunManifest.write(out_dir, "simulate", cfg, started, [tv_path, ens_path, agg_path])
    print(f"wrote {tv_path}, {ens_path}, {agg_path}")
    return _EXIT_OK


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, only: list[str] | None = None) -> int:
    started = time.monotonic()
    if only:
        unknown = [k for k in only if k not in acceptance.CRITERIA]
        if unknown:
            raise ConfigError(
                f"unknown criteria {unknown}; valid: {list(acceptance.CRITERIA)}"
            )
    # reject incoherent configurations before any computation starts
    ds = cfg.resolve_dataset()
    cfg.resolve_large_set(ds)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = acceptance.run_all(scale=cfg.validate_scale, only=only,
                                 progress=lambda msg: print(msg, flush=True))
    doc = [
        {
            "name": r.name,
            "passed": bool(r.passed),
            "measured": r.measured,
            "threshold": r.threshold,
            "seconds": round(r.seconds, 3),
        }
        for r in results
    ]
    report_path = out_dir / "validation_report.json"
    report_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    RunManifest.write(out_dir, "validate", cfg, started, [report_path])
    all_pass = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed; "
          f"report at {report_path}")
    return _EXIT_OK if all_pass else _EXIT_VALIDATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a config error (exit 1), not argparse's
    exit 2, which the exit codes give to numerical failures."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="driftbound",
        description="Convergence certificates for the hierarchical-normal Gibbs sampler.",
    )
    parser.add_argument("--version", action="version", version=f"driftbound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("synth-data", help="draw observations from the model")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--center", type=float, required=True)
    p.add_argument("--data-out", default=None, help="output file (default: OUT/data.txt)")

    p = sub.add_parser("bound-curve", help="the three-term bound curve per step")
    common(p)
    p.add_argument("--k-max", type=int, dest="k_max", help="override the config k_max")

    common(sub.add_parser("simulate", help="ensemble run next to the bound"))

    p = sub.add_parser("sweep-n", help="certificate constants across sample sizes")
    common(p)
    p.add_argument("--n-list", default="100,400,1600,6400",
                   help="comma-separated sample sizes")

    p = sub.add_parser("validate", help="run the acceptance suite")
    common(p)
    p.add_argument("--scale", type=float, default=None,
                   help="scale factor on sample counts (default from config)")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        overrides = {"seed": args.seed, "k_max": getattr(args, "k_max", None),
                     "validate_scale": getattr(args, "scale", None)}
        cfg = load_config(args.config, overrides)
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        if args.command == "synth-data":
            if args.n < 2:
                raise ConfigError("--n must be at least 2")
            if not (0.0 < args.center < math.inf):
                raise ConfigError("--center must be positive and finite")
            data_out = Path(args.data_out) if args.data_out else out_dir / "data.txt"
            return cmd_synth_data(cfg, args.n, args.center, data_out)
        if args.command == "bound-curve":
            return cmd_bound_curve(cfg, out_dir)
        if args.command == "sweep-n":
            n_list = []
            for tok in filter(str.strip, str(args.n_list).split(",")):
                try:
                    n_list.append(int(tok))
                except ValueError:
                    raise ConfigError(f"--n-list entry {tok.strip()!r} is not an integer")
            if not n_list:
                raise ConfigError("--n-list must contain at least one sample size")
            return cmd_sweep_n(cfg, n_list, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "validate":
            only = None
            if args.only is not None:
                only = [tok.strip() for tok in str(args.only).split(",") if tok.strip()]
                if not only:
                    raise ConfigError("--only must name at least one criterion")
            return cmd_validate(cfg, out_dir, only=only)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ModelError, BoundError, MinorizationError, NumericsError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
