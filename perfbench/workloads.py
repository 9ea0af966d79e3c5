"""The benchmark workloads: certify, and sampling (chains plus oracles).

A workload is set up once per process (imports, config, dataset) and then
runs whole passes.  Every pass attempts the same operations, so the share of
failed operations does not depend on how many passes fit into a run.  The
program is always reached through module attributes at call time, so a
tracer installed between passes sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks

MODULES = ("numerics", "bound_core", "hier_model", "minorization", "_marginal",
           "simulation", "cli", "acceptance")

SWEEP_N_LIST = (100, 6400)
ORACLE_CRITERIA = ("1", "2", "5", "6", "8")
ORACLE_SCALE = "0.05"
PAIRS, PAIR_STEPS = 4000, 60


class ProgramMissing(Exception):
    """The driftbound sources are not where the benchmark expects them."""


def import_program(root: Path) -> SimpleNamespace:
    """The driftbound modules under ``root/src``, by layer name, plus the
    list of them in ``modules``."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import driftbound
    except ImportError as exc:
        raise ProgramMissing(f"cannot import driftbound from {src}: {exc}") from exc
    if Path(driftbound.__file__).resolve().parent != src / "driftbound":
        raise ProgramMissing(f"driftbound was imported from {driftbound.__file__}, not {src}")
    modules = [importlib.import_module(f"driftbound.{m}") for m in MODULES]
    layers = {m.lstrip("_"): mod for m, mod in zip(MODULES, modules)}
    return SimpleNamespace(modules=modules, **layers)


@dataclass
class PassResult:
    """One pass: its wall time, split into timed ``parts`` that add up to
    it; the times of single operations inside them (``op_s``); outputs that
    every pass must repeat byte for byte (``blobs``)."""

    wall_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)
    op_s: dict[str, float] = field(default_factory=dict)
    blobs: dict[str, bytes] = field(default_factory=dict)


@contextlib.contextmanager
def timed_calls(module, name: str, key, log: list):
    """Record (key(args), seconds) for every call through ``module.name``."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            log.append((key(args, kwargs), time.perf_counter() - t0))

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def _report_exception(what: str) -> None:
    print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)


def _cli(program: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """Run ``driftbound`` in-process; its own printing goes to a buffer."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = program.cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    name = ""
    work: dict[str, int] = {}   # work items per operation, for rate metrics

    def __init__(self, program: SimpleNamespace, seed: int, out_dir: Path):
        self.p = program
        self.seed = seed
        self.out_dir = out_dir

    def run_pass(self, index: int, span) -> PassResult:
        raise NotImplementedError


class Certify(Workload):
    """``driftbound sweep-n`` over SWEEP_N_LIST on the default configuration."""

    name = "certify"

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        self.cfg = program.cli.load_config(None, {"seed": seed})
        synth = self.cfg.data_source["synth"]
        self.center = float(synth["center"])
        model = self.cfg.model
        self.T = (self.cfg.large_set_T if self.cfg.large_set_T is not None
                  else min(model.delta_margin, self.center / 2.0))

    def run_pass(self, index, span):
        out = self.out_dir / f"pass{index}"
        argv = ["sweep-n", "--n-list", ",".join(map(str, SWEEP_N_LIST)),
                "--seed", str(self.seed), "--out", str(out)]
        log: list = []
        res = PassResult(wall_s=0.0, attempted=len(SWEEP_N_LIST), failed=len(SWEEP_N_LIST))
        t0 = time.perf_counter()
        try:
            with timed_calls(self.p.cli, "assemble_gibbs_bound", lambda a, kw: a[0].n, log), \
                    span("bench.certify.sweep_n"):
                rc, printed = _cli(self.p, argv)
        except Exception:
            _report_exception("sweep-n")
            return res
        finally:
            res.wall_s = time.perf_counter() - t0
            res.parts = {"sweep_n_rest": res.wall_s}
        # each certificate is a timed part; the rest of the call (data,
        # CSV, manifest) is one more
        res.op_s = {f"certificate_n{n}": s for n, s in log}
        res.parts = {**res.op_s, "sweep_n_rest": res.wall_s - sum(res.op_s.values())}
        csv_path = out / "sweep_n.csv"
        if rc != 0 or not csv_path.exists():
            res.problems.append(f"sweep-n exited {rc} without a usable sweep_n.csv:\n{printed}")
            return res
        blob = csv_path.read_bytes()
        res.blobs["sweep_n.csv"] = blob
        rows = checks.parse_sweep_csv(blob.decode("utf-8"))
        res.failed = sum(1 for r in rows if r["status"] != "ok") + max(0, res.attempted - len(rows))
        res.problems += checks.check_sweep(rows, list(SWEEP_N_LIST), self.cfg.model.V,
                                           self.T, self.center)
        return res


class Chains(Workload):
    """The chain work of ``driftbound simulate``, through the library."""

    parts = ("reference_chain", "equal_mass", "ensemble", "return_times")

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        p = program
        self.cfg = p.cli.load_config(None, {"seed": seed})
        self.model = self.cfg.model
        self.ds = self.cfg.resolve_dataset()
        self.spec = self.cfg.resolve_large_set(self.ds)
        self.x0 = p.hier_model.initial_state(self.ds, self.model)
        b = p.hier_model.drift_offset_b(self.ds, self.model, self.spec)
        lam = p.hier_model.lambda_T(self.spec, self.model.V)
        self.d = 2.5 * b / (1.0 - lam)
        self.alpha, _ = p.bound_core.derive_alpha_lambda(
            p.bound_core.DriftParameters(lam=lam, b_drift=b, d_small=self.d))
        self.plan = p.simulation.SimulationPlan(seed=seed, **self.cfg.plan)
        self.work = {
            "chain_steps": self.plan.n_chains * self.plan.n_steps,
            "ref_steps": self.cfg.reference["n_steps"] + self.cfg.reference["burn_in"],
        }
        self._posterior = None

    def _steps(self):
        p, sim = self.p, self.p.simulation
        state: dict = {}

        def reference_chain():
            stream = p.numerics.RngStream(self.seed, sim.REFERENCE_STREAM)
            state["ref"] = sim.run_reference_chain(self.ds, self.model, stream,
                                                   self.cfg.reference["n_steps"],
                                                   self.cfg.reference["burn_in"])

        def equal_mass():
            state["bins"] = sim.BinGrid.equal_mass(*state["ref"], (64, 64))

        def ensemble():
            state["ens"] = sim.run_ensemble(self.plan, self.ds, self.model, self.x0,
                                            large_set=self.spec, bins=state["bins"],
                                            threads=self.cfg.threads)

        def return_times():
            state["hit"] = sim.hitting_time_stats(PAIRS, PAIR_STEPS, self.ds, self.model,
                                                  self.spec, self.d, self.alpha, seed=self.seed)

        return state, (reference_chain, equal_mass, ensemble, return_times)

    def run_pass(self, index, span):
        state, steps = self._steps()
        res = PassResult(wall_s=0.0, attempted=len(steps), failed=0)
        for i, step in enumerate(steps):
            t0 = time.perf_counter()
            try:
                with span(f"bench.chains.{self.parts[i]}"):
                    step()
            except Exception:
                _report_exception(self.parts[i])
                res.failed = len(steps) - i
                break
            finally:
                res.parts[self.parts[i]] = time.perf_counter() - t0
        res.op_s = res.parts
        res.wall_s = sum(res.parts.values())
        if res.failed:
            return res
        res.problems += self._check(state)
        return res

    def _check(self, state) -> list[str]:
        hm = self.p.hier_model
        if self._posterior is None:
            self._posterior = checks.posterior_A_moments(
                self.ds.n, self.ds.delta, self.model.V, self.model.prior_shape_a,
                self.model.prior_scale_b)
        ens = state["ens"]
        exact_f1 = float(hm.expected_drift(self.x0.theta_bar, self.x0.A, self.ds, self.model))
        return (checks.check_reference(state["ref"][1], *self._posterior)
                + checks.check_ensemble(float(ens.mean_f[0]), float(ens.se_f[0]), exact_f1,
                                        ens.hist_counts, self.plan.n_chains)
                + checks.check_return_times(state["hit"].t_matrix))


class Oracles(Workload):
    """``driftbound validate --only 1,2,5,6,8 --scale 0.05``."""

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        program.cli.load_config(None, {"seed": seed, "validate_scale": float(ORACLE_SCALE)})

    def run_pass(self, index, span):
        out = self.out_dir / f"pass{index}"
        argv = ["validate", "--only", ",".join(ORACLE_CRITERIA), "--scale", ORACLE_SCALE,
                "--seed", str(self.seed), "--out", str(out)]
        res = PassResult(wall_s=0.0, attempted=len(ORACLE_CRITERIA), failed=len(ORACLE_CRITERIA))
        t0 = time.perf_counter()
        try:
            with span("bench.oracles.validate"):
                rc, printed = _cli(self.p, argv)
        except Exception:
            _report_exception("validate")
            return res
        finally:
            res.wall_s = time.perf_counter() - t0
            res.parts = {"validate": res.wall_s}
        report_path = out / "validation_report.json"
        if not report_path.exists():
            res.problems.append(f"validate exited {rc} without a report:\n{printed}")
            return res
        report = json.loads(report_path.read_text(encoding="utf-8"))
        res.failed = sum(1 for r in report if r.get("passed") is not True)
        res.failed += max(0, res.attempted - len(report))
        res.problems += checks.check_validation(rc, report, list(ORACLE_CRITERIA))
        return res


class Sampling(Workload):
    """The chain work of ``simulate`` followed by the oracle criteria: all of
    the program's Monte Carlo, and no minorization.

    One run of the two together lasts long enough to average over the
    machine's slow and fast periods, which one run of either alone does not
    (see README.md).
    """

    name = "sampling"

    def __init__(self, program, seed, out_dir):
        super().__init__(program, seed, out_dir)
        self.chains = Chains(program, seed, out_dir)
        self.oracles = Oracles(program, seed, out_dir)
        self.work = self.chains.work

    def run_pass(self, index, span):
        a = self.chains.run_pass(index, span)
        b = self.oracles.run_pass(index, span)
        return PassResult(
            wall_s=a.wall_s + b.wall_s,
            attempted=a.attempted + b.attempted,
            failed=a.failed + b.failed,
            problems=a.problems + b.problems,
            parts={**a.parts, **b.parts},
            op_s={**a.op_s, **b.op_s},
        )


WORKLOADS = {w.name: w for w in (Certify, Sampling)}
