import hashlib
import json
import math

import numpy as np
import pytest

from driftbound import cli, hier_model
from driftbound.cli import ConfigError, ExperimentConfig, load_observations
from driftbound.hier_model import drift_value_summary


def small_config(**overrides):
    doc = cli.default_config_dict()
    doc["k_max"] = 12
    doc["plan"] = {"n_chains": 400, "n_steps": 8, "burn_in": 0, "record_stride": 4}
    doc["reference"] = {"n_steps": 40000, "burn_in": 4000}
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="unknown model keys"):
        ExperimentConfig.from_dict({"model": {"V": 1.0, "what": 2}})


def test_exactly_one_data_source():
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict({"data": {}})
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_dict({"data": {"synth": {"n": 10, "center": 1.0},
                                             "file": "x.txt"}})


def test_invariants_named_in_errors():
    with pytest.raises(ConfigError, match="n must be an integer >= 2"):
        ExperimentConfig.from_dict({"data": {"synth": {"n": 1, "center": 1.0}}})
    with pytest.raises(ConfigError, match="k_max"):
        ExperimentConfig.from_dict({"k_max": 0})
    with pytest.raises(ConfigError, match="burn_in"):
        ExperimentConfig.from_dict(
            {"plan": {"n_chains": 10, "n_steps": 5, "burn_in": 5, "record_stride": 1}})
    with pytest.raises(ConfigError, match="V must be positive"):
        ExperimentConfig.from_dict({"model": {"V": -1.0}})


@pytest.mark.parametrize("doc, key", [
    ({"k_max": "ten"}, "k_max"),
    ({"model": {"V": "x"}}, "model.V"),
    ({"data": {"synth": {"n": "abc", "center": 0.1}}}, "data.synth.n"),
    ({"large_set_T": "a"}, "large_set_T"),
    ({"plan": {"n_chains": None}}, "plan.n_chains"),
    ({"model": [1, 2]}, "config.model"),
    ({"threads": 1.5}, "threads"),
    ({"data": {"synth": {"n": 100.9, "center": 0.1}}}, "data.synth.n"),
    ({"seed": True}, "seed"),
    ({"reference": {"burn_in": "0"}}, "reference.burn_in"),
    ({"data": {"synth": [100, 0.1]}}, "data.synth"),
    ({"data": {"file": 3}}, "data.file"),
    ({"data": {"synth": {"n": 100, "center": 0.1, "exact_center": "no"}}},
     "data.synth.exact_center"),
    ({"validate_scale": math.inf}, "validate_scale"),
    ({"data": {"synth": {"n": 100, "center": math.inf}}}, "data.synth.center"),
    ({"model": {"V": math.nan}}, "model.V"),
    ({"mix_target_c": 10**400}, "mix_target_c"),
    ({"k_max": 10**400}, "k_max"),
    ({"threads": 2}, "threads"),
])
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, doc, key):
    # a value of the wrong type is refused by name, not truncated or raised
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["bound-curve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be")
    assert not (tmp_path / "o").exists()


def test_seed_flag_past_the_float_range_is_a_config_error(tmp_path, capsys):
    rc = cli.main(["bound-curve", "--seed", "1" + "0" * 400, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: seed must be")
    assert not (tmp_path / "o").exists()


def test_integral_float_accepted_for_integer_keys():
    cfg = ExperimentConfig.from_dict({"k_max": 12.0, "plan": {"n_chains": 400.0}})
    assert type(cfg.k_max) is int and cfg.k_max == 12
    assert type(cfg.plan["n_chains"]) is int and cfg.plan["n_chains"] == 400


def test_large_set_override_validated_against_data(tmp_path):
    # T above the data center is rejected before any computation
    doc = small_config(large_set_T=0.5)
    rc = cli.main(["bound-curve", "--config", str(write_config(tmp_path, doc)),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert not (tmp_path / "o" / "bound_curve.csv").exists()


def test_observation_file_formats(tmp_path):
    txt = tmp_path / "data.txt"
    txt.write_text("1.0\n-1.0\n2.5\n", encoding="utf-8")
    ds = load_observations(txt)
    assert ds.n == 3 and ds.y_bar == pytest.approx(2.5 / 3.0)

    arr = tmp_path / "data.json"
    arr.write_text(json.dumps([1.0, -1.0, 2.5]), encoding="utf-8")
    ds2 = load_observations(arr)
    assert np.array_equal(ds.y, ds2.y)

    with pytest.raises(ConfigError):
        load_observations(tmp_path / "missing.txt")


@pytest.mark.parametrize("name, text, token", [
    ("data.txt", "1.0\nabc\n2.5\n", "'abc'"),
    ("data.json", '[1.0, "x", 2.5]', "'x'"),
    ("data.json", "[1.0, -1.0, 2.", "not valid JSON"),
    ("data.txt", "1.0\nnan\n2.5\n", "value 'nan' is not a finite number"),
    ("data.txt", "1.0\ninf\n2.5\n", "value 'inf' is not a finite number"),
    ("data.txt", "1.0\n1e400\n2.5\n", "value '1e400' is not a finite number"),
    ("data.json", "[1.0, 1e400, 2.5]", "value inf is not a finite number"),
    pytest.param("data.json", "[1.0, 1" + "0" * 400 + ", 2.5]", "0 is not a finite number",
                 id="data.json-integer past the float range"),
    # fewer than two values: a malformed file, not a numerical failure
    ("data.txt", "", "holds 0 values"),
    ("data.json", "[0.25]", "holds 1 values"),
    # finite values whose statistics overflow
    ("data.txt", "1e200\n-1e200\n", "delta overflows"),
    ("data.json", "[1e308, 1e308]", "y_bar overflows"),
])
def test_malformed_observation_file_is_a_config_error(tmp_path, capsys, name, text, token):
    data = tmp_path / name
    data.write_text(text, encoding="utf-8")
    cfg = write_config(tmp_path, small_config(data={"file": str(data)}))
    rc = cli.main(["bound-curve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(data) in err and token in err


# ---------------------------------------------------------------------------
# synth-data
# ---------------------------------------------------------------------------


def test_synth_data_deterministic(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out1 = tmp_path / "d1.txt"
    out2 = tmp_path / "d2.txt"
    for out in (out1, out2):
        rc = cli.main(["synth-data", "--config", str(cfg), "--n", "60",
                       "--center", "0.1", "--data-out", str(out),
                       "--out", str(out.parent / (out.stem + "_run"))])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    values = [float(v) for v in out1.read_text().split()]
    assert len(values) == 60


def test_synth_data_rejects_n_below_two(tmp_path):
    cfg = write_config(tmp_path, small_config())
    rc = cli.main(["synth-data", "--config", str(cfg), "--n", "1",
                   "--center", "0.1", "--out", str(tmp_path / "x")])
    assert rc == 1


def test_non_finite_command_line_numbers_are_config_errors(tmp_path, capsys):
    rc = cli.main(["validate", "--only", "2", "--scale", "inf", "--out", str(tmp_path / "v")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "config error: validate_scale must be a finite number")
    rc = cli.main(["synth-data", "--n", "60", "--center", "inf", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: --center must be positive and finite")
    assert not (tmp_path / "v").exists() and not (tmp_path / "s").exists()


def test_overflowing_thresholds_are_a_numerical_failure(tmp_path, capsys):
    # epsilon is so small here that log(1/gamma) is about 1e-253 and the
    # sample-size threshold N_c lies past the float range
    doc = small_config(
        model={"V": 0.8794796161131527, "a": 1.029387088679896,
               "b": 0.32954740957567846, "delta": 0.22711552034391164},
        data={"synth": {"n": 6291, "center": 0.6608113902702464, "exact_center": True}},
        large_set_T=0.16213698864919582,
    )
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["bound-curve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: N_c overflowed at K_bar = ")
    assert "Traceback" not in err


def test_synth_data_fails_when_margin_unreachable(tmp_path):
    # margin far above the marginal variance V + center cannot be met
    doc = small_config(model={"V": 8e-4, "a": 3.0, "b": 0.2, "delta": 5.0})
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["synth-data", "--config", str(cfg), "--n", "40",
                   "--center", "0.1", "--out", str(tmp_path / "x")])
    assert rc == 2


# ---------------------------------------------------------------------------
# bound-curve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def curve_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("curve")
    cfg = write_config(tmp, small_config())
    out = tmp / "run1"
    rc = cli.main(["bound-curve", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return tmp, cfg, out


def test_bound_curve_header_and_sums(curve_run):
    _, _, out = curve_run
    lines = (out / "bound_curve.csv").read_text().splitlines()
    assert lines[0] == "k,term1,term2,tail,total,clamped_total"
    for line in lines[1:]:
        k, t1, t2, tail, total, clamped = line.split(",")
        parts = float(t1) + float(t2) + float(tail)
        assert abs(parts - float(total)) <= 1e-12 * max(1.0, abs(float(total)))
        assert float(clamped) == min(1.0, float(total))
    term1 = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(term1, term1[1:]))


def test_bound_curve_rerun_is_byte_identical(curve_run):
    tmp, cfg, out = curve_run
    out2 = tmp / "run2"
    rc = cli.main(["bound-curve", "--config", str(cfg), "--out", str(out2)])
    assert rc == 0
    assert (out / "bound_curve.csv").read_bytes() == (out2 / "bound_curve.csv").read_bytes()
    assert (out / "bound_report.json").read_bytes() == (out2 / "bound_report.json").read_bytes()


def test_k_max_flag_sets_the_curve_length(curve_run):
    tmp, cfg, _ = curve_run
    out = tmp / "k7"
    assert cli.main(["bound-curve", "--config", str(cfg), "--k-max", "7", "--out", str(out)]) == 0
    assert len((out / "bound_curve.csv").read_text().splitlines()) == 1 + 7
    assert json.loads((out / "bound_report.json").read_text())["k"] == list(range(1, 8))


def test_bound_report_key_set(curve_run):
    _, _, out = curve_run
    doc = json.loads((out / "bound_report.json").read_text())
    assert set(doc) == {"n", "constants", "K_bar", "N_c", "mix_target_c",
                        "posterior_mean_inv_A", "k", "certificate_raw",
                        "certificate_clamped"}
    assert set(doc["constants"]) == {
        "lambda_T", "b_drift", "d_small", "T", "center", "epsilon", "q_mass_lower",
        "alpha", "Lambda", "r", "gamma", "log_inv_gamma", "C1", "C2", "C3", "f0",
    }


def test_bound_curve_computes_posterior_functional_once_outside_the_certificate(
        tmp_path, monkeypatch):
    # E[1/A] is no certificate constant: bound-curve computes it once for its
    # report, and never while the certificate is assembled
    calls = []
    assembling = []
    original_h, original_assemble = hier_model.expected_inv_A, cli.assemble_gibbs_bound

    def counted(*args, **kwargs):
        calls.append(bool(assembling))
        return original_h(*args, **kwargs)

    def assemble(*args, **kwargs):
        assembling.append(True)
        try:
            return original_assemble(*args, **kwargs)
        finally:
            assembling.pop()

    monkeypatch.setattr(hier_model, "expected_inv_A", counted)
    monkeypatch.setattr(cli, "expected_inv_A", counted)
    monkeypatch.setattr(cli, "assemble_gibbs_bound", assemble)
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "curve"
    assert cli.main(["bound-curve", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [False]
    doc = json.loads((out / "bound_report.json").read_text())
    config = cli.load_config(cfg, {})
    assert doc["posterior_mean_inv_A"] == original_h(config.resolve_dataset(), config.model)


def test_manifest_digests_match(curve_run):
    _, _, out = curve_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bound-curve"
    for artifact in manifest["artifacts"]:
        digest = hashlib.sha256((out / artifact["path"]).read_bytes()).hexdigest()
        assert digest == artifact["sha256"]


# ---------------------------------------------------------------------------
# sweep-n
# ---------------------------------------------------------------------------


def test_sweep_marks_failed_rows_and_continues(tmp_path):
    # a margin above the synthetic center makes every row fail the data
    # assumption, but the run still emits one row per n
    doc = small_config(model={"V": 8e-4, "a": 3.0, "b": 0.2, "delta": 0.3})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-n", "--config", str(cfg), "--n-list", "50,100",
                   "--out", str(out)])
    assert rc == 2
    lines = (out / "sweep_n.csv").read_text().splitlines()
    assert lines[0] == "n,lambda_T,b,d,epsilon,q_mass,gamma,K_bar,N_c,status"
    assert len(lines) == 3
    assert all(line.endswith(",failed") for line in lines[1:])
    assert (out / "manifest.json").exists()


def test_sweep_rejects_file_data(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config())
    data = tmp_path / "data.txt"
    rc = cli.main(["synth-data", "--config", str(cfg), "--n", "60", "--center", "0.1",
                   "--data-out", str(data), "--out", str(tmp_path / "synth")])
    assert rc == 0
    file_cfg = write_config(tmp_path, small_config(data={"file": str(data)}), "file.json")
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-n", "--config", str(file_cfg), "--n-list", "50,100",
                   "--out", str(out)])
    assert rc == 1
    assert "sweep-n synthesises its data for each n" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_malformed_n_list(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-n", "--n-list", "100,x", "--out", str(out)])
    assert rc == 1
    assert "config error: --n-list entry 'x' is not an integer" in capsys.readouterr().err
    assert not out.exists()

    # impossible and repeated sample sizes are config errors, found before
    # any certificate is computed or the output directory is made
    def refuse(*args, **kwargs):
        raise AssertionError("sweep-n computed a certificate for a refused --n-list")

    monkeypatch.setattr(cli, "assemble_gibbs_bound", refuse)
    for n_list, message in [
        ("0,100", "--n-list entry 0 is not a sample size: need n >= 2"),
        ("1", "--n-list entry 1 is not a sample size: need n >= 2"),
        ("-3", "--n-list entry -3 is not a sample size: need n >= 2"),
        ("100,100", "--n-list names sample sizes more than once: [100]"),
        ("400,100,400,6400,100", "--n-list names sample sizes more than once: [400, 100]"),
    ]:
        rc = cli.main(["sweep-n", f"--n-list={n_list}", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
    monkeypatch.undo()

    # below n = 5 a sample size is valid but has no certificate: a failed row
    rc = cli.main(["sweep-n", "--n-list", "4,100", "--out", str(out)])
    assert rc == 2
    lines = (out / "sweep_n.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "100"]
    assert lines[1].endswith(",failed") and lines[2].endswith(",ok")


def test_sweep_does_not_compute_the_posterior_functional(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep-n computed E[1/A], which no certificate uses")

    monkeypatch.setattr(hier_model, "expected_inv_A", refuse)
    out = tmp_path / "sweep"
    assert cli.main(["sweep-n", "--n-list", "100,6400", "--out", str(out)]) == 0
    lines = (out / "sweep_n.csv").read_text().splitlines()
    assert len(lines) == 3 and all(line.endswith(",ok") for line in lines[1:])


def test_sweep_ok_rows(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-n", "--config", str(cfg), "--n-list", "50,100",
                   "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep_n.csv").read_text().splitlines()
    assert len(lines) == 3 and all(line.endswith(",ok") for line in lines[1:])
    # the small-set level is shared across rows
    d_values = {line.split(",")[3] for line in lines[1:]}
    assert len(d_values) == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_outputs(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / "tv_vs_k.csv").read_text().splitlines()
    assert lines[0] == "k,tv_lower_bound,standard_error,reference_split_tv,bound_clamped"
    rows = [line.split(",") for line in lines[1:]]
    assert rows[0][0] == "0" and float(rows[0][1]) > 0.95  # point mass vs posterior
    for row in rows:
        k, tv, se, ref_tv, bound = (float(v) for v in row)
        slack = 3.0 * math.hypot(se, ref_tv)
        assert bound >= tv - slack
    ens_lines = (out / "ensemble.csv").read_text().splitlines()
    assert ens_lines[0] == "chain,step,theta_bar,A,f_value,in_large_set"
    assert len(ens_lines) == 1 + 400 * 2  # two recorded steps, every chain
    # each row's energy and band flag agree with the model's own definitions
    exp = cli.load_config(str(cfg))
    ds = exp.resolve_dataset()
    spec = exp.resolve_large_set(ds)
    cols = [line.split(",") for line in ens_lines[1:]]
    tb, a, f = (np.array([float(c[i]) for c in cols]) for i in (2, 3, 4))
    assert np.allclose(f, drift_value_summary(tb, a, ds, exp.model), rtol=1e-12, atol=1e-12)
    assert [c[5] == "true" for c in cols] == list(spec.contains(a))


def test_simulate_se_scales_with_chain_count(tmp_path):
    doc_a = small_config()
    doc_b = small_config()
    doc_b["plan"] = dict(doc_b["plan"], n_chains=800)
    se = {}
    for tag, doc in (("a", doc_a), ("b", doc_b)):
        cfg = write_config(tmp_path, doc, name=f"cfg_{tag}.json")
        out = tmp_path / f"sim_{tag}"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        line = (out / "tv_vs_k.csv").read_text().splitlines()[2]
        se[tag] = float(line.split(",")[2])
    ratio = se["a"] / se["b"]
    assert abs(ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_report_roundtrip(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "val"
    rc = cli.main(["validate", "--config", str(cfg), "--out", str(out), "--only", "8"])
    assert rc == 0
    doc = json.loads((out / "validation_report.json").read_text())
    assert isinstance(doc, list) and len(doc) == 1
    entry = doc[0]
    assert set(entry) == {"name", "passed", "measured", "threshold", "seconds"}
    assert entry["passed"] is True
    assert json.loads(json.dumps(doc)) == doc


def test_validate_rejects_bad_config_before_running(tmp_path):
    doc = small_config(large_set_T=0.5)  # above the data center
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "val"
    rc = cli.main(["validate", "--config", str(cfg), "--out", str(out), "--only", "8"])
    assert rc == 1
    assert not (out / "validation_report.json").exists()


def test_validate_unknown_criterion(tmp_path):
    cfg = write_config(tmp_path, small_config())
    rc = cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v"),
                   "--only", "99"])
    assert rc == 1


@pytest.mark.parametrize("only, repeated", [("8,8", "['8']"), ("2,8, 2,8,5", "['2', '8']")])
def test_validate_refuses_a_repeated_criterion(tmp_path, capsys, only, repeated):
    out = tmp_path / "v"
    rc = cli.main(["validate", "--only", only, "--scale", "0.01", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config error: criteria named more than once: {repeated}\n")
    assert not out.exists()


@pytest.mark.parametrize("only", [",", "", " , "])
def test_validate_only_naming_no_criterion_is_refused(tmp_path, capsys, only):
    out = tmp_path / "v"
    rc = cli.main(["validate", "--only", only, "--scale", "0.01", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "config error: --only must name at least one criterion")
    assert not out.exists()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["sweep-n", "--bogus"], "unrecognized arguments: --bogus"),
    # only bound-curve reads --k-max
    (["sweep-n", "--k-max", "5"], "unrecognized arguments: --k-max 5"),
    (["simulate", "--k-max", "5"], "unrecognized arguments: --k-max 5"),
    (["bound-curve", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["no-such-command"], "argument command: invalid choice"),
    ([], "the following arguments are required: command"),
])
def test_malformed_command_line_is_a_config_error(tmp_path, monkeypatch, capsys, argv, message):
    # exit 1, as for a malformed config; 2 is kept for numerical failures
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_main_is_reentrant_with_one_parser(tmp_path, capsys):
    # one parser serves every in-process call: a rerun writes the same bytes,
    # and a malformed command line between two runs changes neither
    outs = [tmp_path / f"sweep{i}" for i in range(3)]
    for i, out in enumerate(outs):
        if i:
            assert cli.main(["sweep-n", "--n-list", "100", "--bogus"]) == 1
            assert cli.main(["sweep-n", "--k-max", "5", "--out", str(tmp_path / "bad")]) == 1
        assert cli.main(["sweep-n", "--n-list", "100", "--seed", "3", "--out", str(out)]) == 0
    first, *rest = ((out / "sweep_n.csv").read_bytes() for out in outs)
    assert all(blob == first for blob in rest)
    assert not (tmp_path / "bad").exists()
    # the defaults of an earlier call do not leak into the next one
    default_out = tmp_path / "default"
    assert cli.main(["sweep-n", "--n-list", "100", "--out", str(default_out)]) == 0
    assert (default_out / "sweep_n.csv").read_bytes() != first
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "sweep-n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep-n", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out
