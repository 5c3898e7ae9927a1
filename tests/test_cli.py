"""Tests for the command line: NB_THREADS, config errors, failed runs, output files and import cost."""

import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from blas_threads import blas_at_two, requires_openblas, thread_counts  # noqa: F401 (a fixture)

import beyondnyq
from beyondnyq import cli, estimator, sim
from beyondnyq.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from beyondnyq.errors import NumericalError
from beyondnyq.estimator import kernel_and_gamma, save_model, tuning_start
from beyondnyq.kernels import kernel_spec_from_json
from beyondnyq.signals import FastSignal, FirModel, fir_frf, random_noise, read_signal_csv, write_signal_csv

TINY_MC = {"runs": 2, "n_samples": 90, "orders": [10, 30], "tune": True, "tune_budget": 60}


def simulate_mc(tmp_path, name, mc=TINY_MC):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({"seed": 3, "monte_carlo": mc}))
    out = tmp_path / name
    return main(["simulate-mc", "--config", str(config), "--out", str(out)]), out


def test_nb_threads_leaves_outputs_unchanged(tmp_path, monkeypatch):
    monkeypatch.delenv("NB_THREADS", raising=False)
    code, serial = simulate_mc(tmp_path, "serial")
    assert code == EXIT_OK
    monkeypatch.setenv("NB_THREADS", "2")
    code, threaded = simulate_mc(tmp_path, "threaded")
    assert code == EXIT_OK
    for name in ("runs.csv", "summary.csv"):
        assert (threaded / name).read_bytes() == (serial / name).read_bytes()
    assert multiprocessing.active_children() == []


def test_non_integer_nb_threads_is_config_error(tmp_path, monkeypatch, capsys):
    """A worker count that is not an integer >= 1 exits 2; it never runs one worker."""
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("NB_THREADS", raw)
        code, out = simulate_mc(tmp_path, f"bad{raw}")
        assert code == EXIT_CONFIG
        assert "NB_THREADS" in capsys.readouterr().err
        assert not (out / "runs.csv").exists()


@pytest.mark.parametrize(
    "settings",
    [
        {"runs": 2.5},
        {"runs": True},
        {"factor": 2.5},
        {"n_samples": 90.5},
        {"tune_budget": 0},
        {"orders": [10.7, 30]},
        {"orders": [True, 30]},
        {"base_seed": 2.5},
        {"base_seed": -1},
        {"band": [5, 400]},
        {"band": [10, 5]},
        {"snr_range": [40]},
        {"nominal": 3},
        {"gamma": -1},
        {"gamma": "1e-5"},
        {"input_rms": -1},
        {"tune": "no"},
        {"tune": 1},
        {"period_s": "0.1"},
        {"snr_range": [True, 50]},
        {"dc_kernel": {"type": "dc", "scale": True}},
        {"orders": 5},
        {"estimators": "dc"},
        {"estimators": []},
        {"period_s": 0},
        {"runz": 2},
        {"orders": [10, 10]},
        {"estimators": ["dc", "dc"]},
    ],
    ids=[
        "runs-float", "runs-bool", "factor-float", "n_samples-float", "tune_budget-zero",
        "orders-float", "orders-bool", "base_seed-float", "base_seed-negative",
        "band-above-nyquist", "band-empty", "snr_range-short", "nominal-number", "gamma-negative",
        "gamma-string", "input_rms-negative", "tune-string", "tune-number", "period-string",
        "snr_range-bool", "kernel-scale-bool", "orders-number", "estimators-string", "estimators-empty", "period-zero",
        "unknown-setting", "orders-duplicate", "estimators-duplicate",
    ],
)
def test_bad_mc_counts_are_config_errors(tmp_path, capsys, settings):
    code, out = simulate_mc(tmp_path, "bad", {**TINY_MC, **settings})
    assert code == EXIT_CONFIG
    assert next(iter(settings)) in capsys.readouterr().err
    assert not (out / "runs.csv").exists()


def test_seed_option_wins_over_base_seed(tmp_path):
    """``--seed 9`` on a config with ``"base_seed": 7`` runs base seed 9; the
    commands that draw no random numbers have no ``--seed``."""
    mc = {"runs": 1, "n_samples": 60, "orders": [10]}
    code, expected = simulate_mc(tmp_path, "nine", {**mc, "base_seed": 9})
    assert code == EXIT_OK
    config = tmp_path / "seven.json"
    config.write_text(json.dumps({"seed": 3, "monte_carlo": {**mc, "base_seed": 7}}))
    out = tmp_path / "overridden"
    assert main(["simulate-mc", "--config", str(config), "--seed", "9", "--out", str(out)]) == EXIT_OK
    for name in ("runs.csv", "summary.csv"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()
    for command in ("identify", "tune", "frf"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(config), "--seed", "9"])
        assert exit_info.value.code == 2  # argparse's usage error


def test_failed_run_reports_type_and_diagnostics(tmp_path, monkeypatch, capsys):
    def fail(problem):
        raise NumericalError("no factor", {"gamma": 1e-5})

    monkeypatch.setattr(sim, "regularized_fir", fail)
    code, _ = simulate_mc(tmp_path, "failed", {"runs": 1, "n_samples": 90, "orders": [10], "estimators": ["dc"]})
    assert code == EXIT_NUMERICAL
    assert "run 0 failed: NumericalError: no factor diagnostics={'gamma': 1e-05}" in capsys.readouterr().err


def test_tuner_failing_in_workers_exits_1_and_leaves_no_process(tmp_path, monkeypatch, capsys):
    """A tuned study on two workers, whose tuner raises in the worker
    processes, names each failed run with its diagnostics and exits 1, and
    no worker outlives the command."""
    def fail(*args, **kwargs):
        raise NumericalError("no factor", {"gamma": 1e-5})

    monkeypatch.setattr(sim, "optimize_hyperparameters", fail)
    monkeypatch.setenv("NB_THREADS", "2")
    code, out = simulate_mc(tmp_path, "failed")
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    for run in range(TINY_MC["runs"]):
        assert f"run {run} failed: NumericalError: no factor diagnostics={{'gamma': 1e-05}}" in err
    assert (out / "runs.csv").exists()
    assert multiprocessing.active_children() == []


def test_import_leaves_scipy_signal_unloaded():
    """``scipy.signal`` costs most of a second to import: the program must
    not load it, so ``import beyondnyq.cli`` stays cheap."""
    src = str(Path(beyondnyq.__file__).resolve().parents[1])
    code = "import sys, beyondnyq.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def identify_config(tmp_path):
    """A small identify/tune config whose data files exist (N=90, F=3, M=30)."""
    u = random_noise(90, 0.1, 1.0, seed=5)
    y = FastSignal(samples=np.convolve(u.samples, 0.8 ** np.arange(12))[:90][::3], period=0.3)
    write_signal_csv(u, tmp_path / "u.csv")
    write_signal_csv(y, tmp_path / "y.csv")
    return {
        "sampling": {"period_s": 0.1, "factor": 3},
        "data": {"input_csv": str(tmp_path / "u.csv"), "output_csv": str(tmp_path / "y.csv")},
        "order": 12,
        "estimators": ["ls", "dc"],
        "kernels": {"dc": {"type": "dc", "scale": 1.0, "decay": 0.9, "correlation": 0.5}},
        "frf": {"points": 20},
        "tune": {"estimator": "dc", "init": {"decay": 0.9}, "budget": 5},
    }


def frf_config(tmp_path):
    save_model(FirModel(theta=np.array([1.0, 0.5]), period=0.1), tmp_path / "model.json")
    return {"model_json": str(tmp_path / "model.json"), "frf": {"points": 20}}


def mc_config(tmp_path):
    return {"seed": 3, "monte_carlo": dict(TINY_MC)}


def mc_sampling_config(tmp_path):
    return {**mc_config(tmp_path), "sampling": {"period_s": 0.1, "factor": 3}}


@pytest.mark.parametrize(
    "command, make_config, path, value",
    [
        ("simulate-mc", mc_config, ("seed",), 2.5),
        ("simulate-mc", mc_sampling_config, ("sampling", "factor"), 2.5),
        ("simulate-mc", mc_sampling_config, ("sampling", "factor"), True),
        ("simulate-mc", mc_config, ("monte_carlo", "band"), [1.5, 10]),
        ("identify", identify_config, ("order",), 10.5),
        ("identify", identify_config, ("frf", "points"), 20.5),
        ("tune", identify_config, ("order",), True),
        ("tune", identify_config, ("tune", "budget"), 5.5),
        ("frf", frf_config, ("frf", "points"), 30.5),
    ],
    ids=[
        "seed-float", "factor-float", "factor-bool", "band-float", "identify-order-float",
        "points-float", "tune-order-bool", "budget-float", "frf-points-float",
    ],
)
def test_non_integral_settings_are_config_errors(tmp_path, capsys, command, make_config, path, value):
    """Each integer setting is checked, never truncated (2.5 used to run as 2)."""
    config = make_config(tmp_path)
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert path[-1] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, path, value, named",
    [
        ("tune", ("tune", "bounds"), {"decay": 5}, "tune.bounds.decay"),
        ("tune", ("tune", "bounds"), {"decay": [1]}, "tune.bounds.decay"),
        ("tune", ("tune", "init"), [1], "tune.init"),
        ("identify", ("sampling",), 3, "sampling"),
        ("identify", ("kernels", "dc"), {"type": "pk"}, "'decay'"),
        ("identify", ("kernels", "dc"), {"type": "sum"}, "'terms'"),
        ("identify", ("kernels", "dc"), {"type": "sum", "terms": 3}, "'terms'"),
        ("identify", ("frf", "omega_max"), 0, "omega_max"),
        ("identify", ("frf", "omega_min"), -1, "omega_min"),
        ("identify", ("frf", "omega_max"), math.inf, "omega_max"),
        ("identify", ("estimators",), "dc", "estimators"),
        ("identify", ("gamma",), [1e-5], "gamma"),
        ("identify", ("sampling", "period_s"), [0.1], "period_s"),
        ("identify", ("sampling", "period_s"), "0.1", "period_s"),
        ("identify", ("gamma",), True, "gamma"),
        ("identify", ("kernels", "dc", "scale"), [1.0], "scale"),
        ("identify", ("data", "input_csv"), 3, "data.input_csv"),
        ("identify", ("data", "output_csv"), ["y.csv"], "data.output_csv"),
        ("frf", ("model_json",), 5, "model_json"),
        ("tune", ("tune", "init"), {"sigma1": 1.0}, "'sigma1'"),
        ("identify", ("kernels", "dc", "type"), [], "kernel type []"),
        ("identify", ("gama",), 1e-3, "unknown config keys: ['gama']"),
        ("identify", ("sampling", "perod_s"), 0.1, "unknown sampling keys: ['perod_s']"),
        ("identify", ("data", "input"), "u.csv", "unknown data keys: ['input']"),
        ("identify", ("frf", "point"), 20, "unknown frf keys: ['point']"),
        ("tune", ("tune", "budjet"), 5, "unknown tune keys: ['budjet']"),
        ("tune", ("tune", "bounds"), {"decya": [0.5, 0.95]}, "unknown tune.bounds keys: ['decya']"),
        ("tune", ("tune",), {"estimator": "dc", "init": {"gamma": 1e-5}, "bounds": {"gamma": [0, 1]}}, "gamma"),
        (
            "tune", ("tune",), {"estimator": "dc", "init": {"gamma": 1e-5}, "bounds": {"gamma": [1e-9, math.inf]}},
            "gamma needs finite bounds",
        ),
        (
            "simulate-mc", ("monte_carlo",), {"runs": 1, "n_samples": 60, "orders": [10], "snr_range": [40, math.inf]},
            "snr_range",
        ),
        ("identify", ("estimators",), ["dc", "dc"], "estimators"),
        ("tune", ("tune", "init"), {}, "tune.init"),
    ],
    ids=[
        "bounds-number", "bounds-short", "init-list", "sampling-number", "pk-without-decay",
        "sum-without-terms", "sum-terms-number", "omega_max-zero", "omega_min-negative", "omega_max-infinite",
        "estimators-string", "gamma-list",
        "period-list", "period-string", "gamma-bool", "scale-list", "input_csv-number", "output_csv-list",
        "model_json-number", "init-foreign-field", "type-list",
        "unknown-key", "unknown-sampling-key", "unknown-data-key", "unknown-frf-key", "unknown-tune-key",
        "bounds-without-init", "log-bound-zero", "bound-infinite", "snr_range-infinite", "estimators-duplicate",
        "init-empty",
    ],
)
def test_malformed_config_shapes_are_config_errors(tmp_path, capsys, command, path, value, named):
    """A config value of the wrong shape exits 2 and names the setting; it
    neither raises (exit 1 means a numerical failure) nor runs with a
    default in its place."""
    config = identify_config(tmp_path)
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_non_string_output_dir_is_config_error(tmp_path, capsys, monkeypatch):
    """Without ``--out`` the output directory comes from the config."""
    config = identify_config(tmp_path)
    config["output_dir"] = 3
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(["identify", "--config", str(config_path)]) == EXIT_CONFIG
    assert "output_dir" in capsys.readouterr().err
    assert not (tmp_path / "3").exists()


@pytest.mark.parametrize(
    "command, make_config", [("identify", identify_config), ("tune", identify_config), ("frf", frf_config)]
)
def test_integer_settings_accepted(tmp_path, command, make_config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_config(tmp_path)))
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK


@requires_openblas
@pytest.mark.parametrize("command, fit", [("identify", "fit_with_evidence"), ("tune", "optimize_hyperparameters")])
def test_fits_see_single_threaded_blas(tmp_path, monkeypatch, blas_at_two, command, fit):
    """Each command runs its fits with every loaded OpenBLAS on one thread,
    and main restores the thread counts it found when it returns."""
    seen = []
    original = getattr(cli, fit)

    def spy(*args, **kwargs):
        seen.append(thread_counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, fit, spy)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(identify_config(tmp_path)))
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert seen == [[1] * len(blas_at_two)]
    assert thread_counts() == blas_at_two


@pytest.mark.parametrize(
    "order, gram",
    [(12, "_feature_gram"), (40, "_output_gram")],
    ids=["feature", "dual"],
)
def test_identify_factors_once_per_regularized_estimator(tmp_path, monkeypatch, order, gram):
    """The model and its evidence come from one Gram and one Cholesky factor:
    the feature-space X'X at P=12 < M=30, the output-space Phi K Phi' at
    P=40 >= M."""
    calls = {"_feature_gram": 0, "_output_gram": 0, "_lower_cholesky": 0}
    for name in calls:
        original = getattr(estimator, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(estimator, name, counted)
    config = identify_config(tmp_path)
    config["estimators"], config["order"] = ["dc"], order
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["identify", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert calls == {"_feature_gram": 0, "_output_gram": 0, gram: 1, "_lower_cholesky": 1}


def test_theta_and_frf_cells_are_python_float_text(tmp_path):
    """``theta_<e>.csv`` and ``frf_<e>.csv`` hold each value as
    ``format(float(v), ".17g")``, negative zero and subnormals included."""
    theta = np.array([0.1, -0.0, 5e-324, -1e-310, 2.0 / 3.0])
    model = FirModel(theta=theta, period=0.1)
    omegas = np.array([0.0, 1.0 / 3.0, math.pi / 0.1])
    cli._write_frf_csv(model, tmp_path / "frf.csv", omegas)
    values = fir_frf(model, omegas)
    columns = (omegas, omegas / (2.0 * math.pi), np.hypot(values.real, values.imag), np.angle(values))
    rows = "".join(",".join(format(float(c[k]), ".17g") for c in columns) + "\n" for k in range(len(omegas)))
    assert (tmp_path / "frf.csv").read_text() == "omega_rad_s,freq_hz,magnitude,phase_rad\n" + rows
    path = tmp_path / "identify.json"
    config = identify_config(tmp_path)
    config["estimators"] = ["dc"]
    path.write_text(json.dumps(config))
    assert main(["identify", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    fitted = json.loads((tmp_path / "out" / "model_dc.json").read_text())["theta"]
    lines = (tmp_path / "out" / "theta_dc.csv").read_text().splitlines()
    assert lines == ["index,value"] + [f"{i},{format(float(v), '.17g')}" for i, v in enumerate(fitted)]


def test_tuned_kernel_json_reads_back_to_tuned_values(tmp_path):
    """The ``kernel`` in ``tuned_hyperparameters.json`` reads back with
    ``kernel_spec_from_json`` to the template with the file's ``values``
    applied, bit for bit."""
    config = identify_config(tmp_path)
    pole = {"type": "pk", "decay": 0.95, "frequency": {"freq_hz": 2.0, "period_s": 0.1}}
    config["kernels"]["pk"] = {"type": "sum", "terms": [config["kernels"]["dc"], pole]}
    config["tune"] = {
        "estimator": "pk",
        "init": {"gamma": 1e-5, "terms.0.scale": 1.0, "terms.1.frequency": 1.2, "terms.1.sigma2": 1.0},
        "budget": 30,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["tune", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    tuned = json.loads((tmp_path / "out" / "tuned_hyperparameters.json").read_text())
    template = kernel_spec_from_json(config["kernels"]["pk"])
    spec, gamma = kernel_and_gamma(template, tuned["values"], 1e-5)
    assert spec != template
    assert kernel_spec_from_json(tuned["kernel"]) == spec
    assert tuned["gamma"] == gamma == tuned["values"]["gamma"]


def test_tune_default_bounds_are_the_tuning_start(tmp_path):
    """Without ``tune.bounds``, ``tune`` searches and writes exactly the
    bounds of :func:`tuning_start`, the start the tuned Monte Carlo uses."""
    config = identify_config(tmp_path)
    pole = {"type": "pk", "decay": 0.95, "frequency": 5.0}
    config["kernels"]["pk"] = {"type": "sum", "terms": [config["kernels"]["dc"], pole]}
    init = {"gamma": 1e-12, "terms.0.scale": 2.0, "terms.0.decay": 0.9, "terms.1.frequency": 5.0, "terms.1.sigma1": 1.0}
    config["tune"] = {"estimator": "pk", "init": init, "budget": 5}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["tune", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    tuned = json.loads((tmp_path / "out" / "tuned_hyperparameters.json").read_text())
    expected = tuning_start(kernel_spec_from_json(config["kernels"]["pk"]), 1e-5, 3, init).bounds
    assert tuned["bounds"] == {name: list(pair) for name, pair in sorted(expected.items())}
    # gamma's range holds its start; the frequency stays below 0.999 * 2 pi
    assert tuned["bounds"]["gamma"] == [1e-12, 1e3]
    assert tuned["bounds"]["terms.1.frequency"] == [0.7 * 5.0, 0.999 * 2 * math.pi]


@pytest.mark.parametrize(
    "payload, named",
    [({"period_s": "0.1", "theta": ["1", True]}, "period_s"), ({"period_s": 0.1, "theta": [1.0, True]}, "theta[1]")],
    ids=["period-string", "theta-bool"],
)
def test_model_file_numbers_follow_the_number_rule(tmp_path, capsys, payload, named):
    """A model file's period and coefficients must be JSON numbers, as in
    every config section: a string or a boolean is a config error."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(frf_config(tmp_path)))
    (tmp_path / "model.json").write_text(json.dumps(payload))
    assert main(["frf", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, code",
    [({"pk_kernel": {"type": "sum", "terms": [{"type": "dc"}, {"type": "pk", "decay": 0.9, "frequency": 0.4,
                                                             "sigma1": 0}]}}, EXIT_CONFIG),
     ({"gamma": 1e-12}, EXIT_OK)],
    ids=["zero-amplitude", "tiny-gamma"],
)
def test_tuned_mc_start_is_checked_before_any_run(tmp_path, capsys, monkeypatch, settings, code):
    """A tuned study whose start cannot be built exits 2 before its first
    run; gamma = 1e-12 lies inside its widened default range and tunes."""
    runs = []
    execute = sim._execute_run

    def spy(*args):
        runs.append(args[1])
        return execute(*args)

    monkeypatch.setattr(sim, "_execute_run", spy)
    mc = {"runs": 2, "n_samples": 60, "orders": [10, 30], "tune": True, **settings}
    assert simulate_mc(tmp_path, "tuned", mc)[0] == code
    if code == EXIT_CONFIG:
        assert runs == []
        assert "cannot tune pk: terms.1.sigma1" in capsys.readouterr().err
    else:
        assert sorted(runs) == [0, 1]


def test_model_file_unknown_key_is_config_error(tmp_path, capsys):
    """A misspelt key in a model file exits 2 and is named, not ignored."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(frf_config(tmp_path)))
    (tmp_path / "model.json").write_text(json.dumps({"period_s": 0.1, "perod_s": 3, "theta": [1, 2]}))
    assert main(["frf", "--config", str(config_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "perod_s" in capsys.readouterr().err
    assert not (tmp_path / "out" / "frf.csv").exists()


def identify_outputs(tmp_path, monkeypatch):
    """Run ``identify`` on the small config; return the output directory and
    the models it saved, by estimator name."""
    models = {}
    save = cli.save_model

    def spy(model, path):
        models[Path(path).stem.removeprefix("model_")] = model
        save(model, path)

    monkeypatch.setattr(cli, "save_model", spy)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(identify_config(tmp_path)))
    out = tmp_path / "out"
    assert main(["identify", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    assert sorted(models) == ["dc", "ls"]
    return out, models


def read_rows(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def test_theta_csv_reads_back_bit_for_bit(tmp_path, monkeypatch):
    out, models = identify_outputs(tmp_path, monkeypatch)
    for name, model in models.items():
        assert np.array_equal(read_signal_csv(out / f"theta_{name}.csv"), model.theta)


def test_frf_csv_magnitude_is_abs_of_fir_frf(tmp_path, monkeypatch):
    """The magnitude column is ``abs(complex(v))`` of :func:`fir_frf`, bit for
    bit, and the phase column its angle."""
    out, models = identify_outputs(tmp_path, monkeypatch)
    for name, model in models.items():
        rows = read_rows(out / f"frf_{name}.csv")
        assert len(rows) == 20
        omegas = np.array([float(row["omega_rad_s"]) for row in rows])
        values = fir_frf(model, omegas)
        assert [float(row["magnitude"]) for row in rows] == [abs(complex(v)) for v in values]
        assert [float(row["phase_rad"]) for row in rows] == np.angle(values).tolist()
        assert [float(row["freq_hz"]) for row in rows] == (omegas / (2 * math.pi)).tolist()


def test_reports_csv_rows_equal_report_json(tmp_path, monkeypatch):
    """Each ``reports.csv`` row holds its ``report_<name>.json``: the same
    keys, numbers that read back equal and an empty cell for ``null``."""
    out, _ = identify_outputs(tmp_path, monkeypatch)
    rows = read_rows(out / "reports.csv")
    assert [row["estimator"] for row in rows] == ["ls", "dc"]
    for row in rows:
        report = json.loads((out / f"report_{row['estimator']}.json").read_text())
        assert list(row) == ["estimator", "order", "gof", "rmse", "marginal_likelihood", "model_file"]
        assert set(row) == set(report)
        for key, cell in row.items():
            value = report[key]
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            else:
                assert float(cell) == value
    assert json.loads((out / "report_ls.json").read_text())["marginal_likelihood"] is None


def non_unique_identify(tmp_path, u, order, estimators=("ls", "dc", "pk")):
    """Run ``identify`` on ``u`` (F=3) and its filtered output; return the
    exit code and the output directory."""
    y = FastSignal(samples=np.convolve(u.samples, 0.8 ** np.arange(12))[: len(u)][::3], period=0.3)
    write_signal_csv(u, tmp_path / "u.csv")
    write_signal_csv(y, tmp_path / "y.csv")
    dc = {"type": "dc", "scale": 1.0, "decay": 0.9, "correlation": 0.5}
    config = {
        "sampling": {"period_s": 0.1, "factor": 3},
        "data": {"input_csv": str(tmp_path / "u.csv"), "output_csv": str(tmp_path / "y.csv")},
        "order": order,
        "estimators": list(estimators),
        "kernels": {"dc": dc, "pk": {"type": "sum", "terms": [dc, {"type": "pk", "decay": 0.9, "frequency": 0.4}]}},
        "frf": {"points": 20},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["identify", "--config", str(config_path), "--out", str(out)]), out


@pytest.mark.parametrize(
    "u, order, reason",
    [
        (random_noise(300, 0.1, 1.0, seed=5), 150, "the order is not below the number of output samples (100)"),
        (
            FastSignal(samples=np.repeat(random_noise(100, 0.1, 1.0, seed=5).samples, 3), period=0.1), 20,
            "the input cannot tell the 20 coefficients apart",
        ),
    ],
    ids=["order-above-outputs", "hold-input"],
)
def test_identify_records_a_least_squares_fit_with_no_unique_model(tmp_path, capsys, u, order, reason):
    """M = 100 output samples.  LS has no unique model at P = 150 >= M, nor
    at P = 20 < M from an input held for 3 samples: ``identify`` writes an
    LS report with empty values and no LS model, fits the regularized
    estimators, and exits 0."""
    code, out = non_unique_identify(tmp_path, u, order)
    assert code == EXIT_OK
    assert capsys.readouterr().err == f"ls: no unique model of order {order}: {reason}\n"
    for name in ("dc", "pk"):
        for file in (f"model_{name}.json", f"theta_{name}.csv", f"frf_{name}.csv"):
            assert (out / file).stat().st_size > 0
        report = json.loads((out / f"report_{name}.json").read_text())
        assert report["model_file"] == f"model_{name}.json" and math.isfinite(report["gof"])
    report = json.loads((out / "report_ls.json").read_text())
    assert report == {
        "estimator": "ls", "order": order, "gof": None, "rmse": None, "marginal_likelihood": None, "model_file": None,
    }
    for file in ("model_ls.json", "theta_ls.csv", "frf_ls.csv"):
        assert not (out / file).exists()
    rows = read_rows(out / "reports.csv")
    assert list(rows[0]) == ["estimator", "order", "gof", "rmse", "marginal_likelihood", "model_file"]
    assert [row["estimator"] for row in rows] == ["ls", "dc", "pk"]
    assert [rows[0][key] for key in ("gof", "rmse", "marginal_likelihood", "model_file")] == [""] * 4


def test_identify_runs_no_svd_for_least_squares_at_order_above_outputs(tmp_path, monkeypatch):
    """At P >= M no LS model is unique whatever the rank, so ``identify``
    runs no decomposition for it: neither a Cholesky nor an SVD."""
    calls = []
    for module, name in ((scipy.linalg, "lstsq"), (scipy.linalg, "svdvals"), (scipy.linalg.lapack, "dpotrf")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=original, **k: calls.append(f) or f(*a, **k))
    code, _ = non_unique_identify(tmp_path, random_noise(300, 0.1, 1.0, seed=5), 150, ("ls",))
    assert calls == []
    assert code == EXIT_OK


def test_identify_fits_least_squares_through_cli_once_per_report(tmp_path, monkeypatch):
    """Each LS report comes from one call of ``cli.least_squares_fir``, the
    name perfbench wraps to time LS, at P < M and at P >= M (M = 100)."""
    calls = []
    fit = cli.least_squares_fir
    monkeypatch.setattr(cli, "least_squares_fir", lambda phi, y_l: calls.append(phi.order) or fit(phi, y_l))
    for order in (20, 150):
        (tmp_path / str(order)).mkdir()
        code, out = non_unique_identify(tmp_path / str(order), random_noise(300, 0.1, 1.0, seed=5), order, ("ls",))
        assert code == EXIT_OK
        assert (out / "report_ls.json").exists()
    assert calls == [20, 150]
