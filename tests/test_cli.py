"""Tests for the command line: NB_THREADS and Monte Carlo config errors."""

import json

import pytest

from beyondnyq.cli import EXIT_CONFIG, EXIT_OK, main

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


def test_non_integer_nb_threads_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NB_THREADS", "abc")
    code, _ = simulate_mc(tmp_path, "bad")
    assert code == EXIT_CONFIG
    assert "NB_THREADS" in capsys.readouterr().err


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
    ],
    ids=[
        "runs-float", "runs-bool", "factor-float", "n_samples-float", "tune_budget-zero",
        "orders-float", "orders-bool", "base_seed-float", "base_seed-negative",
    ],
)
def test_bad_mc_counts_are_config_errors(tmp_path, capsys, settings):
    code, out = simulate_mc(tmp_path, "bad", {**TINY_MC, **settings})
    assert code == EXIT_CONFIG
    assert next(iter(settings)) in capsys.readouterr().err
    assert not (out / "runs.csv").exists()
