"""CLI smoke tests via main() return codes."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from salemkit.cli import build_parser, main
from salemkit.sampler import WeightedConfiguration


@pytest.fixture
def build_config(tmp_path):
    cfg = {
        "pattern": {"id": "ap3", "m": 16},
        "construction": {"M": 256, "lam": 0.45, "seed": 3},
    }
    path = tmp_path / "build.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_build_writes_configuration(build_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["build", "--config", build_config, "--out", str(out)]) == 0
    assert (out / "configuration.csv").exists()
    assert (out / "configuration.csv.json").exists()
    assert "built N=" in capsys.readouterr().out


def test_build_then_sweep_and_estimate_dim(build_config, tmp_path):
    out = tmp_path / "out"
    main(["build", "--config", build_config, "--out", str(out)])
    csv = str(out / "configuration.csv")

    code = main(["sweep", "--config", csv, "--out", str(out), "--C", "3.0"])
    assert code == 0
    rep = json.loads((out / "sweep.json").read_text())
    assert rep["passed"] is True

    code = main(["estimate-dim", "--config", csv, "--out", str(out)])
    assert code == 0
    dims = json.loads((out / "dimension.json").read_text())
    assert 0.0 <= dims["box"]["value"] <= 1.0
    assert 0.0 <= dims["fourier"]["value"] <= 1.0


def test_sweep_with_tiny_C_fails_with_code_1(build_config, tmp_path):
    out = tmp_path / "out"
    main(["build", "--config", build_config, "--out", str(out)])
    csv = str(out / "configuration.csv")
    # C = -10^3 makes the bound negative everywhere, so every frequency violates
    assert main(["sweep", "--config", csv, "--C", "-1000.0"]) == 1
    # a NaN C would pass every frequency: an input error
    assert main(["sweep", "--config", csv, "--C", "nan"]) == 2


def test_montecarlo_runs_small_battery(tmp_path):
    cfg = {
        "pattern": {"id": "ap3", "m": 16},
        "construction": {"M": 256, "lam": 0.45, "seed": 0},
        "trials": 3,
        "sweep": {"C": 3.0},
        "do_scan": True,
    }
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "mc_out"
    code = main(["montecarlo", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()


def test_missing_config_is_input_error(capsys):
    assert main(["build"]) == 2
    assert "required" in capsys.readouterr().err


def test_malformed_config_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"pattern": {"id": "ap3"}, "construction": {"bogus": 1}}')
    assert main(["build", "--config", str(path)]) == 2


def test_nonexistent_file_is_input_error():
    assert main(["build", "--config", "/no/such/file.json"]) == 2


@pytest.mark.parametrize("command", ["sweep", "estimate-dim"])
@pytest.mark.parametrize("body", ["", "x0,w\n"], ids=["empty", "header-only"])
def test_a_configuration_with_no_points_is_an_input_error(command, body, tmp_path, capsys):
    path = tmp_path / "c.csv"
    WeightedConfiguration(np.zeros((0, 1)), np.zeros(0), radius_r=1e-3, lam=0.45).save(path)
    path.write_text(body)
    assert main([command, "--config", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_construction_failure_maps_to_code_1(tmp_path):
    # a fat rough pattern at tiny M removes every candidate
    cfg = {
        "pattern": {
            "id": "rough",
            "n": 2,
            "d": 1,
            "g": 4,
            "cells": [[0, 0], [1, 1], [2, 2], [3, 3]],
        },
        "construction": {"M": 32, "lam": 0.45, "seed": 0, "filter_scale": 50.0},
    }
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(cfg))
    assert main(["build", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


def test_check_subcommand(tmp_path):
    out = tmp_path / "chk"
    code = main(["check", "--trials", "50", "--seed", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "check.json").read_text())
    assert payload["split_sum"]["reconstruction_ok"] is True


@pytest.mark.parametrize("trials", ["10", "0"])
def test_check_refuses_fewer_than_50_trials(trials, capsys):
    assert main(["check", "--trials", trials]) == 2
    assert ">= 50 trials" in capsys.readouterr().err


def test_iterate_refuses_an_unknown_config_key(tmp_path, monkeypatch, capsys):
    import salemkit.measures

    def no_build(*args, **kwargs):
        raise AssertionError("iterate built a stage")

    monkeypatch.setattr(salemkit.measures, "salem_iterate", no_build)
    cfg = {
        "pattern": {"id": "ap3", "m": 16},
        "construction": {"M": 128, "lam": 0.45, "seed": 2},
        "gama": 0.2,
    }
    path = tmp_path / "it.json"
    path.write_text(json.dumps(cfg))
    assert main(["iterate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "'gama'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_iterate_writes_stage_measures(tmp_path, monkeypatch):
    import salemkit.measures

    built = []
    real = salemkit.measures.salem_iterate

    def keep(*args, **kwargs):
        built.extend(real(*args, **kwargs))
        return built

    monkeypatch.setattr(salemkit.measures, "salem_iterate", keep)
    cfg = {
        "pattern": {"id": "ap3", "m": 16},
        "construction": {"M": 128, "lam": 0.45, "seed": 2},
        "stages": 2,
        "grid_G": 256,
        "gamma": 0.45,
        "factor": 4.0,
    }
    path = tmp_path / "it.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "it_out"
    code = main(["iterate", "--config", str(path), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "iterate.json").read_text())
    assert len(summary["stages"]) == 2
    for t, row in enumerate(summary["stages"]):
        assert row["measure_file"] == str(out / f"stage{t}.sfgm")
        assert row["config_file"] == str(out / f"stage{t}.csv")
        for name in (f"stage{t}.sfgm", f"stage{t}.csv"):
            assert (out / name).exists()
            assert (out / (name + ".json")).exists()
        # the saved stage is the built one, so estimate-dim on it sees the
        # same points, weights and radius as box_dimension in memory
        saved = WeightedConfiguration.load(row["config_file"])
        config = built[t]["config"]
        assert saved.N == row["N"]
        assert saved.radius_r == config.radius_r
        assert np.array_equal(saved.points, config.points)
        assert np.array_equal(saved.weights, config.weights)


def test_demo_ap3_small(tmp_path):
    code = main(
        ["demo", "ap3", "--trials", "2", "--seed", "0", "--out", str(tmp_path / "d")]
    )
    assert code == 0


@pytest.mark.parametrize("which", ["ap3", "linear-eq", "isosceles-parabola"])
def test_demo_refuses_zero_trials(which, capsys):
    # refused before any build: neither read as the demo's default count nor
    # an empty report that passes every per-row verdict vacuously
    assert main(["demo", which, "--trials", "0"]) == 2
    assert "trial count must be >= 1" in capsys.readouterr().err


def test_demo_passes_only_the_flags_given(monkeypatch):
    from salemkit import cli
    from salemkit.harness import TrialReport

    seen = []

    def demo(**kwargs):
        seen.append(kwargs)
        return TrialReport(rows=[], aggregate={})

    monkeypatch.setattr(cli, "demo_linear_equations", demo)
    assert main(["demo", "linear-eq"]) == 0
    assert main(["demo", "linear-eq", "--seed", "0", "--trials", "3"]) == 0
    assert seen == [{"out_dir": None}, {"out_dir": None, "seed": 0, "trials": 3}]


@pytest.mark.parametrize(
    "which, name, M, failing",
    [
        ("linear-eq", "demo_linear_equations", 256, {"scan_violations": 1}),
        ("isosceles-parabola", "demo_isosceles", 128, {"gap_positive": False}),
    ],
    ids=["linear-eq", "isosceles-parabola"],
)
def test_demo_verdict_on_a_real_report(which, name, M, failing, monkeypatch, capsys):
    from salemkit import cli

    real = getattr(cli, name)
    reports = []

    def small(**kwargs):
        reports.append(real(M=M, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, name, small)
    assert main(["demo", which, "--trials", "2"]) == 0
    agg = json.loads(capsys.readouterr().out)
    assert agg["trials"] == 2 and agg["failed_trials"] == 0
    if which == "isosceles-parabola":
        # the aggregate carries the number the verdict tests
        assert agg["min_functional_gap_quantiles"]["min"] > 0
    # one failing row fails the verdict
    report = reports[0]
    report.rows[1].update(failing)
    monkeypatch.setattr(cli, name, lambda **kwargs: report)
    assert main(["demo", which]) == 1


def test_readme_commands_parse():
    # every `salemkit ...` line in the README's sh blocks names a subcommand
    # and only flags it declares, so an example cannot drift from the CLI
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        shlex.split(line, comments=True)
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        for line in block.splitlines()
    ]
    commands = [argv[1:] for argv in lines if argv[:1] == ["salemkit"]]
    assert commands
    parser = build_parser()
    bad = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    assert not bad


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--config", "x.json", "--trials", "3"],
        ["estimate-dim", "--config", "x.csv", "--seed", "1"],
        ["sweep", "--config", "x.csv", "--threads", "2"],
        ["demo", "ap3", "--config", "x"],
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_an_input_error(argv, capsys):
    # each subcommand declares only the flags its command reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
