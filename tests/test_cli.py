"""Command-line interface and configuration parsing."""

import dataclasses
import os

import numpy as np
import pytest

from mqsflow import cli, config, fem
from mqsflow.errors import ConfigError, EigenSolveFailure

SMALL = """
[mesh]
n = 8
[time]
T = 0.25
tau = 0.0625
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return str(path)


def test_parse_config_sections_and_comments():
    entries = config.parse_config(
        "# header comment\n[mesh]\nn = 12  # trailing\n\n[time]\nT = 2.0\n"
    )
    assert entries[("mesh", "n")] == "12"
    assert entries[("time", "T")] == "2.0"


def test_parse_config_rejects_unknown_section_with_line():
    with pytest.raises(ConfigError) as exc:
        config.parse_config("[warp]\nfactor = 9\n")
    assert "line 1" in str(exc.value)
    assert "[warp]" in str(exc.value)


def test_parse_config_rejects_unknown_key_with_line():
    with pytest.raises(ConfigError) as exc:
        config.parse_config("[mesh]\nnn = 12\n")
    assert "line 2" in str(exc.value)
    assert "nn = 12" in str(exc.value)


def test_parse_config_rejects_key_outside_section():
    with pytest.raises(ConfigError):
        config.parse_config("n = 12\n")


def test_default_config_roundtrip():
    cfg = config.default_config()
    assert cfg.n == 32
    assert cfg.tau == pytest.approx(1.0 / 64.0)
    assert cfg.winding.m == 1


def _same(a, b):
    """Equal values, recursing into dataclasses and comparing arrays."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_default_cfg_file_gives_the_default_config():
    """configs/default.cfg spells out every [core] key, and loading it gives
    config.default_config() field by field."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "default.cfg")
    entries = config.load_config_file(path)
    assert {k for s, k in entries if s == "core"} == config._SCHEMA["core"]
    assert config.output_basename(entries) == "run"
    loaded, default = config.build_config(entries), config.default_config()
    for f in dataclasses.fields(default):
        assert _same(getattr(loaded, f.name), getattr(default, f.name)), f.name


def test_overrides_applied_and_validated():
    entries = config.apply_overrides({}, ["mesh.n=16", "time.tau=0.125"])
    cfg = config.build_config(entries)
    assert cfg.n == 16 and cfg.tau == 0.125
    with pytest.raises(ConfigError):
        config.apply_overrides({}, ["mesh.resolution=16"])
    with pytest.raises(ConfigError):
        config.apply_overrides({}, ["badly formed"])


def test_build_config_validates_time_and_kinds():
    with pytest.raises(ConfigError):
        config.build_config({("time", "tau"): "-0.1"})
    with pytest.raises(ConfigError):
        config.build_config({("time", "tau"): "2.0", ("time", "T"): "1.0"})
    with pytest.raises(ConfigError):
        config.build_config({("initial", "kind"): "telepathic"})
    with pytest.raises(ConfigError):
        config.build_config({("material", "kind"): "mystery"})
    with pytest.raises(ConfigError):
        config.build_config({("mesh", "n"): "lots"})


def test_multi_winding_parsing():
    entries = {
        ("winding", "w1"): "0.1 0.2 0.4 0.6 5.0",
        ("winding", "w2"): "0.8 0.9 0.4 0.6 -5.0",
        ("circuit", "R"): "1.0 0.0 ; 0.0 2.0",
        ("circuit", "voltage_value"): "1.0 0.5",
    }
    cfg = config.build_config(entries)
    assert cfg.winding.m == 2
    assert cfg.R.shape == (2, 2)
    assert cfg.voltage.m == 2
    with pytest.raises(ConfigError):
        config.build_config({("winding", "w2"): "0 1 0 1 1"})  # gap: no w1


def test_voltage_table_parsing():
    entries = {
        ("circuit", "voltage_kind"): "table",
        ("circuit", "voltage_table"): "0.0 0.0 ; 1.0 2.0",
    }
    cfg = config.build_config(entries)
    assert cfg.voltage(0.5) == pytest.approx(1.0)


def test_cli_run_writes_outputs(tmp_path, small_cfg):
    out = tmp_path / "out"
    code = cli.dispatch(["run", "--config", small_cfg, "--out", str(out)])
    assert code == 0
    assert (out / "run.csv").exists()
    assert (out / "run.vtk").exists()


def test_cli_run_is_byte_deterministic(tmp_path, small_cfg):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.dispatch(["run", "--config", small_cfg, "--out", str(out1)]) == 0
    assert cli.dispatch(["run", "--config", small_cfg, "--out", str(out2)]) == 0
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()


def test_cli_validate_pass_and_fail(tmp_path, small_cfg, capsys):
    assert cli.dispatch(["validate", "--config", small_cfg]) == 0
    capsys.readouterr()
    code = cli.dispatch(
        ["validate", "--config", small_cfg, "--set", "circuit.R=-1.0"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "positive definite" in out


def test_cli_constants(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    code = cli.dispatch(
        ["constants", "--config", small_cfg, "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "m_hat=" in text and "L_C=" in text
    assert (out / "constants.kv").exists()


def test_cli_eigensolve_runs_only_where_L_C_is_read(tmp_path, small_cfg,
                                                    monkeypatch, capsys):
    """L_C is computed on first read: a failing eigensolve stops
    ``constants`` with one error line, and ``run`` never calls it."""
    calls = []

    def failing(*args):
        calls.append(1)
        raise EigenSolveFailure("ARPACK did not converge")

    monkeypatch.setattr(fem, "estimate_coercivity_constant", failing)
    code = cli.dispatch(["constants", "--config", small_cfg,
                         "--out", str(tmp_path / "c")])
    assert code == 1 and len(calls) == 1
    assert capsys.readouterr().err == "error: ARPACK did not converge\n"
    assert cli.dispatch(["run", "--config", small_cfg,
                         "--out", str(tmp_path / "r")]) == 0
    assert len(calls) == 1


def test_cli_usage_errors():
    assert cli.dispatch(["frobnicate"]) == 2
    assert cli.dispatch([]) == 2


def test_cli_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[mesh]\nmystery = 1\n")
    assert cli.dispatch(["run", "--config", str(bad), "--out",
                         str(tmp_path / "o")]) == 1


def test_cli_missing_config_file(tmp_path):
    assert cli.dispatch(["run", "--config", str(tmp_path / "none.cfg"),
                         "--out", str(tmp_path / "o")]) == 1


def test_cli_set_overrides_applied_before_validation(tmp_path, small_cfg):
    # an override that breaks the geometry must fail cleanly with exit 1
    assert cli.dispatch(
        ["run", "--config", small_cfg, "--out", str(tmp_path / "o"),
         "--set", "conductor.radius=0.9"]
    ) == 1


def test_cli_seed_flag_overrides_config(tmp_path, small_cfg):
    from mqsflow import config as cm

    entries = cm.load_config_file(small_cfg)
    cfg = cm.build_config(entries, seed=123)
    assert cfg.seed == 123


def test_cli_wrong_shape_initial_field_file(tmp_path, small_cfg, capsys):
    a0 = tmp_path / "a0.npy"
    np.save(a0, np.zeros(5))
    code = cli.dispatch(
        ["run", "--config", small_cfg, "--out", str(tmp_path / "o"),
         "--set", "initial.kind=file", "--set", f"initial.path={a0}"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_experiment_leaves_temp_dir_empty(tmp_path, small_cfg,
                                               monkeypatch):
    import tempfile

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    code = cli.dispatch(
        ["experiment", "--config", small_cfg, "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert list(tmp.iterdir()) == []


def test_cli_step_too_large_for_ellipticity(tmp_path, small_cfg, capsys):
    code = cli.dispatch(
        ["run", "--config", small_cfg, "--out", str(tmp_path / "o"),
         "--set", "time.T=1", "--set", "time.tau=1"]
    )
    assert code == 1
    assert "error: tau = 1.0 too large" in capsys.readouterr().err


def test_cli_rejects_horizon_not_a_whole_number_of_steps(tmp_path, small_cfg,
                                                          capsys):
    out = tmp_path / "o"
    code = cli.dispatch(
        ["run", "--config", small_cfg, "--out", str(out),
         "--set", "time.T=1", "--set", "time.tau=0.3"]
    )
    assert code == 1
    assert "error: T = 1.0 is not a whole number of steps" in \
        capsys.readouterr().err
    assert not (out / "run.csv").exists()


@pytest.mark.parametrize("argv, cause", [
    (["run", "--set", "initial.kind=random", "--seed", "-1"], "seed"),
    (["experiment", "--seed", "-2"], "seed"),
    (["run", "--set", "core.newton_tol=nan"], "newton_tol"),
    (["run", "--set", "core.newton_max_iter=0"], "newton_max_iter"),
    (["run", "--set", "circuit.voltage_kind=table",
      "--set", "circuit.voltage_table=0 0 ; 0.5 1 ; 0.25 2"],
     "strictly increasing"),
    (["run", "--set", "time.T=inf"], "T must be finite"),
    (["run", "--set", "conductor.center=nan 0.5"], "conductor_center"),
    (["run", "--set", "circuit.voltage_value=nan"], "voltage value"),
    (["run", "--set", "circuit.R=nan"], "R must be finite"),
    (["run", "--set", "winding.w1=0.1 0.2 0.4 0.6 nan"], "winding w1"),
    (["run", "--set", "material.nu_max=inf"], "nu_max"),
    (["run", "--set", "core.newton_tol=1e300"], "newton_tol"),
    (["run", "--set", "mesh.n=100000"], "n must be at most 256"),
    (["run", "--set", "time.tau=1e-9"], "exceeds the cap"),
])
def test_cli_rejects_invalid_settings_before_solving(tmp_path, small_cfg,
                                                     capsys, argv, cause):
    out = tmp_path / "o"
    code = cli.dispatch(argv + ["--config", small_cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert not (out / "run.csv").exists()


def test_cli_unreadable_initial_field_file(tmp_path, small_cfg, capsys):
    a0 = tmp_path / "a0.npy"
    a0.write_text("0 0 0\n")
    code = cli.dispatch(
        ["run", "--config", small_cfg, "--out", str(tmp_path / "o"),
         "--set", "initial.kind=file", "--set", f"initial.path={a0}"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(a0) in err


def test_experiment_battery_builds_once_and_reuses_its_trajectory(
        tmp_path, small_cfg, monkeypatch):
    from mqsflow import system

    calls = {"build_system": 0, "solve": 0}

    def counted(name):
        real = getattr(system, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(system, name, counted(name))
    cfg = config.build_config(config.load_config_file(small_cfg))
    results = cli._experiment_battery(cfg, str(tmp_path))
    assert all(r.passed for r in results)
    # the base solve, five balance-order step sizes, one partner per
    # perturbation experiment
    assert calls == {"build_system": 1, "solve": 9}


def test_cli_run_rejects_output_that_fails_its_weak_residual_check(
        tmp_path, small_cfg, monkeypatch, capsys):
    from mqsflow import system

    real = system.solve

    def corrupted(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.fields[3] += 1e-3
        return traj

    monkeypatch.setattr(system, "solve", corrupted)
    out = tmp_path / "o"
    code = cli.dispatch(["run", "--config", small_cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: self-check failed at step 3")
    assert not (out / "run.csv").exists()


def test_cli_newton_start_setting(tmp_path, small_cfg, capsys):
    out = tmp_path / "o"
    argv = ["run", "--config", small_cfg, "--out", str(out)]
    assert cli.dispatch(argv + ["--set", "core.newton_start=extrapolate"]) == 0
    capsys.readouterr()
    assert cli.dispatch(argv + ["--set", "core.newton_start=guess"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: newton_start must be one of")
    assert "extrapolate, zero" in err


def test_build_config_takes_every_default_from_mqsconfig():
    """A key left out takes the MQSConfig field's default."""
    from mqsflow import system

    built, default = config.build_config({}), system.MQSConfig()
    for f in dataclasses.fields(default):
        assert _same(getattr(built, f.name), getattr(default, f.name)), f.name


@pytest.mark.parametrize("entries, cause", [
    ({("conductor", "center"): "0.5"},
     "conductor_center needs two numbers, got shape (1,)"),
    ({("winding", "w1"): "0.1 0.2 0.4 0.6"},
     "winding w1 needs rectangles 'x0 x1 y0 y1 kappa', got shape (1, 4)"),
    ({("winding", "w1"): "0.1 0.2 0.4 0.6 1 ; 0.8 0.9"},
     "winding w1 must be a numeric array"),
    ({("circuit", "voltage_value"): "1 2 3"},
     "voltage has 3 channels but there are 1 windings"),
    ({("circuit", "voltage_kind"): "table",
      ("circuit", "voltage_table"): "0 0 0 ; 1 1 1"},
     "voltage has 2 channels but there are 1 windings"),
    ({("circuit", "voltage_kind"): "table"},
     "voltage table is required for kind 'table'"),
    ({("circuit", "voltage_kind"): "ramp"},
     "voltage kind must be one of constant, step, table, got 'ramp'"),
    ({("circuit", "R"): "1 ; 1 2"}, "R must be a numeric array"),
    ({("time", "tau"): "2.0", ("time", "T"): "1.0"},
     "T = 1.0 is not a whole number of steps tau = 2.0 (T / tau = 0.5)"),
    ({("time", "T"): "-1"}, "T and tau must be positive"),
    ({("initial", "kind"): "telepathic"},
     "initial field kind must be one of zero, random, file, got 'telepathic'"),
    ({("material", "kind"): "mystery"},
     "reluctivity kind must be one of constant, rational_saturation, "
     "user_tabulated, got 'mystery'"),
    ({("mesh", "n"): "8.5"}, "mesh.n = '8.5': invalid literal for int()"),
    ({("circuit", "sigma_C"): "one"},
     "circuit.sigma_C = 'one': could not convert string to float"),
])
def test_library_checks_reach_config_and_cli_users(tmp_path, capsys, entries,
                                                    cause):
    """Each check the parser left to the library still rejects the input:
    a ConfigError from build_config, one error line from the CLI."""
    with pytest.raises(ConfigError) as info:
        config.build_config(entries)
    assert cause in str(info.value)
    argv = ["run", "--out", str(tmp_path / "o"), "--set", "mesh.n=8"]
    for (section, key), value in entries.items():
        argv += ["--set", f"{section}.{key}={value}"]
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and cause in err


@pytest.mark.parametrize("name", ["", ".", "..", "sub/run", "../escaped",
                                  "a\0b"])
def test_output_basename_must_be_a_plain_name(tmp_path, small_cfg, capsys,
                                              monkeypatch, name):
    from mqsflow import system

    with pytest.raises(ConfigError, match="output.basename must be a plain"):
        config.output_basename({("output", "basename"): name})

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the basename was checked")

    monkeypatch.setattr(system, "solve", no_solve)
    code = cli.dispatch(["run", "--config", small_cfg, "--out",
                         str(tmp_path / "o"), "--set",
                         f"output.basename={name}"])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: output.basename must be a plain file name")
    assert not list(tmp_path.rglob("*.csv"))


def test_output_basename_names_the_files(tmp_path, small_cfg):
    assert config.output_basename({}) == "run"
    out = tmp_path / "o"
    assert cli.dispatch(["run", "--config", small_cfg, "--out", str(out),
                         "--set", "output.basename=step-1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["step-1.csv",
                                                     "step-1.vtk"]


def test_cli_reports_floating_point_overflow_on_one_line(tmp_path, small_cfg,
                                                         capsys):
    """An input so large that the certification overflows exits 1 with one
    error line, not a numpy warning or traceback."""
    code = cli.dispatch(["run", "--config", small_cfg, "--out",
                         str(tmp_path / "o"), "--set",
                         "material.nu_max=1e308"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: overflow")
