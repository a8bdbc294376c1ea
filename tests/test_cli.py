"""Command-line interface and configuration parsing."""

import dataclasses
import gc
import importlib.util
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from mqsflow import cli, config, core, fem, material, system
from mqsflow.errors import ConfigError, EigenSolveFailure, NonConvergence

ROOT = Path(__file__).resolve().parent.parent

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


def test_parse_config_rejects_a_key_set_twice_with_both_lines():
    with pytest.raises(ConfigError) as exc:
        config.parse_config("[mesh]\nn = 8\nn = 64\n")
    assert str(exc.value) == "line 3: mesh.n is already set on line 2: 'n = 64'"
    # a section opened again still holds its keys
    with pytest.raises(ConfigError) as exc:
        config.parse_config("[mesh]\nn = 8\n[time]\nT = 1\n[mesh]\nn = 64\n")
    assert str(exc.value) == "line 6: mesh.n is already set on line 2: 'n = 64'"
    # repeated overrides still replace values in order
    entries = config.apply_overrides(config.parse_config("[mesh]\nn = 8\n"),
                                     ["mesh.n=16", "mesh.n=32"])
    assert entries == {("mesh", "n"): "32"}


def test_parse_config_rejects_key_outside_section():
    with pytest.raises(ConfigError):
        config.parse_config("n = 12\n")


def test_default_config_roundtrip():
    cfg = config.build_config({})
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
    config.build_config({}) field by field."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "default.cfg")
    entries = config.load_config_file(path)
    assert {k for s, k in entries if s == "core"} == config._SCHEMA["core"]
    assert config.output_basename(entries) == "run"
    loaded, default = config.build_config(entries), config.build_config({})
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
    assert capsys.readouterr().out == "validation PASS: m_hat=0.5, L_hat=5\n"
    code = cli.dispatch(
        ["validate", "--config", small_cfg, "--set", "circuit.R=-1.0"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "positive definite" in out


@pytest.mark.parametrize("setting, code", [
    ("mesh.n=8", 0), ("circuit.R=-1.0", 1), ("material.nu_max=9.001", 1),
    ("mesh.n=3", 1),
])
def test_cli_validate_certifies_the_material_once(
        small_cfg, monkeypatch, capsys, setting, code):
    calls = []
    real = material.estimate_constants

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(material, "estimate_constants", counted)
    argv = ["validate", "--config", small_cfg, "--set", setting]
    assert cli.dispatch(argv) == code
    assert capsys.readouterr().out.startswith("validation ")
    assert calls == ["*"]  # once per region; the default curve has one


@pytest.mark.parametrize("setting, reason", [
    ("circuit.R=1 0;0 1", "R is 2x2 but there are 1 windings"),
    ("mesh.n=3", "grid resolution n must be at least 4"),
    ("conductor.radius=0.49", "conductor disk must stay inside the unit "
     "square with clearance >= 0.0625"),
    ("winding.w1=0.4 0.6 0.4 0.6 1",
     "winding 1 support intersects the conducting region"),
])
def test_cli_validate_rejects_what_run_rejects_before_solving(
        tmp_path, capsys, setting, reason):
    """On the default problem each setting passes the material and R
    checks, and fails where run fails, in building the system."""
    assert cli.dispatch(["validate", "--set", setting]) == 1
    assert capsys.readouterr().out == f"validation FAIL: {reason}\n"
    run = ["run", "--out", str(tmp_path / "o"), "--set", setting]
    assert cli.dispatch(run) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"


def _table_override(tmp_path, rows):
    path = tmp_path / "table.csv"
    path.write_text("".join(f"{s},{nu}\n" for s, nu in rows))
    return ["material.kind=user_tabulated", f"material.table={path}"]


@pytest.mark.parametrize("rows, overrides, out, err", [
    (None, ["material.nu_max=9.001"], "m_hat = -1.250e-04", ""),
    ([(0, 2), (50, 2), (150, 2), (200, 1), (300, 1)], [],
     "m_hat = -2.000e+00", ""),
    ([(0, 0), (10, 50)], [], "m_hat = 0.000e+00", ""),
    ([(0.01, 5), (1, 4), (2, 3)], [], "",
     "error: reluctivity table of region '*' s-column must start at 0, "
     "got 0.01\n"),
], ids=["rational_1_9.001", "falls_past_s_100", "nu0_zero", "late_start"])
def test_cli_validate_rejects_a_curve_that_is_not_monotone(
        tmp_path, small_cfg, capsys, rows, overrides, out, err):
    if rows is not None:
        overrides = _table_override(tmp_path, rows)
    argv = ["validate", "--config", small_cfg]
    for item in overrides:
        argv += ["--set", item]
    assert cli.dispatch(argv) == 1
    captured = capsys.readouterr()
    if out:
        out = ("validation FAIL: reluctivity curve on region '*' is not "
               f"strongly monotone ({out})\n")
    assert (captured.out, captured.err) == (out, err)


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


@pytest.mark.parametrize("argv, message", [
    (["validate", "--config", "{tmp}"], "error: [Errno 21] Is a directory: "),
    (["run", "--config", "{tmp}/latin1.cfg", "--out", "{tmp}/o"],
     "error: config file '{tmp}/latin1.cfg' is not UTF-8 text: "),
    *[([command, "--config", "{small}", "--out", "{tmp}/file"],
       "error: --out '{tmp}/file': '{tmp}/file' exists and is not a "
       "directory") for command in ("run", "experiment", "convergence",
                                    "constants")],
    (["experiment", "--config", "{small}", "--out", "{tmp}/file/sub"],
     "error: --out '{tmp}/file/sub': '{tmp}/file' exists and is not a "
     "directory"),
    *[([command, "--config", "{small}", "--out", ""],
       "error: --out must not be empty")
      for command in ("run", "experiment", "convergence")],
], ids=["config_dir", "config_not_utf8",
        *[f"{c}_out_file" for c in ("run", "experiment", "convergence",
                                    "constants")],
        "out_under_a_file",
        *[f"{c}_out_empty" for c in ("run", "experiment", "convergence")]])
def test_cli_io_failures_are_one_error_line_before_solving(
        tmp_path, small_cfg, monkeypatch, capsys, argv, message):
    (tmp_path / "file").write_text("")
    (tmp_path / "latin1.cfg").write_bytes(b"[mesh]\nn = 8 # \xe9\n")
    solves = []
    monkeypatch.setattr(system, "solve", lambda *a, **k: solves.append(a))
    fill = {"tmp": str(tmp_path), "small": small_cfg}
    assert cli.dispatch([a.format(**fill) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message.format(**fill))
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert solves == []


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
    (["run", "--set", "core.newton_tol=1e-15"],
     "newton_tol must be at least 1e-14"),
])
def test_cli_rejects_invalid_settings_before_solving(tmp_path, small_cfg,
                                                     capsys, argv, cause):
    out = tmp_path / "o"
    code = cli.dispatch(argv + ["--config", small_cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert not (out / "run.csv").exists()


def test_cli_names_the_step_whose_newton_solve_fails(tmp_path, small_cfg,
                                                    capsys, monkeypatch):
    """A Newton failure inside a step says which step, once."""
    monkeypatch.setattr(core, "NEWTON_MAX_ITER", 1)
    code = cli.dispatch(["run", "--config", small_cfg, "--out",
                         str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1: Newton did not reach tolerance ")
    assert err.endswith(" in 1 iterations\n") and err.count("step") == 1
    assert not (tmp_path / "o" / "run.csv").exists()


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

    calls = {"build_system": 0, "solve": 0, "solve_schur": 0}

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
    # the base solve, the four balance-order step sizes other than the
    # base tau = 1/16, the partners of the two initializability
    # experiments; uniqueness's partner is the Schur-reduced witness
    assert calls == {"build_system": 1, "solve": 7, "solve_schur": 1}


def test_experiment_rejects_an_over_cap_balance_level_before_solving(
        tmp_path, monkeypatch, capsys):
    """At n = 199 the run itself is under the dof-step cap but the balance
    study's tau = 1/256 is not: the battery stops before its first solve."""
    from mqsflow import system

    solves = []

    def solve(*args, **kwargs):
        solves.append(1)
        raise AssertionError("solve reached")

    monkeypatch.setattr(system, "solve", solve)
    code = cli.dispatch(["experiment", "--out", str(tmp_path / "o"),
                         "--set", "mesh.n=199"])
    assert code == 1 and solves == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "exceeds the cap of 10000000" in err


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


@pytest.mark.parametrize("where", ["--set", "file"])
def test_cli_rejects_newton_start_as_an_unknown_key(tmp_path, small_cfg,
                                                    capsys, where):
    """Newton's start is no setting: the key is unknown, in an override
    and in a config file alike."""
    argv = ["run", "--out", str(tmp_path / "o")]
    if where == "--set":
        argv += ["--config", small_cfg, "--set", "core.newton_start=zero"]
    else:
        cfg = tmp_path / "start.cfg"
        cfg.write_text(SMALL + "[core]\nnewton_start = extrapolate\n")
        argv += ["--config", str(cfg)]
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert err.startswith("error: ") and "unknown key core.newton_start" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, text, cause", [
    (["--set", "core.newton_max_iter=50"], "",
     "unknown key core.newton_max_iter"),
    ([], "[core]\nnewton_max_iter = 50\n", "unknown key core.newton_max_iter"),
    (["--set", "circuit.voltage_kind=constant"], "",
     "voltage kind must be one of step, table, got 'constant'"),
    ([], "[circuit]\nvoltage_kind = constant\n",
     "voltage kind must be one of step, table, got 'constant'"),
], ids=["budget-set", "budget-file", "constant-set", "constant-file"])
def test_cli_refuses_the_removed_budget_and_constant_voltage(
        tmp_path, capsys, argv, text, cause):
    """Newton's budget is no setting and a held voltage is a step: each
    spelling gets one error line before any work."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL + text)
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "o")] + argv
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and cause in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sets, cause", [
    (["circuit.voltage_table=0 1 ; 1 2"], "circuit.voltage_table is not "
     "read by kind 'step', which reads voltage_value"),
    (["initial.path=/nonexistent.npy"],
     "initial.path is not read by kind 'zero'"),
    (["circuit.voltage_kind=table", "circuit.voltage_table=0 1 ; 1 2",
      "circuit.voltage_value=5"], "circuit.voltage_value is not read by "
     "kind 'table', which reads voltage_table"),
    (["initial.kind=random", "initial.path=a0.npy"],
     "initial.path is not read by kind 'random'"),
], ids=["table-under-step", "path-under-zero", "value-under-table",
        "path-under-random"])
def test_cli_refuses_a_key_the_chosen_kind_does_not_read(small_cfg, capsys,
                                                         sets, cause):
    """A voltage or initial-field key that the chosen kind would drop is an
    error naming the key and the kind, as a [material] one is."""
    argv = ["validate", "--config", small_cfg]
    for item in sets:
        argv += ["--set", item]
    assert cli.dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cause}\n"


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
     "voltage kind must be one of step, table, got 'ramp'"),
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
    ({("material", "table"): "table.csv"}, "material.table is not read by "
     "kind 'rational_saturation', which reads nu_min, nu_max"),
    ({("material", "kind"): "constant", ("material", "nu_max"): "0.1"},
     "material.nu_max is not read by kind 'constant', which reads nu0"),
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
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["validate", "constants"])
def test_every_command_refuses_a_bad_basename(tmp_path, small_cfg, capsys,
                                              command):
    """A name run would refuse fails every command, in run's words."""
    out = tmp_path / "o"
    code = cli.dispatch([command, "--config", small_cfg, "--out", str(out),
                         "--set", "output.basename=.."])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: output.basename must be a plain file "
                            "name, got '..'\n")
    assert not out.exists()


def test_output_basename_names_the_files(tmp_path, small_cfg):
    assert config.output_basename({}) == "run"
    out = tmp_path / "o"
    assert cli.dispatch(["run", "--config", small_cfg, "--out", str(out),
                         "--set", "output.basename=step-1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["step-1.csv",
                                                     "step-1.vtk"]


@pytest.mark.parametrize("override, name, value", [
    ("initial.seed=100000000000000000000000", "seed",
     "100000000000000000000000"),
    ("mesh.n=-100000000000000000000", "n", "-100000000000000000000"),
])
def test_cli_names_an_integer_beyond_64_bits(tmp_path, small_cfg, capsys,
                                             override, name, value):
    out = tmp_path / "o"
    code = cli.dispatch(["run", "--config", small_cfg, "--out", str(out),
                         "--set", override])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {name} is out of range, got {value}\n")
    assert not out.exists()


def _run_overflowing_table(tmp_path, small_cfg):
    """Run with a table whose s*nu overflows at its second knot."""
    argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "o")]
    for item in _table_override(tmp_path, [(0, 1), (1e200, 1e200)]):
        argv += ["--set", item]
    return cli.dispatch(argv)


def test_cli_names_the_reluctivity_whose_certification_overflows(
        tmp_path, small_cfg, capsys):
    assert _run_overflowing_table(tmp_path, small_cfg) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error:") == 1
    assert "reluctivity curve of kind 'user_tabulated'" in err
    assert "region '*'" in err


def test_cli_reports_floating_point_overflow_on_one_line(tmp_path, small_cfg,
                                                         capsys):
    """An input so large that the certification overflows exits 1 with one
    error line, not a numpy warning or traceback."""
    assert _run_overflowing_table(tmp_path, small_cfg) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: overflow")


@pytest.mark.parametrize("value, fragment", [
    (np.nan, "initial field must be finite, got nan at flat index 3 of 49"),
    (np.inf, "initial field must be finite, got inf at flat index 3 of 49"),
    (1j, "initial field must be real numbers, got complex128"),
], ids=["nan", "inf", "complex"])
def test_cli_rejects_a_bad_initial_field_file(tmp_path, small_cfg, capsys,
                                              value, fragment):
    """A NaN, an inf or a complex entry in an .npy initial field exits 1
    with one error line naming the initial field, before any step."""
    a0 = np.zeros(49, dtype=complex if value == 1j else float)
    a0[3] = value
    path = tmp_path / "a0.npy"
    np.save(path, a0)
    code = cli.dispatch(["run", "--config", small_cfg, "--out",
                         str(tmp_path / "o"), "--set", "initial.kind=file",
                         "--set", f"initial.path={path}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {fragment}")
    assert not (tmp_path / "o" / "run.csv").exists()


@pytest.mark.parametrize("overrides, named", [
    (["circuit.voltage_value=1e308"],
     "step 1: overflow encountered in dot: the problem data is out of "
     "floating-point range; its largest input is the voltage, of magnitude "
     "1e+308"),
    (["circuit.R=1e-300"],
     "step 1: overflow encountered in dot: the problem data is out of "
     "floating-point range; its largest input is the inverse resistance "
     "R^-1, of magnitude 1e+300"),
    (["winding.w1=0.1 0.2 0.4 0.6 1e300"],
     "step 1: overflow encountered in dot: the problem data is out of "
     "floating-point range; its largest input is the winding density, of "
     "magnitude 1e+300"),
    (None,
     "overflow encountered in multiply: the problem data is out of "
     "floating-point range; its largest input is the initial field, of "
     "magnitude 1e+300"),
    # no single input beyond sqrt(float max): none is named
    (["circuit.voltage_value=1e150", "winding.w1=0.1 0.2 0.4 0.6 1e150"],
     "step 1: overflow encountered in dot: the problem data is out of "
     "floating-point range"),
], ids=["voltage", "resistance", "winding", "initial_field", "none_beyond"])
def test_cli_names_the_input_when_a_solve_overflows(tmp_path, small_cfg,
                                                    capsys, overrides, named):
    if overrides is None:  # an initial field of 1e300 everywhere
        np.save(tmp_path / "a0.npy", np.full(49, 1e300))
        sets = ["--set", "initial.kind=file",
                "--set", f"initial.path={tmp_path / 'a0.npy'}"]
    else:
        sets = [arg for item in overrides for arg in ("--set", item)]
    code = cli.dispatch(["run", "--config", small_cfg, "--out",
                         str(tmp_path / "o"), *sets])
    assert code == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_cli_operations_leave_no_solver_objects_alive(small_cfg, tmp_path):
    """Back-to-back operations in one process (as perfbench runs them)
    free their mesh, operators, Newton systems and trajectory on return."""
    kinds = (fem.Mesh2D, system.MQSOperators, core.NewtonSystem,
             core.LinearMapE, system.MQSTrajectory)

    def alive():
        gc.collect()
        return [obj for obj in gc.get_objects() if isinstance(obj, kinds)]

    before = alive()
    for command in ("run", "experiment"):
        cli.dispatch([command, "--config", small_cfg,
                      "--out", str(tmp_path / command)])
    left = [type(obj).__name__ for obj in alive()
            if not any(obj is old for old in before)]
    assert left == []


@pytest.fixture()
def mqsflow_log_level():
    """Restore the mqsflow logger's level, which dispatch sets."""
    level = cli.log.level
    yield
    cli.log.setLevel(level)


def test_cli_mqs_log_applies_on_every_dispatch(
        tmp_path, small_cfg, monkeypatch, capsys, mqsflow_log_level):
    """Two runs in one process: the second, at info, logs what it wrote."""
    argv = ["run", "--config", small_cfg, "--out", str(tmp_path / "o")]
    monkeypatch.setenv("MQS_LOG", "error")
    assert cli.dispatch(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("MQS_LOG", "Info")
    assert cli.dispatch(argv) == 0
    out = tmp_path / "o"
    assert capsys.readouterr().err == (
        f"INFO mqsflow: wrote {out / 'run.csv'} and {out / 'run.vtk'}\n")
    assert cli.log.handlers.count(cli._handler) == 1


def test_cli_rejects_an_unknown_mqs_log_value_before_any_work(
        tmp_path, monkeypatch, capsys, mqsflow_log_level):
    def parser():
        raise AssertionError("arguments parsed")

    monkeypatch.setattr(cli, "_parser", parser)
    monkeypatch.setenv("MQS_LOG", "verbose")
    out = tmp_path / "o"
    assert cli.dispatch(["run", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: MQS_LOG must be one of error, info, "
                            "debug, got 'verbose'\n")
    assert not out.exists()


def test_cli_failed_run_makes_no_out_directory(
        tmp_path, small_cfg, monkeypatch, capsys):
    """Neither a step failure nor a failed self-check leaves --out; nor
    does an experiment or convergence study that stops with an error."""
    real = system.solve

    def failing(*args, **kwargs):
        raise NonConvergence("Newton did not converge", step=2)

    def corrupted(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.fields[3] += 1e-3
        return traj

    for solve, message in ((failing, "error: Newton did not converge\n"),
                           (corrupted, "error: self-check failed at step 3")):
        monkeypatch.setattr(system, "solve", solve)
        out = tmp_path / solve.__name__
        code = cli.dispatch(["run", "--config", small_cfg, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    monkeypatch.setattr(system, "solve", failing)
    for argv, message in (
            (["experiment", "--config", small_cfg],
             "error: Newton did not converge\n"),
            (["convergence", "--set", "mesh.n=4"],
             "error: conductor disk must stay inside the unit square")):
        out = tmp_path / "later"
        assert cli.dispatch([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


def test_cli_experiment_with_a_failed_verdict_still_writes_its_outputs(
        tmp_path, small_cfg, monkeypatch, capsys):
    from mqsflow import diagnostics

    def failed(ops, **kwargs):
        return diagnostics.ExperimentResult("monotonicity", False,
                                            {"min_ratio": -1.0})

    monkeypatch.setattr(diagnostics, "monotonicity_probe", failed)
    out = tmp_path / "o"
    code = cli.dispatch(["experiment", "--config", small_cfg, "--out", str(out)])
    assert code == 1
    assert ["monotonicity", "FAIL", "min_ratio=-1"] in [
        line.split() for line in capsys.readouterr().out.splitlines()]
    summary = (out / "summary.kv").read_text(encoding="utf-8").splitlines()
    assert "monotonicity.pass=false" in summary
    assert (out / "run.csv").is_file() and (out / "summary.txt").is_file()


def test_cli_every_command_rejects_a_step_beyond_the_ellipticity_bound(
        tmp_path, capsys):
    """tau < 1 / omega is checked when the system is built, so validate
    rejects exactly what run and experiment reject, and constants does
    too.  The input-contract fuzzer never draws a whole step count with
    tau >= 1."""
    sets = ["--set", "mesh.n=8", "--set", "time.tau=1", "--set", "time.T=1"]
    reason = "tau = 1.0 too large for ellipticity omega = 1.0"
    assert cli.dispatch(["validate", *sets]) == 1
    assert capsys.readouterr().out == f"validation FAIL: {reason}\n"
    for command in ("run", "experiment", "constants"):
        out = tmp_path / command
        assert cli.dispatch([command, "--out", str(out), *sets]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()


def count_field_points(monkeypatch):
    """A list that gains one entry per fem._FieldPoint made."""
    made = []

    class Counted(fem._FieldPoint):
        __slots__ = ()

        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(fem, "_FieldPoint", Counted)
    return made


def test_the_run_self_check_evaluates_no_field_point(monkeypatch, tmp_path):
    """cli._check_run reads K from the stored subgradients, so a whole
    `mqsflow run` makes exactly the field points of its solve."""
    cfg = config.build_config(config.apply_overrides({}, ["mesh.n=16"]))
    ops = system.build_system(cfg)[0]
    traj = system.solve(cfg, ops)
    made = count_field_points(monkeypatch)
    cli._check_run(cfg, ops, traj)
    assert made == []
    system.solve(cfg)
    solve_alone = len(made)
    assert solve_alone > 0
    made.clear()
    assert cli.dispatch(["run", "--set", "mesh.n=16",
                         "--out", str(tmp_path)]) == 0
    assert len(made) == solve_alone


def test_cli_convergence_prints_what_it_stores(tmp_path, capsys):
    """`mqsflow convergence` runs both refinements and prints each order
    and error it writes to summary.kv, then its verdict."""
    out = tmp_path / "o"
    code = cli.dispatch(["convergence", "--set", "mesh.n=8",
                         "--set", "time.tau=0.0625", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and lines[-1] == "convergence PASS"
    kv = dict(line.split("=", 1) for line in
              (out / "summary.kv").read_text(encoding="utf-8").splitlines())
    assert kv.pop("convergence_both.pass") == "true"
    stored = {key[len("convergence_both."):]: float(value)
              for key, value in kv.items()}
    printed = dict(line.split("=", 1) for line in lines[:-1])
    assert printed.keys() == stored.keys()
    assert {"tau_observed_order", "h_observed_order"} <= stored.keys()
    assert all(key.startswith(("tau_", "h_")) for key in stored)
    for key, value in stored.items():
        assert printed[key] == f"{value:.6g}", key


def test_perfbench_configs_build(tmp_path, monkeypatch):
    """Each benchmark workload's generated config names only keys its
    kinds read (configs/default.cfg: test_default_cfg_file_gives_...)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(workload.config_text(9301))
        assert workloads.load_config(str(path), 9301).seed == 9301


def _readme_config_rows():
    """README's configuration table: {section: its keys cell}."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("| section | keys (default) |\n|---|---|\n", 1)[1]
    rows = []
    for line in table.splitlines():
        if not line.startswith("| `["):
            break
        rows.append(re.fullmatch(r"\| `\[(\w+)\]` \| (.*) \|", line).groups())
    sections = [section for section, _ in rows]
    assert len(sections) == len(set(sections)), sections
    return dict(rows)


def test_readme_config_table_follows_the_schema():
    """README's table has one row per config section, names each of its
    keys, and lists each kind key's choices as the library accepts them."""
    rows = _readme_config_rows()
    assert set(rows) == set(config._SCHEMA)
    for section, keys in config._SCHEMA.items():
        for key in sorted(keys or {"w1"}):
            assert f"`{key}`" in rows[section], (section, key)
    for section, key, kinds in [
            ("material", "kind", tuple(material._KIND_KEYS)),
            ("circuit", "voltage_kind", system.VOLTAGE_KINDS),
            ("initial", "kind", system.A0_KINDS)]:
        listed = re.search(rf"`{key}` `([^`]*)`", rows[section]).group(1)
        assert tuple(listed.split("\\|")) == kinds, (section, listed)
