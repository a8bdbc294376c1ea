"""Command-line interface and configuration parsing."""

import os

import numpy as np
import pytest

from mqsflow import cli, config
from mqsflow.errors import ConfigError

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
