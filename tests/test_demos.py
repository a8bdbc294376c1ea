"""The narrative demos run end to end on the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_step_response.py",
                                  "02_property_checks.py",
                                  "03_convergence.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name.startswith("03"):
        assert "PASS" in out and "FAIL" not in out
    if name.startswith("01"):
        assert (tmp_path / "step_response.csv").exists()
        assert (tmp_path / "step_response.vtk").exists()
