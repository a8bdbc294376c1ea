"""The CLI's outputs against the kept references in tests/reference/.

The bounds are set out in tests/reference/make_reference.py, which also
rewrites the references, deliberately, when a change moves the numbers.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "make_reference", Path(__file__).parent / "reference" / "make_reference.py")
make_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_reference)


@pytest.mark.parametrize("name", list(make_reference.CASES))
def test_output_matches_its_kept_reference(name, tmp_path):
    new = make_reference.produce(name, tmp_path / "out")
    problems, _ = make_reference.compare(make_reference.HERE / name, new)
    assert problems == []


def _rewrite(src, dst, edit):
    dst.write_text(edit(src.read_text(encoding="utf-8")), encoding="utf-8")
    return dst


@pytest.mark.parametrize("factor, beyond", [(0.5, False), (2.0, True)])
def test_csv_drift_is_bounded_by_the_file_scale(tmp_path, factor, beyond):
    """One value moved by factor * 1e-10 * scale; scale = 1 + the largest
    magnitude in the file."""
    ref = make_reference.HERE / "run_three_windings_n12.csv"
    rows = [line.split(",") for line in ref.read_text().splitlines()]
    scale = 1.0 + max(abs(float(c)) for row in rows[1:] for c in row if c)
    moved = float(rows[5][2]) + factor * 1e-10 * scale
    rows[5][2] = repr(moved)
    new = tmp_path / "run.csv"
    new.write_text("\n".join(",".join(row) for row in rows) + "\n")
    problems, (label, drift, bound) = make_reference.compare(ref, new)
    assert label == "row 4 i_2"
    assert bound == pytest.approx(1e-10 * scale)
    assert drift == pytest.approx(factor * bound, rel=1e-3)
    assert len(problems) == beyond


def test_kv_flags_integers_and_relative_values(tmp_path):
    ref = make_reference.HERE / "experiment_n8.kv"
    text = ref.read_text(encoding="utf-8")
    order = "power_balance_order.observed_order="
    value = float(text.split(order)[1].split("\n")[0])
    within = _rewrite(ref, tmp_path / "within.kv", lambda t: t.replace(
        f"{order}{value!r}", f"{order}{value * (1 + 5e-7)!r}"))
    assert make_reference.compare(ref, within)[0] == []
    for old, new in ((f"{order}{value!r}", f"{order}{value * (1 + 2e-6)!r}"),
                     ("uniqueness.pass=true", "uniqueness.pass=false"),
                     ("n_checked=200", "n_checked=201")):
        assert old in text
        edited = _rewrite(ref, tmp_path / "edited.kv",
                          lambda t: t.replace(old, new))
        problems, _ = make_reference.compare(ref, edited)
        assert len(problems) == 1, (old, problems)


def test_compare_trees_bounds_values_and_matches_other_bytes(
        tmp_path, monkeypatch, capsys):
    """outputs.py --compare: CSV and VTK numbers within their bounds pass,
    a VTK number beyond 1e-10 * (1 + the file's largest magnitude), a
    changed log byte and a file only on one side are each a problem."""
    monkeypatch.syspath_prepend(str(make_reference.HERE))
    outputs = importlib.import_module("outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    vtk = "POINTS 2 double\n0 0 0\n1 1 {}\n"
    for root, z in ((a, 2.5), (b, 2.5 + 0.5e-10 * 3.5)):
        (root / "run").mkdir(parents=True)
        (root / "run" / "run.csv").write_text(f"t,i_1\n0,\n0.5,{z!r}\n")
        (root / "run" / "run.vtk").write_text(vtk.format(repr(z)))
        (root / "run.log").write_text("exit 0\n")
    assert outputs.compare_trees(a, b) == 0
    assert "run/run.vtk: largest drift" in capsys.readouterr().out
    (b / "run" / "run.vtk").write_text(vtk.format(repr(2.5 + 2e-10 * 3.5)))
    (b / "run.log").write_text("exit 1\n")
    (b / "extra.txt").write_text("")
    assert outputs.compare_trees(a, b) == 3
    problems = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("PROBLEM")]
    assert [p.split(":")[0] for p in problems] == [
        "PROBLEM extra.txt", "PROBLEM run/run.vtk", "PROBLEM run.log"]
