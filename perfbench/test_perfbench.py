"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mqsflow import cli, core, fem, system  # noqa: E402


@pytest.mark.parametrize("n, pct, value", [
    (5, None, None),     # fewer than 20 samples: no tail
    (19, None, None),
    (20, 50.0, 10),      # p50 of 1..20 has 10 samples above it
    (99, 50.0, 50),      # p90 would leave only 9 above
    (100, 90.0, 90),
    (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_summarize_tail_needs_ten_samples_beyond(n, pct, value):
    s = measure.summarize(range(1, n + 1))
    assert s["n"] == n
    assert s["median"] == (n + 1) / 2
    assert s["tail_pct"] == pct
    assert s["tail"] == value


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        measure.summarize([])


def _scripted(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    tr = measure.Tracer(clock=_scripted([0, 1, 2, 3, 4, 5, 6, 10]))
    outer = tr.begin("outer")
    a = tr.begin("a")
    g = tr.begin("g")
    tr.end(g)
    tr.end(a)
    b = tr.begin("b")
    tr.end(b)
    tr.end(outer)
    assert tr.parents == [-1, outer, a, outer]
    assert tr.self_times() == [6, 2, 1, 1]
    totals = tr.totals()
    assert totals["outer"] == {"calls": 1, "self_s": 6}
    assert totals["a"]["self_s"] == 2


def test_span_closed_out_of_order_is_an_error():
    tr = measure.Tracer()
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def _small_run(tmp_path, seed=3):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(
        "[mesh]\nn = 8\n\n[time]\nT = 0.25\n\n[initial]\nkind = random\n",
        encoding="utf-8")
    out = tmp_path / "out"
    assert cli.dispatch(["run", "--config", str(cfg_path), "--out", str(out),
                         "--seed", str(seed)]) == 0
    return workloads.load_config(str(cfg_path), seed), out / "run.csv"


def test_run_csv_check_accepts_solver_output(tmp_path):
    cfg, csv_path = _small_run(tmp_path)
    assert workloads.check_run_csv(str(csv_path), cfg) == []


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-1],                                  # row missing
    lambda lines: lines[:5] + [lines[5].replace(",", ",nan,", 1)] + lines[6:],
    lambda lines: lines[:5] + [_bump_current(lines[5])] + lines[6:],
])
def test_run_csv_check_rejects_corrupted_csv(tmp_path, corrupt):
    cfg, csv_path = _small_run(tmp_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    csv_path.write_text("\n".join(corrupt(lines)) + "\n", encoding="utf-8")
    assert workloads.check_run_csv(str(csv_path), cfg) != []


def _bump_current(line):
    cells = line.split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    return ",".join(cells)


def test_summary_check_requires_every_experiment_to_pass(tmp_path):
    kv = tmp_path / "summary.kv"
    lines = [f"{name}.pass=true" for name in workloads.EXPERIMENTS]
    kv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert workloads.check_summary_kv(str(kv)) == []
    kv.write_text("\n".join(lines[:-1] + [lines[-1].replace("true", "false")]),
                  encoding="utf-8")
    assert workloads.check_summary_kv(str(kv)) != []
    kv.write_text("\n".join(lines[1:]), encoding="utf-8")
    assert workloads.check_summary_kv(str(kv)) != []


def test_instrument_records_layers_and_restores_modules(tmp_path):
    before = (core.prox_step, core.spla, fem._geometry, system.solve)
    tr = measure.Tracer()
    with measure.instrument(tr):
        _small_run(tmp_path)
    assert (core.prox_step, core.spla, fem._geometry, system.solve) == before
    totals = tr.totals()
    assert totals["core.prox_step"]["calls"] == 16
    assert totals["system.build_system"]["calls"] == 2
    assert totals["core.lu_factor"]["calls"] == tr.counters["core.newton.iters"]
    assert totals["core.line_search"]["calls"] <= (
        tr.counters["core.line_search.objective_evals"])
    assert tr.peak_bytes["material.certify"] > 0
    assert all(v >= -1e-9 for v in tr.self_times())


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_kernel_is_fixed_work():
    ref = measure.Reference(n=16)
    assert ref._once() == measure.Reference(n=16)._once()
    ref.run(2)
    assert len(ref.passes) == 2 and min(ref.passes) > 0


def test_sampling_during_an_operation_is_timed_and_undone(tmp_path):
    before = core._solve_newton_system
    ref = measure.Reference(n=16)
    with measure.sample_during(ref, interval=0.0) as samples:
        _small_run(tmp_path)
    assert core._solve_newton_system is before
    assert len(ref.passes) > 0
    assert samples["spent"] >= sum(ref.passes)
