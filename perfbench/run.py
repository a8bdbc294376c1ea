"""mqsflow benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload transient_n64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; mqsflow is imported from its
``src/`` directory.  Operations (``mqsflow run`` or ``mqsflow experiment``
through ``mqsflow.cli.dispatch``) run back to back in this process until
``--seconds`` have passed, and every operation's output is checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
(machine, versions, thread settings, commit, every sample) is written to
``perfbench/_out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"

# BLAS/OpenMP are pinned to one thread: the sandbox has two cores and the
# numbers should measure the program, not the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 7
# Reference-kernel passes before the first operation and after each one,
# and the least time between two passes during an untraced operation.
BOUNDARY_PASSES = 3
SAMPLE_INTERVAL_S = 0.5
# setup_s and op_s are reported at a fixed machine speed: a time divided by
# the mean reference pass timed around it, times this many seconds: the
# median pass over 60 runs on a 2-core KVM guest (Intel Xeon, Python 3.11,
# numpy 2.4, scipy 1.17).
NOMINAL_PASS_S = 0.037

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}

PER_LAYER = {
    "core.lu_factor.calls": "count",
    "core.lu_factor.self_s": "s",
    "core.lu_factor.fill_nnz": "count",
    "core.lu_solve.self_s": "s",
    "core.newton.iters": "count",
    "core.prox_step.calls": "count",
    "core.prox_step.self_s": "s",
    "core.step_ms.p50": "ms",
    "core.step_ms.tail": "ms",
    "core.line_search.calls": "count",
    "core.line_search.objective_evals": "count",
    "core.line_search.accept_ratio": "ratio",
    "fem.geometry.calls": "count",
    "fem.geometry.self_s": "s",
    "fem.K.calls": "count",
    "fem.K.self_s": "s",
    "fem.K_tangent.calls": "count",
    "fem.K_tangent.self_s": "s",
    "fem.energy.calls": "count",
    "fem.energy.self_s": "s",
    "fem.assemble.self_s": "s",
    "fem.coercivity_eig.self_s": "s",
    "fem.build_mesh.self_s": "s",
    "system.metric_matrix.self_s": "s",
    "material.certify.calls": "count",
    "material.certify.self_s": "s",
    "material.certify.peak_mb": "MB",
    "material.model_eval.calls": "count",
    "material.model_eval.self_s": "s",
    "material.theta_eval.calls": "count",
    "material.theta_eval.self_s": "s",
    "system.build_system.calls": "count",
    "system.solve.calls": "count",
    "diagnostics.io.csv_s": "s",
    "diagnostics.io.vtk_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("transient_n64", "battery_n16", "multiwinding_n32"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mqsflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


@contextlib.contextmanager
def _capture_solve(sink):
    """Keep the trajectory the next system.solve returns, for the weak
    solution check."""
    from mqsflow import system

    real = system.solve

    def solve(*args, **kwargs):
        traj = real(*args, **kwargs)
        sink.append(traj)
        return traj

    system.solve = solve
    try:
        yield
    finally:
        system.solve = real


def _one_op(workload, cfg_path, cfg, seed, op_dir, tracer, sink, reference):
    """Wall time and problems of one operation.  With a ``reference``, its
    passes sample the machine's speed during the operation, and their time
    is left out of the operation's."""
    import measure
    from mqsflow import cli

    op_dir.mkdir()
    traced = measure.instrument(tracer) if tracer else contextlib.nullcontext()
    capture = _capture_solve(sink) if sink is not None else contextlib.nullcontext()
    sampled = (measure.sample_during(reference, SAMPLE_INTERVAL_S)
               if reference else contextlib.nullcontext({"spent": 0.0}))
    problems = []
    with capture, traced, sampled as samples:
        root = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.dispatch(workload.argv(cfg_path, op_dir, seed))
        except Exception:
            rc = None
            problems.append(traceback.format_exc())
        elapsed = time.perf_counter() - t0 - samples["spent"]
        if tracer:
            tracer.end(root)
    if rc != 0:
        problems.append(f"exit code {rc}")
    else:
        problems += workload.check_output(str(op_dir), cfg)
    shutil.rmtree(op_dir)
    return elapsed, problems


def _per_layer(tracers, traced_s, untraced_s):
    import measure

    n = len(tracers)
    tot = {}
    counters = {}
    peak = 0
    for tr in tracers:
        for name, agg in tr.totals().items():
            t = tot.setdefault(name, {"calls": 0, "self_s": 0.0})
            t["calls"] += agg["calls"]
            t["self_s"] += agg["self_s"]
        for name, v in tr.counters.items():
            counters[name] = counters.get(name, 0) + v
        peak = max(peak, tr.peak_bytes["material.certify"])

    def calls(name):
        return tot.get(name, {"calls": 0})["calls"] / n

    def self_s(name):
        return tot.get(name, {"self_s": 0.0})["self_s"] / n

    steps = measure.summarize(
        [1e3 * d for tr in tracers for d in tr.durations("core.prox_step")])
    evals = counters["core.line_search.objective_evals"]
    factors = tot["core.lu_factor"]["calls"]
    values = {
        "core.lu_factor.fill_nnz":
            counters["core.lu_factor.fill_nnz_sum"] / factors,
        "core.newton.iters": counters["core.newton.iters"] / n,
        "core.step_ms.p50": steps["median"],
        "core.step_ms.tail": steps["tail"],
        "core.line_search.objective_evals": evals / n,
        "core.line_search.accept_ratio":
            tot["core.line_search"]["calls"] / evals,
        "material.certify.peak_mb": peak / 2 ** 20,
        "diagnostics.io.csv_s": self_s("diagnostics.io.csv"),
        "diagnostics.io.vtk_s": self_s("diagnostics.io.vtk"),
        "trace.overhead_s":
            statistics.median(traced_s) - statistics.median(untraced_s),
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        layer, _, kind = metric.rpartition(".")
        values[metric] = calls(layer) if kind == "calls" else self_s(layer)
    details = {"step_ms": steps, "traced_ops": n}
    return values, details


def bench(workload, seed, seconds, trace, run_dir):
    import measure
    import workloads
    from mqsflow import system

    cfg_path = run_dir / "workload.cfg"
    cfg_path.write_text(workload.config_text(seed), encoding="utf-8")
    cfg = workloads.load_config(str(cfg_path), seed)

    # One reference pass runs before the first build and after each one.
    reference = measure.Reference()
    reference.run(1)
    setup_wall, setup_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = system.build_system(cfg)[0]
        setup_wall.append(time.perf_counter() - t0)
        reference.run(1)
        setup_s.append(setup_wall[-1] * NOMINAL_PASS_S
                       / statistics.mean(reference.passes[-2:]))

    # The weak-solution check runs once, untimed, on the trajectory of the
    # first successful `run` operation.  The battery checks weak residuals
    # itself, as its weak_solution_residuals experiment.
    weak = None if workload.command == "run" else {"passed": True}
    # The reference kernel runs before the first operation, after each one
    # and, without tracing, during each one.  An operation's reference time
    # is the mean pass from the passes before it to the passes after it.
    ops_log, tracers = [], []
    reference.run(BOUNDARY_PASSES)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        tracer = measure.Tracer() if trace and k % 2 == 0 else None
        sink = [] if weak is None else None
        first = len(reference.passes) - BOUNDARY_PASSES
        elapsed, problems = _one_op(workload, cfg_path, cfg, seed,
                                    run_dir / f"op{k}", tracer, sink,
                                    None if trace else reference)
        reference.run(BOUNDARY_PASSES)
        around = reference.passes[first:]
        ops_log.append({"traced": tracer is not None, "seconds": elapsed,
                        "reference_s": statistics.mean(around),
                        "reference_passes": len(around),
                        "problems": problems})
        if not problems:
            if tracer:
                tracers.append(tracer)
            if weak is None and sink:
                weak = workloads.check_weak_solution(ops, sink[-1], cfg)
        k += 1
        # Start another operation only while at least half of a typical one
        # fits before the deadline, so a run lasts about `seconds`.
        typical = statistics.median(op["seconds"] for op in ops_log)
        if (deadline - time.perf_counter() < typical / 2
                and (not trace or k >= 2)):
            break

    good = [op for op in ops_log if not op["problems"]]
    untraced_s = [op["seconds"] for op in good if not op["traced"]]
    traced_s = [op["seconds"] for op in good if op["traced"]]
    attempted, failed = len(ops_log), len(ops_log) - len(good)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": _environment(),
        "setup_s": {**measure.summarize(setup_s), "samples": setup_s},
        "setup_wall_s": {**measure.summarize(setup_wall),
                         "samples": setup_wall},
        "ops": ops_log, "weak_solution": weak,
    }
    if trace:
        if not tracers or not untraced_s:
            raise BenchError("no successful traced and untraced operation pair")
        values, details = _per_layer(tracers, traced_s, untraced_s)
        record["trace_details"] = details
        units = PER_LAYER
        measure.write_spans(tracers, OUT_DIR / f"{workload.name}.spans.tsv.gz")
    else:
        if not untraced_s:
            raise BenchError("no operation succeeded")
        op_s = [op["seconds"] * NOMINAL_PASS_S / op["reference_s"]
                for op in good if not op["traced"]]
        record["op_s"] = measure.summarize(op_s)
        record["op_wall_s"] = measure.summarize(untraced_s)
        record["reference_s"] = measure.summarize(
            [op["reference_s"] for op in ops_log])
        values = {
            "setup_s": statistics.median(setup_s),
            "op_s": statistics.median(op_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    record["metrics"] = {k: {"value": values[k], "unit": u}
                         for k, u in units.items()}
    weak_ok = weak is not None and weak["passed"]
    result = {"correct": failed == 0 and weak_ok, "attempted": attempted,
              "failed": failed, "metrics": record["metrics"]}
    return record, result


def main(argv=None):
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "mqsflow" / "__init__.py").is_file():
        print(f"error: no mqsflow sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mqsflow

    if Path(mqsflow.__file__).resolve().parent != src / "mqsflow":
        print(f"error: mqsflow imported from {mqsflow.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    # perturbation_experiments round-trips a0 through a fixed file name in
    # tempfile's directory; a per-run directory keeps runs from colliding
    # and is removed with the run.
    tempfile.tempdir = str(run_dir / "tmp")
    try:
        record, result = bench(workload, args.seed, args.seconds, args.trace,
                               run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if not args.trace:
        op = record["op_s"]
        tail = (f"p{op['tail_pct']:g} {op['tail']:.4f} s" if op["tail"]
                else "no tail with fewer than 20 samples")
        print(f"op_s median {op['median']:.4f} s over {op['n']} ops; {tail}; "
              f"wall-time median {record['op_wall_s']['median']:.4f} s; "
              f"reference pass median {record['reference_s']['median']:.4f} s")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
