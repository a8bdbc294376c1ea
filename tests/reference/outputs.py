"""Every CLI output of a source tree, and a value-level comparison of two.

    python tests/reference/outputs.py TREE OUT

imports mqsflow from ``TREE/src`` and the benchmark's workloads from
``TREE/perfbench/workloads.py`` (read only), then runs, through
``mqsflow.cli.dispatch`` in this process:
  - each workload of ``WORKLOADS`` at seeds 9301 and 7, with its generated
    config file (``config_text(seed)``) and its ``argv``;
  - ``mqsflow constants``, ``mqsflow convergence`` and ``mqsflow validate``
    at their defaults;
  - ``mqsflow validate`` with one failing override per problem-data check
    (``FAILING_DATA``): sigma_C, R's row count and the curve.
Each command writes into ``OUT/<label>/`` (its config file is
``OUT/<label>.cfg``), and ``OUT/<label>.log`` holds its exit code, stdout
and stderr, with OUT's path replaced by the token ``<OUT>``.  OUT must not
exist or be empty.  BLAS and OpenMP run one thread unless
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS say otherwise.

Run it on two trees, each into its own OUT; then

    diff -r OUT_A OUT_B

is empty exactly when the two trees print and write the same bytes.  The
commands take about 5 s per tree on a 2-core machine.  A change that
moves the numbers on purpose compares the two by value instead:

    python tests/reference/outputs.py --compare OUT_A OUT_B

reads OUT_A as the reference and checks every file of either against the
other's: each ``.csv`` and ``.kv`` by ``make_reference.compare`` (its
bounds), each ``.vtk`` number within 1e-10 * (1 + the largest magnitude
in OUT_A's file) and every other token exactly, and every other file
byte for byte.  It prints each file's largest drift and its bound (or
``identical``), then every problem, and exits 1 on any.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from pathlib import Path

from make_reference import ABS_TOL, compare

SEEDS = (9301, 7)
TOKEN = "<OUT>"
FAILING_DATA = {"sigma_C": "circuit.sigma_C=0", "R": "circuit.R=1 0;0 1",
                "nu_max": "material.nu_max=9.001"}


def commands(workloads):
    """(label, workload or subcommand argv, seed or None) of every
    command."""
    for name, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            yield f"{name}-{seed}", w, seed
    for command in ("constants", "convergence", "validate"):
        yield command, [command], None
    for key, setting in FAILING_DATA.items():
        yield f"validate-{key}", ["validate", "--set", setting], None


def run(tree, out):
    """Run every command of ``tree`` into ``out``; the labels that exited
    non-zero."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads
    from mqsflow import cli

    failed = []
    for label, what, seed in commands(workloads):
        out_dir = out / label
        if seed is None:
            argv = [*what, "--out", str(out_dir)]
        else:
            cfg_path = out / f"{label}.cfg"
            cfg_path.write_text(what.config_text(seed), encoding="utf-8")
            argv = what.argv(cfg_path, out_dir, seed)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.dispatch(argv)
        log = (f"exit {code}\n--- stdout\n{stdout.getvalue()}"
               f"--- stderr\n{stderr.getvalue()}")
        (out / f"{label}.log").write_text(log.replace(str(out), TOKEN),
                                          encoding="utf-8")
        if code != 0:
            failed.append(label)
    return failed


def compare_vtk(ref_path, new_path):
    """Problems of a VTK file against the reference one, and the largest
    drift as (label, |new - ref|, its bound): numbers within ABS_TOL *
    (1 + the largest magnitude in the reference), other tokens equal."""
    ref = ref_path.read_text(encoding="utf-8").split()
    new = new_path.read_text(encoding="utf-8").split()
    if len(ref) != len(new):
        return [f"{len(new)} tokens against {len(ref)}"], None
    numbers = [_number(token) for token in ref]
    bound = ABS_TOL * (1.0 + max((abs(x) for x in numbers
                                  if x is not None and math.isfinite(x)),
                                 default=0.0))
    problems, worst = [], (0.0, "none", 0.0, bound)
    for k, (want, got, r) in enumerate(zip(ref, new, numbers)):
        x = None if r is None else _number(got)
        if x is None or not (math.isfinite(x) and math.isfinite(r)):
            if got != want:
                problems.append(f"token {k}: {got!r} != {want!r}")
            continue
        drift = abs(x - r)
        if not drift <= bound:
            problems.append(f"token {k}: {got} differs from {want} by "
                            f"{drift:.3g}, beyond {bound:.3g}")
        if drift / bound > worst[0]:
            worst = (drift / bound, f"token {k}", drift, bound)
    return problems, worst[1:]


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def compare_trees(out_a, out_b):
    """Print each file's largest drift of ``out_b`` against ``out_a`` and
    every problem; the number of problems."""
    files = sorted({p.relative_to(root) for root in (out_a, out_b)
                    for p in root.rglob("*") if p.is_file()})
    problems = []
    for rel in files:
        ref, new = out_a / rel, out_b / rel
        if not (ref.is_file() and new.is_file()):
            problems.append(f"{rel}: only in {out_a if ref.is_file() else out_b}")
            continue
        if rel.suffix in (".csv", ".kv", ".vtk"):
            found, worst = (compare_vtk if rel.suffix == ".vtk" else compare)(
                ref, new)
            drift = ("identical" if worst is None or worst[1] == 0.0 else
                     f"largest drift {worst[1]:.3g} at {worst[0]} "
                     f"(bound {worst[2]:.3g})")
        else:
            found = [] if ref.read_bytes() == new.read_bytes() else [
                "bytes differ"]
            drift = "identical" if not found else "differs"
        print(f"{rel}: {drift}")
        problems += [f"{rel}: {line}" for line in found]
    for line in problems:
        print(f"PROBLEM {line}")
    return len(problems)


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        out_a, out_b = (Path(a).resolve() for a in argv[1:])
        sys.exit(1 if compare_trees(out_a, out_b) else 0)
    if len(argv) != 2:
        sys.exit(f"usage: {Path(__file__).name} TREE OUT\n"
                 f"       {Path(__file__).name} --compare OUT_A OUT_B")
    tree, out = (Path(a).resolve() for a in argv)
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    failed = run(tree, out)
    print(f"wrote {out}" + (f"; non-zero exit: {', '.join(failed)}"
                            if failed else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
