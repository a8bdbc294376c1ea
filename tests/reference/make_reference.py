"""Kept reference outputs of the CLI, and the comparison against them.

    python tests/reference/make_reference.py

rewrites every file named in CASES, beside this script, from the source
tree it sits in (``src/``).  Regenerating is deliberate: the files are the
fixed point that ``tests/test_reference.py`` holds every later tree to,
so that drift which stays inside the bound at each change cannot add up
unseen.  Regenerate only when a change moves the numbers on purpose, say
why, and report the largest drift against the old files, which this
script prints before it overwrites them.  A defect may not be covered
this way.

The comparison (``compare``) reads values, not bytes:
  - CSV: the same header, row count and empty cells; every value within
    1e-10 * scale, scale = 1 + the largest magnitude in the reference file.
  - summary.kv: the same keys in the same order; every ``.pass`` flag and
    every integer exactly; the orders and constants of RELATIVE within
    1e-6 relative; every other measured value within 1e-10 * scale, scale
    = 1 + the largest magnitude among them in the reference file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

ABS_TOL = 1e-10
REL_TOL = 1e-6
# Observed orders and constants: a log of error ratios, and the eigensolve
# constant, the monotonicity ratio and the coercivity slack built on it.
RELATIVE = frozenset({
    "power_balance_order.observed_order", "monotonicity.min_ratio",
    "coercivity_bound.c", "coercivity_bound.min_slack",
})

# The three-winding problem of perfbench's multiwinding workload, at n = 12.
THREE_WINDINGS = [
    "mesh.n=12",
    "winding.w1=0.1 0.2 0.4 0.6 100.0 ; 0.8 0.9 0.4 0.6 -100.0",
    "winding.w2=0.4 0.6 0.8 0.9 100.0 ; 0.4 0.6 0.1 0.2 -100.0",
    "winding.w3=0.1 0.2 0.1 0.2 100.0 ; 0.8 0.9 0.8 0.9 -100.0",
    "material.nu_max=8.0",
    "circuit.R=2 .5 0 ; .5 2 .5 ; 0 .5 2",
    "circuit.voltage_kind=table",
    "circuit.voltage_table=0 0 0 0 ; 0.25 4 -4 4 ; 0.5 -4 4 -4 ; "
    "0.75 4 4 -4 ; 1.0 -4 -4 4",
    "initial.kind=random",
    "initial.seed=7",
]

# reference file -> (subcommand, --set overrides, the output file it keeps);
# n = 24 (529 unknowns) is above core.PCG_MIN_DIM, so its reference guards
# the lagged-factor PCG path.
CASES = {
    "run_default_n16.csv": ("run", ["mesh.n=16"], "run.csv"),
    "run_default_n24.csv": ("run", ["mesh.n=24"], "run.csv"),
    "run_three_windings_n12.csv": ("run", THREE_WINDINGS, "run.csv"),
    "experiment_n8.kv": ("experiment", ["mesh.n=8"], "summary.kv"),
}


def produce(name, out_dir):
    """Run the command of reference ``name`` with --out ``out_dir`` and
    return the path of the output it keeps."""
    from mqsflow import cli

    command, sets, output = CASES[name]
    argv = [command, "--out", str(out_dir)]
    for item in sets:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"mqsflow {' '.join(argv)} exited {code}")
    return Path(out_dir) / output


def _cells(path):
    """The layout of a file (the CSV header, or the kv keys in order) and
    (label, text, relative?) for each of its values."""
    with open(path, encoding="utf-8", newline="") as fh:
        if str(path).endswith(".kv"):
            pairs = [line.rstrip("\n").split("=", 1) for line in fh]
            return [key for key, _ in pairs], [
                (key, value, key in RELATIVE) for key, value in pairs]
        header, *rows = csv.reader(fh)
    return header, [(f"row {k} {header[j]}", cell, False)
                    for k, row in enumerate(rows) for j, cell in enumerate(row)]


def compare(ref_path, new_path):
    """Problems of ``new_path`` against the reference ``ref_path``, and the
    largest drift as (label, |new - ref|, its bound); see the module
    docstring for the bounds."""
    ref_labels, ref = _cells(ref_path)
    new_labels, new = _cells(new_path)
    if ref_labels != new_labels or len(ref) != len(new):
        return [f"layout differs: {new_labels} ({len(new)} values) against "
                f"{ref_labels} ({len(ref)} values)"], None
    numbers = [float(text) for label, text, rel in ref
               if not rel and _is_float(label, text)]
    scale = 1.0 + max((abs(x) for x in numbers if math.isfinite(x)),
                      default=0.0)
    problems, worst = [], None
    for (label, want, rel), (_, got, _) in zip(ref, new):
        if not _is_float(label, want) or not _is_float(label, got):
            if got != want:
                problems.append(f"{label}: {got!r} != {want!r}")
            continue
        x, r = float(got), float(want)
        bound = REL_TOL * abs(r) if rel else ABS_TOL * scale
        drift = 0.0 if x == r or (math.isnan(x) and math.isnan(r)) else abs(x - r)
        if not drift <= bound:
            problems.append(f"{label}: {got} differs from {want} by "
                            f"{drift:.3g}, beyond {bound:.3g}")
        ratio = drift / bound if bound > 0 else (0.0 if drift == 0 else math.inf)
        if worst is None or ratio > worst[0]:
            worst = (ratio, label, drift, bound)
    return problems, worst and worst[1:]


def _is_float(label, text):
    """A value compared within a bound; flags, empty cells and integers
    must match exactly."""
    if label.endswith(".pass") or text.lstrip("-").isdigit():
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            new = produce(name, Path(tmp) / name.partition(".")[0])
            old = HERE / name
            if old.exists():
                problems, worst = compare(old, new)
                drift = ("none" if worst is None else
                         f"{worst[1]:.3g} at {worst[0]} (bound {worst[2]:.3g})")
                print(f"{name}: largest drift {drift}; "
                      f"{len(problems)} values beyond their bound")
                for line in problems:
                    print(f"  {line}")
            shutil.copyfile(new, old)
            print(f"wrote {old}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
