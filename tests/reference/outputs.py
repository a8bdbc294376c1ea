"""Every CLI output of a source tree, for a byte-for-byte comparison.

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
commands take about 5 s per tree on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

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


def main(argv):
    if len(argv) != 2:
        sys.exit(f"usage: {Path(__file__).name} TREE OUT")
    tree, out = (Path(a).resolve() for a in argv)
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    failed = run(tree, out)
    print(f"wrote {out}" + (f"; non-zero exit: {', '.join(failed)}"
                            if failed else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
