"""Timing summaries and spans recorded around mqsflow's public calls.

Spans are recorded from outside the package: ``instrument`` swaps module
attributes of ``mqsflow.core``, ``fem``, ``material``, ``system`` and
``diagnostics`` for timed wrappers and restores them on exit.  Every
caller inside the package reaches these functions through a module
attribute or a module global, so the wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

# Percentiles tried for the tail, highest first.  A percentile is reported
# only if at least MIN_BEYOND samples lie above it.
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def summarize(samples):
    """Median, sample count and tail of a list of timings.

    The tail is the highest of TAIL_LEVELS with at least MIN_BEYOND
    samples strictly above its nearest-rank position; with fewer than
    2 * MIN_BEYOND samples there is none and ``tail`` is None.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples to summarize")
    out = {"n": n, "median": statistics.median(xs), "tail_pct": None,
           "tail": None}
    for p in TAIL_LEVELS:
        rank = math.ceil(p * n / 100.0)
        if n - rank >= MIN_BEYOND:
            out["tail_pct"] = p
            out["tail"] = xs[rank - 1]
            break
    return out


class Tracer:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counters = Counter()
        self.peak_bytes = Counter()

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def self_times(self):
        """Per span: duration minus the part its child spans cover.

        Spans nest strictly (``end`` enforces it), so the children of a span
        are disjoint and lie inside it.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def totals(self):
        """{name: {"calls", "self_s"}} over all spans."""
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, own in zip(self.names, self.self_times()):
            agg[name]["calls"] += 1
            agg[name]["self_s"] += own
        return dict(agg)

    def durations(self, name):
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]


class Reference:
    """Fixed work that tracks the machine's speed, independent of mqsflow.

    The sandbox's speed drifts by tens of percent within seconds and over
    minutes, in CPU time as much as in wall time.  Timing passes of this
    kernel around and during an operation turns the operation's wall time
    into a multiple of one pass, which the drift largely cancels.  The mix
    follows mqsflow's: a sparse LU factor and solve (SuperLU, 4096
    unknowns), vectorized per-element array work, a COO-to-CSR assembly
    and a pure-Python loop.  ``passes`` keeps the wall time of every pass.
    """

    def __init__(self, n=64, seed=0):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        t = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1],
                           shape=(n, n))
        eye = sp.eye_array(n)
        self.lap = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
        self.rhs = rng.random(n * n)
        self.pts = rng.random((2 * n * n, 3, 2))
        m = 18 * n * n
        self.ijv = (rng.integers(0, n * n, m), rng.integers(0, n * n, m),
                    rng.random(m))
        self.passes = []

    def _once(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        x = spla.splu(self.lap).solve(self.rhs)
        pts = self.pts
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        g = np.einsum("eik,ejk->eij", pts, pts) / det[:, None, None]
        rows, cols, vals = self.ijv
        a = sp.coo_array((vals, (rows, cols)), shape=self.lap.shape).tocsr()
        y = a @ x + g.sum()
        s = 0.0
        for v in range(100_000):
            s += float(y[v % y.size])
        return s

    def run(self, passes):
        """Run and time ``passes`` passes of the kernel."""
        for _ in range(passes):
            t0 = time.perf_counter()
            self._once()
            self.passes.append(time.perf_counter() - t0)


@contextlib.contextmanager
def sample_during(reference, interval):
    """Run one reference pass at a Newton iteration once ``interval``
    seconds have passed since the last one.

    Yields a dict whose ``"spent"`` is the wall time the passes took, to be
    subtracted from the operation's.  The passes run between Newton
    iterations, outside mqsflow's own work.
    """
    from mqsflow import core

    real = core._solve_newton_system
    state = {"last": time.perf_counter(), "spent": 0.0}

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        now = time.perf_counter()
        if now - state["last"] >= interval:
            reference.run(1)
            state["last"] = time.perf_counter()
            state["spent"] += state["last"] - now
        return real(*args, **kwargs)

    core._solve_newton_system = wrapper
    try:
        yield state
    finally:
        core._solve_newton_system = real


def write_spans(tracers, path):
    """All spans as gzipped TSV: op, span id, parent id, name, start, end."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("op\tid\tparent\tname\tstart_s\tend_s\n")
        for op, tr in enumerate(tracers):
            for i, (name, s, e, p) in enumerate(
                    zip(tr.names, tr.starts, tr.ends, tr.parents)):
                fh.write(f"{op}\t{i}\t{p}\t{name}\t{s!r}\t{e!r}\n")


# (module, attribute, span name).  Several attributes may share one span
# name: mqsflow imports model_eval/theta_eval into fem by name, assembles
# mass blocks through _assemble_mass, and takes Newton-start-from-zero
# steps through system._prox_from instead of core.prox_step.
SPANS = (
    ("core", "prox_step", "core.prox_step"),
    ("system", "_prox_from", "core.prox_step"),
    ("fem", "_geometry", "fem.geometry"),
    ("fem", "curlcurl_residual", "fem.K"),
    ("fem", "curlcurl_jacobian", "fem.K_tangent"),
    ("fem", "magnetic_energy", "fem.energy"),
    ("fem", "_assemble_mass", "fem.assemble"),
    ("fem", "assemble_sigma_mass", "fem.assemble"),
    ("fem", "assemble_stiffness", "fem.assemble"),
    ("fem", "assemble_coupling", "fem.assemble"),
    ("fem", "estimate_coercivity_constant", "fem.coercivity_eig"),
    ("fem", "build_mesh", "fem.build_mesh"),
    ("fem", "model_eval", "material.model_eval"),
    ("material", "model_eval", "material.model_eval"),
    ("fem", "theta_eval", "material.theta_eval"),
    ("material", "theta_eval", "material.theta_eval"),
    ("system", "_metric_matrix", "system.metric_matrix"),
    ("system", "build_system", "system.build_system"),
    ("system", "solve", "system.solve"),
    ("diagnostics", "write_timeseries_csv", "diagnostics.io.csv"),
    ("diagnostics", "write_field_vtk", "diagnostics.io.vtk"),
)


def _timed(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _line_search(tracer, fn):
    @functools.wraps(fn)
    def wrapper(objective, *args, **kwargs):
        def counted(x):
            tracer.counters["core.line_search.objective_evals"] += 1
            return objective(x)
        idx = tracer.begin("core.line_search")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _newton_counter(tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters["core.newton.iters"] += 1
        return fn(*args, **kwargs)
    return wrapper


def _certify(tracer, fn):
    """Span plus the tracemalloc peak inside it; tracing starts and stops
    outside the timed interval."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            idx = tracer.begin("material.certify")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.peak_bytes["material.certify"] = max(
                tracer.peak_bytes["material.certify"], peak)
    return wrapper


class _TracedLU:
    """SuperLU factor whose solves are recorded as core.lu_solve spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        idx = self._tracer.begin("core.lu_solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            self._tracer.end(idx)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedSparseLinalg:
    """Stands in for scipy.sparse.linalg inside mqsflow.core so that each
    splu is a core.lu_factor span; its L+U nonzeros are read after the
    span ends."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def splu(self, *args, **kwargs):
        idx = self._tracer.begin("core.lu_factor")
        try:
            lu = self._real.splu(*args, **kwargs)
        finally:
            self._tracer.end(idx)
        self._tracer.counters["core.lu_factor.fill_nnz_sum"] += (
            lu.L.nnz + lu.U.nnz)
        return _TracedLU(lu, self._tracer)

    def __getattr__(self, name):
        return getattr(self._real, name)


@contextlib.contextmanager
def instrument(tracer):
    """Route mqsflow's layer calls through ``tracer`` for the duration."""
    from mqsflow import core, diagnostics, fem, material, system

    modules = {"core": core, "diagnostics": diagnostics, "fem": fem,
               "material": material, "system": system}
    patches = [(modules[m], attr, _timed(tracer, name, getattr(modules[m], attr)))
               for m, attr, name in SPANS]
    patches += [
        (core, "armijo_search", _line_search(tracer, core.armijo_search)),
        (core, "_solve_newton_system",
         _newton_counter(tracer, core._solve_newton_system)),
        (material, "estimate_constants",
         _certify(tracer, material.estimate_constants)),
        (core, "spla", _TracedSparseLinalg(core.spla, tracer)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield tracer
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)
