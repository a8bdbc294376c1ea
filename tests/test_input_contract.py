"""The input contract, checked property-based (QuickCheck style).

Every input the program accepts either runs or is rejected with one of
the package's own errors, never with a raw numpy or Python error:

* ``mqsflow run`` with any ``--set`` overrides exits 0 or 1.  Exit 1
  prints exactly one ``error: `` line and writes no output; once a prox
  step has run, only a Newton failure may end the solve.
* The library classes, built directly from lists, ragged lists, strings
  and arrays, and ``build_system`` on them, either succeed or raise an
  ``MqsflowError``.

The draws are derandomized with a fixed example budget, so each run
checks the same examples and writes no example database.
"""

import contextlib
import io
import math
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mqsflow import cli, config, core, fem, material, system
from mqsflow.errors import MqsflowError, NonConvergence, SingularStep


def contract(max_examples):
    """Derandomized settings; the mark lets a failure be reported, since
    hypothesis then imports a patch writer whose dependency warns."""
    def wrap(test):
        test = settings(derandomize=True, database=None, deadline=None,
                        max_examples=max_examples)(test)
        return pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated"
            ":DeprecationWarning")(test)
    return wrap


# Values every numeric key may draw: non-finite, zero, negative, huge and
# tokens that do not parse.
BAD = st.sampled_from([
    "nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "", "abc", "1 2",
    ";", "1,5", "0x10", "1e", "--", "1.5.2",
])


@st.composite
def _mostly(draw, valid, bad):
    """A draw from ``valid`` three times in four, else from ``bad``."""
    return draw(valid if draw(st.integers(0, 3)) else bad)


def _key(*valid):
    return _mostly(st.sampled_from(valid), BAD)


RECT = "0.1 0.2 0.4 0.6 100 ; 0.8 0.9 0.4 0.6 -100"

# One strategy per _SCHEMA key.  Every value the library accepts keeps
# n <= 12 and T / tau <= 16, which only bounds the cost of a run.
# File-valued keys draw a name resolved inside the scratch directory.
VALUES = {
    ("mesh", "n"): _key("4", "6", "8", "12", "3", "8.5", "257", "100000"),
    ("conductor", "center"): _key("0.5 0.5", "0.45 0.55", "0.5",
                                  "0.5 0.5 0.5", "nan 0.5"),
    ("conductor", "radius"): _key("0.2", "0.1", "0.3"),
    ("winding", "w1"): _key(RECT, "0.1 0.2 0.4 0.6 5", "0.1 0.2 0.4 0.6",
                            "0.1 0.2 0.4 0.6 1 ; 1 2", "0.3 0.7 0.3 0.7 1"),
    ("winding", "w2"): _key("0.4 0.6 0.8 0.9 100 ; 0.4 0.6 0.1 0.2 -100",
                            "0.1 0.2 0.1 0.2 1 2"),
    ("winding", "w3"): _key("0.1 0.2 0.1 0.2 100 ; 0.8 0.9 0.8 0.9 -100"),
    ("material", "kind"): _key("constant", "rational_saturation",
                               "user_tabulated", "mystery"),
    ("material", "nu0"): _key("1", "2.5"),
    ("material", "nu_min"): _key("1", "0.5"),
    ("material", "nu_max"): _key("5", "8", "0.5"),
    ("material", "table"): _key("table.txt", "junk.txt", "missing.txt",
                                "."),
    ("circuit", "sigma_C"): _key("1", "2", "0.5"),
    ("circuit", "R"): _key("1", "2", "1 0 ; 0 2", "2 .5 0 ; .5 2 .5 ; 0 .5 2",
                           "1 2 ; 2 1", "1 0.5 ; 0 1", "1 0", "1 ; 2 3"),
    ("circuit", "voltage_kind"): _key("constant", "step", "table", "ramp"),
    ("circuit", "voltage_value"): _key("1", "1 0.5", "0.5 1 -1", "4"),
    ("circuit", "voltage_table"): _key("0 0 ; 1 2", "0 0 0 ; 1 1 -1",
                                       "0 0 ; 0.5 1 ; 0.25 2", "0 1 ; 1",
                                       "0 0 0 0 ; 0.5 4 -4 4 ; 1 -4 4 -4"),
    ("time", "T"): _key("0.25", "0.5", "1", "0.3"),
    ("time", "tau"): _key("0.0625", "0.125", "0.25", "0.3", "2"),
    ("initial", "kind"): _key("zero", "random", "file", "telepathic"),
    ("initial", "seed"): _key("0", "7", "1.5"),
    ("initial", "path"): _key("a0.npy", "junk.txt", "missing.npy", "."),
    ("output", "basename"): st.sampled_from([
        "run", "out2", "", ".", "..", "sub/run", "../escaped", "a\0b"]),
    ("core", "newton_tol"): _key("1e-10", "1e-8", "1e-3", "2e-3"),
}
FILE_KEYS = {("material", "table"), ("initial", "path")}

SMALL = "[mesh]\nn = 8\n[time]\nT = 0.25\ntau = 0.0625\n"


def test_every_schema_key_has_a_strategy():
    keys = {(s, k) for s, ks in config._SCHEMA.items() if ks for k in ks}
    assert keys | {("winding", f"w{j}") for j in (1, 2, 3)} == set(VALUES)


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=6,
                         unique=True))
    return {key: draw(VALUES[key]) for key in keys}


def _scratch(root):
    """The config and the files that file-valued keys may name."""
    (root / "small.cfg").write_text(SMALL)
    (root / "table.txt").write_text("0,1\n1,2\n3,1.5\n")
    (root / "junk.txt").write_text("x,y\n\x00\n")
    np.save(root / "a0.npy", np.zeros(49))  # the n = 8 interior dofs


def _set_args(root, sets):
    """The --set arguments of ``sets``, file names resolved in ``root``."""
    args = []
    for (section, key), value in sets.items():
        if (section, key) in FILE_KEYS:
            value = str(root / value)
        args += ["--set", f"{section}.{key}={value}"]
    return args


def _outputs(root):
    return sorted(p for p in root.rglob("*")
                  if p.name.endswith((".csv", ".vtk")))


@contract(150)
@given(overrides())
def test_cli_run_exits_cleanly_on_any_setting(sets):
    seen = {"prox_steps": 0, "raised": None}
    real_prox, real_solve = core.prox_step, core.solve_trajectory

    def prox_step(*args, **kwargs):
        seen["prox_steps"] += 1
        return real_prox(*args, **kwargs)

    def solve_trajectory(*args, **kwargs):
        try:
            return real_solve(*args, **kwargs)
        except BaseException as exc:
            seen["raised"] = exc
            raise

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _scratch(root)
        out = root / "o"
        argv = ["run", "--config", str(root / "small.cfg"), "--out", str(out)]
        argv += _set_args(root, sets)
        err = io.StringIO()
        with mock.patch.object(core, "prox_step", prox_step), \
                mock.patch.object(core, "solve_trajectory", solve_trajectory), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        written = _outputs(root)

    event(f"exit {code}, prox steps run: {bool(seen['prox_steps'])}")
    assert code in (0, 1), err.getvalue()
    if code == 0:
        base = sets.get(("output", "basename"), "run")
        assert written == [out / f"{base}.csv", out / f"{base}.vtk"]
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert written == []
    if seen["prox_steps"]:
        assert isinstance(seen["raised"], (NonConvergence, SingularStep)), \
            lines[0]


@contract(60)
@given(overrides())
def test_cli_validate_passes_exactly_what_builds(sets):
    """``mqsflow validate`` exits 0 exactly when build_config and then
    build_system accept the same settings, under the CLI's error state."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _scratch(root)
        args = _set_args(root, sets)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch(["validate", "--config",
                                 str(root / "small.cfg")] + args)
        try:
            with np.errstate(all="raise", under="ignore"):
                entries = config.apply_overrides(  # each "--set" value
                    config.load_config_file(root / "small.cfg"), args[1::2])
                system.build_system(config.build_config(entries))
            built = True
        except (MqsflowError, FileNotFoundError, FloatingPointError) as exc:
            event(f"rejected: {type(exc).__name__}")
            built = False
    assert code in (0, 1)
    assert (code == 0) == built, sets


# --- the library, called directly ----------------------------------------

NAN, INF = math.nan, math.inf
SCALARS = st.sampled_from([0, 1, 2, 0.5, -1.0, 0.1, 0.9, 1e300, NAN, INF])
JUNK = st.one_of(
    SCALARS,
    st.text("1e.-a ;", max_size=3),
    st.none(),
    st.lists(SCALARS, max_size=6),
    st.lists(st.lists(SCALARS, max_size=6), max_size=3),  # ragged, often
    st.lists(st.text("1e.-a ;", max_size=2), min_size=1, max_size=3),
    hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
               elements=SCALARS),
)


def _either(valid):
    return _mostly(valid, JUNK)


RECTS = st.sampled_from([
    [[0.1, 0.2, 0.4, 0.6, 100.0], [0.8, 0.9, 0.4, 0.6, -100.0]],
    [(0.4, 0.6, 0.8, 0.9, 5)],
    np.array([[0.1, 0.2, 0.1, 0.2, 1.0]]),
])
TABLES = st.sampled_from([
    [[0.0, 0.0], [1.0, 2.0]], np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 2.0]]),
    [[0.0, 0.0], [0.5, 1.0], [0.25, 2.0]], [[0.0, 1.0], [1.0, 2.0]]])
PARAMS = st.dictionaries(
    st.sampled_from(["*", "C", "I", "c"]),
    _either(st.dictionaries(
        st.sampled_from(["nu0", "nu_min", "nu_max", "table", "x"]),
        _either(st.one_of(st.sampled_from([1.0, 5.0]), TABLES)), max_size=4)),
    max_size=3)

# Arguments of the library classes; an optional key left out takes the
# class default.
LIBRARY_ARGS = st.fixed_dictionaries({
    "n": _either(st.sampled_from([6, 8, np.int64(8), 8.5, True])),
}, optional={
    "conductor_center": _either(st.sampled_from([(0.5, 0.5), [0.45, 0.55]])),
    "conductor_radius": _either(st.sampled_from([0.2, 0.1])),
    "sigma_C": _either(st.sampled_from([1.0, 2])),
    "R": _either(st.sampled_from([[[1.0]], np.eye(2), 2.0, [[1.0, 2.0]]])),
    "T": _either(st.sampled_from([0.25, 1.0])),
    "tau": _either(st.sampled_from([0.0625, 0.3])),
    "a0_kind": st.sampled_from(["zero", "random", "file", "telepathic"]),
    "seed": _either(st.sampled_from([0, 7, np.int32(3), 1.5, -1])),
    "newton_tol": _either(st.sampled_from([1e-10, 1e-3])),
    "winding": st.tuples(_either(st.lists(_either(RECTS), min_size=1,
                                          max_size=3))),
    "voltage": st.tuples(
        st.sampled_from(["constant", "step", "table", "ramp"]),
        _either(st.lists(SCALARS, min_size=1, max_size=3)),
        _either(TABLES)),
    "model": st.tuples(
        st.sampled_from(["constant", "rational_saturation", "user_tabulated",
                         "mystery"]),
        _either(PARAMS)),
})
PARTS = {"winding": fem.WindingSpec, "voltage": system.VoltageSignal,
         "model": material.ReluctivityModel}


@contract(200)
@given(LIBRARY_ARGS)
def test_library_inputs_succeed_or_raise_package_errors(fields):
    for name, cls in PARTS.items():
        if name in fields:
            try:
                fields[name] = cls(*fields[name])
            except MqsflowError:
                del fields[name]
    try:
        cfg = system.MQSConfig(**fields)
    except MqsflowError as exc:
        event(f"MQSConfig rejects: {type(exc).__name__}")
        return
    assert cfg.n <= 8
    try:
        system.build_system(cfg)
        event("built")
    except MqsflowError as exc:
        event(f"build_system rejects: {type(exc).__name__}")
