"""Run-configuration files: `key = value` lines under `[section]` headers.

Recognized sections and keys (all optional; defaults in parentheses):

  [mesh]      n (32; at most 256)
  [conductor] center ("0.5 0.5"), radius (0.2)
  [winding]   w1, w2, ... — each a ';'-separated list of rectangles
              "x0 x1 y0 y1 kappa" (two opposing coils by default)
  [material]  kind (rational_saturation) and only its keys: nu0 (1), nu_min
              (1) and nu_max (5), or table (CSV of s, nu rows from s = 0)
  [circuit]   sigma_C (1), R ("1"; rows ';'-separated),
              voltage_kind (step), voltage_value ("1"),
              voltage_table (rows "t v_1 .. v_m" ';'-separated, t increasing)
  [time]      T (1), tau (0.015625); T / tau must be a whole number,
              at most 100000, and (n - 1)^2 * T / tau at most 10^7
  [initial]   kind (zero), seed (42), path
  [output]    basename (run; a plain file name)
  [core]      newton_tol (1e-10; 1e-14 to 1e-3), newton_max_iter (50),
              newton_start extrapolate|zero (extrapolate): Newton's start
              in each step, the guarded extrapolation of the last states
              or zero

The parser only turns text into values.  It rejects unknown sections or
keys with the offending line echoed, a key set twice in one file with
both lines named, a value that does not parse with its key named, and a
[material] key the chosen kind does not read; repeated `--set` overrides
replace values in order.  Every other check (finite numbers, positive
times, a whole number of steps, known kinds, channel counts, rectangle
shapes, ...) is made by the library classes it builds, and reported in
their wording.
"""

from __future__ import annotations

import os

import numpy as np

from . import fem, material, system
from .errors import ConfigError

_SCHEMA = {
    "mesh": {"n"},
    "conductor": {"center", "radius"},
    "winding": None,  # any key of the form w<j>
    "material": {"kind", "nu0", "nu_min", "nu_max", "table"},
    "circuit": {"sigma_C", "R", "voltage_kind", "voltage_value",
                "voltage_table"},
    "time": {"T", "tau"},
    "initial": {"kind", "seed", "path"},
    "output": {"basename"},
    "core": {"newton_tol", "newton_max_iter", "newton_start"},
}


def parse_config(text):
    """Parse config text into {(section, key): value} with line context."""
    entries, lines = {}, {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown section {section!r}: {raw.strip()!r}"
                )
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value': {raw.strip()!r}"
            )
        if section is None:
            raise ConfigError(
                f"line {lineno}: key before any [section] header: {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        _check_key(section, key, lineno, raw)
        if (section, key) in entries:
            raise ConfigError(
                f"line {lineno}: {section}.{key} is already set on line "
                f"{lines[section, key]}: {raw.strip()!r}")
        entries[(section, key)] = value
        lines[section, key] = lineno
    return entries


def _check_key(section, key, lineno=None, raw=None):
    allowed = _SCHEMA[section]
    ok = (key.startswith("w") and key[1:].isdigit()) if allowed is None \
        else key in allowed
    if not ok:
        where = f"line {lineno}: " if lineno is not None else ""
        shown = raw.strip() if raw is not None else f"{section}.{key}"
        raise ConfigError(f"{where}unknown key {section}.{key}: {shown!r}")


def load_config_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def apply_overrides(entries, overrides):
    """Apply repeatable `section.key=value` override strings in order."""
    out = dict(entries)
    for item in overrides:
        dotted, eq, value = item.partition("=")
        if not eq or "." not in dotted:
            raise ConfigError(f"override must be section.key=value: {item!r}")
        section, key = (part.strip() for part in dotted.split(".", 1))
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section in override: {item!r}")
        _check_key(section, key, raw=item)
        out[(section, key)] = value.strip()
    return out


def _floats(value):
    return [float(tok) for tok in value.split()]


def _matrix(value):
    """';'-separated rows of numbers; the library checks their shape."""
    return [_floats(row) for row in value.split(";") if row.strip()]


# (section, key) -> (MQSConfig field, parser of the value text); a key
# left out takes the field's default
_FIELDS = {
    ("mesh", "n"): ("n", int),
    ("conductor", "center"): ("conductor_center", _floats),
    ("conductor", "radius"): ("conductor_radius", float),
    ("circuit", "sigma_C"): ("sigma_C", float),
    ("circuit", "R"): ("R", _matrix),
    ("time", "T"): ("T", float),
    ("time", "tau"): ("tau", float),
    ("initial", "kind"): ("a0_kind", str),
    ("initial", "seed"): ("seed", int),
    ("initial", "path"): ("a0_path", str),
    ("core", "newton_tol"): ("newton_tol", float),
    ("core", "newton_max_iter"): ("newton_max_iter", int),
    ("core", "newton_start"): ("newton_start", str),
}


def _parsed(entries, section, key, parse, default=None):
    """The value of ``section.key`` (or ``default``) parsed, None if unset."""
    value = entries.get((section, key), default)
    if value is None:
        return None
    try:
        return parse(value)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{section}.{key} = {value!r}: {exc}") from exc


# each [material] parameter key's default text (None: no default) and parser
_MATERIAL_KEYS = {
    "nu0": ("1.0", float), "nu_min": ("1.0", float), "nu_max": ("5.0", float),
    "table": (None, lambda path: np.loadtxt(path, delimiter=",", ndmin=2)),
}


def _build_material(entries):
    """``[material]`` as a model; a key its kind does not read is an error."""
    kind = entries.get(("material", "kind"), "rational_saturation")
    keys = material._KIND_KEYS.get(kind, ())
    unread = [key for section, key in entries
              if section == "material" and key not in ("kind", *keys)]
    if unread and keys:  # an unknown kind is named by the model instead
        raise ConfigError(f"material.{unread[0]} is not read by kind "
                          f"{kind!r}, which reads {', '.join(keys)}")
    return material.ReluctivityModel(kind, {"*": {
        key: _parsed(entries, "material", key, parse, default)
        for key, (default, parse) in _MATERIAL_KEYS.items()
        if key in keys and (default or ("material", key) in entries)}})


def _build_winding(entries):
    keys = sorted(
        (k for (s, k) in entries if s == "winding"),
        key=lambda k: int(k[1:]),
    )
    if not keys:
        return system.DEFAULT_WINDING
    expected = [f"w{j + 1}" for j in range(len(keys))]
    if keys != expected:
        raise ConfigError(
            f"winding keys must be w1..w{len(keys)} without gaps, got {keys}"
        )
    return fem.WindingSpec(rectangles=tuple(
        _parsed(entries, "winding", k, _matrix) for k in keys))


def _build_voltage(entries, m):
    kind = entries.get(("circuit", "voltage_kind"), "step")
    if kind == "table":
        return system.VoltageSignal("table", table=_parsed(
            entries, "circuit", "voltage_table", _matrix))
    vals = _parsed(entries, "circuit", "voltage_value", _floats, "1.0")
    if len(vals) == 1:  # one value drives every winding
        vals = vals * m
    return system.VoltageSignal(kind, vals)


def build_config(entries, seed=None):
    """Turn parsed entries into a run configuration, checked by MQSConfig."""
    fields = {
        name: _parsed(entries, section, key, parse)
        for (section, key), (name, parse) in _FIELDS.items()
        if (section, key) in entries
    }
    if seed is not None:
        fields["seed"] = seed
    try:
        winding = _build_winding(entries)
        return system.MQSConfig(
            winding=winding,
            model=_build_material(entries),
            voltage=_build_voltage(entries, winding.m),
            **fields,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def output_basename(entries):
    """The output file stem: a plain name, so outputs stay under --out."""
    name = entries.get(("output", "basename"), "run")
    if name in ("", ".", "..") or os.path.basename(name) != name \
            or "\0" in name:
        raise ConfigError(
            f"output.basename must be a plain file name, got {name!r}")
    return name
