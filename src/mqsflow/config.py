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
  [initial]   kind (zero), seed (42), path (read by kind file)
  [output]    basename (run; a plain file name)
  [core]      newton_tol (1e-10; 1e-14 to 1e-3)

The parser only turns text into values.  It rejects unknown sections or
keys with the offending line echoed, a key set twice in one file with
both lines named, a value that does not parse with its key named, and a
key the chosen kind does not read: a [material] parameter, the
[circuit] voltage_value or voltage_table, or [initial] path.  The
library classes never see such a key, so only the parser can tell that
it would be dropped.  Repeated `--set` overrides replace values in
order.  Every other check (finite numbers, positive times, a whole
number of steps, known kinds, channel counts, rectangle shapes, ...) is
made by the library classes it builds, and reported in their wording.
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
    "core": {"newton_tol"},
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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file {path!r} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


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


# [section] -> its kind key, the default kind and, for each kind, the
# keys it reads of those that only some kinds of the section read
_KIND_READS = {
    "material": ("kind", "rational_saturation", material._KIND_KEYS),
    "circuit": ("voltage_kind", "step", {
        kind: ("voltage_table",) if kind == "table" else ("voltage_value",)
        for kind in system.VOLTAGE_KINDS}),
    "initial": ("kind", "zero", {
        kind: ("path",) if kind == "file" else ()
        for kind in system.A0_KINDS}),
}


def _kind(entries, section):
    kind_key, default, _ = _KIND_READS[section]
    return entries.get((section, kind_key), default)


def _refuse_unread_keys(entries):
    """A key that the section's chosen kind does not read is an error; an
    unknown kind is named by the library class instead."""
    for section, (_, _, reads) in _KIND_READS.items():
        kind = _kind(entries, section)
        if kind not in reads:
            continue
        optional = {key for keys in reads.values() for key in keys}
        unread = [key for s, key in entries if s == section
                  and key in optional and key not in reads[kind]]
        if unread:
            which = f", which reads {', '.join(reads[kind])}" \
                if reads[kind] else ""
            raise ConfigError(f"{section}.{unread[0]} is not read by kind "
                              f"{kind!r}{which}")


def _build_material(entries):
    """``[material]`` as a model of its kind's keys."""
    kind = _kind(entries, "material")
    keys = material._KIND_KEYS.get(kind, ())
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
    kind = _kind(entries, "circuit")
    if kind == "table":
        return system.VoltageSignal("table", table=_parsed(
            entries, "circuit", "voltage_table", _matrix))
    vals = _parsed(entries, "circuit", "voltage_value", _floats, "1.0")
    if len(vals) == 1:  # one value drives every winding
        vals = vals * m
    return system.VoltageSignal(kind, vals)


def build_config(entries, seed=None):
    """Turn parsed entries into a run configuration, checked by MQSConfig;
    the output name is checked here too, so every command refuses a bad one."""
    output_basename(entries)
    fields = {
        name: _parsed(entries, section, key, parse)
        for (section, key), (name, parse) in _FIELDS.items()
        if (section, key) in entries
    }
    if seed is not None:
        fields["seed"] = seed
    _refuse_unread_keys(entries)
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
