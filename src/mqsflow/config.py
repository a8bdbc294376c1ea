"""Run-configuration files: `key = value` lines under `[section]` headers.

Recognized sections and keys (all optional; defaults in parentheses):

  [mesh]      n (32; at most 256)
  [conductor] center ("0.5 0.5"), radius (0.2)
  [winding]   w1, w2, ... — each a ';'-separated list of rectangles
              "x0 x1 y0 y1 kappa" (two opposing coils by default)
  [material]  kind (rational_saturation), nu0, nu_min (1), nu_max (5),
              table (path to a two-column CSV of s, nu samples)
  [circuit]   sigma_C (1), R ("1"; rows ';'-separated),
              voltage_kind (step), voltage_value ("1"),
              voltage_table (rows "t v_1 .. v_m" ';'-separated, t increasing)
  [time]      T (1), tau (0.015625); T / tau must be a whole number,
              at most 100000
  [initial]   kind (zero), seed (42), path
  [output]    basename (run)
  [core]      newton_tol (1e-10; at most 1e-3), newton_max_iter (50),
              newton_start extrapolate|zero (extrapolate): Newton's start
              in each step, the guarded extrapolation of the last states
              or zero

Unknown sections or keys are rejected with the offending line echoed;
every number must be finite.
"""

from __future__ import annotations

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
    entries = {}
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
        entries[(section, key)] = value
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
        if "=" not in item:
            raise ConfigError(f"override must be section.key=value: {item!r}")
        dotted, value = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override must be section.key=value: {item!r}")
        section, key = (part.strip() for part in dotted.split(".", 1))
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section in override: {item!r}")
        _check_key(section, key, raw=item)
        out[(section, key)] = value.strip()
    return out


def _floats(value, what):
    try:
        return [float(tok) for tok in value.split()]
    except ValueError:
        raise ConfigError(f"{what}: expected numbers, got {value!r}")


def _matrix(value, what):
    rows = [
        _floats(row, what) for row in value.split(";") if row.strip()
    ]
    widths = {len(r) for r in rows}
    if not rows or len(widths) != 1:
        raise ConfigError(f"{what}: rows must be nonempty and equal length")
    return np.array(rows)


def _get(entries, section, key, default=None):
    return entries.get((section, key), default)


def _build_material(entries):
    kind = _get(entries, "material", "kind", "rational_saturation")
    if kind == "constant":
        return material.constant_model(
            float(_get(entries, "material", "nu0", "1.0"))
        )
    if kind == "rational_saturation":
        return material.rational_saturation_model(
            float(_get(entries, "material", "nu_min", "1.0")),
            float(_get(entries, "material", "nu_max", "5.0")),
        )
    if kind == "user_tabulated":
        path = _get(entries, "material", "table")
        if path is None:
            raise ConfigError("material.table is required for user_tabulated")
        table = np.loadtxt(path, delimiter=",", ndmin=2)
        return material.tabulated_model(table)
    raise ConfigError(f"material.kind: unknown kind {kind!r}")


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
    rects = []
    for k in keys:
        rows = _matrix(entries[("winding", k)], f"winding.{k}")
        if rows.shape[1] != 5:
            raise ConfigError(
                f"winding.{k}: each rectangle needs 'x0 x1 y0 y1 kappa'"
            )
        rects.append(tuple(tuple(r) for r in rows))
    return fem.WindingSpec(rectangles=tuple(rects))


def _build_voltage(entries, m):
    kind = _get(entries, "circuit", "voltage_kind", "step")
    if kind in ("constant", "step"):
        vals = _floats(
            _get(entries, "circuit", "voltage_value", "1.0"),
            "circuit.voltage_value",
        )
        if len(vals) == 1 and m > 1:
            vals = vals * m
        if len(vals) != m:
            raise ConfigError(
                f"circuit.voltage_value: expected {m} entries, got {len(vals)}"
            )
        return system.VoltageSignal(kind, np.array(vals))
    if kind == "table":
        value = _get(entries, "circuit", "voltage_table")
        if value is None:
            raise ConfigError("circuit.voltage_table is required for kind table")
        table = _matrix(value, "circuit.voltage_table")
        if table.shape[1] != 1 + m:
            raise ConfigError(
                f"circuit.voltage_table: rows need 1 + {m} columns"
            )
        return system.VoltageSignal("table", table=table)
    raise ConfigError(f"circuit.voltage_kind: unknown kind {kind!r}")


def _positive(x, what):
    if not x > 0:
        raise ConfigError(f"{what} must be positive, got {x}")
    return x


def build_config(entries, seed=None):
    """Turn parsed entries into a validated run configuration."""
    try:
        n = int(_get(entries, "mesh", "n", "32"))
        center = _floats(_get(entries, "conductor", "center", "0.5 0.5"),
                         "conductor.center")
        if len(center) != 2:
            raise ConfigError("conductor.center needs exactly two numbers")
        radius = float(_get(entries, "conductor", "radius", "0.2"))
        winding = _build_winding(entries)
        model = _build_material(entries)
        sigma_C = float(_get(entries, "circuit", "sigma_C", "1.0"))
        R = _matrix(_get(entries, "circuit", "R", "1.0"), "circuit.R")
        voltage = _build_voltage(entries, winding.m)
        T = _positive(float(_get(entries, "time", "T", "1.0")), "time.T")
        tau = _positive(float(_get(entries, "time", "tau", str(1 / 64))),
                        "time.tau")
        if tau > T:
            raise ConfigError(f"time.tau = {tau} exceeds horizon time.T = {T}")
        a0_kind = _get(entries, "initial", "kind", "zero")
        if a0_kind not in ("zero", "random", "file"):
            raise ConfigError(f"initial.kind: unknown kind {a0_kind!r}")
        cfg_seed = int(_get(entries, "initial", "seed", "42"))
        if seed is not None:
            cfg_seed = int(seed)
        return system.MQSConfig(
            n=n,
            conductor_center=(center[0], center[1]),
            conductor_radius=radius,
            winding=winding,
            model=model,
            sigma_C=sigma_C,
            R=R,
            T=T,
            tau=tau,
            voltage=voltage,
            a0_kind=a0_kind,
            a0_path=_get(entries, "initial", "path", ""),
            seed=cfg_seed,
            newton_tol=float(_get(entries, "core", "newton_tol", "1e-10")),
            newton_max_iter=int(_get(entries, "core", "newton_max_iter", "50")),
            newton_start=_get(entries, "core", "newton_start", "extrapolate"),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))


def default_config(seed=None):
    return build_config({}, seed=seed)


def output_basename(entries):
    return _get(entries, "output", "basename", "run")
