"""Reluctivity curves, the magnetic energy density, and their certification.

A reluctivity model maps a field magnitude s = |B| to a positive
reluctivity nu(s).  The solver requires the flux map s -> nu(s)*s to be
strongly monotone with some m_hat > 0 and Lipschitz with some
L_hat < inf; :func:`estimate_constants` certifies both in closed form on
all of s >= 0.  :func:`model_eval` evaluates nu, d(nu s)/ds and the
energy density theta(s^2) = int_0^s nu(z) z dz of a curve together.
It knows curves only; ``system.build_system`` checks the circuit data.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationFailure, check_choice, check_finite

REGION_CONDUCTOR = "C"
REGION_INSULATOR = "I"

# the parameter keys each kind needs in every region
_KIND_KEYS = {
    "constant": ("nu0",),
    "rational_saturation": ("nu_min", "nu_max"),
    "user_tabulated": ("table",),
}


@dataclass(frozen=True)
class ReluctivityModel:
    """Isotropic reluctivity curve, optionally different per subdomain.

    Parameters per kind:
      constant:             nu0 > 0
      rational_saturation:  nu_min, nu_max, either the larger,
                            nu(s) = nu_min + (nu_max - nu_min)/(1 + s^2);
                            certified iff 0 < nu_max < 9 nu_min
      user_tabulated:       table (k, 2) of (s, nu) rows, s strictly
                            increasing from 0; nu(s)*s is interpolated
                            piecewise linearly, and nu(0) is row 0's nu.

    ``params`` maps a subdomain label ("C" or "I") to that region's
    parameter dict.  An entry under label "*" applies to every region
    without its own; both regions must be covered.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_choice("reluctivity kind", self.kind, tuple(_KIND_KEYS))
        if not (isinstance(self.params, dict)
                and all(isinstance(p, dict) for p in self.params.values())):
            raise ValidationFailure(
                "reluctivity params must map regions to parameter dicts")
        regions = ("*", REGION_CONDUCTOR, REGION_INSULATOR)
        unknown = sorted(set(self.params) - set(regions))
        if unknown:
            raise ValidationFailure(
                f"reluctivity regions must be among {regions}, got {unknown}")
        if "*" not in self.params and len(self.params) < 2:
            raise ValidationFailure(
                "reluctivity params must cover both regions: give '*' or "
                f"both 'C' and 'I', got {sorted(self.params)}")
        for region, p in self.params.items():
            missing = [k for k in _KIND_KEYS[self.kind] if k not in p]
            if missing:
                raise ValidationFailure(
                    f"reluctivity region {region!r} of kind {self.kind!r} "
                    f"needs {', '.join(missing)}")
            for key, value in p.items():  # a table, else a number
                check_finite(f"reluctivity {key}", value,
                             None if key == "table" else numbers.Real)
        if self.kind == "user_tabulated":  # kept as checked float arrays
            object.__setattr__(self, "params", {
                region: {**p, "table": _checked_table(
                    p["table"], f"reluctivity table of region {region!r}")}
                for region, p in self.params.items()})

    def region_params(self, region):
        if region in self.params:
            return self.params[region]
        if "*" in self.params:
            return self.params["*"]
        raise ValidationFailure(
            f"reluctivity model has no parameters for region {region!r}; "
            f"it has regions {sorted(self.params)}")


def constant_model(nu0):
    return ReluctivityModel("constant", {"*": {"nu0": float(nu0)}})


def rational_saturation_model(nu_min, nu_max):
    return ReluctivityModel(
        "rational_saturation",
        {"*": {"nu_min": float(nu_min), "nu_max": float(nu_max)}},
    )


def _checked_table(table, what):
    """``table`` as a float array; raises ``ValidationFailure`` naming
    ``what`` unless it is (k, 2), k >= 2, s strictly increasing from 0."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ValidationFailure(
            f"{what} must be (k, 2) with k >= 2, got shape {table.shape}")
    if not np.all(np.diff(table[:, 0]) > 0):
        raise ValidationFailure(f"{what} s-column must be strictly increasing")
    if table[0, 0] != 0.0:
        raise ValidationFailure(
            f"{what} s-column must start at 0, got {table[0, 0]:g}")
    return table


def tabulated_model(table):
    return ReluctivityModel("user_tabulated", {"*": {"table": table}})


def _tab_pieces(table):
    """Knots s_k, values g_k = s_k nu_k and piece slopes of a table's g;
    slope[i] holds on [s_i, s_{i+1}), the last one also past the table."""
    sk = table[:, 0]
    gk = sk * table[:, 1]
    slope = np.diff(gk) / np.diff(sk)
    return sk, gk, np.append(slope, slope[-1])


def _tab_curve(table, s):
    """g(s) = nu(s)*s of a table, dg/ds and int_0^s g, all in closed form.

    g is piecewise linear through the knots (s_k, s_k nu_k), starting at
    g(0) = 0, and extended with the last slope beyond the last knot.
    dg/ds is the slope of the piece containing s, right-continuous at the
    knots; the integral sums exact trapezoids.
    """
    sk, gk, slope = _tab_pieces(table)
    trapezoids = 0.5 * np.diff(sk) * (gk[:-1] + gk[1:])
    area = np.concatenate([[0.0], np.cumsum(trapezoids)])  # int_0^{s_i} g
    s = np.asarray(s, dtype=float)
    i = np.searchsorted(sk, s, side="right") - 1  # s lies on piece i
    dx = s - sk[i]
    g = slope[i] * dx + gk[i]
    return g, slope[i], area[i] + 0.5 * dx * (gk[i] + g)


def model_eval(model, region, s):
    """nu(s), d/ds[nu(s)*s] and the energy density theta(s^2) = int_0^s
    nu(z) z dz in closed form (a table's integral exact), for s >= 0."""
    s = np.asarray(s, dtype=float)
    if (s < 0).any():
        raise ValidationFailure("field magnitude s must be >= 0")
    p = model.region_params(region)
    if model.kind == "constant":
        nu = np.full_like(s, p["nu0"])
        dgds = np.full_like(s, p["nu0"])
        theta = 0.5 * p["nu0"] * (s * s)
    elif model.kind == "rational_saturation":
        delta = p["nu_max"] - p["nu_min"]
        rho = s * s
        one_p = 1.0 + rho
        nu = p["nu_min"] + delta / one_p
        dgds = p["nu_min"] + delta * (1.0 - rho) / (one_p * one_p)
        theta = 0.5 * p["nu_min"] * rho + 0.5 * delta * np.log1p(rho)
    else:
        table = p["table"]
        g, dgds, theta = _tab_curve(table, s)
        nu = np.where(s > 0, g / np.where(s > 0, s, 1.0), table[0, 1])
    if np.ndim(s) == 0:
        return float(nu), float(dgds), float(theta)
    return nu, dgds, theta


def theta_eval(model, region, rho):
    """Energy density theta(rho) for rho >= 0, as model_eval's at sqrt(rho)."""
    if np.any(np.asarray(rho, dtype=float) < 0):
        raise ValidationFailure("energy density argument rho must be >= 0")
    return model_eval(model, region, np.sqrt(rho))[2]


@dataclass
class MaterialValidationReport:
    """Certified bounds m_hat <= g'(s), nu(s) <= L_hat on all s >= 0."""

    m_hat: float
    L_hat: float

    @property
    def passed(self):
        return self.m_hat > 0.0


def estimate_constants(model, region="*"):
    """Exact bounds m_hat <= g'(s), nu(s) <= L_hat on all s >= 0.

    With g(s) = nu(s)*s, g' and nu are the eigenvalues of the tangent of
    a -> nu(|a|) a.  One closed form per kind:
    - constant: g' = nu = nu0.
    - rational_saturation: nu = nu_min + delta/(1 + s^2), delta = nu_max -
      nu_min, lies between nu_min and nu_max; g' = nu_min + delta f(s^2)
      with f(x) = (1 - x)/(1 + x)^2, and f' = (x - 3)/(1 + x)^3, so f falls
      from f(0) = 1 to f(3) = -1/8, then rises towards 0.
    - user_tabulated: g' is a piece slope, the last one also past the
      table; nu = g/s = c + (g_i - c s_i)/s is monotone on each piece, so
      it lies between the knot values (nu(0) = nu_0 among them) and the
      last slope.
    A table whose s*nu overflows raises ValidationFailure naming the kind
    and the region.
    """
    p = model.region_params(region)
    try:
        with np.errstate(over="raise"):
            if model.kind == "constant":
                bounds = [p["nu0"]]
            elif model.kind == "rational_saturation":
                delta = p["nu_max"] - p["nu_min"]
                bounds = [p["nu_max"], p["nu_min"] - delta / 8.0, p["nu_min"]]
            else:
                table = p["table"]
                bounds = np.append(_tab_pieces(table)[2], table[:, 1])
    except FloatingPointError as exc:
        raise ValidationFailure(
            f"{exc} while certifying the reluctivity curve of kind "
            f"{model.kind!r} on region {region!r}") from exc
    return MaterialValidationReport(m_hat=float(np.min(bounds)),
                                    L_hat=float(np.max(bounds)))
