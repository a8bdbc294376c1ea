"""Reluctivity curves, the magnetic energy density, and their certification.

A reluctivity model maps a field magnitude s = |B| to a positive
reluctivity nu(s).  The solver requires the secant slopes of s -> nu(s)*s
to be bounded below by some m_hat > 0 (strong monotonicity) and above by
some L_hat < inf (Lipschitz continuity); both constants are certified
numerically on a grid by :func:`estimate_constants`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativeArgument, NegativeFieldMagnitude, ValidationFailure, check_choice,
    check_finite,
)

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
      rational_saturation:  nu_min > 0, nu_max >= nu_min,
                            nu(s) = nu_min + (nu_max - nu_min)/(1 + s^2)
      user_tabulated:       table (k, 2) of (s, nu) samples, s increasing;
                            nu(s)*s is interpolated piecewise linearly.

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
    ``what`` unless it is (k, 2) with k >= 2 and strictly increasing s."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ValidationFailure(
            f"{what} must be (k, 2) with k >= 2, got shape {table.shape}")
    if not np.all(np.diff(table[:, 0]) > 0):
        raise ValidationFailure(f"{what} s-column must be strictly increasing")
    return table


def tabulated_model(table):
    return ReluctivityModel("user_tabulated", {"*": {"table": table}})


def _tab_curve(table, s):
    """g(s) = nu(s)*s of a table, dg/ds and int_0^s g, all in closed form.

    g is piecewise linear through the knots (s_k, s_k nu_k), held at its
    first knot value below the first knot and extended with the last
    slope beyond the last.  dg/ds is the slope of the piece containing s,
    right-continuous at the knots; the integral sums exact trapezoids.
    """
    sk = table[:, 0]
    gk = sk * table[:, 1]
    slope = np.diff(gk) / np.diff(sk)
    # slope[j] belongs to piece j - 1: -1 lies below s_0, k - 1 past s_{k-1}
    slope = np.concatenate([[0.0], slope, slope[-1:]])
    trapezoids = 0.5 * np.diff(sk) * (gk[:-1] + gk[1:])
    area = np.concatenate([[0.0], np.cumsum(trapezoids)])  # int_{s_0}^{s_j} g

    def primitive(x):
        j = np.searchsorted(sk, x, side="right")  # x lies on piece j - 1
        i = np.maximum(j - 1, 0)
        dx = x - sk[i]
        g = slope[j] * dx + gk[i]
        return g, slope[j], area[i] + 0.5 * dx * (gk[i] + g)

    g, dgds, G = primitive(np.asarray(s, dtype=float))
    return g, dgds, G - primitive(0.0)[2]


def model_eval(model, region, s):
    """Evaluate nu(s) and d/ds[nu(s)*s] for scalar or array s >= 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise NegativeFieldMagnitude("field magnitude s must be >= 0")
    p = model.region_params(region)
    if model.kind == "constant":
        nu = np.full_like(s, p["nu0"])
        dgds = np.full_like(s, p["nu0"])
    elif model.kind == "rational_saturation":
        delta = p["nu_max"] - p["nu_min"]
        one_p = 1.0 + s * s
        nu = p["nu_min"] + delta / one_p
        dgds = p["nu_min"] + delta * (1.0 - s * s) / (one_p * one_p)
    else:
        table = p["table"]
        g, dgds, _ = _tab_curve(table, s)
        nu = np.where(s > 0, g / np.where(s > 0, s, 1.0), table[0, 1])
    if np.ndim(s) == 0:
        return float(nu), float(dgds)
    return nu, dgds


def theta_eval(model, region, rho):
    """Magnetic energy density theta(rho) = int_0^sqrt(rho) nu(z) z dz.

    Closed form for every kind; for tabulated curves the integral of the
    piecewise-linear g is exact.  Accepts scalars or arrays of rho >= 0.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise NegativeArgument("energy density argument rho must be >= 0")
    p = model.region_params(region)
    if model.kind == "constant":
        out = 0.5 * p["nu0"] * rho_arr
    elif model.kind == "rational_saturation":
        delta = p["nu_max"] - p["nu_min"]
        out = 0.5 * p["nu_min"] * rho_arr + 0.5 * delta * np.log1p(rho_arr)
    else:
        _, _, out = _tab_curve(p["table"], np.sqrt(rho_arr))
    if np.ndim(rho) == 0:
        return float(out)
    return out


@dataclass
class MaterialValidationReport:
    """Certified secant constants of s -> nu(s)*s on a sample grid."""

    m_hat: float
    L_hat: float
    violations: list

    @property
    def passed(self):
        return self.m_hat > 0.0 and not self.violations


def estimate_constants(model, region="*", s_max=100.0, n_grid=2000):
    """Estimate monotonicity/Lipschitz constants over all grid pairs.

    m_hat is the smallest secant slope of g(s) = nu(s)*s over the grid,
    L_hat the largest absolute secant slope.  Every secant slope is a
    convex combination of slopes between adjacent grid points, so the
    extremes over adjacent pairs are those over all pairs.  The two-sided
    pointwise bound m_hat <= nu(s) <= L_hat is checked as well; failures
    land in the violations list.  A curve whose values overflow on the grid
    raises ValidationFailure.
    """
    if s_max <= 0:
        raise ValidationFailure("s_max must be positive")
    if n_grid < 2:
        raise ValidationFailure("n_grid must be at least 2")
    s = np.linspace(0.0, s_max, n_grid)
    try:
        with np.errstate(over="raise"):
            nu, _ = model_eval(model, region, s)
            g = nu * s
            slopes = np.diff(g) / np.diff(s)
    except FloatingPointError as exc:
        raise ValidationFailure(
            f"{exc} while certifying the reluctivity curve of kind "
            f"{model.kind!r} on region {region!r} over the grid s in "
            f"[0, {s_max:g}] ({n_grid} points)") from exc
    m_hat = float(slopes.min())
    L_hat = float(np.abs(slopes).max())

    violations = []
    if m_hat <= 0.0:
        worst = int(np.argmin(slopes))
        violations.append((float(s[worst]), float(s[worst + 1]), m_hat))
    # pointwise bound implied by the secant constants (s > 0 only; nu(0)
    # itself does not enter the secant slopes)
    pos = s > 0
    bad_low = pos & (nu < m_hat - 1e-12)
    bad_high = pos & (nu > L_hat + 1e-12)
    for idx in np.flatnonzero(bad_low | bad_high):
        violations.append((float(s[idx]), float(s[idx]), float(nu[idx])))
    return MaterialValidationReport(m_hat=m_hat, L_hat=L_hat, violations=violations)


@dataclass
class AssumptionReport:
    passed: bool
    reasons: list
    material: MaterialValidationReport | None = None


def validate_assumptions(model, sigma_C, R):
    """Check conductivity, resistance-matrix, and reluctivity requirements.

    Passes iff sigma_C > 0, R is symmetric positive definite, and the
    reluctivity curve certifies with m_hat > 0 on all subdomains.
    """
    reasons = []
    if not sigma_C > 0:
        reasons.append("conductivity sigma_C must be positive")
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        reasons.append("resistance matrix R must be square")
    else:
        S = R / max(np.abs(R).max(initial=0.0), 1e-300)  # no overflow
        if np.linalg.norm(S - S.T) > 1e-12 * np.linalg.norm(S):
            reasons.append("resistance matrix R must be symmetric")
        else:
            try:
                np.linalg.cholesky(R)
            except np.linalg.LinAlgError:
                reasons.append("resistance matrix R must be positive definite")
    mat_report = None
    regions = sorted(model.params.keys())
    for region in regions:
        rep = estimate_constants(model, region)
        if mat_report is None or rep.m_hat < mat_report.m_hat:
            mat_report = rep
        if not rep.passed:
            reasons.append(
                f"reluctivity curve on region {region!r} is not strongly "
                f"monotone (m_hat = {rep.m_hat:.3e})"
            )
    return AssumptionReport(passed=not reasons, reasons=reasons, material=mat_report)
