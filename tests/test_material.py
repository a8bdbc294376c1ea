"""Reluctivity models, energy density, and constant certification."""

import numpy as np
import pytest
from scipy import integrate

from mqsflow import material
from mqsflow.errors import (
    NegativeArgument, NegativeFieldMagnitude, ValidationFailure,
)


def test_constant_model_eval():
    model = material.constant_model(2.5)
    nu, dgds = material.model_eval(model, "*", 3.0)
    assert nu == 2.5
    assert dgds == 2.5


def test_rational_saturation_limits():
    model = material.rational_saturation_model(1.0, 5.0)
    nu0, _ = material.model_eval(model, "*", 0.0)
    assert nu0 == pytest.approx(5.0)
    nu_inf, _ = material.model_eval(model, "*", 1e6)
    assert nu_inf == pytest.approx(1.0, abs=1e-9)


def test_model_eval_derivative_matches_finite_difference():
    model = material.rational_saturation_model(1.0, 5.0)
    rng = np.random.default_rng(0)
    s = 10.0 * rng.random(20)
    _, dgds = material.model_eval(model, "*", s)
    h = 1e-7

    def g(s):
        nu, _ = material.model_eval(model, "*", s)
        return nu * s

    fd = (g(s + h) - g(s - h)) / (2 * h)
    assert np.max(np.abs(dgds - fd)) < 1e-6


def test_theta_constant_closed_form():
    model = material.constant_model(3.0)
    assert material.theta_eval(model, "*", 4.0) == pytest.approx(6.0)
    assert material.theta_eval(model, "*", 0.0) == 0.0


def test_theta_rational_matches_quadrature_oracle():
    """Closed-form energy density against adaptive quadrature of nu(z) z."""
    model = material.rational_saturation_model(1.0, 5.0)
    for rho in (0.0, 0.3, 1.0, 7.5, 100.0):
        expected, _ = integrate.quad(
            lambda z: material.model_eval(model, "*", z)[0] * z,
            0.0, np.sqrt(rho), epsabs=1e-13,
        )
        assert material.theta_eval(model, "*", rho) == pytest.approx(
            expected, abs=1e-10
        )


def test_theta_rejects_negative_argument():
    model = material.constant_model(1.0)
    with pytest.raises(NegativeArgument):
        material.theta_eval(model, "*", -1.0)


def test_model_eval_rejects_negative_magnitude():
    model = material.constant_model(1.0)
    with pytest.raises(NegativeFieldMagnitude):
        material.model_eval(model, "*", -0.5)


def test_tabulated_model_interpolates_and_integrates():
    # tabulate the constant curve nu = 2; g(s) = 2 s is exactly piecewise
    # linear, so interpolation and quadrature are exact up to tolerance
    table = np.column_stack([np.linspace(0.0, 10.0, 11),
                             np.full(11, 2.0)])
    model = material.tabulated_model(table)
    nu, dgds = material.model_eval(model, "*", 3.7)
    assert nu == pytest.approx(2.0, abs=1e-6)
    assert dgds == pytest.approx(2.0, abs=1e-6)
    assert material.theta_eval(model, "*", 9.0) == pytest.approx(9.0, rel=1e-8)


def _quad_theta(table, rho):
    """Oracle: adaptive quadrature of g = nu s, with the knots as breakpoints."""
    sk, gk = table[:, 0], table[:, 0] * table[:, 1]
    last = (gk[-1] - gk[-2]) / (sk[-1] - sk[-2])

    def g(z):  # held below the first knot, last slope beyond the last
        return np.interp(z, sk, gk) if z <= sk[-1] else gk[-1] + last * (z - sk[-1])

    top = np.sqrt(rho)
    val, _ = integrate.quad(g, 0.0, top, points=sk[(sk > 0) & (sk < top)],
                            limit=400, epsabs=0.0, epsrel=1e-13)
    return val


@pytest.mark.parametrize("s0", [0.0, 0.3])
def test_tabulated_theta_matches_quadrature_oracle(s0):
    knots = np.linspace(s0, 20.0, 41)
    table = np.column_stack([knots, 1.0 + 4.0 / (1.0 + knots ** 2)])
    model = material.tabulated_model(table)
    # below the first knot, on knots, between knots and past the table
    s = np.concatenate([[0.1, 0.2], knots[::7], knots[:-1] + 0.13, [23.0]])
    rho = s * s
    theta = material.theta_eval(model, "*", rho)
    oracle = np.array([_quad_theta(table, r) for r in rho])
    assert np.allclose(theta, oracle, rtol=1e-14, atol=0.0)
    assert material.theta_eval(model, "*", 0.0) == 0.0


def test_tabulated_derivative_is_the_segment_slope():
    knots = np.array([0.2, 0.5, 1.0, 2.0, 4.0])
    nu = np.array([3.0, 2.8, 2.0, 1.5, 1.2])
    model = material.tabulated_model(np.column_stack([knots, nu]))
    g = knots * nu
    slopes = np.diff(g) / np.diff(knots)
    # right-continuous: a knot takes the slope of the piece it starts
    _, at_knots = material.model_eval(model, "*", knots)
    assert np.array_equal(at_knots, np.append(slopes, slopes[-1]))
    _, inside = material.model_eval(model, "*", 0.5 * (knots[:-1] + knots[1:]))
    assert np.array_equal(inside, slopes)
    _, outside = material.model_eval(model, "*", np.array([0.0, 0.1, 9.0]))
    assert np.array_equal(outside, [0.0, 0.0, slopes[-1]])


def test_tabulated_model_validates_table():
    with pytest.raises(ValueError):
        material.tabulated_model(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        material.tabulated_model(np.array([[0.0, 1.0], [0.0, 2.0]]))


def test_reluctivity_model_takes_a_table_as_a_nested_list():
    rows = [[0.0, 1.0], [1.0, 2.0], [3.0, 1.5]]
    params = {"*": {"table": rows}}
    listed = material.ReluctivityModel("user_tabulated", params)
    arrayed = material.tabulated_model(np.array(rows))
    assert params["*"]["table"] is rows  # the caller's dict is left alone
    s = np.linspace(0.0, 4.0, 17)
    for got, want in zip(material.model_eval(listed, "C", s),
                         material.model_eval(arrayed, "C", s)):
        assert np.array_equal(got, want)
    assert np.array_equal(material.theta_eval(listed, "I", s * s),
                          material.theta_eval(arrayed, "I", s * s))


@pytest.mark.parametrize("table, fragment", [
    ([[0.0, 1.0]], r"shape \(1, 2\)"),
    ([0.0, 1.0], r"shape \(2,\)"),
    ([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], r"shape \(2, 3\)"),
    ([[1.0, 1.0], [0.0, 2.0]], "strictly increasing"),
], ids=["one_row", "1d", "three_columns", "decreasing_s"])
def test_reluctivity_model_rejects_a_malformed_table(table, fragment):
    params = {"C": {"table": table}, "I": {"table": [[0.0, 1.0], [1.0, 1.0]]}}
    with pytest.raises(ValidationFailure,
                       match=f"table of region 'C' .*{fragment}"):
        material.ReluctivityModel("user_tabulated", params)


def test_estimate_constants_constant_model():
    report = material.estimate_constants(material.constant_model(2.0))
    assert report.m_hat == pytest.approx(2.0, rel=1e-12)
    assert report.L_hat == pytest.approx(2.0, rel=1e-12)
    assert report.passed


def test_estimate_constants_rational_saturation():
    # analytic secant extremes of g(s) = s (nu_min + delta/(1+s^2)):
    # min slope nu_min - delta/8 at s^2 = 3, max slope nu_max at s = 0
    report = material.estimate_constants(
        material.rational_saturation_model(1.0, 5.0)
    )
    assert 0.49 <= report.m_hat <= 0.51
    assert 4.99 <= report.L_hat <= 5.01
    assert report.passed


def test_estimate_constants_detects_nonmonotone_curve():
    # decreasing g(s): nu falls off faster than 1/s
    table = np.column_stack([
        np.array([0.0, 1.0, 2.0, 4.0]),
        np.array([5.0, 5.0, 1.0, 0.1]),
    ])
    report = material.estimate_constants(
        material.tabulated_model(table), s_max=4.0, n_grid=100
    )
    assert report.m_hat <= 0.0
    assert not report.passed
    assert report.violations


def test_validate_assumptions_passes_on_defaults():
    report = material.validate_assumptions(
        material.rational_saturation_model(1.0, 5.0), 1.0, np.array([[1.0]])
    )
    assert report.passed
    assert report.material.m_hat > 0


@pytest.mark.parametrize(
    "sigma,R,fragment",
    [
        (0.0, [[1.0]], "sigma_C"),
        (1.0, [[1.0, 0.5], [0.0, 1.0]], "symmetric"),
        (1.0, [[1.0, 2.0], [2.0, 1.0]], "positive definite"),
        (1.0, [[1.0, 0.0]], "square"),
    ],
)
def test_validate_assumptions_rejects_bad_data(sigma, R, fragment):
    report = material.validate_assumptions(
        material.constant_model(1.0), sigma, np.array(R)
    )
    assert not report.passed
    assert any(fragment in reason for reason in report.reasons)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        material.ReluctivityModel("mystery", {"*": {}})


@pytest.mark.parametrize("kind, params, fragment", [
    ("constant", {"c": {"nu0": 1.0}, "*": {"nu0": 1.0}},
     "reluctivity regions must be among ('*', 'C', 'I'), got ['c']"),
    ("constant", {"C": {"nu0": 1.0}},
     "must cover both regions: give '*' or both 'C' and 'I', got ['C']"),
    ("constant", {}, "must cover both regions"),
    ("rational_saturation", {"*": {"nu_min": 1.0}},
     "region '*' of kind 'rational_saturation' needs nu_max"),
    ("constant", {"C": {"nu0": 1.0}, "I": {"nu": 3.0}},
     "region 'I' of kind 'constant' needs nu0"),
    ("user_tabulated", {"*": {}}, "region '*' of kind 'user_tabulated' needs table"),
], ids=["typo_region", "conductor_only", "no_region", "missing_nu_max",
        "missing_nu0", "missing_table"])
def test_region_params_are_checked(kind, params, fragment):
    """Unknown regions, an uncovered region and missing parameter keys are
    rejected when the model is made, not as a KeyError inside fem."""
    with pytest.raises(ValidationFailure) as info:
        material.ReluctivityModel(kind, params)
    assert fragment in str(info.value)


def test_estimate_constants_names_a_region_the_model_lacks():
    model = material.ReluctivityModel(
        "constant", {"C": {"nu0": 1.0}, "I": {"nu0": 2.0}})
    with pytest.raises(ValidationFailure) as info:
        material.estimate_constants(model)
    assert str(info.value) == (
        "reluctivity model has no parameters for region '*'; "
        "it has regions ['C', 'I']")
    assert material.estimate_constants(model, "I").m_hat == pytest.approx(2.0)
    for grid, fragment in (({"s_max": 0.0}, "^s_max must be positive$"),
                           ({"n_grid": 1}, "^n_grid must be at least 2$")):
        with pytest.raises(ValidationFailure, match=fragment):
            material.estimate_constants(model, "I", **grid)


def test_region_specific_parameters():
    model = material.ReluctivityModel(
        "constant", {"C": {"nu0": 1.0}, "I": {"nu0": 3.0}}
    )
    assert material.model_eval(model, "C", 1.0)[0] == 1.0
    assert material.model_eval(model, "I", 1.0)[0] == 3.0


def _all_pairs_constants(model, s_max, n_grid):
    """Reference: extreme secant slopes of nu(s)*s over every grid pair."""
    s = np.linspace(0.0, s_max, n_grid)
    nu, _ = material.model_eval(model, "*", s)
    g = nu * s
    iu = np.triu_indices(n_grid, k=1)
    slopes = np.subtract.outer(g, g)[iu] / np.subtract.outer(s, s)[iu]
    return float(slopes.min()), float(np.abs(slopes).max())


@pytest.mark.parametrize("model", [
    material.rational_saturation_model(1.0, 5.0),
    material.rational_saturation_model(1.0, 8.0),
    material.constant_model(1.0),
    material.constant_model(2.0),
    material.tabulated_model(np.column_stack([
        np.linspace(0.0, 10.0, 41),
        1.0 + 4.0 / (1.0 + np.linspace(0.0, 10.0, 41) ** 2),
    ])),
    material.tabulated_model(np.array(
        [[0.0, 5.0], [1.0, 5.0], [2.0, 1.0], [4.0, 0.1]]
    )),
], ids=["rational_1_5", "rational_1_8", "constant_1", "constant_2",
        "table_41", "nonmonotone"])
def test_estimate_constants_matches_all_pairs_oracle(model):
    report = material.estimate_constants(model, s_max=20.0, n_grid=400)
    m_ref, L_ref = _all_pairs_constants(model, 20.0, 400)
    assert report.m_hat == pytest.approx(m_ref, rel=1e-12, abs=1e-12)
    assert report.L_hat == pytest.approx(L_ref, rel=1e-12, abs=1e-12)
    assert report.passed == (m_ref > 0.0)
