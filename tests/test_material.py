"""Reluctivity models, energy density, and constant certification."""

import numpy as np
import pytest
from scipy import integrate

from mqsflow import material
from mqsflow.errors import ValidationFailure


def test_constant_model_eval():
    model = material.constant_model(2.5)
    nu, dgds, _ = material.model_eval(model, "*", 3.0)
    assert nu == 2.5
    assert dgds == 2.5


def test_rational_saturation_limits():
    model = material.rational_saturation_model(1.0, 5.0)
    nu0, _, _ = material.model_eval(model, "*", 0.0)
    assert nu0 == pytest.approx(5.0)
    nu_inf, _, _ = material.model_eval(model, "*", 1e6)
    assert nu_inf == pytest.approx(1.0, abs=1e-9)


def test_model_eval_derivative_matches_finite_difference():
    model = material.rational_saturation_model(1.0, 5.0)
    rng = np.random.default_rng(0)
    s = 10.0 * rng.random(20)
    _, dgds, _ = material.model_eval(model, "*", s)
    h = 1e-7

    def g(s):
        nu, _, _ = material.model_eval(model, "*", s)
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
    message = "energy density argument rho must be >= 0"
    with pytest.raises(ValidationFailure, match=message):
        material.theta_eval(model, "*", -1.0)
    with pytest.raises(ValidationFailure, match=message):
        material.theta_eval(model, "*", np.array([0.0, 4.0, -1e-300]))


def test_model_eval_rejects_negative_magnitude():
    model = material.constant_model(1.0)
    with pytest.raises(ValidationFailure):
        material.model_eval(model, "*", -0.5)


def test_tabulated_model_interpolates_and_integrates():
    # tabulate the constant curve nu = 2; g(s) = 2 s is exactly piecewise
    # linear, so interpolation and quadrature are exact up to tolerance
    table = np.column_stack([np.linspace(0.0, 10.0, 11),
                             np.full(11, 2.0)])
    model = material.tabulated_model(table)
    nu, dgds, _ = material.model_eval(model, "*", 3.7)
    assert nu == pytest.approx(2.0, abs=1e-6)
    assert dgds == pytest.approx(2.0, abs=1e-6)
    assert material.theta_eval(model, "*", 9.0) == pytest.approx(9.0, rel=1e-8)


def _quad_theta(table, rho):
    """Oracle: adaptive quadrature of g = nu s, with the knots as breakpoints."""
    sk, gk = table[:, 0], table[:, 0] * table[:, 1]
    last = (gk[-1] - gk[-2]) / (sk[-1] - sk[-2])

    def g(z):  # last slope beyond the last knot
        return np.interp(z, sk, gk) if z <= sk[-1] else gk[-1] + last * (z - sk[-1])

    top = np.sqrt(rho)
    val, _ = integrate.quad(g, 0.0, top, points=sk[(sk > 0) & (sk < top)],
                            limit=400, epsabs=0.0, epsrel=1e-13)
    return val


@pytest.mark.parametrize("s0", [0.0, 0.3])
def test_tabulated_theta_matches_quadrature_oracle(s0):
    """Knots at 0 and evenly from s0 on, so with s0 = 0.3 the samples 0.1
    and 0.2 lie inside a first piece longer than the others."""
    knots = np.union1d(0.0, np.linspace(s0, 20.0, 41))
    table = np.column_stack([knots, 1.0 + 4.0 / (1.0 + knots ** 2)])
    model = material.tabulated_model(table)
    # inside the first piece, on knots, between knots and past the table
    s = np.concatenate([[0.1, 0.2], knots[::7], knots[:-1] + 0.13, [23.0]])
    rho = s * s
    theta = material.theta_eval(model, "*", rho)
    oracle = np.array([_quad_theta(table, r) for r in rho])
    assert np.allclose(theta, oracle, rtol=1e-14, atol=0.0)
    assert material.theta_eval(model, "*", 0.0) == 0.0


def test_tabulated_derivative_is_the_segment_slope():
    knots = np.array([0.0, 0.2, 0.5, 1.0, 2.0, 4.0])
    nu = np.array([3.0, 3.0, 2.8, 2.0, 1.5, 1.2])
    model = material.tabulated_model(np.column_stack([knots, nu]))
    g = knots * nu
    slopes = np.diff(g) / np.diff(knots)
    # right-continuous: a knot takes the slope of the piece it starts
    _, at_knots, _ = material.model_eval(model, "*", knots)
    assert np.array_equal(at_knots, np.append(slopes, slopes[-1]))
    _, inside, _ = material.model_eval(model, "*", 0.5 * (knots[:-1] + knots[1:]))
    assert np.array_equal(inside, slopes)
    _, outside, _ = material.model_eval(model, "*", np.array([0.1, 9.0]))
    assert np.array_equal(outside, [slopes[0], slopes[-1]])


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
    ([[0.01, 5.0], [1.0, 4.0], [2.0, 3.0]], "must start at 0, got 0.01"),
    ([[-1.0, 1.0], [0.0, 1.0], [10.0, 1.0]], "must start at 0, got -1"),
], ids=["one_row", "1d", "three_columns", "decreasing_s", "late_start",
        "negative_start"])
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
    # extremes of g'(s) = nu_min + delta (1 - s^2)/(1 + s^2)^2 and of nu(s):
    # nu_min - delta/8 at s^2 = 3, nu_max at s = 0; delta < 0 swaps them
    for nu_min, nu_max, bounds in ((1.0, 5.0, (0.5, 5.0)),
                                   (1.0, 8.0, (0.125, 8.0)),
                                   (2.0, 1.0, (1.0, 2.125))):
        report = material.estimate_constants(
            material.rational_saturation_model(nu_min, nu_max))
        assert (report.m_hat, report.L_hat) == bounds
        assert report.passed


@pytest.mark.parametrize("nu_max, m_hat", [(9.001, -1.25e-4),
                                           (1e308, -1.25e307)])
def test_estimate_constants_rejects_a_rational_curve_that_bends_back(
        nu_max, m_hat):
    """With nu_max > 9 nu_min, g' = nu_min - delta/8 < 0 at s^2 = 3: the
    energy is not convex, and no overflow hides that for huge nu_max."""
    model = material.rational_saturation_model(1.0, nu_max)
    report = material.estimate_constants(model)
    assert report.m_hat == pytest.approx(m_hat, rel=1e-9)
    assert report.L_hat == nu_max and not report.passed
    with pytest.raises(ValidationFailure) as info:
        material.validate_assumptions(model, 1.0, [[1.0]])
    assert info.value.reasons == ["reluctivity curve on region '*' is not "
                                  f"strongly monotone (m_hat = {m_hat:.3e})"]


def test_estimate_constants_detects_nonmonotone_curve():
    # decreasing g(s): nu falls off faster than 1/s
    table = np.column_stack([
        np.array([0.0, 1.0, 2.0, 4.0]),
        np.array([5.0, 5.0, 1.0, 0.1]),
    ])
    report = material.estimate_constants(material.tabulated_model(table))
    # g = 0, 5, 2, 0.4 at the knots: piece slopes 5, -3, -0.8
    assert (report.m_hat, report.L_hat) == (-3.0, 5.0)
    assert not report.passed


@pytest.mark.parametrize("table, m_hat", [
    ([[0.0, 2.0], [50.0, 2.0], [150.0, 2.0], [200.0, 1.0], [300.0, 1.0]],
     -2.0),
    ([[0.0, 0.0], [10.0, 50.0]], 0.0),
], ids=["falls_past_s_100", "nu0_zero"])
def test_estimate_constants_rejects_a_table_anywhere_on_s_ge_0(table, m_hat):
    """g falls with slope -2 on [150, 200]; a zero nu(0) makes the tangent
    at a field-free element zero although every piece slope is 50."""
    report = material.estimate_constants(material.tabulated_model(table))
    assert report.m_hat == m_hat and not report.passed


def test_validate_assumptions_passes_on_defaults():
    report = material.validate_assumptions(
        material.rational_saturation_model(1.0, 5.0), 1.0, np.array([[1.0]])
    )
    assert report.passed
    assert report.m_hat > 0


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
    with pytest.raises(ValidationFailure) as info:
        material.validate_assumptions(
            material.constant_model(1.0), sigma, np.array(R)
        )
    assert any(fragment in reason for reason in info.value.reasons)


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


def test_region_specific_parameters():
    model = material.ReluctivityModel(
        "constant", {"C": {"nu0": 1.0}, "I": {"nu0": 3.0}}
    )
    assert material.model_eval(model, "C", 1.0)[0] == 1.0
    assert material.model_eval(model, "I", 1.0)[0] == 3.0


def _all_pairs_constants(model, s_max, n_grid):
    """Reference: extremes of every secant slope of nu(s)*s over grid pairs
    and of nu(s) on the grid, s = 0 included."""
    s = np.linspace(0.0, s_max, n_grid)
    nu, _, _ = material.model_eval(model, "*", s)
    g = nu * s
    iu = np.triu_indices(n_grid, k=1)
    slopes = np.subtract.outer(g, g)[iu] / np.subtract.outer(s, s)[iu]
    values = np.concatenate([slopes, nu])
    return float(values.min()), float(values.max())


_TABLE_41 = np.column_stack([np.linspace(0.0, 10.0, 41),
                            1.0 + 4.0 / (1.0 + np.linspace(0.0, 10.0, 41) ** 2)])


# m_tol / L_tol: 1e-3 on the side a rational g' takes at s^2 = 3, between
# samples, else 1e-12
@pytest.mark.parametrize("model, m_tol, L_tol", [
    (material.rational_saturation_model(1.0, 5.0), 1e-3, 1e-12),
    (material.rational_saturation_model(1.0, 8.0), 1e-3, 1e-12),
    (material.rational_saturation_model(2.0, 1.0), 1e-12, 1e-3),
    (material.rational_saturation_model(1.0, 9.001), 1e-3, 1e-12),
    (material.constant_model(1.0), 1e-12, 1e-12),
    (material.constant_model(2.0), 1e-12, 1e-12),
    (material.tabulated_model(_TABLE_41), 1e-12, 1e-12),
    (material.tabulated_model(np.array(
        [[0.0, 5.0], [1.0, 5.0], [2.0, 1.0], [4.0, 0.1]])), 1e-12, 1e-12),
], ids=["rational_1_5", "rational_1_8", "rational_2_1", "rational_1_9.001",
        "constant_1", "constant_2", "table_41", "nonmonotone"])
def test_estimate_constants_matches_all_pairs_oracle(model, m_tol, L_tol):
    """The sampled extremes lie inside the certified bounds and reach them."""
    report = material.estimate_constants(model)
    m_ref, L_ref = _all_pairs_constants(model, 20.0, 400)
    assert report.m_hat <= m_ref + 1e-12 and L_ref <= report.L_hat + 1e-12
    assert report.m_hat == pytest.approx(m_ref, rel=1e-12, abs=m_tol)
    assert report.L_hat == pytest.approx(L_ref, rel=1e-12, abs=L_tol)
    if m_ref <= 0.0:
        assert not report.passed
