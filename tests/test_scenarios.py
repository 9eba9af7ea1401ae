import json

import jsonschema
import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from heleshaw.errors import ConfigError, QuadratureError
from heleshaw.maps import (
    AbcRationalMap,
    CircleGrid,
    PolynomialMap,
    RationalMap,
    TaylorMap,
    winding_number,
)
from heleshaw.moments import moments_residue
from heleshaw.reports import REPORT_SCHEMA
from heleshaw.scenarios import (
    FAMILY_PARAMS,
    ScenarioSpec,
    initial_map,
    make_example_abc,
    make_subcase1,
    make_subcase2,
    subcase1_branch_value,
    subcase2_from_omega,
    verify_scenario,
)

# exact subcase-1 constants for b = 2, M0 = 2:
# omega_1 = 2 - sqrt(3), c = 2, B_1 = 4 (1 - sqrt(3)/2)^2 = 7 - 4 sqrt(3)
B1_SUB1 = 7.0 - 4.0 * np.sqrt(3.0)
# exact subcase-2 constants for omega_1 = 0.6, M0 = 1:
# B_1 = 0.36 / sqrt(1.64), C = 1 / (0.6 sqrt(1.64))
B1_SUB2 = 0.36 / np.sqrt(1.64)
C_SUB2 = 1.0 / (0.6 * np.sqrt(1.64))
# one admissible parameter set per family
FAMILY_CASES = {
    "disk": {"a0": 1.5},
    "polynomial": {"coeffs": (1.0, 0.3)},
    "example_abc": {"a": 0.2, "b": 1.6, "c_magnitude": 1.0},
    "subcase1": {"M0": 2.0, "B1": B1_SUB1},
    "subcase2": {"M0": 1.0, "B1": B1_SUB2},
    "taylor": {"coeffs": (1.0, 0.1)},
}


# ----------------------------------------------------------------------
# two-node family
# ----------------------------------------------------------------------

def test_example_abc_weights():
    m, data = make_example_abc(0.4, 2.0, 2.0)
    assert_allclose(data.weight_a, 0.8, rtol=1e-15)
    assert_allclose(data.weight_b, 304.0 / 225.0, rtol=1e-15)
    assert_allclose(data.image_b, -1.0 / 15.0, rtol=1e-13)


def test_example_abc_weights_match_residues():
    m, data = make_example_abc(0.4, 2.0, 2.0)
    integ = m.reflection() * m.derivative_rational()
    assert abs(integ.residue(0.0) - data.weight_a) < 1e-12
    assert abs(integ.residue(0.5) - data.weight_b) < 1e-12
    mv = moments_residue(m, 4)
    for k in range(5):
        want = data.weight_b * data.image_b**k
        if k == 0:
            want += data.weight_a
        assert abs(mv[k] - want) < 1e-10


def test_example_abc_equal_weights_is_subcase1():
    # a = 1/conj(b) makes the two weights collapse to |c|^2/|b|^2
    m, data = make_example_abc(0.5, 2.0, 2.0)
    assert_allclose(data.weight_a, 1.0, rtol=1e-13)
    assert_allclose(data.weight_b, 1.0, rtol=1e-13)
    assert abs(data.image_b) < 1e-15  # both nodes over the origin


def test_example_abc_complex_parameters_normalized():
    m, _ = make_example_abc(0.4 * np.exp(0.7j), 2.0 * np.exp(-0.3j), 1.5)
    fp0 = m.a * m.c / m.b
    assert abs(fp0.imag) < 1e-14
    assert fp0.real > 0


def test_example_abc_complex_parameters_weights_match_residues():
    # the closed-form weights keep their conjugation pattern straight for
    # genuinely complex a and b
    m, data = make_example_abc(0.4 * np.exp(0.7j), 2.0 * np.exp(-0.3j), 1.5)
    integ = m.reflection() * m.derivative_rational()
    assert abs(integ.residue(0.0) - data.weight_a) < 1e-12
    assert abs(integ.residue(complex(data.node_b)) - data.weight_b) < 1e-12
    mv = moments_residue(m, 3)
    for k in range(4):
        want = data.weight_b * data.image_b**k
        if k == 0:
            want += data.weight_a
        assert abs(mv[k] - want) < 1e-11


def test_example_abc_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        make_example_abc(1.1, 2.0, 2.0)
    with pytest.raises(ConfigError):
        make_example_abc(0.4, 2.0, -1.0)


# ----------------------------------------------------------------------
# subcase 1
# ----------------------------------------------------------------------

def test_subcase1_forward_and_inverse():
    b, M0 = 2.0, 2.0
    B1 = subcase1_branch_value(b, M0)
    assert_allclose(B1, B1_SUB1, rtol=1e-14)
    m = make_subcase1(M0, B1)
    assert_allclose(m.b, 2.0, rtol=1e-10)
    assert_allclose(m.c, 2.0, rtol=1e-10)
    assert_allclose(m.a, 0.5, rtol=1e-10)


def test_subcase1_branch_point_roundtrip():
    m = make_subcase1(2.0, B1_SUB1)
    # omega_1 = b (1 - sqrt(1 - 1/|b|^2)) and f(omega_1) = B_1
    w = m.b * (1.0 - np.sqrt(1.0 - 1.0 / abs(m.b) ** 2))
    assert_allclose(complex(m.rational()(w)), B1_SUB1, rtol=1e-10)


def test_subcase1_rotated_branch_point():
    B1 = B1_SUB1 * np.exp(1.1j)
    m = make_subcase1(2.0, B1)
    w = m.b * (1.0 - np.sqrt(1.0 - 1.0 / abs(m.b) ** 2))
    assert_allclose(complex(m.rational()(w)), B1, rtol=1e-10)


def test_subcase1_modulus_matches_mpmath():
    # |b| = (sqrt(q) + 1/sqrt(q))/2 with q = |B1| sqrt(2/M0) solves the
    # branch-point equation (1 - s)/(1 + s) = q exactly; against 50 digits
    # the closed form is within 1e-15 over q in (0, 1), M0 and arg B1
    rng = np.random.default_rng(20)
    worst = 0.0
    with mpmath.workdps(50):
        for q in rng.uniform(0.0, 1.0, 300):
            M0 = float(rng.uniform(0.25, 4.0))
            B1 = complex(q * np.sqrt(M0 / 2.0) * np.exp(2j * np.pi * rng.uniform()))
            m = make_subcase1(M0, B1)
            q_mp = abs(mpmath.mpc(B1)) * mpmath.sqrt(2 / mpmath.mpf(M0))
            beta = (mpmath.sqrt(q_mp) + 1 / mpmath.sqrt(q_mp)) / 2
            worst = max(worst, float(abs(abs(mpmath.mpc(m.b)) - beta) / beta))
    assert worst < 1e-15


def test_subcase1_admissibility():
    limit = np.sqrt(2.0 / 2.0)
    with pytest.raises(ConfigError):
        make_subcase1(2.0, limit * 1.01)
    with pytest.raises(ConfigError):
        make_subcase1(2.0, 0.0)
    with pytest.raises(ConfigError):
        make_subcase1(-1.0, 0.1)


def test_subcase1_double_covering_and_vanishing_moments():
    m = make_subcase1(2.0, B1_SUB1)
    grid = CircleGrid(1024)
    idx, res = winding_number(m.boundary_values(grid), 0.01)
    assert idx == 2 and res < 1e-6
    mv = moments_residue(m, 6)
    assert_allclose(mv[0], 2.0, rtol=1e-12)
    assert max(abs(mv[k]) for k in range(1, 7)) < 1e-10


def test_subcase1_image_independent_of_branch_point():
    # varying B1 at fixed M0 keeps f(bd D) the same circle of radius
    # sqrt(M0/2); only the covering structure moves
    grid = CircleGrid(512)
    radius = np.sqrt(2.0 / 2.0)
    for B1 in (B1_SUB1, B1_SUB1 * np.exp(2.0j), 0.5 * B1_SUB1):
        m = make_subcase1(2.0, B1)
        bd = np.abs(m.boundary_values(grid))
        assert np.max(np.abs(bd - radius)) < 1e-8


def test_subcase1_coordinate_completeness():
    # perturbing B1 at fixed M0 must change the map itself
    m0 = make_subcase1(2.0, B1_SUB1)
    m1 = make_subcase1(2.0, B1_SUB1 + 1e-3)
    d = max(abs(m0.a - m1.a), abs(m0.b - m1.b), abs(m0.c - m1.c))
    assert d > 1e-4


# ----------------------------------------------------------------------
# subcase 2
# ----------------------------------------------------------------------

def test_subcase2_closed_forms():
    m = subcase2_from_omega(0.6, 1.0)
    assert_allclose(m.numer_coeffs[0], C_SUB2 * (2 * 0.36 - 0.36**2), rtol=1e-14)
    assert_allclose(m.numer_coeffs[1], -C_SUB2 * 0.6, rtol=1e-14)
    assert_allclose(complex(m.rational()(0.6)), B1_SUB2, rtol=1e-13)


def test_subcase2_inversion_recovers_omega():
    m = make_subcase2(1.0, B1_SUB2)
    assert_allclose(np.conj(m.pole_reflections[0]), 0.6, rtol=1e-10)


def test_subcase2_inversion_complex_branch_point():
    w = 0.45 * np.exp(0.9j)
    M0 = 1.7
    m_direct = subcase2_from_omega(w, M0)
    B1 = complex(m_direct.rational()(w))
    m_inv = make_subcase2(M0, B1)
    assert_allclose(np.conj(m_inv.pole_reflections[0]), w, rtol=1e-10)


def test_subcase2_admissibility():
    with pytest.raises(ConfigError):
        make_subcase2(1.0, 1.0)  # |B1| = sqrt(M0)
    with pytest.raises(ConfigError):
        make_subcase2(1.0, 0.0)


def test_subcase2_derivative_zeros():
    m = subcase2_from_omega(0.6, 1.0)
    fp = m.derivative_rational()
    assert abs(complex(fp(0.6))) < 1e-13
    other = 2.0 / 0.6 - 0.6
    assert abs(complex(fp(other))) < 1e-12
    assert abs(other) > 1.0


# ----------------------------------------------------------------------
# verify_scenario
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_verify_scenario_report_schema(family):
    # the report is the CLI's run report: it validates against the schema,
    # and each check entry carries only its name, status and residual
    m = ScenarioSpec(family=family, params=FAMILY_CASES[family]).initial
    rep = verify_scenario(m, family)
    payload = json.loads(rep.to_json())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["spec"] == {"family": family}
    assert payload["checks"]
    for c in payload["checks"]:
        assert set(c) == {"name", "status", "residual"}


def test_verify_disk():
    rep = verify_scenario(PolynomialMap((1.0,)), "disk")
    assert rep.all_passed


def test_verify_polynomial():
    rep = verify_scenario(PolynomialMap((1.0, 0.3)), "polynomial")
    assert rep.all_passed


def test_verify_example_abc_generic():
    m, _ = make_example_abc(0.4, 2.0, 2.0)
    rep = verify_scenario(m, "example_abc")
    assert rep.all_passed
    names = [c["name"] for c in rep.checks]
    assert "geometric_progression" in names
    assert "higher_moments_vanish" not in names  # subcase checks skipped


def test_verify_subcase1():
    rep = verify_scenario(make_subcase1(2.0, B1_SUB1), "subcase1")
    assert rep.all_passed
    assert "double_covering" in [c["name"] for c in rep.checks]


def test_verify_subcase2():
    rep = verify_scenario(make_subcase2(1.0, B1_SUB2), "subcase2")
    assert rep.all_passed


@pytest.mark.parametrize("ratio", [0.9, 0.95, 0.98])
@pytest.mark.parametrize("M0", [0.5, 2.0])
def test_verify_subcase2_edge_of_range(ratio, M0):
    # the pole of f nears the circle as |B1| -> sqrt(M0); up to 0.98 sqrt(M0)
    # the disk grid is refined enough to resolve it and every check passes
    for phase in (0.0, 0.7, 2.9):
        m = make_subcase2(M0, ratio * np.sqrt(M0) * np.exp(1j * phase))
        rep = verify_scenario(m, "subcase2")
        assert rep.all_passed, [c for c in rep.checks if c["status"] != "pass"]


@pytest.mark.parametrize("M0", [0.5, 2.0])
def test_verify_subcase2_pole_beyond_grid_cap_refuses(M0):
    # at 0.99 sqrt(M0) the pole is 3.4e-3 from the circle: the grid it needs
    # exceeds the angular cap, so the check refuses rather than reports
    for phase in (0.0, 0.7, 2.9):
        m = make_subcase2(M0, 0.99 * np.sqrt(M0) * np.exp(1j * phase))
        with pytest.raises(QuadratureError):
            verify_scenario(m, "subcase2")


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_spec_rejects_unknown_family():
    with pytest.raises(ConfigError):
        ScenarioSpec(family="torus")


def test_spec_rejects_missing_and_unknown_params():
    with pytest.raises(ConfigError):
        ScenarioSpec(family="subcase2", params={"M0": 1.0})
    with pytest.raises(ConfigError):
        ScenarioSpec(family="disk", params={"radius": 2.0})


def test_spec_rejects_inadmissible_subcase2():
    with pytest.raises(ConfigError):
        ScenarioSpec(family="subcase2", params={"M0": 1.0, "B1": 1.5})


def test_initial_map_modes():
    # the map's type is its evolution mode: the disk and polynomial families
    # build a PolynomialMap (fixed-degree mode), the others a map that
    # evolves as a truncated series
    types = {"disk": PolynomialMap, "polynomial": PolynomialMap,
             "example_abc": AbcRationalMap, "subcase1": AbcRationalMap,
             "subcase2": RationalMap, "taylor": TaylorMap}
    for family, params in FAMILY_CASES.items():
        spec = ScenarioSpec(family=family, params=params)
        assert type(initial_map(spec)) is types[family], family
        assert type(spec.initial) is types[family], family
    assert initial_map(ScenarioSpec(family="disk")).a0 == 1.0
    spec = ScenarioSpec(family="taylor", params=FAMILY_CASES["taylor"])
    assert initial_map(spec).order == 64


def test_scenario_maps_have_nonvanishing_derivative_on_circle():
    grid = CircleGrid(1024)
    for m in (
        PolynomialMap((1.0,)),
        PolynomialMap((1.0, 0.3)),
        make_example_abc(0.4, 2.0, 2.0)[0],
        make_subcase1(2.0, B1_SUB1),
        make_subcase2(1.0, B1_SUB2),
    ):
        fp = np.abs(m.derivative_rational()(grid.nodes))
        assert np.min(fp) > 1e-6
