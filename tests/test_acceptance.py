"""Acceptance suite: the package's exit criteria.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import time

import numpy as np

from heleshaw.bracket import (
    bracket_matrix,
    derivative_reflection_resultant,
    finite_difference_jacobian,
    jacobian_identity_report,
    moment_power_matrix,
    solve_string_system,
    string_residual,
    sylvester_matrix,
)
from heleshaw.errors import DegenerateResultantError
from heleshaw.evolution import run_evolution
from heleshaw.maps import CircleGrid, PolynomialMap, branch_points, winding_number
from heleshaw.moments import (
    default_moment_count,
    moments_area_oracle,
    moments_residue,
    moments_richardson,
    quadrature_check,
    quadrature_coeffs,
)
from heleshaw.scenarios import (
    ScenarioSpec,
    make_example_abc,
    make_subcase1,
    make_subcase2,
    quadrature_data,
    subcase1_branch_value,
    subcase2_from_omega,
)
from test_evolution import rk4_reference

GRID = CircleGrid(1024)
B1_SUB1 = 7.0 - 4.0 * np.sqrt(3.0)
B1_SUB2 = 0.36 / np.sqrt(1.64)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def _random_corpus(rng, count_per_degree=50, radius=0.3):
    maps = []
    for n in (1, 2, 3, 4):
        made = 0
        while made < count_per_degree:
            r = radius * np.sqrt(rng.uniform(0, 1, n))
            th = rng.uniform(0, 2 * np.pi, n)
            coeffs = np.concatenate([[1.0], r * np.exp(1j * th)])
            if abs(coeffs[-1]) < 1e-4:
                continue
            maps.append(PolynomialMap(tuple(coeffs)))
            made += 1
    return maps


CORPUS = _random_corpus(np.random.default_rng(20240809))


def test_criterion_1_jacobi_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for m in CORPUS:
        rep = jacobian_identity_report(m)
        worst = max(worst, rep.rel_error)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _report(1, "Jacobi determinant identity on 200 random maps", ok,
            f"worst rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_determinant_closed_forms():
    worst_v = worst_u = worst_s = 0.0
    for m in CORPUS:
        n = m.degree_plus
        b = m.derivative_coeffs()
        res = derivative_reflection_resultant(m)
        det_v = np.linalg.det(moment_power_matrix(m))
        det_u = np.linalg.det(bracket_matrix(m))
        want_v = m.a0 ** (n * (n + 1))
        worst_v = max(worst_v, abs(det_v - want_v) / abs(want_v))
        want_u = 2.0 * b[0] ** (2 * n + 1) * res
        worst_u = max(worst_u, abs(det_u - want_u) / max(abs(want_u), 1e-300))
        det_s = np.linalg.det(sylvester_matrix(b, np.conj(b)[::-1]))
        worst_s = max(worst_s, abs(det_u - 2.0 * b[0] * det_s) / abs(det_u))
    ok = worst_v < 1e-10 and worst_u < 1e-10 and worst_s < 1e-10
    _report(2, "det V, det U resultant and Sylvester closed forms", ok,
            f"worst rel errs {worst_v:.2e}/{worst_u:.2e}/{worst_s:.2e}")


def test_criterion_3_jacobian_against_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(3):
            r = 0.3 * np.sqrt(rng.uniform(0, 1, n))
            th = rng.uniform(0, 2 * np.pi, n)
            m = PolynomialMap(tuple(np.concatenate([[1.0], r * np.exp(1j * th)])))
            fd = finite_difference_jacobian(m, 1e-5)
            vu = moment_power_matrix(m) @ bracket_matrix(m)
            worst = max(worst, float(np.max(np.abs(vu - fd))))
    _report(3, "V U equals moment-map finite differences entrywise",
            worst < 1e-6, f"max abs err {worst:.3e}")


def test_criterion_4_string_equation_end_to_end():
    maps = [PolynomialMap((1.0, 0.3))]
    rng = np.random.default_rng(99)
    while len(maps) < 51:
        n = int(rng.integers(1, 5))
        r = 0.3 * np.sqrt(rng.uniform(0, 1, n))
        th = rng.uniform(0, 2 * np.pi, n)
        coeffs = np.concatenate([[1.0], r * np.exp(1j * th)])
        if abs(coeffs[-1]) < 1e-4:
            continue
        m = PolynomialMap(tuple(coeffs))
        if abs(derivative_reflection_resultant(m)) < 1e-3:
            continue
        maps.append(m)
    worst = 0.0
    for m in maps:
        v = solve_string_system(m)[m.degree_plus:]
        worst = max(worst, string_residual(m, v, GRID))
    _report(4, "max |{f,f*}_t - 1| with solved velocities, 51 maps",
            worst < 1e-8, f"worst residual {worst:.3e}")


def test_criterion_5_degeneracy_detection():
    worst = 0.0
    raised = True
    for a1 in (0.5, 0.5j, 0.5 * np.exp(0.3j)):
        m = PolynomialMap((1.0, a1))
        worst = max(worst, abs(derivative_reflection_resultant(m)))
        try:
            solve_string_system(m)
            raised = False
        except DegenerateResultantError:
            pass
    _report(5, "Res = 0 at |a1| = 1/2 and the solver raises",
            worst < 1e-12 and raised, f"|Res| = {worst:.3e}")


def test_criterion_6_conservation_and_order():
    t0 = time.perf_counter()
    spec = ScenarioSpec(family="polynomial", params={"coeffs": (1.0, 0.3)},
                        horizon=0.1, dt=1e-3,
                        output_times=tuple(np.round(np.arange(1, 11) * 0.01, 10)))
    res = run_evolution(spec)
    ok = res.completed
    worst1 = worst2 = worst0 = 0.0
    for s in res.states:
        mv = s.diagnostics.moments
        worst1 = max(worst1, abs(mv[1] - 0.3))
        worst2 = max(worst2, abs(mv[2]))
        worst0 = max(worst0, abs(mv[0] - 1.18 - s.t))
    ok = ok and worst1 < 1e-8 and worst2 < 1e-8 and worst0 < 1e-8

    diskspec = ScenarioSpec(family="disk", horizon=0.1, dt=1e-3,
                            output_times=(0.05, 0.1))
    dres = run_evolution(diskspec)
    worst_disk = max(abs(s.map.coeffs[0].real - np.sqrt(1.0 + s.t))
                     for s in dres.states)
    ok = ok and worst_disk < 1e-10

    # polynomial mode continues from one kept time to the next, exactly
    # whatever dt; the RK4 reference converges to it at fourth order
    for dt in (0.1, 0.05):
        r = run_evolution(ScenarioSpec(family="disk", horizon=1.0, dt=dt))
        worst_disk = max(worst_disk, abs(r.states[-1].map.coeffs[0].real - np.sqrt(2.0)))
    ok = ok and worst_disk < 1e-14

    def rk4_err(dt):
        return abs(rk4_reference(np.array([1.0]), 1.0, dt)[0] - np.sqrt(2.0))

    ratio = rk4_err(0.1) / rk4_err(0.05)
    elapsed = time.perf_counter() - t0
    ok = ok and 12.0 < ratio < 20.0 and elapsed < 5.0
    _report(6, "moment conservation, disk closed form, RK4 order", ok,
            f"drifts {worst1:.1e}/{worst2:.1e}/{worst0:.1e}, disk {worst_disk:.1e}, "
            f"RK4 reference ratio {ratio:.1f}, {elapsed:.2f}s")


def test_criterion_7_example_family():
    m = make_example_abc(0.4, 2.0, 2.0)
    data = quadrature_data(m)
    integ = m.rational().reflect() * m.derivative_rational()
    (node, B), = data.nodes
    errA = abs(integ.residue(0.0) - data.c[0])
    errB = abs(integ.residue(node) - B)
    ok = errA < 1e-12 and errB < 1e-12

    mv = moments_residue(m, 6)
    worst_geo = 0.0
    for k in range(2, 6):
        worst_geo = max(worst_geo,
                        abs(mv[k + 1] * mv[k - 1] - mv[k] ** 2) / abs(mv[k] ** 2))
    ok = ok and worst_geo < 1e-10

    m1 = make_subcase1(2.0, B1_SUB1)
    mv1 = moments_residue(m1, 6)
    worst_vanish = max(abs(mv1[k]) for k in range(1, 7))
    idx, wres = winding_number(m1.boundary_values(GRID), 0.01)
    idx2, wres2 = winding_number(m1.boundary_values(GRID), 0.3 + 0.2j)
    ok = ok and worst_vanish < 1e-10 and idx == 2 and idx2 == 2

    m2 = make_subcase2(1.0, B1_SUB2)
    data2 = quadrature_coeffs(m2)
    qres = quadrature_check(m2, data2, 2)
    ok = ok and max(qres) < 1e-6
    _report(7, "two-node family: weights, progression, subcases", ok,
            f"A/B errs {errA:.1e}/{errB:.1e}, geo {worst_geo:.1e}, "
            f"vanish {worst_vanish:.1e}, quad {max(qres):.1e}")


def test_criterion_8_branch_point_machinery():
    # the zero of f' on curved parameters (branch_points certifies it on
    # the numerator of f' = N/D: |N(omega)| and |N'(omega)/D(omega)|)
    m2 = subcase2_from_omega(0.45 * np.exp(0.9j), 1.7)
    bp = branch_points(m2)
    ok = len(bp) == 1

    # subcase round trips to 1e-10
    m1 = make_subcase1(2.0, B1_SUB1)
    back_b1 = subcase1_branch_value(m1.b, 2.0)
    back_m0 = 2.0 * abs(m1.c) ** 2 / abs(m1.b) ** 2
    ok = ok and abs(back_b1 - B1_SUB1) < 1e-10 and abs(back_m0 - 2.0) < 1e-10

    m2i = make_subcase2(1.0, B1_SUB2)
    w = 1.0 / np.conj(m2i.b)
    back_b1 = complex(m2i.rational()(w))
    back_m0 = complex(quadrature_coeffs(m2i).c[0]).real
    ok = ok and abs(back_b1 - B1_SUB2) < 1e-10 and abs(back_m0 - 1.0) < 1e-10

    # taylor-mode evolution tracks the closed-form family, branch fixed
    spec = ScenarioSpec(family="subcase2", params={"M0": 1.0, "B1": B1_SUB2},
                        horizon=0.05, dt=1e-3,
                        output_times=(0.01, 0.02, 0.03, 0.04, 0.05))
    res = run_evolution(spec)
    ok = ok and res.completed
    worst_fam = worst_drift = 0.0
    for s in res.states:
        exact = make_subcase2(1.0 + s.t, B1_SUB2).power_series(64)
        worst_fam = max(worst_fam,
                        float(np.max(np.abs(np.asarray(s.map.coeffs) - exact))))
        worst_drift = max(worst_drift, s.diagnostics.max_branch_drift)
    ok = ok and worst_fam < 1e-6 and worst_drift < 1e-7
    _report(8, "branch points: residues, round trips, fixed-point evolution",
            ok, f"family err {worst_fam:.2e}, drift {worst_drift:.2e}")


def test_criterion_9_three_way_moments_scenario_corpus():
    worst_exact = worst_area = 0.0
    polys = [
        PolynomialMap((1.0,)),
        PolynomialMap((1.0, 0.3)),
        PolynomialMap((1.0, 0.2 + 0.1j, 0.1, -0.05j)),
    ]
    for m in polys:
        K = default_moment_count(m)
        rich = moments_richardson(m, K)
        resm = moments_residue(m, K)
        area, _ = moments_area_oracle(m, K)
        scale = max(1.0, float(np.max(np.abs(rich))))
        worst_exact = max(worst_exact, float(np.max(np.abs(rich - resm))) / scale)
        worst_area = max(worst_area, float(np.max(np.abs(rich - area))))
    rationals = [
        make_example_abc(0.4, 2.0, 2.0),
        make_subcase1(2.0, B1_SUB1),
        make_subcase2(1.0, B1_SUB2),
    ]
    for m in rationals:
        K = default_moment_count(m)
        resm = moments_residue(m, K)
        area, _ = moments_area_oracle(m, K)
        worst_area = max(worst_area, float(np.max(np.abs(resm - area))))
    ok = worst_exact < 1e-10 and worst_area < 1e-6
    _report(9, "Richardson / residue / area agreement on the scenario corpus",
            ok, f"exact {worst_exact:.2e}, area {worst_area:.2e}")
