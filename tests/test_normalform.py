"""Quadratic normal form, center manifold, and the reduced planar field."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic import normalform
from hopf_critic.polyfield import PolyMap, stack
from hopf_critic.spectral import hopf_split, transform_system


def rotation(lam0):
    return np.array([[0.0, -lam0], [lam0, 0.0]])


def random_quadratic(rng, n_vars, n_out):
    terms = []
    for comp in range(n_out):
        for i in range(n_vars):
            for j in range(i, n_vars):
                exps = [0] * n_vars
                exps[i] += 1
                exps[j] += 1
                terms.append((comp, tuple(exps), float(rng.normal())))
    return PolyMap(n_vars, n_out, terms)


def random_stable(rng, k):
    A = rng.normal(size=(k, k))
    radius = np.max(np.abs(np.linalg.eigvals(A).real), initial=1.0)
    return A - (radius + 0.5) * np.eye(k)


def test_build_l_known_diagonal_for_scalar_stable_block():
    L = normalform.build_L(1.0, np.array([[-1.0]]))
    assert_allclose(L, np.diag([-1j, 3j, 1j, 1.0, 1.0 + 2j]), atol=1e-15)


def test_build_l_rejects_bad_inputs():
    with pytest.raises(normalform.NormalFormError):
        normalform.build_L(0.0, np.array([[-1.0]]))
    with pytest.raises(normalform.NormalFormError):
        normalform.build_L(1.0, np.array([[0.5]]))


def test_complexify_realify_round_trip():
    rng = np.random.default_rng(41)
    for k in (0, 1, 3):
        f2 = random_quadratic(rng, 2 + k, 2)
        fplus, _ = normalform.complexify_quadratic(f2)
        assert fplus.shape == (3 + 2 * k,)
        p = normalform.realify_quadratic(fplus, k)
        back, _ = normalform.complexify_quadratic(p.homogeneous_part(2))
        assert_allclose(back, fplus, rtol=1e-13, atol=1e-14)


def test_solve_quadratic_has_small_residual():
    rng = np.random.default_rng(43)
    for _ in range(20):
        lam0 = float(rng.uniform(0.1, 10.0))
        k = int(rng.integers(0, 4))
        P = random_stable(rng, k) if k else np.zeros((0, 0))
        fplus = rng.normal(size=3 + 2 * k) + 1j * rng.normal(size=3 + 2 * k)
        L = normalform.build_L(lam0, P)
        transform = normalform.solve_quadratic(lam0, P, fplus)
        residual = L @ transform.coefficients + fplus
        assert np.max(np.abs(residual)) < 1e-10


def split_fields(drift, sigma):
    split = hopf_split(drift.jacobian(np.zeros(drift.n_in)))
    f, g, _, _ = transform_system(drift, sigma, split)
    return split, f, g


def random_split_system(rng, n):
    k = n - 2
    lam0 = float(rng.uniform(0.3, 4.0))
    terms = [(0, tuple([0, 1] + [0] * k), -lam0),
             (1, tuple([1, 0] + [0] * k), lam0)]
    P = random_stable(rng, k)
    for i in range(k):
        for j in range(k):
            exps = [0] * n
            exps[2 + j] = 1
            terms.append((2 + i, tuple(exps), float(P[i, j])))
    drift = PolyMap(n, n, terms) + random_quadratic(rng, n, n) * 0.8
    sigma = PolyMap(n, n * n,
                    [(i * (n + 1), tuple([0] * n), 1.0) for i in range(n)])
    return drift, sigma


def test_transform_cancels_critical_quadratics():
    rng = np.random.default_rng(47)
    for n in (3, 4, 5):
        drift, sigma = random_split_system(rng, n)
        split, f, g = split_fields(drift, sigma)
        fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
        transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
        f_new, g_new = normalform.apply_quadratic_transform(
            f, g, split.Q, split.P, transform)
        worst = 0.0
        for comp, exps, coef in f_new.homogeneous_part(2).terms:
            if exps[0] + exps[1] > 0:
                worst = max(worst, abs(coef))
        assert worst < 1e-9


def test_transform_passes_stable_rows_through_the_shift():
    # phi = id + (p, 0) leaves y alone and Dp vanishes below the planar
    # rows, so g_new is the nonlinear part of (P y + g) o phi, bit for bit
    rng = np.random.default_rng(61)
    for k in (1, 2, 3, 4):
        n = 2 + k
        drift, sigma = random_split_system(rng, n)
        split, f, g = split_fields(drift, sigma)
        fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
        transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
        _, g_new = normalform.apply_quadratic_transform(
            f, g, split.Q, split.P, transform)
        stable = PolyMap.linear(split.block_matrix()[2:]) + g
        phi = PolyMap.identity(n) + stack([transform.p_real,
                                           PolyMap.zero(n, k)])
        moved = stable.substitute(phi, truncate_at=4)
        assert g_new.terms == tuple(t for t in moved.terms
                                    if sum(t[1]) >= 2)


def test_transform_is_a_push_forward_of_the_field():
    # the transformed field must equal (Dphi)^-1 (F o phi) up to the
    # degree-4 truncation, so the mismatch scales like |x|^4
    rng = np.random.default_rng(53)
    drift, sigma = random_split_system(rng, 3)
    split, f, g = split_fields(drift, sigma)
    fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
    transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
    f_new, g_new = normalform.apply_quadratic_transform(
        f, g, split.Q, split.P, transform)
    linear = split.block_matrix()

    def full(field_pair, x):
        fz, gy = field_pair
        return linear @ x + np.concatenate([fz(x), gy(x)])

    for scale in (1e-2, 1e-3):
        x = scale * np.array([0.7, -0.4, 0.5])
        # the shift touches only the planar rows
        phi_x = x + np.concatenate([transform.p_real(x), np.zeros(1)])
        dphi = np.eye(3)
        dphi[:2, :] += transform.p_real.jacobian(x)
        pushed = np.linalg.solve(dphi, full((f, g), phi_x))
        got = full((f_new, g_new), x)
        assert np.max(np.abs(got - pushed)) < 50.0 * scale ** 4


def test_center_manifold_matches_hand_solved_example():
    # g = z1^2 with unit rotation and P = [-1] gives
    # h2 = (3 z1^2 + 2 z1 z2 + 2 z2^2) / 5
    Q = rotation(1.0)
    P = np.array([[-1.0]])
    f = PolyMap.zero(3, 2)
    g = PolyMap(3, 1, [(0, (2, 0, 0), 1.0)])
    manifold = normalform.center_manifold_quadratic(Q, P, f, g)
    got = {exps: coef for _, exps, coef in manifold.h2.terms}
    expected = {(2, 0): 0.6, (1, 1): 0.4, (0, 2): 0.4}
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert abs(got[key] - value) < 1e-12


def test_center_manifold_tangency_residual_is_tiny():
    rng = np.random.default_rng(59)
    for n in (3, 4, 5):
        drift, sigma = random_split_system(rng, n)
        split, f, g = split_fields(drift, sigma)
        fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
        transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
        f_new, g_new = normalform.apply_quadratic_transform(
            f, g, split.Q, split.P, transform)
        manifold = normalform.center_manifold_quadratic(
            split.Q, split.P, f_new, g_new)
        assert normalform.tangency_residual(
            split.Q, split.P, g_new, manifold) < 1e-10


def test_invariance_defect_decays_at_cubic_order():
    rng = np.random.default_rng(61)
    drift, sigma = random_split_system(rng, 3)
    split, f, g = split_fields(drift, sigma)
    fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
    transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
    f_new, g_new = normalform.apply_quadratic_transform(
        f, g, split.Q, split.P, transform)
    manifold = normalform.center_manifold_quadratic(
        split.Q, split.P, f_new, g_new)
    radii = (1e-1, 1e-2, 1e-3)
    defects = []
    for r in radii:
        z = r * np.array([0.6, 0.8])
        defects.append(normalform.invariance_defect(
            split.Q, split.P, f_new, g_new, manifold, z))
    slope = np.polyfit(np.log(radii), np.log(defects), 1)[0]
    assert slope >= 2.7


def test_planar_system_is_the_empty_stable_block():
    # k = 0: g, g_new and h2 have no outputs, and the transform, the
    # manifold and its invariance defect take their general lines
    rng = np.random.default_rng(67)
    drift, sigma = random_split_system(rng, 2)
    split, f, g = split_fields(drift, sigma)
    assert split.P.shape == (0, 0) and g.n_out == 0
    fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
    transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
    f_new, g_new = normalform.apply_quadratic_transform(
        f, g, split.Q, split.P, transform)
    assert g_new.n_out == 0
    # every quadratic monomial of a plane involves z, so none is left
    assert f_new.homogeneous_part(2).max_coefficient() < 1e-9
    manifold = normalform.center_manifold_quadratic(
        split.Q, split.P, f_new, g_new)
    assert manifold.h2.n_out == 0
    assert normalform.tangency_residual(
        split.Q, split.P, g_new, manifold) == 0.0
    assert normalform.invariance_defect(
        split.Q, split.P, f_new, g_new, manifold,
        np.array([0.3, 0.4])) == 0.0


def test_reduced_field_keeps_rotation_plus_cubic_only():
    Q = rotation(1.0)
    P = np.array([[-1.0]])
    f = PolyMap(3, 2, [
        (0, (3, 0, 0), -1.0), (0, (1, 2, 0), -1.0),
        (1, (2, 1, 0), -1.0), (1, (0, 3, 0), -1.0)])
    g = PolyMap(3, 1, [(0, (2, 0, 0), 1.0)])
    manifold = normalform.center_manifold_quadratic(Q, P, f, g)
    reduced = normalform.reduced_field(Q, f, manifold)
    assert reduced.n_in == 2 and reduced.n_out == 2
    degrees = {sum(exps) for _, exps, _ in reduced.terms}
    assert degrees == {1, 3}
    assert_allclose(reduced((1.0, 0.0)), [-1.0, 1.0])


def test_lyapunov_radial_coefficient_known_cubics():
    # attracting normal-form cubic averages to -1, repelling to +1
    attract = PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), -1.0), (0, (1, 2), -1.0),
        (1, (1, 0), 1.0), (1, (2, 1), -1.0), (1, (0, 3), -1.0)])
    assert_allclose(normalform.lyapunov_radial_coefficient(attract), -1.0,
                    rtol=1e-13)
    repel = attract * -1.0
    assert_allclose(normalform.lyapunov_radial_coefficient(repel), 1.0,
                    rtol=1e-13)
    # f = (a z1^3, 0): average of cos(t)*a cos(t)^3 is 3a/8
    skew = PolyMap(2, 2, [(0, (3, 0), 2.0)])
    assert_allclose(normalform.lyapunov_radial_coefficient(skew), 0.75,
                    rtol=1e-12)


def quadrature_radial_coefficient(reduced, n_nodes=256):
    """Reference: the mean of u^T cubic(u) over n_nodes points of the unit
    circle, a trapezoid rule exact for these trigonometric polynomials."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    points = np.column_stack((np.cos(theta), np.sin(theta)))
    values = reduced.homogeneous_part(3).evaluate_batch(points)
    return float(np.mean(np.sum(points * values, axis=1)))


def test_closed_form_radial_coefficient_matches_quadrature():
    rng = np.random.default_rng(11)
    cubic = [(i, 3 - i) for i in range(4)]
    for _ in range(50):
        terms = [(0, (0, 1), -1.0), (1, (1, 0), 1.0)]
        terms += [(comp, exps, rng.normal()) for comp in range(2)
                  for exps in cubic]
        # terms of degree 2 average out and must not enter the coefficient
        terms += [(comp, (i, 2 - i), rng.normal()) for comp in range(2)
                  for i in range(3)]
        reduced = PolyMap(2, 2, terms)
        assert abs(normalform.lyapunov_radial_coefficient(reduced)
                   - quadrature_radial_coefficient(reduced)) < 1e-13


def test_radial_coefficient_rejects_non_planar_field():
    with pytest.raises(normalform.NormalFormError):
        normalform.lyapunov_radial_coefficient(PolyMap.zero(3, 3))


def test_complexify_rejects_non_homogeneous_input():
    p = PolyMap(3, 2, [(0, (1, 0, 0), 1.0), (0, (2, 0, 0), 1.0)])
    with pytest.raises(normalform.NonHomogeneousInput):
        normalform.complexify_quadratic(p)
