"""Sparse polynomial maps: evaluation, calculus, composition, scaling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic.polyfield import (
    DimensionMismatch,
    IllConditionedMatrix,
    PolyMap,
    drop_trailing_inputs,
    left_matmul,
    product,
    stack,
    take_components,
)


def cubic_rotation():
    # dx1 = -x2 - x1(x1^2 + x2^2), dx2 = x1 - x2(x1^2 + x2^2)
    return PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), -1.0), (0, (1, 2), -1.0),
        (1, (1, 0), 1.0), (1, (2, 1), -1.0), (1, (0, 3), -1.0)])


def random_map(rng, n_in, n_out, degree, n_terms):
    terms = []
    for _ in range(n_terms):
        comp = int(rng.integers(n_out))
        exps = tuple(int(e) for e in rng.multinomial(
            int(rng.integers(degree + 1)), np.full(n_in, 1.0 / n_in)))
        terms.append((comp, exps, float(rng.normal())))
    return PolyMap(n_in, n_out, terms)


def test_evaluate_cubic_rotation_at_unit_point():
    f = cubic_rotation()
    assert_allclose(f((1.0, 0.0)), [-1.0, 1.0])
    assert_allclose(f((0.0, 1.0)), [-1.0, -1.0])


def test_evaluate_at_origin_returns_constant_coefficients():
    p = PolyMap(3, 2, [(0, (0, 0, 0), 2.5), (1, (1, 0, 0), 4.0)])
    assert_allclose(p(np.zeros(3)), [2.5, 0.0])


def test_evaluate_batch_agrees_with_pointwise():
    rng = np.random.default_rng(11)
    p = random_map(rng, 3, 2, 4, 12)
    pts = rng.normal(size=(20, 3))
    batch = p.evaluate_batch(pts)
    single = np.array([p(x) for x in pts])
    assert_allclose(batch, single, rtol=1e-13, atol=1e-13)


def test_duplicate_monomials_are_merged():
    p = PolyMap(2, 1, [(0, (1, 1), 2.0), (0, (1, 1), 3.0)])
    assert len(p.terms) == 1
    assert_allclose(p((1.0, 1.0)), [5.0])


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        PolyMap(2, 1, [(0, (1, -1), 1.0)])
    with pytest.raises(DimensionMismatch):
        PolyMap(2, 1, [(0, (1, 0, 0), 1.0)])
    with pytest.raises(DimensionMismatch):
        PolyMap(2, 1, [(1, (1, 0), 1.0)])


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(3)
    p = random_map(rng, 3, 3, 4, 15)
    x = rng.normal(size=3) * 0.7
    jac = p.jacobian(x)
    h = 1e-6
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        fd = (p(x + step) - p(x - step)) / (2 * h)
        assert_allclose(jac[:, j], fd, rtol=1e-7, atol=1e-7)


def test_partial_matches_jacobian_column():
    rng = np.random.default_rng(5)
    p = random_map(rng, 2, 2, 3, 10)
    x = rng.normal(size=2)
    for j in range(2):
        assert_allclose(p.partial(j)(x), p.jacobian(x)[:, j],
                        rtol=1e-13, atol=1e-13)


def test_homogeneous_parts_partition_the_map():
    rng = np.random.default_rng(7)
    p = random_map(rng, 2, 2, 4, 14)
    x = rng.normal(size=2)
    total = sum(p.homogeneous_part(d)(x) for d in range(5))
    assert_allclose(total, p(x), rtol=1e-13, atol=1e-14)


def test_component_extracts_single_row():
    f = cubic_rotation()
    row = f.component(1)
    assert row.n_out == 1
    x = np.array([0.3, -0.4])
    assert_allclose(row(x), [f(x)[1]])


def test_substitute_linear_inner_matches_composition():
    rng = np.random.default_rng(13)
    p = random_map(rng, 2, 2, 3, 10)
    M = rng.normal(size=(2, 2))
    inner = PolyMap.linear(M)
    comp = p.substitute(inner)
    for x in rng.normal(size=(8, 2)):
        assert_allclose(comp(x), p(M @ x), rtol=1e-12, atol=1e-12)


def test_substitute_truncation_drops_high_degree():
    # p(u) = u^2 composed with u = x + x^2 is x^2 + 2x^3 + x^4
    p = PolyMap(1, 1, [(0, (2,), 1.0)])
    inner = PolyMap(1, 1, [(0, (1,), 1.0), (0, (2,), 1.0)])
    kept = p.substitute(inner, truncate_at=3)
    assert kept.terms == ((0, (2,), 1.0), (0, (3,), 2.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_drop_trailing_inputs_matches_the_embedding_bitwise(n):
    # substituting x -> (x, 0) multiplies every kept term by exactly 1.0
    p = random_map(np.random.default_rng(31), 4, 3, 4, 30)
    embed = np.zeros((4, n))
    embed[:n, :] = np.eye(n)
    composed = p.substitute(PolyMap.linear(embed, max_degree=p.max_degree))
    dropped = drop_trailing_inputs(p, n)
    assert (dropped.n_in, dropped.n_out, dropped.max_degree) == \
        (composed.n_in, composed.n_out, composed.max_degree)
    assert dropped.terms == composed.terms
    assert 0 < len(dropped.terms) < len(p.terms)


def test_linear_change_round_trip_preserves_map():
    rng = np.random.default_rng(17)
    p = random_map(rng, 3, 3, 3, 12)
    M = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    back = p.linear_change(M).linear_change(np.linalg.inv(M))
    x = rng.normal(size=3)
    assert_allclose(back(x), p(x), rtol=1e-9, atol=1e-9)


def test_linear_change_rejects_near_singular_matrix():
    p = cubic_rotation()
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    with pytest.raises(IllConditionedMatrix):
        p.linear_change(M)


def test_graded_scaled_multiplies_each_degree():
    rng = np.random.default_rng(19)
    p = random_map(rng, 2, 2, 4, 14)
    lam = 0.37
    q = p.graded_scaled(lambda d: lam ** d)
    x = rng.normal(size=2)
    expected = sum(lam ** d * p.homogeneous_part(d)(x) for d in range(5))
    assert_allclose(q(x), expected, rtol=1e-13, atol=1e-14)


def test_graded_scaled_unit_factor_is_exact():
    p = cubic_rotation()
    q = p.graded_scaled(lambda d: 1.0)
    assert q.terms == p.terms


def test_product_matches_pointwise_multiplication():
    rng = np.random.default_rng(23)
    a = random_map(rng, 2, 1, 2, 6)
    b = random_map(rng, 2, 1, 2, 6)
    ab = product(a, b)
    x = rng.normal(size=2)
    assert_allclose(ab(x), a(x) * b(x), rtol=1e-12, atol=1e-12)


def test_stack_and_take_components_invert_each_other():
    f = cubic_rotation()
    parts = [f.component(0), f.component(1)]
    restacked = stack(parts)
    x = np.array([0.2, 0.9])
    assert_allclose(restacked(x), f(x))
    front = take_components(restacked, [0])
    assert_allclose(front(x), [f(x)[0]])


def test_left_matmul_applies_matrix_to_outputs():
    rng = np.random.default_rng(29)
    p = random_map(rng, 2, 3, 2, 9)
    M = rng.normal(size=(3, 3))
    q = left_matmul(M, p)
    x = rng.normal(size=2)
    assert_allclose(q(x), M @ p(x), rtol=1e-12, atol=1e-12)


def test_arithmetic_operators():
    rng = np.random.default_rng(31)
    a = random_map(rng, 2, 2, 3, 8)
    b = random_map(rng, 2, 2, 3, 8)
    x = rng.normal(size=2)
    assert_allclose((a + b)(x), a(x) + b(x), rtol=1e-13, atol=1e-14)
    assert_allclose((a - b)(x), a(x) - b(x), rtol=1e-13, atol=1e-14)
    assert_allclose((-a)(x), -a(x))
    assert_allclose((a * 2.5)(x), 2.5 * a(x), rtol=1e-13)


def test_term_lines_round_trip_exactly():
    rng = np.random.default_rng(37)
    p = random_map(rng, 2, 2, 3, 9)
    rebuilt = []
    for line in p.term_lines():
        fields = line.split()
        rebuilt.append((int(fields[0]) - 1,
                        tuple(int(e) for e in fields[1:-1]),
                        float(fields[-1])))
    q = PolyMap(2, 2, rebuilt)
    assert q.terms == p.terms


def test_max_coefficient_reports_largest_magnitude():
    p = PolyMap(2, 1, [(0, (1, 0), -4.0), (0, (0, 1), 2.0)])
    assert p.max_coefficient() == 4.0
