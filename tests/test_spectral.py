"""Spectral splitting, coordinate transforms, and hypothesis auditing."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic.polyfield import PolyMap
from hopf_critic.spectral import (
    MultipleCriticalPairs,
    NoCriticalPair,
    UnstableResidualSpectrum,
    check_hypotheses,
    freeze_parameter,
    hopf_split,
    transform_system,
)


def all_satisfied(report):
    """True when no verdict of a HypothesisReport is false; unassessed
    verdicts do not fail."""
    return all(v is not False for v in report.verdicts.values())


def rotation_block(lam0):
    return np.array([[0.0, -lam0], [lam0, 0.0]])


def random_stable(rng, k):
    # strictly stable matrix: random shift pushed left of the imaginary axis
    A = rng.normal(size=(k, k))
    radius = max(abs(np.linalg.eigvals(A).real).max(), 1.0)
    return A - (radius + 0.5) * np.eye(k)


def conjugated_system(rng, lam0, k):
    n = k + 2
    block = np.zeros((n, n))
    block[:2, :2] = rotation_block(lam0)
    block[2:, 2:] = random_stable(rng, k)
    M = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
    return M @ block @ np.linalg.inv(M), block


def test_split_recovers_rotation_rate_and_blocks():
    rng = np.random.default_rng(0)
    for _ in range(25):
        lam0 = float(rng.uniform(0.2, 8.0))
        k = int(rng.integers(1, 5))
        A, _ = conjugated_system(rng, lam0, k)
        split = hopf_split(A)
        assert abs(split.lam0 - lam0) < 1e-8 * max(1.0, lam0)
        recovered = split.C_inv @ A @ split.C
        assert_allclose(recovered, split.block_matrix(), atol=1e-9)
        assert np.all(np.linalg.eigvals(split.P).real < 0)


def test_split_planar_rotation_uses_identity_like_basis():
    split = hopf_split(rotation_block(3.0))
    assert split.n == 2
    assert split.P.shape == (0, 0)
    assert_allclose(split.Q, rotation_block(3.0), atol=1e-12)
    # a rotation is already balanced at every rate: its coordinates are
    # kept, not turned by the phase arctan2 reads off rounding noise
    for lam0 in (0.5, 2.0, 3.0, 7.0):
        assert_allclose(hopf_split(rotation_block(lam0)).C, np.eye(2),
                        atol=1e-12)


def test_split_rejects_spectrum_without_imaginary_pair():
    A = np.diag([-1.0, -2.0, -3.0])
    with pytest.raises(NoCriticalPair):
        hopf_split(A)


def test_split_rejects_two_imaginary_pairs():
    A = np.zeros((4, 4))
    A[:2, :2] = rotation_block(1.0)
    A[2:, 2:] = rotation_block(2.0)
    with pytest.raises(MultipleCriticalPairs):
        hopf_split(A)


def test_split_rejects_unstable_residual_mode():
    A = np.zeros((3, 3))
    A[:2, :2] = rotation_block(1.0)
    A[2, 2] = 0.5
    with pytest.raises(UnstableResidualSpectrum):
        hopf_split(A)


DAMPED = np.array([[-0.5, -2.0], [2.0, -0.5]])


def blockdiag(*blocks):
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def test_real_eig_returns_exact_conjugate_pairs():
    # the spectral split classifies with no partner search because eig of
    # a real matrix returns each complex pair as exact conjugates, the
    # Im > 0 member first, with conjugate eigenvector columns
    rng = np.random.default_rng(3)
    matrices = [rng.normal(size=(n, n)) for n in range(2, 9) for _ in range(20)]
    for copies in (2, 3):
        repeated = blockdiag(rotation_block(1.0), *[DAMPED] * copies)
        M = rng.normal(size=repeated.shape) + 2.0 * np.eye(len(repeated))
        matrices += [repeated, M @ repeated @ np.linalg.inv(M)]
    pairs = 0
    for A in matrices:
        w, V = np.linalg.eig(A)
        for vals in (w, np.linalg.eigvals(A)):
            j = 0
            while j < len(vals):
                if vals[j].imag == 0.0:
                    j += 1
                    continue
                assert vals[j].imag > 0.0
                assert (np.conj(vals[j:j + 1]).tobytes()
                        == vals[j + 1:j + 2].tobytes())
                if vals is w:
                    assert np.conj(V[:, j]).tobytes() == V[:, j + 1].tobytes()
                    pairs += 1
                j += 2
    assert pairs > len(matrices)


def test_split_recovers_a_repeated_stable_rotation():
    # two equal stable pairs: each Im > 0 member gives its two columns
    block = blockdiag(rotation_block(1.5), DAMPED, DAMPED)
    rng = np.random.default_rng(4)
    systems = [block]
    for _ in range(10):
        M = rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
        systems.append(M @ block @ np.linalg.inv(M))
    for A in systems:
        split = hopf_split(A)
        assert abs(split.lam0 - 1.5) < 1e-12
        assert_allclose(split.C_inv @ A @ split.C, split.block_matrix(),
                        atol=1e-9)
        stable = np.linalg.eigvals(split.P)
        assert_allclose(stable.real, -0.5, atol=1e-7)
        assert_allclose(np.sort(stable.imag), [-2.0, -2.0, 2.0, 2.0],
                        atol=1e-7)


def spectrum_cases():
    rng = np.random.default_rng(5)
    return {
        "no-pair": (np.diag([-1.0, -2.0, -3.0]), False),
        "two-pairs": (blockdiag(rotation_block(1.0), rotation_block(2.0)),
                      False),
        "unstable-residual": (blockdiag(rotation_block(1.0), [[0.5]]), False),
        "zero-eigenvalue": (blockdiag(rotation_block(1.0), [[0.0]]), False),
        "generic": (conjugated_system(rng, 1.3, 3)[0], True),
    }


@pytest.mark.parametrize("case", sorted(spectrum_cases()))
def test_check_pair_verdict_is_hopf_split_passing(case):
    # check's simple_imaginary_pair verdict and hopf_split's spectrum
    # errors are one rule
    A, fits = spectrum_cases()[case]
    n = len(A)
    sigma = PolyMap(n, n * n, [(i * (n + 1), (0,) * n, 1.0) for i in range(n)])
    report = check_hypotheses(PolyMap.linear(A), sigma)
    try:
        hopf_split(A)
        passed = True
    except (NoCriticalPair, MultipleCriticalPairs, UnstableResidualSpectrum):
        passed = False
    assert passed is fits
    assert report.verdicts["simple_imaginary_pair"] is passed


def coupled3d():
    drift = PolyMap(3, 3, [
        (0, (0, 1, 0), -1.0), (0, (3, 0, 0), -1.0), (0, (1, 2, 0), -1.0),
        (1, (1, 0, 0), 1.0), (1, (2, 1, 0), -1.0), (1, (0, 3, 0), -1.0),
        (2, (0, 0, 1), -1.0), (2, (2, 0, 0), 1.0)])
    sigma = PolyMap(3, 9, [
        (0, (0, 0, 0), 1.0), (0, (0, 0, 1), 1.0),
        (4, (0, 0, 0), 1.0), (8, (0, 0, 0), 1.0)])
    return drift, sigma


def test_transform_system_reproduces_block_split_fields():
    drift, sigma = coupled3d()
    split = hopf_split(drift.jacobian(np.zeros(3)))
    f, g, sigma_q, sigma_p = transform_system(drift, sigma, split)
    assert f.n_out == 2 and g.n_out == 1
    assert sigma_q.n_out == 6 and sigma_p.n_out == 3
    # the system is already block-split, so the nonlinear parts must match
    rng = np.random.default_rng(1)
    for x in rng.normal(size=(6, 3)) * 0.5:
        full = drift(x)
        recovered = np.concatenate([split.Q @ x[:2] + f(x),
                                    split.P @ x[2:] + g(x)])
        assert_allclose(recovered, full, rtol=1e-9, atol=1e-10)


def test_transform_system_conjugates_sigma_rows():
    drift, sigma = coupled3d()
    rng = np.random.default_rng(2)
    M = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    Minv = np.linalg.inv(M)
    drift_x = drift.linear_change(Minv)
    # sigma transforms by row mixing only: sigma_x(x) = M sigma(M^-1 x)
    from hopf_critic.polyfield import left_matmul
    sigma_x = left_matmul(M, sigma.substitute(PolyMap.linear(Minv)), cols=3)
    split = hopf_split(drift_x.jacobian(np.zeros(3)))
    f, g, sigma_q, sigma_p = transform_system(drift_x, sigma_x, split)
    for u in rng.normal(size=(5, 3)) * 0.4:
        expected = split.C_inv @ sigma_x(split.C @ u).reshape(3, 3)
        assert_allclose(sigma_q(u).reshape(2, 3), expected[:2],
                        rtol=1e-8, atol=1e-9)
        assert_allclose(sigma_p(u).reshape(1, 3), expected[2:],
                        rtol=1e-8, atol=1e-9)


def test_freeze_parameter_drops_trailing_variable():
    p = PolyMap(3, 2, [(0, (1, 0, 0), 2.0), (0, (1, 0, 1), 5.0),
                       (1, (0, 1, 2), 3.0)])
    frozen = freeze_parameter(p)
    assert frozen.n_in == 2
    # terms with positive parameter exponent vanish at mu = 0
    assert frozen.terms == ((0, (1, 0), 2.0),)


def test_check_hypotheses_passes_supercritical_system():
    drift, sigma = coupled3d()
    report = check_hypotheses(drift, sigma)
    assert report.verdicts["critical_point"] is True
    assert report.verdicts["simple_imaginary_pair"] is True
    assert report.verdicts["sigma_nonzero_at_origin"] is True
    assert report.verdicts["supercritical"] is True
    assert report.verdicts["transversality"] is None
    assert all_satisfied(report)
    assert abs(report.lam0 - 1.0) < 1e-12
    assert abs(report.radial_cubic_coefficient + 1.0) < 1e-9


def test_check_hypotheses_assesses_transversality_with_parameter():
    # dx1 = mu x1 - x2 + cubic, dx2 = x1 + mu x2 + cubic: dRe(lam)/dmu = 1
    drift = PolyMap(3, 2, [
        (0, (1, 0, 1), 1.0), (0, (0, 1, 0), -1.0),
        (0, (3, 0, 0), -1.0), (0, (1, 2, 0), -1.0),
        (1, (1, 0, 0), 1.0), (1, (0, 1, 1), 1.0),
        (1, (2, 1, 0), -1.0), (1, (0, 3, 0), -1.0)])
    sigma = PolyMap(2, 4, [(0, (0, 0), 1.0), (3, (0, 0), 1.0)])
    report = check_hypotheses(drift, sigma)
    assert report.verdicts["transversality"] is True
    assert abs(report.transversality - 1.0) < 1e-4
    assert report.verdicts["supercritical"] is True


def test_check_hypotheses_flags_subcritical_cubic():
    drift = PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), 1.0), (0, (1, 2), 1.0),
        (1, (1, 0), 1.0), (1, (2, 1), 1.0), (1, (0, 3), 1.0)])
    sigma = PolyMap(2, 4, [(0, (0, 0), 1.0), (3, (0, 0), 1.0)])
    report = check_hypotheses(drift, sigma)
    assert report.verdicts["supercritical"] is False
    assert report.radial_cubic_coefficient > 0
    assert not all_satisfied(report)


def test_check_hypotheses_flags_moved_critical_point():
    drift = PolyMap(2, 2, [
        (0, (0, 0), 0.3), (0, (0, 1), -1.0),
        (1, (1, 0), 1.0)])
    sigma = PolyMap(2, 4, [(0, (0, 0), 1.0), (3, (0, 0), 1.0)])
    report = check_hypotheses(drift, sigma)
    assert report.verdicts["critical_point"] is False
    # the reduction refuses a moved critical point, so no coefficient
    assert report.radial_cubic_coefficient is None
    assert report.verdicts["supercritical"] is None
