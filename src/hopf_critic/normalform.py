"""Quadratic normal form and center-manifold reduction near a Hopf point.

Everything here operates on systems already in split coordinates

    dz = Q z + f(z, y),    dy = P y + g(z, y),

with ``Q = [[0, -lam0], [lam0, 0]]`` and ``P`` stable of size ``k = n - 2``.
A planar system is the empty stable block ``k = 0``: ``g`` and ``h2`` have
no outputs, and every function here takes it through its general lines
(two keep an explicit ``k == 0`` return, where numpy or ``stack`` refuses
the empty case).  In the complex
variable ``w = z1 + i z2`` the quadratic part of the critical drift is a
vector ``F+`` on the monomial basis

    [w^2, wbar^2, w*wbar, w*y_1 .. w*y_k, wbar*y_1 .. wbar*y_k]

and the homological (resonance) operator acts on that coefficient space by
the block-diagonal matrix

    L = diag(-i lam0, 3 i lam0, i lam0)  (+)  -P^T  (+)  2 i lam0 Id - P^T,

which is invertible whenever ``lam0 > 0`` and ``P`` is stable.  Solving
``L r = -F+`` and realifying ``r`` yields the quadratic change of variables
``z = z' + p(z', y)`` that removes every z-involving quadratic term from the
drift.  The quadratic center manifold ``y = h2(z)`` then solves the order-2
tangency identity, and substituting it into the cleaned drift gives the
reduced two-dimensional field whose angle-averaged radial cubic coefficient
certifies supercriticality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyfield import (PolyMap, drop_trailing_inputs, product, stack,
                        take_components)


class NormalFormError(Exception):
    """Base error for normal-form computations."""


class NonHomogeneousInput(NormalFormError):
    """An operation expected a homogeneous polynomial of fixed degree."""


class SingularOperator(NormalFormError):
    """A coefficient-space linear solve hit a numerically singular operator."""


@dataclass(frozen=True)
class QuadraticTransform:
    """Coefficients of the quadratic normal-form change of variables.

    Attributes
    ----------
    beta1, beta2, beta12 : complex
        Coefficients on ``w^2``, ``wbar^2``, ``w*wbar``.
    alpha1, alpha2 : ndarray of complex, shape (n-2,)
        Coefficients on ``w*y_j`` and ``wbar*y_j``.
    p_real : PolyMap
        Realified transform: 2 outputs, quadratic, only ``z_i z_j`` and
        ``z_i y_k`` monomials (never ``y_k y_l``).
    """

    beta1: complex
    beta2: complex
    beta12: complex
    alpha1: np.ndarray
    alpha2: np.ndarray
    p_real: PolyMap

    @property
    def coefficients(self):
        """The stacked complex coefficient vector on the quadratic basis."""
        return np.concatenate((
            np.array([self.beta1, self.beta2, self.beta12]),
            self.alpha1, self.alpha2))


def _quadratic_basis_size(k):
    return 3 + 2 * k


def _stable_block(P):
    """``P`` as a float array; a caller's ``[]`` is the empty (0, 0) block."""
    P = np.asarray(P, dtype=float)
    return P.reshape(0, 0) if P.size == 0 else P


def complexify_quadratic(f2):
    """Complex coefficients of a homogeneous quadratic critical-plane field.

    Parameters
    ----------
    f2 : PolyMap
        Two outputs, homogeneous of degree 2 on variables ``(z1, z2, y)``.

    Returns
    -------
    fplus : ndarray of complex
        Coefficients of ``F+ = f1 + i f2`` on the basis
        ``[w^2, wbar^2, w wbar, w y_j, wbar y_j]`` (length 3 + 2(n-2)).
        The y-only quadratic terms are not on the basis and are skipped:
        the quadratic transform cannot remove them.

    Raises
    ------
    NonHomogeneousInput
        If any term of ``f2`` has total degree other than 2.
    """
    if f2.n_out != 2:
        raise NormalFormError("critical-plane field must have 2 outputs")
    if any(sum(exps) != 2 for _, exps, _ in f2.terms):
        raise NonHomogeneousInput("expected a homogeneous quadratic map")
    k = f2.n_in - 2
    fplus = np.zeros(_quadratic_basis_size(k), dtype=complex)
    # z1 = (w + wbar)/2, z2 = (w - wbar)/(2i) = -i/2 (w - wbar)
    z1 = {(1, 0): 0.5, (0, 1): 0.5}
    z2 = {(1, 0): -0.5j, (0, 1): 0.5j}
    for comp, exps, coef in f2.terms:
        e1, e2 = exps[0], exps[1]
        y_exps = exps[2:]
        if e1 + e2 == 0:
            continue
        cz = coef if comp == 0 else 1j * coef
        expansion = {(0, 0): 1.0 + 0.0j}
        for base, count in ((z1, e1), (z2, e2)):
            for _ in range(count):
                nxt = {}
                for (aw, ab), c in expansion.items():
                    for (dw, db), d in base.items():
                        key = (aw + dw, ab + db)
                        nxt[key] = nxt.get(key, 0.0) + c * d
                expansion = nxt
        y_index = next((j for j, e in enumerate(y_exps) if e), None)
        for (aw, ab), c in expansion.items():
            if (aw, ab) == (2, 0):
                idx = 0
            elif (aw, ab) == (0, 2):
                idx = 1
            elif (aw, ab) == (1, 1):
                idx = 2
            elif (aw, ab) == (1, 0):
                idx = 3 + y_index
            else:  # (0, 1)
                idx = 3 + k + y_index
            fplus[idx] += cz * c
    return fplus


def realify_quadratic(coefficients, k, max_degree=4):
    """Real quadratic map whose complexification equals the given vector.

    Inverse of :func:`complexify_quadratic` on the z-involving quadratic
    space: expands ``sum c_idx * basis_idx(w, wbar, y)`` with
    ``w = z1 + i z2`` and splits into real and imaginary components.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (_quadratic_basis_size(k),):
        raise NormalFormError(
            f"expected {_quadratic_basis_size(k)} coefficients")
    n_in = 2 + k

    def mono(e1, e2, y_index=None):
        exps = [0] * n_in
        exps[0], exps[1] = e1, e2
        if y_index is not None:
            exps[2 + y_index] = 1
        return tuple(exps)

    # expansions of the complex basis monomials in (z1, z2, y)
    basis = [
        {mono(2, 0): 1.0, mono(0, 2): -1.0, mono(1, 1): 2.0j},   # w^2
        {mono(2, 0): 1.0, mono(0, 2): -1.0, mono(1, 1): -2.0j},  # wbar^2
        {mono(2, 0): 1.0, mono(0, 2): 1.0},                      # w wbar
    ]
    for j in range(k):
        basis.append({mono(1, 0, j): 1.0, mono(0, 1, j): 1.0j})   # w y_j
    for j in range(k):
        basis.append({mono(1, 0, j): 1.0, mono(0, 1, j): -1.0j})  # wbar y_j
    complex_terms = {}
    for c, expansion in zip(coefficients, basis):
        for exps, base_coef in expansion.items():
            complex_terms[exps] = complex_terms.get(exps, 0.0) + c * base_coef
    terms = []
    for exps, c in complex_terms.items():
        terms.append((0, exps, c.real))
        terms.append((1, exps, c.imag))
    return PolyMap(n_in, 2, terms, max_degree=max_degree)


def build_L(lam0, P):
    """Resonance matrix of the quadratic homological operator.

    Parameters
    ----------
    lam0 : float
        Positive rotation frequency.
    P : array_like, shape (k, k)
        Stable matrix (spectral abscissa < 0); ``k = 0`` is allowed.

    Returns
    -------
    ndarray of complex, shape (3+2k, 3+2k)
        ``diag(-i lam0, 3 i lam0, i lam0)`` followed by the blocks
        ``-P^T`` and ``2 i lam0 Id - P^T`` on the mixed monomials.
    """
    lam0 = float(lam0)
    if lam0 <= 0.0:
        raise NormalFormError("rotation frequency must be positive")
    P = _stable_block(P)
    k = P.shape[0]
    if P.shape != (k, k):
        raise NormalFormError("stable block must be square")
    if np.max(np.linalg.eigvals(P).real, initial=-np.inf) >= 0.0:
        raise NormalFormError("stable block has a non-negative eigenvalue")
    size = _quadratic_basis_size(k)
    L = np.zeros((size, size), dtype=complex)
    L[0, 0] = -1j * lam0
    L[1, 1] = 3j * lam0
    L[2, 2] = 1j * lam0
    L[3:3 + k, 3:3 + k] = -P.T
    L[3 + k:, 3 + k:] = 2j * lam0 * np.eye(k) - P.T
    return L


def solve_quadratic(lam0, P, fplus):
    """Solve the homological equation ``L r = -F+`` and realify the result.

    Returns
    -------
    QuadraticTransform

    Raises
    ------
    SingularOperator
        Defensively, if the resonance matrix is numerically singular
        (condition number >= 1e12) or the solve residual exceeds 1e-10.
    """
    P = _stable_block(P)
    k = P.shape[0]
    fplus = np.asarray(fplus, dtype=complex)
    L = build_L(lam0, P)
    if fplus.shape != (L.shape[0],):
        raise NormalFormError(
            f"expected {L.shape[0]} coefficients, got {fplus.shape}")
    cond = np.linalg.cond(L)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularOperator(f"resonance matrix condition {cond:.3e}")
    r = np.linalg.solve(L, -fplus)
    r -= np.linalg.solve(L, L @ r + fplus)  # one step of iterative refinement
    residual = float(np.max(np.abs(L @ r + fplus)))
    if residual >= 1e-10:
        raise SingularOperator(f"homological solve residual {residual:.3e}")
    p_real = realify_quadratic(r, k)
    round_trip = complexify_quadratic(p_real.homogeneous_part(2))
    if float(np.max(np.abs(round_trip - r))) >= 1e-12:
        raise NormalFormError("realification round-trip residual above 1e-12")
    return QuadraticTransform(
        beta1=complex(r[0]), beta2=complex(r[1]), beta12=complex(r[2]),
        alpha1=r[3:3 + k].copy(), alpha2=r[3 + k:].copy(), p_real=p_real)


def apply_quadratic_transform(f, g, Q, P, transform):
    """Push the split system through ``z = z' + p(z', y)``.

    Parameters
    ----------
    f, g : PolyMap
        Nonlinear drift parts on ``(z, y)`` (2 and n-2 outputs).
    Q, P : array_like
        Linear blocks of the split system.
    transform : QuadraticTransform
        Solution of the homological equation for the quadratic part of f.

    Returns
    -------
    (f_new, g_new) : (PolyMap, PolyMap)
        Drift nonlinearities in the primed variables, truncated at total
        degree 4.  The quadratic part of ``f_new`` contains only y-only
        monomials; ``g_new`` is ``g`` evaluated in the new variables.

    Notes
    -----
    The push-forward is ``(Dphi)^{-1} (V o phi)`` for ``phi = id + (p, 0)``;
    the inverse Jacobian is expanded as a Neumann series, which terminates
    exactly at the degree-4 truncation because ``Dp`` is linear.
    """
    Q = np.asarray(Q, dtype=float)
    P = _stable_block(P)
    k = P.shape[0]
    n = 2 + k
    cap = 4
    if f.n_in != n or f.n_out != 2:
        raise NormalFormError("f must map (z, y) to the critical plane")
    if g.n_in != n or g.n_out != k:
        raise NormalFormError("g must map (z, y) to the stable directions")
    block = np.zeros((n, n))
    block[:2, :2] = Q
    block[2:, 2:] = P
    linear = PolyMap.linear(block, max_degree=cap)
    field = linear + stack([f, g])
    p_tilde = stack([transform.p_real, PolyMap.zero(n, k, max_degree=cap)])
    phi = PolyMap.identity(n, max_degree=cap) + p_tilde
    moved = field.substitute(phi, truncate_at=cap)

    # Neumann series for (I + Dp)^{-1}; entries of Dp have degree <= 1, so
    # powers beyond the third cannot contribute below the truncation degree.
    # Dp, and so every power of it, is zero below its two critical rows:
    # the stable rows of the push-forward are those of ``moved``, and the
    # series runs on the 2 x n critical rows alone.
    zero = PolyMap.zero(n, 1, max_degree=cap)
    one = PolyMap(n, 1, [(0, (0,) * n, 1.0)], max_degree=cap)
    Dp = [[transform.p_real.component(i).partial(j) for j in range(n)]
          for i in range(2)]

    def times_dp(A):
        return [[sum((product(A[i][l], Dp[l][j], truncate_at=cap)
                      for l in range(2)), zero) for j in range(n)]
                for i in range(2)]

    Dp2 = times_dp(Dp)
    Dp3 = times_dp(Dp2)
    inv = [[(one if i == j else zero) - Dp[i][j] + Dp2[i][j] - Dp3[i][j]
            for j in range(n)] for i in range(2)]
    rows = [sum((product(inv[i][j], moved.component(j), truncate_at=cap)
                 for j in range(n)), zero) for i in range(2)]
    pushed = stack(rows + [take_components(moved, range(2, n))])
    remainder = pushed - PolyMap.linear(block, max_degree=cap)
    low = remainder.homogeneous_part(0) + remainder.homogeneous_part(1)
    if low.max_coefficient() >= 1e-10:
        raise NormalFormError(
            f"transform left a linear residue of {low.max_coefficient():.3e}")
    nonlin_terms = [t for t in remainder.terms if sum(t[1]) >= 2]
    nonlin = PolyMap(n, n, nonlin_terms, max_degree=cap)
    f_new = take_components(nonlin, [0, 1])
    g_new = take_components(nonlin, list(range(2, n)))
    return f_new, g_new


def center_manifold_quadratic(Q, P, f, g):
    """Quadratic center manifold ``y = h2(z)`` from the order-2 tangency
    identity.

    Solves ``Dh2(z) Q z - P h2(z) = g2(z, 0)`` exactly in the 3(n-2)
    quadratic coefficients of ``h2`` on the basis ``(z1^2, z1 z2, z2^2)``.

    Returns
    -------
    PolyMap
        ``h2``, mapping ``R^2`` to ``R^{n-2}``; it is purely quadratic, so
        ``h2(0) = 0`` and ``Dh2(0) = 0`` hold exactly.

    Raises
    ------
    SingularOperator
        Defensively; the operator is invertible for ``lam0 > 0`` and stable
        ``P`` because its spectrum is ``spec(S) - spec(P)`` with
        ``spec(S) = {0, +-2 i lam0}`` purely imaginary.
    """
    Q = np.asarray(Q, dtype=float)
    P = _stable_block(P)
    k = P.shape[0]
    lam0 = float(Q[1, 0])
    if k == 0:
        # np.linalg.cond refuses the empty tangency operator
        return PolyMap.zero(2, 0, max_degree=4)
    if g.n_out != k:
        raise NormalFormError("g output count must match the stable block")
    g2_on_plane = drop_trailing_inputs(g.homogeneous_part(2), 2)
    basis = [(2, 0), (1, 1), (0, 2)]
    rhs = np.zeros(3 * k)
    for comp, exps, coef in g2_on_plane.terms:
        rhs[3 * comp + basis.index(exps)] = coef
    # action of z -> Dq(z) Q z on quadratic coefficients (a, b, c)
    S = lam0 * np.array([[0.0, 1.0, 0.0],
                         [-2.0, 0.0, 2.0],
                         [0.0, -1.0, 0.0]])
    M = np.kron(np.eye(k), S) - np.kron(P, np.eye(3))
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularOperator(f"tangency operator condition {cond:.3e}")
    coef = np.linalg.solve(M, rhs)
    coef -= np.linalg.solve(M, M @ coef - rhs)
    residual = float(np.max(np.abs(M @ coef - rhs)))
    if residual >= 1e-10:
        raise SingularOperator(f"tangency solve residual {residual:.3e}")
    terms = []
    for j in range(k):
        for b, exps in enumerate(basis):
            terms.append((j, exps, coef[3 * j + b]))
    return PolyMap(2, k, terms, max_degree=4)


def tangency_residual(Q, P, g, h2):
    """Sup-norm residual of the order-2 tangency identity (diagnostic)."""
    k = h2.n_out
    if k == 0:
        # no rows to stack, and stack of no maps raises
        return 0.0
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    g2 = drop_trailing_inputs(g.homogeneous_part(2), 2)
    # Dh2(z) Q z as a polynomial map
    rot = PolyMap.linear(Q, max_degree=4)
    rows = []
    for j in range(k):
        acc = PolyMap.zero(2, 1, max_degree=4)
        for v in range(2):
            acc = acc + product(h2.component(j).partial(v), rot.component(v),
                                truncate_at=4)
        rows.append(acc)
    lhs = stack(rows) - PolyMap.linear(P, max_degree=4).substitute(
        h2, truncate_at=4)
    return (lhs - g2).max_coefficient()


def invariance_defect(Q, P, f, g, h2, z):
    """Norm of the full invariance defect of ``y = h2(z)`` at a point.

    Evaluates ``Dh2(z)(Qz + f(z, h2(z))) - (P h2(z) + g(z, h2(z)))``; the
    tangency identity makes this O(|z|^3) as z -> 0.
    """
    z = np.asarray(z, dtype=float)
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    y = h2(z)
    point = np.concatenate((z, y))
    dz = Q @ z + f(point)
    dy = P @ y + g(point)
    return float(np.linalg.norm(h2.jacobian(z) @ dz - dy))


def reduced_field(Q, f, h2):
    """Reduced two-dimensional drift on the center manifold.

    Parameters
    ----------
    Q : array_like, shape (2, 2)
    f : PolyMap
        Cleaned critical-plane nonlinearity (quadratic part y-only).
    h2 : PolyMap
        The quadratic center manifold of ``center_manifold_quadratic``.

    Returns
    -------
    PolyMap
        ``z -> Q z + f(z, h2(z))`` truncated at total degree 3.
    """
    Q = np.asarray(Q, dtype=float)
    if f.n_in != 2 + h2.n_out:
        raise NormalFormError("f and h2 disagree on the stable dimension")
    inner = stack([PolyMap.identity(2, max_degree=4), h2])
    composed = f.substitute(inner, truncate_at=3)
    return PolyMap.linear(Q, max_degree=3) + composed


def lyapunov_radial_coefficient(reduced):
    """Angle-averaged radial cubic coefficient of a reduced field.

    The mean of ``u^T cubic(u)`` over the unit circle, in closed form:
    with ``cubic = (sum a_ij z1^i z2^j, sum b_ij z1^i z2^j)`` it is
    ``(3 a30 + a12 + b21 + 3 b03) / 8``, because ``cos^4`` and ``sin^4``
    average to 3/8, ``cos^2 sin^2`` to 1/8 and odd powers to 0.  Negative
    values certify a supercritical (stable-limit-cycle) bifurcation.
    """
    if reduced.n_in != 2 or reduced.n_out != 2:
        raise NormalFormError("reduced field must be planar")
    c = {(comp, exps): coef for comp, exps, coef in reduced.terms}
    return (3.0 * c.get((0, (3, 0)), 0.0) + c.get((0, (1, 2)), 0.0)
            + c.get((1, (2, 1)), 0.0) + 3.0 * c.get((1, (0, 3)), 0.0)) / 8.0
