"""Sparse multivariate polynomial vector fields with exact composition arithmetic.

This module is the coefficient-level foundation of the package: drifts,
diffusion matrices, coordinate changes, and manifold parametrizations are all
represented as :class:`PolyMap`, a sparse polynomial map from ``R^n_in`` to
``R^n_out`` with a hard total-degree cap.  All operations (evaluation,
differentiation, composition, linear conjugation) are carried out exactly in
double precision on the coefficients; composition truncates at a requested
total degree so the algebra of degree-capped jets is closed.

Conventions
-----------
* A term is a triple ``(component, exponents, coefficient)`` where
  ``component`` is the 0-based output index and ``exponents`` is a tuple of
  nonnegative integers of length ``n_in``.
* Terms are kept in a canonical order (component, then total degree, then
  graded-lexicographic on the exponent vector) so that serialized output is
  stable.
* Duplicate ``(component, exponents)`` pairs are merged on construction and
  coefficients smaller than ``COEF_TOL`` in magnitude are dropped.

PolyMap values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import numpy as np

COEF_TOL = 1e-15
COND_LIMIT = 1e8


class PolyFieldError(Exception):
    """Base error for polynomial-map operations."""


class DimensionMismatch(PolyFieldError):
    """An argument has a shape incompatible with the map's dimensions."""


class IllConditionedMatrix(PolyFieldError):
    """A change-of-variables matrix is singular or nearly singular."""


def _term_key(term):
    comp, exps, _ = term
    return (comp, sum(exps), tuple(-e for e in exps))


class PolyMap:
    """Sparse polynomial map ``R^n_in -> R^n_out`` with total degree <= max_degree.

    Parameters
    ----------
    n_in : int
        Number of input variables (>= 1).
    n_out : int
        Number of output components (>= 0).
    terms : iterable of (int, sequence of int, float)
        Terms as ``(component, exponents, coefficient)``.  Duplicates are
        merged; coefficients below ``COEF_TOL`` in magnitude are dropped.
    max_degree : int, optional
        Total-degree cap.  Constructing a term above the cap raises
        ``ValueError``.

    Notes
    -----
    Instances are immutable: every operation returns a new PolyMap.
    """

    __slots__ = ("n_in", "n_out", "max_degree", "terms")

    def __init__(self, n_in, n_out, terms, max_degree=4):
        n_in = int(n_in)
        n_out = int(n_out)
        max_degree = int(max_degree)
        if n_in < 1:
            raise DimensionMismatch("n_in must be at least 1")
        if n_out < 0:
            raise DimensionMismatch("n_out must be nonnegative")
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        acc = {}
        for comp, exps, coef in terms:
            comp = int(comp)
            exps = tuple(int(e) for e in exps)
            if not 0 <= comp < n_out:
                raise DimensionMismatch(
                    f"component index {comp} outside [0, {n_out})")
            if len(exps) != n_in:
                raise DimensionMismatch(
                    f"exponent vector of length {len(exps)}, expected {n_in}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if sum(exps) > max_degree:
                raise ValueError(
                    f"term degree {sum(exps)} exceeds cap {max_degree}")
            key = (comp, exps)
            acc[key] = acc.get(key, 0.0) + float(coef)
        kept = [(c, e, v) for (c, e), v in acc.items() if abs(v) >= COEF_TOL]
        kept.sort(key=_term_key)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "terms", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMap is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n_in, n_out, max_degree=4):
        """The zero map."""
        return cls(n_in, n_out, [], max_degree=max_degree)

    @classmethod
    def linear(cls, matrix, max_degree=4):
        """The linear map ``x -> M x`` for a matrix of shape (n_out, n_in)."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        n_out, n_in = matrix.shape
        terms = []
        for i in range(n_out):
            for j in range(n_in):
                if matrix[i, j] != 0.0:
                    exps = [0] * n_in
                    exps[j] = 1
                    terms.append((i, exps, matrix[i, j]))
        return cls(n_in, n_out, terms, max_degree=max_degree)

    @classmethod
    def identity(cls, n, max_degree=4):
        """The identity map on ``R^n``."""
        return cls.linear(np.eye(n), max_degree=max_degree)

    # ------------------------------------------------------------------
    # evaluation and differentiation
    # ------------------------------------------------------------------

    def evaluate(self, x):
        """Evaluate the map at a point.

        Parameters
        ----------
        x : array_like, shape (n_in,)

        Returns
        -------
        ndarray, shape (n_out,)
            Monomial-sum evaluation; the value at the zero vector is exactly
            the vector of degree-0 coefficients.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_in,):
            raise DimensionMismatch(
                f"point of shape {x.shape}, expected ({self.n_in},)")
        return self.evaluate_batch(x[None])[0]

    __call__ = evaluate

    def evaluate_batch(self, points):
        """Evaluate at many points at once.

        Parameters
        ----------
        points : array_like, shape (npoints, n_in)

        Returns
        -------
        ndarray, shape (npoints, n_out)
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n_in:
            raise DimensionMismatch(
                f"points of shape {pts.shape}, expected (*, {self.n_in})")
        out = np.zeros((pts.shape[0], self.n_out))
        for comp, exps, coef in self.terms:
            v = np.full(pts.shape[0], coef)
            for j, e in enumerate(exps):
                if e:
                    v = v * pts[:, j] ** e
            out[:, comp] += v
        return out

    def jacobian(self, x):
        """Exact Jacobian matrix at a point.

        Column ``j`` is ``partial(j)`` evaluated at ``x``, so the Jacobian
        goes through the same monomial evaluator as the map itself.

        Returns
        -------
        ndarray, shape (n_out, n_in)
        """
        return np.stack([self.partial(j).evaluate(x)
                         for j in range(self.n_in)], axis=1)

    def partial(self, var):
        """Symbolic partial derivative with respect to input variable ``var``."""
        if not 0 <= var < self.n_in:
            raise DimensionMismatch(f"variable index {var} outside [0, {self.n_in})")
        terms = []
        for comp, exps, coef in self.terms:
            e = exps[var]
            if e:
                lowered = list(exps)
                lowered[var] = e - 1
                terms.append((comp, lowered, coef * e))
        return PolyMap(self.n_in, self.n_out, terms, max_degree=self.max_degree)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def homogeneous_part(self, degree):
        """The terms of exact total degree ``degree`` as a new map."""
        if not 0 <= degree <= self.max_degree:
            raise ValueError(
                f"degree {degree} outside [0, {self.max_degree}]")
        terms = [t for t in self.terms if sum(t[1]) == degree]
        return PolyMap(self.n_in, self.n_out, terms, max_degree=self.max_degree)

    def component(self, index):
        """A single output component as a scalar-valued map."""
        if not 0 <= index < self.n_out:
            raise DimensionMismatch(f"component {index} outside [0, {self.n_out})")
        terms = [(0, exps, coef) for comp, exps, coef in self.terms
                 if comp == index]
        return PolyMap(self.n_in, 1, terms, max_degree=self.max_degree)

    def substitute(self, inner, truncate_at=None):
        """Composition ``self o inner`` with total-degree truncation.

        Parameters
        ----------
        inner : PolyMap
            Must satisfy ``inner.n_out == self.n_in``.
        truncate_at : int, optional
            Total-degree cap of the result; monomials above it are discarded.
            Defaults to ``self.max_degree``.

        Returns
        -------
        PolyMap
            Map on ``inner.n_in`` variables with ``max_degree=truncate_at``.
        """
        if not isinstance(inner, PolyMap):
            raise DimensionMismatch("inner must be a PolyMap")
        if inner.n_out != self.n_in:
            raise DimensionMismatch(
                f"inner has {inner.n_out} outputs, expected {self.n_in}")
        cap = self.max_degree if truncate_at is None else int(truncate_at)
        nv = inner.n_in
        zero_key = (0,) * nv
        inner_dicts = [dict() for _ in range(inner.n_out)]
        for comp, exps, coef in inner.terms:
            inner_dicts[comp][exps] = inner_dicts[comp].get(exps, 0.0) + coef
        pow_cache = {}

        def power(var, k):
            key = (var, k)
            if key not in pow_cache:
                if k == 0:
                    pow_cache[key] = {zero_key: 1.0}
                else:
                    pow_cache[key] = _dict_mul(power(var, k - 1),
                                               inner_dicts[var], cap)
            return pow_cache[key]

        terms = []
        for comp, exps, coef in self.terms:
            cur = {zero_key: coef}
            for var, e in enumerate(exps):
                if e:
                    cur = _dict_mul(cur, power(var, e), cap)
                if not cur:
                    break
            for mono, c in cur.items():
                terms.append((comp, mono, c))
        return PolyMap(nv, self.n_out, terms, max_degree=cap)

    def linear_change(self, matrix):
        """Conjugation by an invertible matrix: ``u -> C^{-1} self(C u)``.

        Parameters
        ----------
        matrix : array_like, shape (n, n)
            Must be square with ``n == n_in == n_out`` and condition number
            below 1e8.

        Raises
        ------
        IllConditionedMatrix
            If the matrix is singular or has condition number >= 1e8.
        """
        C = np.asarray(matrix, dtype=float)
        if C.shape != (self.n_in, self.n_in) or self.n_out != self.n_in:
            raise DimensionMismatch(
                "linear_change needs a square matrix matching a square map")
        cond = np.linalg.cond(C)
        if not np.isfinite(cond) or cond >= COND_LIMIT:
            raise IllConditionedMatrix(
                f"condition number {cond:.3e} at or above {COND_LIMIT:.0e}")
        inner = PolyMap.linear(C, max_degree=self.max_degree)
        composed = self.substitute(inner, truncate_at=self.max_degree)
        C_inv = np.linalg.solve(C, np.eye(self.n_in))
        return left_matmul(C_inv, composed)

    def graded_scaled(self, factor):
        """Scale every term by ``factor(total_degree)``.

        Used for exact power-of-epsilon rescalings: the factor is computed
        once per degree so degree classes that should scale by exactly 1.0
        do so bitwise.
        """
        cache = {}
        terms = []
        for comp, exps, coef in self.terms:
            d = sum(exps)
            if d not in cache:
                cache[d] = float(factor(d))
            terms.append((comp, exps, coef * cache[d]))
        return PolyMap(self.n_in, self.n_out, terms, max_degree=self.max_degree)

    def max_coefficient(self):
        """Largest coefficient magnitude (0.0 for the zero map)."""
        return max((abs(c) for _, _, c in self.terms), default=0.0)

    def term_lines(self):
        """Canonical text form: one ``component exponents coefficient`` line
        per term, with 1-based component indices (the config-file grammar)."""
        lines = []
        for comp, exps, coef in self.terms:
            fields = [str(comp + 1)] + [str(e) for e in exps] + ["%.17g" % coef]
            lines.append(" ".join(fields))
        return lines

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def _require_same_shape(self, other):
        if not isinstance(other, PolyMap):
            raise DimensionMismatch("expected a PolyMap")
        if (other.n_in, other.n_out) != (self.n_in, self.n_out):
            raise DimensionMismatch("shape mismatch")

    def __add__(self, other):
        self._require_same_shape(other)
        cap = max(self.max_degree, other.max_degree)
        return PolyMap(self.n_in, self.n_out,
                       list(self.terms) + list(other.terms), max_degree=cap)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, scalar):
        scalar = float(scalar)
        terms = [(c, e, v * scalar) for c, e, v in self.terms]
        return PolyMap(self.n_in, self.n_out, terms, max_degree=self.max_degree)

    __rmul__ = __mul__

    def __repr__(self):
        return (f"PolyMap(n_in={self.n_in}, n_out={self.n_out}, "
                f"terms={len(self.terms)}, max_degree={self.max_degree})")


def _dict_mul(a, b, cap):
    """Product of two monomial dictionaries, discarding degrees above cap."""
    out = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def product(p, q, truncate_at=None):
    """Product of two scalar-valued maps (both ``n_out == 1``).

    The result is truncated at ``truncate_at`` (default: the larger of the
    two operand degree caps).
    """
    if p.n_out != 1 or q.n_out != 1:
        raise DimensionMismatch("product requires scalar-valued maps")
    if p.n_in != q.n_in:
        raise DimensionMismatch("operands differ in n_in")
    cap = max(p.max_degree, q.max_degree) if truncate_at is None else int(truncate_at)
    a = {exps: coef for _, exps, coef in p.terms}
    b = {exps: coef for _, exps, coef in q.terms}
    terms = [(0, exps, coef) for exps, coef in _dict_mul(a, b, cap).items()]
    return PolyMap(p.n_in, 1, terms, max_degree=cap)


def stack(maps):
    """Stack maps with a common domain along the output axis."""
    maps = list(maps)
    if not maps:
        raise DimensionMismatch("stack of no maps")
    n_in = maps[0].n_in
    if any(m.n_in != n_in for m in maps):
        raise DimensionMismatch("stacked maps differ in n_in")
    cap = max(m.max_degree for m in maps)
    terms = []
    offset = 0
    for m in maps:
        for comp, exps, coef in m.terms:
            terms.append((comp + offset, exps, coef))
        offset += m.n_out
    return PolyMap(n_in, offset, terms, max_degree=cap)


def take_components(p, indices):
    """Select and reorder output components."""
    indices = list(indices)
    pos = {}
    for new, old in enumerate(indices):
        if not 0 <= old < p.n_out:
            raise DimensionMismatch(f"component {old} outside [0, {p.n_out})")
        pos.setdefault(old, []).append(new)
    terms = []
    for comp, exps, coef in p.terms:
        for new in pos.get(comp, ()):
            terms.append((new, exps, coef))
    return PolyMap(p.n_in, len(indices), terms, max_degree=p.max_degree)


def drop_trailing_inputs(p, n):
    """Set every input after the first ``n`` to zero and drop it.

    Keeps the terms whose trailing exponents are all zero: the same map,
    bit for bit, as substituting the embedding ``x -> (x, 0)``.
    """
    terms = [(comp, exps[:n], coef) for comp, exps, coef in p.terms
             if not any(exps[n:])]
    return PolyMap(n, p.n_out, terms, max_degree=p.max_degree)


def left_matmul(matrix, p, cols=1):
    """Row-mix a map's outputs by a constant matrix.

    The outputs of ``p`` are read as a row-major ``(rows, cols)`` block with
    ``rows = p.n_out // cols``; the result has components
    ``out[i, j] = sum_l matrix[i, l] * p[l, j]``.
    """
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    cols = int(cols)
    if cols < 1 or p.n_out % cols:
        raise DimensionMismatch("cols must divide n_out")
    rows = p.n_out // cols
    if M.shape[1] != rows:
        raise DimensionMismatch(
            f"matrix has {M.shape[1]} columns, expected {rows}")
    terms = []
    for comp, exps, coef in p.terms:
        l, j = divmod(comp, cols)
        for i in range(M.shape[0]):
            if M[i, l] != 0.0:
                terms.append((i * cols + j, exps, M[i, l] * coef))
    return PolyMap(p.n_in, M.shape[0] * cols, terms, max_degree=p.max_degree)
