"""Eigenstructure validation and real block-diagonalization at a Hopf point.

Given the Jacobian ``A`` of a vector field at a critical equilibrium, this
module verifies the spectral picture required for critical-fluctuation
analysis (one simple pure-imaginary conjugate pair, all other eigenvalues
strictly stable) and constructs a real change of basis ``C`` such that

    C^{-1} A C = blockdiag(Q, P),   Q = [[0, -lam0], [lam0, 0]],

with ``P`` the stable block.  The first two columns of ``C`` span the
critical eigenplane and are chosen with equal norms so the rotation block is
exact; the remaining phase freedom is fixed deterministically so that an
already block-diagonal input returns ``C = Id``.

One rule reads the spectrum.  ``eig`` of a real matrix returns every complex
pair as exact conjugates, positive imaginary part first, so two masks
classify the spectrum with no pairing search, and ``_hopf_problem`` is the
one pass/fail test: ``hopf_split`` raises its error, and the report's
``simple_imaginary_pair`` verdict is true exactly when there is none.

The module also hosts the hypothesis report: residual of the critical point,
eigenvalue classification, a finite-difference transversality estimate in the
bifurcation parameter, nondegeneracy of the noise at the origin, and the
supercriticality verdict from the reduced field's radial cubic coefficient,
which the report reads from ``stats.prepare_system``, the one place the
reduction runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import normalform
from .polyfield import (COND_LIMIT, PolyMap, drop_trailing_inputs,
                        left_matmul, take_components)

# Numerical thresholds for the spectral classification and the hypothesis
# report.  Real parts within IMAG_TOL of zero count as pure imaginary;
# every other eigenvalue needs a real part below -STABLE_TOL.  The drift at
# the origin may have norm up to CRIT_TOL.  Transversality is the central
# difference of Re(lambda) in the parameter with step TRANS_H, true when
# its magnitude exceeds TRANS_TOL.  cond(C) must stay below
# polyfield.COND_LIMIT, the bound every linear change of variables obeys.
IMAG_TOL = 1e-9
STABLE_TOL = 1e-9
CRIT_TOL = 1e-9
TRANS_H = 1e-4
TRANS_TOL = 1e-6


class SpectralError(Exception):
    """Base error for spectral decomposition failures."""


class NoCriticalPair(SpectralError):
    """No pure-imaginary conjugate eigenvalue pair was found."""


class MultipleCriticalPairs(SpectralError):
    """More than one eigenvalue pair sits on the imaginary axis."""


class UnstableResidualSpectrum(SpectralError):
    """An eigenvalue outside the critical pair is not strictly stable."""


class IllConditioned(SpectralError):
    """The change-of-basis matrix is too ill-conditioned to trust."""


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """Real block-diagonalizing basis at a Hopf point.

    Attributes
    ----------
    C, C_inv : ndarray, shape (n, n)
        Change of basis and its inverse, ``x = C (z, y)``.
    lam0 : float
        Positive rotation frequency of the critical block.
    P : ndarray, shape (n-2, n-2)
        Stable block (spectral abscissa < 0).
    n : int
        Ambient dimension.
    """

    C: np.ndarray
    C_inv: np.ndarray
    lam0: float
    P: np.ndarray
    n: int

    @property
    def Q(self):
        """The exact rotation block [[0, -lam0], [lam0, 0]]."""
        return np.array([[0.0, -self.lam0], [self.lam0, 0.0]])

    def block_matrix(self):
        """blockdiag(Q, P) as a dense (n, n) array."""
        out = np.zeros((self.n, self.n))
        out[:2, :2] = self.Q
        out[2:, 2:] = self.P
        return out


@dataclass
class HypothesisReport:
    """Numerical verdicts for the standing structural hypotheses.

    verdicts keys: ``smooth_drift``, ``critical_point``,
    ``simple_imaginary_pair``, ``transversality``, ``smooth_sigma``,
    ``sigma_nonzero_at_origin``, ``supercritical``.  A verdict is None when
    it could not be assessed: transversality without a bifurcation
    parameter, supercriticality when the eigenvalue structure already
    failed or ``stats.prepare_system`` cannot reduce the system.  A margin
    is None (JSON null) when there is no eigenvalue to measure.
    """

    n: int
    critical_point_residual: float
    eigenvalues: tuple
    lam0: float | None
    transversality: float
    sigma_nonzero: float
    radial_cubic_coefficient: float | None
    verdicts: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)

    def as_record(self):
        """Flat key/value record for text or JSON emission."""
        rec = {
            "n": self.n,
            "critical_point_residual": self.critical_point_residual,
            "lam0": self.lam0,
            "transversality": self.transversality,
            "sigma_nonzero": self.sigma_nonzero,
            "radial_cubic_coefficient": self.radial_cubic_coefficient,
            "eigenvalues_real": [z.real for z in self.eigenvalues],
            "eigenvalues_imag": [z.imag for z in self.eigenvalues],
        }
        for key, val in self.verdicts.items():
            rec[f"verdict_{key}"] = val
        for key, val in self.margins.items():
            rec[f"margin_{key}"] = val
        return rec


def _classify_spectrum(eigenvalues):
    """Split a spectrum into (critical indices, other indices).

    On the axis means ``|Re| < IMAG_TOL`` and ``|Im| > IMAG_TOL``; both
    members of an exact conjugate pair fall on the same side.  The critical
    indices are the on-axis members with ``Im > 0``, one per pair; the
    others are every eigenvalue off the axis.
    """
    w = np.asarray(eigenvalues)
    on_axis = (np.abs(w.real) < IMAG_TOL) & (np.abs(w.imag) > IMAG_TOL)
    return (np.flatnonzero(on_axis & (w.imag > 0)).tolist(),
            np.flatnonzero(~on_axis).tolist())


def _hopf_problem(w, crit, others):
    """The spectrum error that rules out a Hopf split, or None.

    The one pass/fail rule: exactly one critical pair, and every other
    eigenvalue with real part below ``-STABLE_TOL``.  ``hopf_split`` raises
    what this returns; ``check_hypotheses`` reports whether it is None.
    """
    if not crit:
        return NoCriticalPair("no eigenvalue pair on the imaginary axis")
    if len(crit) > 1:
        return MultipleCriticalPairs(
            f"{len(crit)} eigenvalue pairs on the imaginary axis")
    bad = [w[i] for i in others if w[i].real >= -STABLE_TOL]
    if bad:
        return UnstableResidualSpectrum(
            f"non-stable residual eigenvalues: {bad}")
    return None


def _balanced_phase(a, b):
    """Phase angle making ||Re(e^{i phi} v)|| equal ||Im(e^{i phi} v)||.

    A pair already balanced (``d`` and ``s`` both rounding noise) is
    balanced by every phase; it gets 0, where ``arctan2`` of the noise
    would give an arbitrary angle.
    """
    aa, bb, s = float(a @ a), float(b @ b), float(a @ b)
    d = aa - bb
    if max(abs(d), abs(s)) <= 1e-12 * (aa + bb):
        return 0.0
    return 0.5 * np.arctan2(d, 2.0 * s)


def _critical_columns(v):
    """Columns (b', a') spanning the critical plane with an exact rotation block.

    For ``A v = i lam0 v`` and ``v = a + i b``, the real basis (b, a) carries
    the action [[0, -lam0], [lam0, 0]].  Any complex phase on v preserves
    that; the two-step convention here balances the column norms (so a common
    normalization keeps the block exact) and then picks, out of the four
    quarter-turn candidates, the one with the most positive diagonal at the
    two highest-leverage rows.  Block-diagonal input then yields C = Id.
    """
    a0, b0 = v.real.copy(), v.imag.copy()
    phi0 = _balanced_phase(a0, b0)
    leverage = a0 * a0 + b0 * b0  # phase invariant
    r1 = int(np.argmax(leverage))
    masked = leverage.copy()
    masked[r1] = -np.inf
    r2 = int(np.argmax(masked))
    if r1 > r2:
        r1, r2 = r2, r1
    best = None
    best_score = -np.inf
    for k in range(4):
        phi = phi0 + 0.5 * np.pi * k
        a = a0 * np.cos(phi) - b0 * np.sin(phi)
        b = b0 * np.cos(phi) + a0 * np.sin(phi)
        scale = np.linalg.norm(a)
        if scale == 0.0:
            continue
        a, b = a / scale, b / scale
        score = b[r1] + a[r2]
        if score > best_score + 1e-12:
            best_score = score
            best = (b, a)
    return best


def _stable_columns(eigenvalues, vectors, indices):
    """Real basis columns for the stable invariant subspace.

    ``eig`` of a real matrix returns a complex pair as exact conjugates,
    the ``Im > 0`` member first, with conjugate eigenvector columns.  That
    member gives the two columns (Re, Im) of its balanced-phase vector, its
    conjugate gives none, and a real eigenvalue gives one column.
    """
    cols = []
    for i in indices:
        lam = eigenvalues[i]
        v = vectors[:, i]
        if lam.imag > 1e-12:
            phi = _balanced_phase(v.real, v.imag)
            a = v.real * np.cos(phi) - v.imag * np.sin(phi)
            b = v.imag * np.cos(phi) + v.real * np.sin(phi)
            scale = max(np.linalg.norm(a), np.linalg.norm(b))
            a, b = a / scale, b / scale
            lead = int(np.argmax(np.abs(a)))
            if a[lead] < 0:
                a, b = -a, -b
            cols.extend([a, b])
        elif lam.imag >= -1e-12:
            theta = np.angle(v[int(np.argmax(np.abs(v)))])
            u = (v * np.exp(-1j * theta)).real
            u = u / np.linalg.norm(u)
            lead = int(np.argmax(np.abs(u)))
            if u[lead] < 0:
                u = -u
            cols.append(u)
    return cols


def hopf_split(A):
    """Construct the real block-diagonalizing basis at a Hopf point.

    Parameters
    ----------
    A : array_like, shape (n, n)
        Real matrix with exactly one simple pure-imaginary conjugate pair
        and n-2 strictly stable eigenvalues.

    Returns
    -------
    SpectralSplit

    Raises
    ------
    NoCriticalPair, MultipleCriticalPairs, UnstableResidualSpectrum,
    IllConditioned
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or n < 2:
        raise SpectralError("square matrix of size >= 2 required")
    w, V = np.linalg.eig(A)
    crit, others = _classify_spectrum(w)
    problem = _hopf_problem(w, crit, others)
    if problem is not None:
        raise problem
    lam0 = float(w[crit[0]].imag)
    col_b, col_a = _critical_columns(V[:, crit[0]])
    cols = [col_b, col_a] + _stable_columns(w, V, others)
    C = np.column_stack(cols)
    cond = np.linalg.cond(C)
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise IllConditioned(f"cond(C) = {cond:.3e}")
    C_inv = np.linalg.solve(C, np.eye(n))
    if np.max(np.abs(C @ C_inv - np.eye(n))) >= 1e-10:
        raise IllConditioned("inverse residual above 1e-10")
    M = C_inv @ A @ C
    P = M[2:, 2:].copy()
    Q = np.array([[0.0, -lam0], [lam0, 0.0]])
    off = max(
        np.max(np.abs(M[:2, :2] - Q)),
        np.max(np.abs(M[:2, 2:]), initial=0.0),
        np.max(np.abs(M[2:, :2]), initial=0.0),
    )
    if off >= 1e-9:
        raise IllConditioned(f"block-diagonalization residual {off:.3e}")
    return SpectralSplit(C=C, C_inv=C_inv, lam0=lam0, P=P, n=n)


def freeze_parameter(p):
    """Evaluate a map's last input variable at zero and drop it.

    Turns a drift on (x, mu) into the critical-parameter drift on x alone.
    """
    if p.n_in < 2:
        raise SpectralError("map has no state variables besides the parameter")
    return drop_trailing_inputs(p, p.n_in - 1)


def transform_system(drift, sigma, split):
    """Move a system into the (z, y) coordinates of a spectral split.

    Parameters
    ----------
    drift : PolyMap
        Vector field on ``R^n`` (no parameter variable) with a critical
        point at the origin.
    sigma : PolyMap
        Diffusion matrix as a map ``R^n -> R^{n*m}`` (row-major).
    split : SpectralSplit

    Returns
    -------
    (f, g, sigma_q, sigma_p)
        ``f``: nonlinear part of the critical-plane drift (2 outputs);
        ``g``: nonlinear part of the stable drift (n-2 outputs);
        ``sigma_q``: top two rows of ``C^{-1} sigma(C u)`` (2*m outputs);
        ``sigma_p``: remaining rows ((n-2)*m outputs).

    Notes
    -----
    The transformed drift decomposes as ``(Q z + f, P y + g)``; the constant
    and linear residues beyond ``blockdiag(Q, P)`` must vanish below 1e-10
    and are then dropped exactly.
    """
    n = split.n
    if drift.n_in != n or drift.n_out != n:
        raise SpectralError(
            f"drift must map R^{n} to itself, got {drift.n_in}->{drift.n_out}")
    if sigma.n_in != n or sigma.n_out % n:
        raise SpectralError(
            "sigma must have n inputs and n*m outputs")
    m = sigma.n_out // n
    moved = drift.linear_change(split.C)
    const = moved.homogeneous_part(0)
    lin = moved.homogeneous_part(1)
    lin_matrix = lin.jacobian(np.zeros(n))
    residual = max(const.max_coefficient(),
                   float(np.max(np.abs(lin_matrix - split.block_matrix()))))
    if residual >= 1e-10:
        raise SpectralError(
            f"linear part deviates from blockdiag(Q, P) by {residual:.3e}")
    nonlin_terms = [t for t in moved.terms if sum(t[1]) >= 2]
    nonlin = PolyMap(n, n, nonlin_terms, max_degree=moved.max_degree)
    f = take_components(nonlin, [0, 1])
    g = take_components(nonlin, list(range(2, n)))
    inner = PolyMap.linear(split.C, max_degree=sigma.max_degree)
    sigma_moved = left_matmul(split.C_inv,
                              sigma.substitute(inner, truncate_at=sigma.max_degree),
                              cols=m)
    sigma_q = take_components(sigma_moved, list(range(2 * m)))
    sigma_p = take_components(sigma_moved, list(range(2 * m, n * m)))
    return f, g, sigma_q, sigma_p


def _tracked_real_shift(A_of_mu, lam_ref, h):
    """Central difference of Re(lambda(mu)) for the eigenvalue tracked from lam_ref."""
    vals = []
    for mu in (h, -h):
        w = np.linalg.eigvals(A_of_mu(mu))
        vals.append(w[int(np.argmin(np.abs(w - lam_ref)))])
    return (vals[0].real - vals[1].real) / (2.0 * h)


def check_hypotheses(drift, sigma):
    """Numerically audit the structural hypotheses of the critical system.

    Parameters
    ----------
    drift : PolyMap
        Either n inputs (parameter-free) or n+1 inputs with the bifurcation
        parameter as the last variable; n outputs either way.
    sigma : PolyMap
        Noise matrix on the state alone (``n`` inputs, ``n*m`` outputs).

    Returns
    -------
    HypothesisReport
        Verdicts for smoothness (trivially true for polynomial data), the
        critical point, the eigenvalue structure, transversality in the
        parameter, noise nondegeneracy at the origin, and supercriticality
        via the radial cubic coefficient that ``stats.prepare_system``
        derives (None when the system cannot be reduced).
    """
    n = drift.n_out
    if drift.n_in == n:
        has_mu = False
        drift_crit = drift
    elif drift.n_in == n + 1:
        has_mu = True
        drift_crit = freeze_parameter(drift)
    else:
        raise SpectralError(
            f"drift with {drift.n_in} inputs cannot match {n} outputs")
    if sigma.n_in != n or sigma.n_out % n:
        raise SpectralError("sigma must have n inputs and n*m outputs")

    origin = np.zeros(n)
    residual = float(np.linalg.norm(drift_crit(origin)))
    A0 = drift_crit.jacobian(origin)
    eigenvalues = np.linalg.eigvals(A0)
    crit, others = _classify_spectrum(eigenvalues)
    structure_ok = _hopf_problem(eigenvalues, crit, others) is None
    lam0 = float(eigenvalues[crit[0]].imag) if len(crit) == 1 else None

    transversality = 0.0
    if has_mu and lam0 is not None:
        def A_of_mu(mu):
            point = np.zeros(n + 1)
            point[n] = mu
            return drift.jacobian(point)[:, :n]

        transversality = float(
            _tracked_real_shift(A_of_mu, 1j * lam0, TRANS_H))

    sigma_nonzero = float(np.linalg.norm(sigma(origin)))

    radial = None
    supercritical = None
    if structure_ok:
        # stats imports this module, so it is looked up here, not on load
        from . import stats
        try:
            prepared = stats.prepare_system(drift_crit, sigma)
            radial = float(prepared.limit.a)
            supercritical = bool(radial < 0.0)
        except (SpectralError, normalform.NormalFormError, stats.StatsError):
            pass

    report = HypothesisReport(
        n=n,
        critical_point_residual=residual,
        eigenvalues=tuple(complex(z) for z in eigenvalues),
        lam0=lam0,
        transversality=transversality,
        sigma_nonzero=sigma_nonzero,
        radial_cubic_coefficient=radial,
        verdicts={
            "smooth_drift": True,
            "critical_point": bool(residual < CRIT_TOL),
            "simple_imaginary_pair": bool(structure_ok),
            "transversality": (bool(abs(transversality) > TRANS_TOL)
                               if has_mu else None),
            "smooth_sigma": True,
            "sigma_nonzero_at_origin": bool(sigma_nonzero > 0.0),
            "supercritical": supercritical,
        },
        margins={
            "critical_pair_real_part": (
                float(max(abs(eigenvalues[i].real) for i in crit))
                if crit else None),
            "stable_real_part": (
                float(max(eigenvalues[i].real for i in others))
                if others else None),
        },
    )
    return report
