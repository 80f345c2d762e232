"""Averaged limit coefficients, sample distances, and the two studies.

The averaged drift and diffusion are the closed forms obtained by
integrating the phase out of the radial dynamics with a constant
critical-plane diffusion block: with the reduced field's radial cubic
coefficient ``a`` (``LimitParams.a``) and row statistics
``S1 = sum_j sigma_bar[0,j]^2``, ``S2 = sum_j sigma_bar[1,j]^2`` and
``S12 = sum_j sigma_bar[0,j] sigma_bar[1,j]``,

    b(eta, phi) = (1/eta) [ a eta^4 + S1 sin^2(phi)/2 + S2 cos^2(phi)/2
                            - S12 sin(phi) cos(phi) ]
    w(phi)      = S1 cos^2(phi) + S2 sin^2(phi) + 2 S12 sin(phi) cos(phi)

whose uniform phase averages are ``bbar(eta) = (a eta^4 + (S1+S2)/4)/eta``
and ``s^2 = (S1+S2)/2``.  Both pre-averaged profiles are exposed so the
closed forms can be cross-checked by quadrature.

``convergence_study`` measures the distance between the radial marginals
of the amplified system and the limiting diffusion across an eps sweep;
``reduction_diagnostics`` couples the full and reduced simulations on one
Brownian path per index and measures the center-manifold defect U and the
planar approximation error Phi up to the first exit from a Delta-ball.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _text, normalform, sde
from ._kernels import STOP_NONE, sum_squares
from .polyfield import PolyMap
from .spectral import CRIT_TOL, hopf_split, transform_system

QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
# Positions of the stationary check's analytic quantiles computed at once.
_QUANTILE_SLICE = 1 << 16
# Rows of a trajectory CSV formatted at a time.
_SLAB_ROWS = 2048


class StatsError(Exception):
    """Invalid study setup or unusable inputs."""


class NonTrivialQuadratic(StatsError):
    """Reduction diagnostics need a drift with no mixed quadratic terms."""


def _fmt(value):
    return format(float(value), ".17g")


@dataclass(frozen=True)
class AveragedDrift:
    """Callable averaged radial drift with its phase-dependent profile.

    ``a`` is the radial cubic coefficient, the drift's ``a eta^3``.
    """

    a: float
    sigma1_sq: float
    sigma2_sq: float
    sigma12: float

    @property
    def constant(self):
        return (self.sigma1_sq + self.sigma2_sq) / 4.0

    def __call__(self, eta):
        eta = np.asarray(eta, dtype=float)
        if np.any(eta <= 0.0):
            raise ValueError("averaged drift is defined for positive radius")
        value = (self.a * eta ** 4 + self.constant) / eta
        return float(value) if value.ndim == 0 else value

    def pre_average(self, eta, phi):
        """Phase-dependent radial drift b(eta, phi) before averaging."""
        eta = np.asarray(eta, dtype=float)
        if np.any(eta <= 0.0):
            raise ValueError("radius must be positive")
        phi = np.asarray(phi, dtype=float)
        sin, cos = np.sin(phi), np.cos(phi)
        value = (self.a * eta ** 4 + 0.5 * self.sigma1_sq * sin * sin
                 + 0.5 * self.sigma2_sq * cos * cos
                 - self.sigma12 * sin * cos) / eta
        return float(value) if value.ndim == 0 else value


def averaged_drift(params):
    """Averaged radial drift of the limit diffusion for given coefficients."""
    return AveragedDrift(a=params.a, sigma1_sq=params.sigma1_sq,
                         sigma2_sq=params.sigma2_sq,
                         sigma12=params.sigma12)


def averaged_diffusion(params):
    """Squared diffusion of the limit: the phase average of w(phi)."""
    return (params.sigma1_sq + params.sigma2_sq) / 2.0


def noise_profile(params, phi):
    """Squared radial noise coefficient w(phi) at unit radius."""
    phi = np.asarray(phi, dtype=float)
    sin, cos = np.sin(phi), np.cos(phi)
    value = (params.sigma1_sq * cos * cos + params.sigma2_sq * sin * sin
             + 2.0 * params.sigma12 * sin * cos)
    return float(value) if value.ndim == 0 else value


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise StatsError("sample sets must be nonempty")
    pooled = np.concatenate((a, b))
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def wasserstein1(a, b, seed=0):
    """Mean absolute difference of sorted samples (1D optimal coupling).

    Unequal sizes are reconciled by deterministically subsampling the
    larger set without replacement, keyed by ``seed`` in [0, 2**64).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise StatsError("sample sets must be nonempty")
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise StatsError("seed must lie in [0, 2**64)")
    if a.size != b.size:
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed, 0x5731], np.uint64)))
        if a.size > b.size:
            a = a[gen.permutation(a.size)[:b.size]]
        else:
            b = b[gen.permutation(b.size)[:a.size]]
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


@dataclass(frozen=True, eq=False)
class PreparedSystem:
    """Every derived object a study needs, computed once from (drift, sigma)."""

    split: object
    f: PolyMap
    g: PolyMap
    sigma_q: PolyMap
    sigma_p: PolyMap
    transform: object
    h2: PolyMap
    reduced: PolyMap
    limit: sde.LimitParams


def prepare_system(drift, sigma):
    """Run the full reduction pipeline on a polynomial system.

    Splits the linearization, removes mixed quadratic drift terms, builds
    the quadratic center manifold and the reduced planar field, and reads
    off the limit coefficients: ``a`` from the reduced field's cubic, the
    rest from the critical diffusion block at the origin.
    """
    n = drift.n_in
    if drift.n_out != n:
        raise StatsError("drift must map R^n to itself")
    if sigma.n_in != n or sigma.n_out % n:
        raise StatsError("sigma must have n inputs and n*m outputs")
    m = sigma.n_out // n
    origin_residual = float(np.linalg.norm(drift(np.zeros(n))))
    if origin_residual > CRIT_TOL:
        raise StatsError(
            f"origin is not a critical point (|drift(0)| = {origin_residual:.3e})")
    split = hopf_split(drift.jacobian(np.zeros(n)))
    f, g, sigma_q, sigma_p = transform_system(drift, sigma, split)
    fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
    transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
    f_clean, g_clean = normalform.apply_quadratic_transform(
        f, g, split.Q, split.P, transform)
    h2 = normalform.center_manifold_quadratic(
        split.Q, split.P, f_clean, g_clean)
    reduced = normalform.reduced_field(split.Q, f_clean, h2)
    sigma_bar = sigma_q(np.zeros(n)).reshape(2, m)
    limit = sde.LimitParams(
        sigma_bar, a=normalform.lyapunov_radial_coefficient(reduced))
    return PreparedSystem(
        split=split, f=f, g=g, sigma_q=sigma_q, sigma_p=sigma_p,
        transform=transform, h2=h2, reduced=reduced, limit=limit)


def _quantiles(samples):
    values = np.quantile(np.asarray(samples, dtype=float), QUANTILE_LEVELS)
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class CheckpointStats:
    checkpoint: float
    ks: float
    w1: float
    quantiles: tuple
    ks_refined: float = None
    w1_refined: float = None


@dataclass(frozen=True)
class EpsilonRow:
    epsilon: float
    stopped_fraction: float
    n_survivors: int
    cells: tuple


@dataclass(frozen=True)
class ConvergenceReport:
    """Distances between amplified and limiting radial marginals per eps."""

    epsilons: tuple
    checkpoints: tuple
    dt: float
    n_paths: int
    delta: float
    nmax: float
    rho0: float
    master_seed: int
    rows: tuple
    limit_quantiles: tuple
    verdicts: dict

    def as_record(self):
        return {
            "epsilons": list(self.epsilons),
            "checkpoints": list(self.checkpoints),
            "dt": self.dt, "n_paths": self.n_paths, "delta": self.delta,
            "nmax": self.nmax, "rho0": self.rho0,
            "master_seed": self.master_seed,
            "rows": [{
                "epsilon": row.epsilon,
                "stopped_fraction": row.stopped_fraction,
                "n_survivors": row.n_survivors,
                "cells": [{
                    "checkpoint": c.checkpoint, "ks": c.ks, "w1": c.w1,
                    "quantiles": {str(l): v for l, v in
                                  zip(QUANTILE_LEVELS, c.quantiles)},
                    "ks_refined": c.ks_refined, "w1_refined": c.w1_refined,
                } for c in row.cells],
            } for row in self.rows],
            "limit_quantiles": [
                {str(l): v for l, v in zip(QUANTILE_LEVELS, q)}
                for q in self.limit_quantiles],
            "verdicts": self.verdicts,
        }


def _checkpoint_indices(checkpoints, dt, n_steps):
    indices = []
    for c in checkpoints:
        idx = int(round(c / dt))
        if not 1 <= idx <= n_steps or abs(idx * dt - c) > 1e-9 * max(1.0, c):
            raise StatsError(f"checkpoint {c} is not on the dt={dt} grid")
        indices.append(idx)
    return indices


class AnnulusFold:
    """A ``sde.run_coupled`` fold for the annulus test and the checkpoints.

    Folds each time block, read as the kernel's coordinate planes, into,
    per task and path, the least and greatest planar squared radius
    ``r2 = x0*x0 + x1*x1`` over every grid point folded and the planar
    radius ``sqrt(r2)`` at the grid indices ``keep[i]`` (in any order; an
    index no block reaches reads NaN).
    """

    def __init__(self, keep, paths):
        self.keep = [np.asarray(rows, dtype=np.int64) for rows in keep]
        self.radii = [np.full((paths, len(rows)), np.nan)
                      for rows in self.keep]
        self.r2_min = np.full((len(keep), paths), np.inf)
        self.r2_max = np.full((len(keep), paths), -np.inf)

    def __call__(self, at, blocks):
        for i, block in enumerate(blocks):
            x = block.states
            r2 = x[0] * x[0] + x[1] * x[1]
            np.minimum(self.r2_min[i, at], r2.min(axis=0),
                       out=self.r2_min[i, at])
            np.maximum(self.r2_max[i, at], r2.max(axis=0),
                       out=self.r2_max[i, at])
            cols = self.keep[i] - block.first
            here = np.flatnonzero((cols >= 0) & (cols < len(r2)))
            if here.size:
                self.radii[i][at, here] = np.sqrt(r2[cols[here]]).T

    def survivors(self, stop_code, delta, nmax):
        """Per task ``(alive, radii)``: the mask (paths,) of paths that
        never stopped and whose planar radius stayed inside the open
        annulus ``(delta, nmax)``, and their radii (len(keep[i]),
        survivors).  This is ``polar_ensemble``'s per-point test on the
        extremes, exact because ``sqrt`` is monotone."""
        out = []
        for i, radii in enumerate(self.radii):
            alive = (stop_code[i] == STOP_NONE) \
                & (np.sqrt(self.r2_min[i]) > delta) \
                & (np.sqrt(self.r2_max[i]) < nmax)
            out.append((alive, radii[alive].T))
        return out


def convergence_study(system, epsilons, checkpoints, paths, dt,
                      delta=0.05, nmax=10.0, rho0=1.0, master_seed=0,
                      workers=None, refine=False):
    """Compare amplified radial marginals against the limit across eps.

    For each eps the amplified split system is simulated from radius
    ``rho0``, and ``AnnulusFold`` reads its planar radius against the
    annulus barriers ``(delta, nmax)``; the limit diffusion, with the
    system's radial cubic coefficient ``system.limit.a``, is simulated
    once from the same radius under the same barriers.  KS and W1
    distances are taken at each checkpoint between never-stopped paths of
    both ensembles; stopped fractions are reported separately.  With
    ``refine=True`` the whole comparison is repeated at half the step on
    the same Brownian paths, reporting the shift of each distance.  The
    verdict ``ks_strictly_decreasing`` maps each checkpoint to whether KS
    falls strictly as eps falls; with a single eps there is no order to
    test and every checkpoint maps to None.
    """
    epsilons = tuple(float(e) for e in epsilons)
    checkpoints = tuple(float(c) for c in checkpoints)
    if not epsilons or any(not 0.0 < e < 1.0 for e in epsilons):
        raise StatsError("eps values must lie in (0, 1)")
    if not checkpoints or any(c <= 0.0 for c in checkpoints):
        raise StatsError("checkpoints must be positive")
    if int(paths) < 2:
        raise StatsError("need at least two paths")
    if not delta < rho0 < nmax:
        raise StatsError("rho0 must lie strictly inside the annulus")
    if system.limit.a >= 0.0:
        raise StatsError("system is not supercritical")
    if system.limit.s <= 0.0:
        raise StatsError("limit diffusion vanishes; nothing to compare")
    paths = int(paths)
    T = max(checkpoints)
    indices = _checkpoint_indices(checkpoints, dt, int(round(T / dt)))
    split = system.split
    k = split.P.shape[0]
    z0 = (rho0, 0.0)
    y0 = np.zeros(k)

    def observe(tasks):
        # One draw of noise per chunk serves every task of a stream class.
        # A refined task reaches each checkpoint in twice the steps.
        fold = AnnulusFold([[2 * i for i in indices] if t.refined
                            else indices for t in tasks], paths)
        stop_code = sde.run_coupled(tasks, paths, master_seed, fold,
                                    workers)[1]
        return fold.survivors(stop_code, delta, nmax)

    steps = [(dt, False)] + ([(dt / 2.0, True)] if refine else [])
    limit = observe([sde.limit_task(system.limit, rho0, h, T, refined=r)
                     for h, r in steps])
    limit_radii = limit[0][1]
    limit_quantiles = tuple(_quantiles(radii) for radii in limit_radii)
    critical = observe([sde.rescaled_task(
        system.f, system.g, system.sigma_q, system.sigma_p, split.Q,
        split.P, eps, z0, y0, h, T, refined=r)
        for eps in epsilons for h, r in steps])

    rows = []
    for e, eps in enumerate(epsilons):
        alive, radii = critical[e * len(steps)]
        if refine:
            fine_radii = critical[e * len(steps) + 1][1]
            fine_limit_radii = limit[1][1]
        cells = []
        for j, c in enumerate(checkpoints):
            samples = radii[j]
            limit_samples = limit_radii[j]
            if samples.size == 0 or limit_samples.size == 0:
                raise StatsError(
                    f"no surviving paths at eps={eps}, checkpoint={c}")
            ks = ks_distance(samples, limit_samples)
            w1 = wasserstein1(samples, limit_samples, seed=master_seed)
            ks_ref = w1_ref = None
            if refine:
                fine, fine_limit = fine_radii[j], fine_limit_radii[j]
                ks_ref = ks_distance(fine, fine_limit)
                w1_ref = wasserstein1(fine, fine_limit, seed=master_seed)
            cells.append(CheckpointStats(
                checkpoint=c, ks=ks, w1=w1, quantiles=_quantiles(samples),
                ks_refined=ks_ref, w1_refined=w1_ref))
        rows.append(EpsilonRow(
            epsilon=eps, stopped_fraction=float(1.0 - alive.mean()),
            n_survivors=int(alive.sum()), cells=tuple(cells)))

    order = np.argsort(epsilons)[::-1]
    monotone = {}
    for j, c in enumerate(checkpoints):
        seq = [rows[i].cells[j].ks for i in order]
        monotone[str(c)] = None if len(seq) < 2 else bool(
            all(seq[i] > seq[i + 1] for i in range(len(seq) - 1)))
    verdicts = {
        "reliable": bool(all(r.stopped_fraction <= 0.5 for r in rows)),
        "ks_strictly_decreasing": monotone,
    }
    if refine:
        shifts = [abs(c.ks - c.ks_refined) for r in rows for c in r.cells]
        verdicts["max_ks_refinement_shift"] = float(max(shifts))
    return ConvergenceReport(
        epsilons=epsilons, checkpoints=checkpoints, dt=float(dt),
        n_paths=paths, delta=float(delta), nmax=float(nmax),
        rho0=float(rho0), master_seed=int(master_seed), rows=tuple(rows),
        limit_quantiles=limit_quantiles, verdicts=verdicts)


@dataclass(frozen=True)
class ReductionRow:
    epsilon: float
    u_median: float
    u_p90: float
    phi_median: float
    phi_p90: float
    excluded_fraction: float
    ball_exit_fraction: float


@dataclass(frozen=True)
class ReductionReport:
    """Center-manifold and planar approximation errors across eps."""

    epsilons: tuple
    big_delta: float
    beta: float
    dt: float
    n_paths: int
    horizon: float
    rows: tuple
    q_fit: float
    gamma_fit: float

    def as_record(self):
        """JSON record; an undefined median or fit (NaN) is None (null)."""
        def defined(value):
            return value if math.isfinite(value) else None

        return {
            "epsilons": list(self.epsilons), "Delta": self.big_delta,
            "beta": self.beta, "dt": self.dt, "n_paths": self.n_paths,
            "horizon": self.horizon,
            "rows": [{key: defined(value)
                      for key, value in asdict(row).items()}
                     for row in self.rows],
            "q_fit": defined(self.q_fit), "gamma_fit": defined(self.gamma_fit),
        }


def _fit_slope(epsilons, values):
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals) & (vals > 0.0)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(eps[keep]), np.log(vals[keep]), 1)[0])


def reduction_diagnostics(system, epsilons, big_delta, beta, paths, dt,
                          horizon=1.0, z0=(1.0, 0.0), master_seed=0,
                          workers=None):
    """Coupled full-versus-reduced error diagnostics across eps.

    Requires a system already free of mixed quadratic drift terms, so the
    simulated coordinates agree with the normal-form coordinates.  Per
    path the full and reduced simulations share one Brownian path; the
    manifold defect ``U = Y - eps^{1/4} h2(Z)`` is measured over
    ``[eps^beta, horizon]`` and the planar gap ``Phi = Z - Z_reduced``
    over ``[0, horizon]``, both truncated at the first exit of either
    process from the Delta-ball.  Paths whose exit precedes ``eps^beta``
    are excluded from the U statistics and counted.  Every eps runs in one
    ``sde.run_coupled`` call that keeps no states: each time block is
    folded into a few running numbers per path and eps as it is stepped.
    """
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons or any(not 0.0 < e < 1.0 for e in epsilons):
        raise StatsError("eps values must lie in (0, 1)")
    if big_delta <= 0.0:
        raise StatsError("Delta must be positive")
    if not 0.0 < beta < 0.5:
        raise StatsError("beta must lie in (0, 1/2)")
    paths = int(paths)
    if paths < 1:
        raise StatsError("need at least one path")
    for comp, exps, coef in system.f.homogeneous_part(2).terms:
        if exps[0] + exps[1] > 0 and abs(coef) > 1e-9:
            raise NonTrivialQuadratic(
                "drift has mixed quadratic terms; supply the system in "
                "normal-form coordinates")
    split = system.split
    k = split.P.shape[0]
    h2 = system.h2
    z0 = np.asarray(z0, dtype=float).reshape(2)
    # the stable coordinates start at zero, so |z0| is the state's norm
    if math.hypot(*z0) >= big_delta:
        raise StatsError("initial state must start inside the Delta-ball")
    # The full runs of every eps share one kernel loop per chunk, and so do
    # the reduced runs.
    tasks = [task for eps in epsilons for task in (
        sde.rescaled_task(system.f, system.g, system.sigma_q, system.sigma_p,
                          split.Q, split.P, eps, z0, np.zeros(k), dt,
                          horizon),
        sde.reduced_task(system.reduced, system.sigma_q, h2, eps, z0, dt,
                         horizon))]
    n_steps = tasks[0].n_steps
    i_beta = [int(math.ceil(eps ** beta / dt - 1e-12)) for eps in epsilons]
    # Per eps and path, over the grid points folded so far: the first exit
    # of either run from the Delta-ball or its stop (n_steps + 1 for none),
    # the sup of |Phi| over [0, max(exit, 1)) and of |U| over
    # [i_beta, exit).  An exit is final once seen, and max is exact, so
    # block by block these are the sups over the whole run.
    exit_idx = np.full((len(epsilons), paths), n_steps + 1, dtype=np.int64)
    sup_phi = np.full((len(epsilons), paths), -np.inf)
    sup_u = np.full((len(epsilons), paths), -np.inf)

    def fold(at, blocks):
        for e, eps in enumerate(epsilons):
            full, reduced = blocks[2 * e], blocks[2 * e + 1]
            X, Zt = full.states, reduced.states
            cols = full.first + np.arange(X.shape[1])[:, None]
            # the manifold at every state, one point a row of its planar
            # coordinates, as (k, steps + 1, paths) planes
            hv = h2.evaluate_batch(X[:2].reshape(2, -1).T).T.reshape(
                k, *X.shape[1:])
            U = X[2:] - (eps ** 0.25) * hv
            norm_u = np.sqrt(sum_squares(U))
            norm_phi = np.sqrt(sum_squares(X[:2] - Zt))
            outside = (np.sqrt(sum_squares(X)) >= big_delta) \
                | (np.sqrt(sum_squares(Zt)) >= big_delta)
            hit = np.where(outside.any(axis=0),
                           cols[outside.argmax(axis=0), 0], n_steps + 1)
            for run in (full, reduced):
                hit = np.minimum(hit, np.where(run.stop_code != STOP_NONE,
                                               run.stop_index, n_steps + 1))
            np.minimum(exit_idx[e, at], hit, out=exit_idx[e, at])
            stop = exit_idx[e, at]
            np.maximum(sup_phi[e, at], np.max(
                norm_phi, axis=0, initial=-np.inf,
                where=cols < np.maximum(stop, 1)), out=sup_phi[e, at])
            np.maximum(sup_u[e, at], np.max(
                norm_u, axis=0, initial=-np.inf,
                where=(cols >= i_beta[e]) & (cols < stop)), out=sup_u[e, at])

    sde.run_coupled(tasks, paths, master_seed, fold, workers)
    rows = []
    for e, eps in enumerate(epsilons):
        included = i_beta[e] < exit_idx[e]
        if included.any():
            u_median = float(np.quantile(sup_u[e, included], 0.5))
            u_p90 = float(np.quantile(sup_u[e, included], 0.9))
        else:
            u_median = u_p90 = float("nan")
        rows.append(ReductionRow(
            epsilon=eps, u_median=u_median, u_p90=u_p90,
            phi_median=float(np.quantile(sup_phi[e], 0.5)),
            phi_p90=float(np.quantile(sup_phi[e], 0.9)),
            excluded_fraction=float(1.0 - included.mean()),
            ball_exit_fraction=float((exit_idx[e] <= n_steps).mean())))
    q_fit = _fit_slope(epsilons, [r.u_median for r in rows])
    gamma_fit = _fit_slope(epsilons, [r.phi_median for r in rows])
    return ReductionReport(
        epsilons=epsilons, big_delta=float(big_delta), beta=float(beta),
        dt=float(dt), n_paths=paths, horizon=float(horizon),
        rows=tuple(rows), q_fit=q_fit, gamma_fit=gamma_fit)


@dataclass(frozen=True)
class StationaryReport:
    """Distance of pooled long-run radii from the analytic invariant law."""

    w1: float
    n_samples: int
    s: float
    normalizer: float
    eta_max: float
    horizon: float
    burn_in: float
    dt: float
    n_paths: int

    def as_record(self):
        return asdict(self)


def stationary_check(params, T, burn_in, dt, paths, rho0=1.0,
                     master_seed=0, workers=None):
    """Compare pooled post-burn-in radii against the invariant density.

    The invariant law of the limit diffusion has density proportional to
    ``eta * exp(a eta^4 / (2 s^2))`` with ``a = params.a < 0``; its
    normalizer and quantiles are computed by a 10^4-point trapezoid rule
    and compared to the pooled samples through the one-dimensional W1
    distance.
    """
    if params.s <= 0.0:
        raise StatsError("stationary comparison needs a positive diffusion")
    if params.a >= 0.0:
        raise StatsError("stationary comparison needs an attracting cubic "
                         "(a < 0)")
    if burn_in < 0.0 or burn_in >= T:
        raise StatsError("need 0 <= burn_in < T")
    task = sde.limit_task(params, rho0, dt, T)
    start = int(math.floor(burn_in / dt + 1e-9)) + 1
    # Each path's radius at grid indices start on, folded block by block.
    rho = np.empty((max(int(paths), 0), max(task.n_steps + 1 - start, 0)))

    def fold(at, blocks):
        block = blocks[0]
        cut = max(start - block.first, 0)
        # the coordinate planes (steps, paths) from grid index start on
        x = block.states[:, cut:]
        begin = block.first + cut - start
        rho[at, begin:begin + x.shape[1]] = np.sqrt(x[0] * x[0]
                                                    + x[1] * x[1]).T

    stop_code = sde.run_coupled([task], paths, master_seed, fold,
                                workers)[1][0]
    samples = rho[stop_code == STOP_NONE].ravel()
    # the fold holds rho too; only the samples stay
    del rho, fold
    if samples.size == 0:
        raise StatsError("no samples after burn-in")
    s_sq = params.s * params.s
    # the density has fallen by exp(-60) at the second bound
    eta_max = max(float(samples.max()) * 1.0001,
                  (120.0 * s_sq / -params.a) ** 0.25)
    grid = np.linspace(0.0, eta_max, 10_000)
    density = grid * np.exp(params.a * grid ** 4 / (2.0 * s_sq))
    steps = np.diff(grid)
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * steps)))
    normalizer = float(cdf[-1])
    cdf /= normalizer
    # Beside the samples, sorted in place, one buffer holds the analytic
    # quantiles, filled a slice of positions at a time, and then the
    # distances; one mean over all of it keeps numpy's pairwise sum.
    samples.sort()
    analytic = np.empty_like(samples)
    for lo in range(0, samples.size, _QUANTILE_SLICE):
        hi = min(lo + _QUANTILE_SLICE, samples.size)
        positions = (np.arange(lo, hi) + 0.5) / samples.size
        analytic[lo:hi] = np.interp(positions, cdf, grid)
    np.subtract(samples, analytic, out=analytic)
    w1 = float(np.mean(np.abs(analytic, out=analytic)))
    return StationaryReport(
        w1=w1, n_samples=int(samples.size), s=float(params.s),
        normalizer=normalizer, eta_max=eta_max, horizon=float(T),
        burn_in=float(burn_in), dt=float(dt), n_paths=int(paths))


def _write_csv(path, header, rows):
    """Write ``header`` and one line of ``%.17g`` fields per row."""
    lines = [header] + [",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_convergence_csv(report, path):
    """Study CSV: epsilon,checkpoint,ks,w1,stopped_fraction,n_paths,dt."""
    _write_csv(path, "epsilon,checkpoint,ks,w1,stopped_fraction,n_paths,dt",
               ((row.epsilon, cell.checkpoint, cell.ks, cell.w1,
                 row.stopped_fraction, report.n_paths, report.dt)
                for row in report.rows for cell in row.cells))


def write_reduction_csv(report, path):
    """Diagnostics CSV, one row per eps."""
    _write_csv(path, "epsilon,u_median,u_p90,phi_median,phi_p90,"
                     "excluded_fraction,ball_exit_fraction,n_paths,dt",
               ((row.epsilon, row.u_median, row.u_p90, row.phi_median,
                 row.phi_p90, row.excluded_fraction, row.ball_exit_fraction,
                 report.n_paths, report.dt) for row in report.rows))


def write_trajectory_csv(ensemble, path, columns):
    """Trajectory CSV: path,t,<state columns>,stopped.

    Rows are written in slabs of ``_SLAB_ROWS``, so the scratch memory
    depends on neither paths nor steps.  Every field of a slab goes into
    one character buffer with a mask of its valid characters, which one
    boolean index compresses into the slab's bytes; floats are the exact
    ``%.17g`` text of ``_text.fields``, as ``_fmt`` prints them.
    """
    n_paths, n_times, dim = ensemble.states.shape
    if len(columns) != dim:
        raise StatsError("column names must match the state dimension")
    times, times_valid = _text.fields(np.asarray(ensemble.grid, dtype=float))
    ended = np.array([r != "none" for r in ensemble.stop_reason], dtype=bool)
    stop_index = np.asarray(ensemble.stop_index)
    flat = ensemble.states.reshape(-1, dim)
    # a row: the path index right-aligned in `label` digits with leading
    # zeros masked, then a comma and a float field for t and each column,
    # then ",0\n" with the stopped flag in place of the 0
    label = len(str(max(n_paths - 1, 0)))
    tens = 10 ** np.arange(label - 1, -1, -1)
    width = label + (1 + _text.FIELD) * (1 + dim) + 3
    rows = min(_SLAB_ROWS, len(flat))
    chars = np.empty((rows, width), dtype=np.uint8)
    valid = np.empty((rows, width), dtype=bool)
    floats = chars[:, label:-3].reshape(rows, 1 + dim, 1 + _text.FIELD)
    floats_valid = valid[:, label:-3].reshape(rows, 1 + dim,
                                              1 + _text.FIELD)
    floats[:, :, 0] = ord(",")
    floats_valid[:, :, 0] = True
    chars[:, -3:] = np.frombuffer(b",0\n", dtype=np.uint8)
    valid[:, -3:] = True
    with open(path, "wb") as handle:
        handle.write(("path,t," + ",".join(columns) + ",stopped\n").encode())
        for start in range(0, len(flat), _SLAB_ROWS):
            stop = min(start + _SLAB_ROWS, len(flat))
            n = stop - start
            p, k = np.divmod(np.arange(start, stop), n_times)
            paths = np.arange(p[0], p[-1] + 1)[:, None]
            chars[:n, :label] = np.take(paths // tens % 10 + ord("0"),
                                        p - p[0], axis=0)
            valid[:n, :label] = np.take((paths >= tens) | (tens == 1),
                                        p - p[0], axis=0)
            floats[:n, 0, 1:] = np.take(times, k, axis=0)
            floats_valid[:n, 0, 1:] = np.take(times_valid, k, axis=0)
            text, mask = _text.fields(flat[start:stop].reshape(-1))
            floats[:n, 1:, 1:] = text.reshape(n, dim, _text.FIELD)
            floats_valid[:n, 1:, 1:] = mask.reshape(n, dim, _text.FIELD)
            # free them before the next slab's fields are made
            del text, mask
            chars[:n, -2] = ord("0") + (ended[p] & (k >= stop_index[p]))
            handle.write(chars[:n][valid[:n]])


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def svg_line_plot(path, series, title="", xlabel="", ylabel="",
                  logx=False, logy=False):
    """Dependency-free SVG line plot.

    ``series`` is a list of (label, xs, ys).  Log axes require strictly
    positive data.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 72, 24, 42, 52
    transformed = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if logx:
            if np.any(xs <= 0.0):
                raise StatsError("log x-axis needs positive values")
            xs = np.log10(xs)
        if logy:
            if np.any(ys <= 0.0):
                raise StatsError("log y-axis needs positive values")
            ys = np.log10(ys)
        transformed.append((label, xs, ys))
    all_x = np.concatenate([xs for _, xs, _ in transformed])
    all_y = np.concatenate([ys for _, _, ys in transformed])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5

    def sx(x):
        return ml + (x - xmin) / (xmax - xmin) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb)

    def tick(value, log):
        return f"{10 ** value:.3g}" if log else f"{value:.3g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
        f'<text x="{ml}" y="{height - mb + 16}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{tick(xmin, logx)}</text>',
        f'<text x="{width - mr}" y="{height - mb + 16}" '
        f'text-anchor="middle" font-size="11" font-family="sans-serif">'
        f'{tick(xmax, logx)}</text>',
        f'<text x="{ml - 6}" y="{height - mb}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{tick(ymin, logy)}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" text-anchor="end" '
        f'font-size="11" font-family="sans-serif">{tick(ymax, logy)}</text>',
    ]
    for i, (label, xs, ys) in enumerate(transformed):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 6}" y="{mt + 16 + 16 * i}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")
