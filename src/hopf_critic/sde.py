"""Path simulators for the critical system, its reduction, and its limit.

All integrators share one step shape: an exact linear flow followed by an
Euler-Maruyama update of the polynomial nonlinearity and diffusion (see
``_kernels``).  The module provides task builders describing each system in
that shape:

``em_task``
    Plain Euler-Maruyama on an arbitrary polynomial SDE (identity flow).
``rescaled_task``
    The amplified slow-time critical system.  In rescaled variables the
    drift is ``eps^{-1/2} (Q z, P y)`` plus ``eps^{-3/4} (f, g)`` evaluated
    at ``eps^{1/4} (z, y)``, and the diffusion is ``(sigma_Q, sigma_P)`` at
    the same shrunken point.  The stiff linear part is integrated exactly
    (closed-form rotation for Q, dense matrix exponential for P) so the
    step size need not shrink with eps; a diagonal P needs only the
    exponentials of its entries, so scipy is loaded only for another P.
``reduced_task``
    The two-dimensional process on the quadratic center manifold, driven
    by the same noise channels as the full system for pathwise coupling.
``limit_task``
    The limiting radial diffusion, integrated through its nonsingular
    two-dimensional representation ``dZ_i = a Z_i |Z|^2 dt + s dB_i``,
    with ``a`` the reduced field's radial cubic coefficient, whose radius
    has the limit law; the polar drift's ``1/eta`` singularity never
    appears.

``run_coupled`` runs tasks on one draw of noise, stepping each chunk of
paths through the horizon one time block of noise at a time, and hands
each block of states to a fold, which keeps only what its study reads.
Each path's stream draws its noise a span at a time, a span holding a
whole number of time blocks, and each time block forms its increments
from its span straight into the kernel's column-major layout; one budget,
``BLOCK_CELLS``, is split evenly between the span and the time block.
``run_ensemble`` integrates any task (one path is an ensemble of one) with
the fold that keeps every state, and ``polar_ensemble`` reads the radius
of its critical plane.

Noise is counter-based: each path owns a keyed generator, so increments
are a pure function of (master seed, path index, step) and ensembles are
bit-identical for every worker count.  Each builder stamps its task's
stream class: ``em_task`` the generic one, ``rescaled_task`` and
``reduced_task`` the critical one on which they couple, ``limit_task``
the limit one.  A path's increments are the task's ``increments`` of its
stream's ``standard_blocks``.  Each coarse step draws two half-step
Gaussians per channel and sums them, which lets a half-step run reuse
exactly the same Brownian path for discretization-error checks.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import STOP_REASONS, Carry, run_chunk, term_rows
from .polyfield import PolyMap, stack

CHUNK = 1024
# Cells (doubles) one chunk holds for its noise and a block of steps: half
# for the span of noise its streams draw at a time, half for a time block's
# draws in the kernel's layout, increments and stepped states.  A run goes
# through its horizon in blocks of as many noise blocks as fit, and a span
# holds as many whole time blocks as fit (at least one).
BLOCK_CELLS = 3 << 17
# Overflow radius of the diverged stop, read when a run starts.
GUARD_RADIUS = 1e6

STREAM_GENERIC = 0
STREAM_CRITICAL = 1
STREAM_LIMIT = 2

_MAX_PATH_INDEX = 1 << 48


class SdeError(Exception):
    """Invalid simulation setup."""


class _ZeroSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence of zeros, for a bit generator whose state is set
    right after it is built."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED = _ZeroSeed()


class NoiseStream:
    """Keyed Gaussian increment source for one path.

    The stream for ``(master_seed, path_index, stream_class)`` always
    produces the same sequence, independent of how many other streams
    exist or which worker consumes it.  Two fresh streams with equal keys
    yield equal draws, which is how coupled simulations share a Brownian
    path.
    """

    def __init__(self, master_seed, path_index, stream_class=STREAM_GENERIC):
        master_seed = int(master_seed)
        path_index = int(path_index)
        stream_class = int(stream_class)
        if not 0 <= master_seed < 1 << 64:
            raise SdeError("master_seed must lie in [0, 2**64)")
        if not 0 <= path_index < _MAX_PATH_INDEX:
            raise SdeError("path_index out of range")
        if not 0 <= stream_class < (1 << 16):
            raise SdeError("stream_class out of range")
        self.master_seed = master_seed
        self.path_index = path_index
        self.stream_class = stream_class
        key = np.array([master_seed, (stream_class << 48) | path_index],
                       dtype=np.uint64)
        # the state Philox(key=key) starts in, set on a Philox built from
        # a seed sequence of zeros, which spares the constructor's draw
        # of OS entropy
        bits = np.random.Philox(_ZERO_SEED)
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": np.zeros(4, np.uint64),
                                "key": key},
                      "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}
        self._gen = np.random.Generator(bits)

    def standard_blocks(self, n_blocks, channels, out=None):
        """Standard-normal draws of shape (n_blocks, 2, channels).

        Block k holds the two half-step variates of coarse step k; they
        are consumed summed by a coarse run and individually by a
        half-step run, so both runs ride the same Brownian path.  Draws
        continue the stream, so drawing its blocks in pieces gives the
        same numbers as one draw.  ``out``, a contiguous array of that
        shape, receives the draws in place of a new array.
        """
        return self._gen.standard_normal((int(n_blocks), 2, int(channels)),
                                         out=out)


@dataclass(frozen=True, eq=False)
class SimTask:
    """A simulation in linear-flow plus Euler-Maruyama form.

    Fields
    ------
    dim, m : state and noise-channel dimensions.
    lin : (dim, dim) exact one-step linear flow.
    drift : PolyMap dim -> dim, the nonlinear drift (already scaled).
    diffusion : PolyMap dim -> dim*m, rows stacked row-major.
    x0 : initial state.
    dt, n_steps : step size and step count (T = dt * n_steps).
    refined : when True the task consumes one half-step draw per step
        instead of a summed pair; n_steps must be even.
    stream_class : noise key namespace, stamped by the task builder;
        coupled tasks share one.
    """

    dim: int
    m: int
    lin: np.ndarray
    drift: PolyMap
    diffusion: PolyMap
    x0: np.ndarray
    dt: float
    n_steps: int
    refined: bool = False
    stream_class: int = STREAM_GENERIC

    def __post_init__(self):
        if self.dim < 1 or self.m < 1:
            raise SdeError("dimensions must be positive")
        if self.lin.shape != (self.dim, self.dim):
            raise SdeError("linear flow shape mismatch")
        if self.drift.n_in != self.dim or self.drift.n_out != self.dim:
            raise SdeError("drift dimensions mismatch")
        if self.diffusion.n_in != self.dim \
                or self.diffusion.n_out != self.dim * self.m:
            raise SdeError("diffusion dimensions mismatch")
        if self.x0.shape != (self.dim,) or not np.all(np.isfinite(self.x0)):
            raise SdeError("initial state must be finite of length dim")
        if self.dt <= 0.0 or self.n_steps < 1:
            raise SdeError("dt must be positive and n_steps >= 1")
        if self.refined and self.n_steps % 2:
            raise SdeError("half-step tasks need an even step count")

    @property
    def noise_blocks(self):
        return self.n_steps // 2 if self.refined else self.n_steps

    def grid(self):
        return self.dt * np.arange(self.n_steps + 1)

    def increments(self, xi, out=None):
        """Scaled Brownian increments (..., steps, m) from draws
        (..., blocks, 2, m) of ``standard_blocks``, such as one path's
        ``noise_blocks``: one step per block, or two when refined.  The
        leading axes (paths, say) are elementwise, so every path's
        increments are bitwise those drawn for it alone."""
        if self.refined:
            return np.multiply(xi.reshape(*xi.shape[:-3], -1, self.m),
                               math.sqrt(self.dt), out=out)
        return np.multiply(np.add(xi[..., 0, :], xi[..., 1, :], out=out),
                           math.sqrt(self.dt / 2.0), out=out)


@dataclass(frozen=True)
class PathEnsemble:
    """Rectangular bundle of paths sharing a grid.

    States after each path's stop index repeat its stopped value, so the
    array stays rectangular.  ``stop_index`` is the final grid index for
    paths that never stopped.
    """

    grid: np.ndarray
    states: np.ndarray
    stop_index: np.ndarray
    stop_reason: tuple


@dataclass(frozen=True)
class PolarEnsemble:
    """Radii of a planar ensemble, stopped at an annulus."""

    rho: np.ndarray
    stop_index: np.ndarray
    stop_reason: tuple


@dataclass(frozen=True, eq=False)
class LimitParams:
    """Coefficients of the limiting radial diffusion.

    ``sigma_bar`` is the constant critical-plane diffusion block at the
    origin; the row sums of squares and the cross term determine the
    averaged drift constant and the diffusion ``s``.  They are derived
    once, on construction, from a copy of ``sigma_bar``.  ``a`` is the
    radial cubic coefficient of the reduced field, the limit drift's
    ``a Z|Z|^2``; -1 is the normal form ``-Z|Z|^2``.
    """

    sigma_bar: np.ndarray
    a: float = -1.0
    sigma1_sq: float = field(init=False)
    sigma2_sq: float = field(init=False)
    sigma12: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        bar = np.array(self.sigma_bar, dtype=float)
        if bar.ndim != 2 or bar.shape[0] != 2:
            raise SdeError("sigma_bar must be a 2 x m matrix")
        s1 = float(np.sum(bar[0] * bar[0]))
        s2 = float(np.sum(bar[1] * bar[1]))
        s12 = float(np.sum(bar[0] * bar[1]))
        derived = {"sigma_bar": bar, "a": float(self.a),
                   "sigma1_sq": s1, "sigma2_sq": s2,
                   "sigma12": s12, "s": math.sqrt((s1 + s2) / 2.0)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _step_count(T, dt):
    ratio = T / dt
    # a ratio that overflows (or a NaN T) is no step count
    n = int(round(ratio)) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * dt - T) > 1e-9 * max(1.0, abs(T)):
        raise SdeError(f"T={T} is not an integral number of dt={dt} steps")
    return n


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _check_nonlinear(p, name):
    for _, exps, _ in p.terms:
        if sum(exps) < 2:
            raise SdeError(f"{name} must contain only terms of degree >= 2")


def em_task(drift, diffusion, x0, dt, T):
    """Plain Euler-Maruyama task: identity flow, full drift in the update.

    Its noise lives in the generic stream class.
    """
    dim = drift.n_in
    if drift.n_out != dim:
        raise SdeError("drift must map R^dim to itself")
    if diffusion.n_in != dim or diffusion.n_out % dim:
        raise SdeError("diffusion must have dim inputs and dim*m outputs")
    m = diffusion.n_out // dim
    return SimTask(dim=dim, m=m, lin=np.eye(dim), drift=drift,
                   diffusion=diffusion,
                   x0=np.asarray(x0, dtype=float).reshape(dim),
                   dt=float(dt), n_steps=_step_count(T, dt),
                   stream_class=STREAM_GENERIC)


def rescaled_task(f, g, sigma_q, sigma_p, Q, P, eps, rho0, dt, T,
                  refined=False):
    """Amplified slow-time critical system as a SimTask.

    ``f`` and ``g`` are the nonlinear drift blocks in split coordinates
    (degree >= 2 terms only); ``sigma_q`` and ``sigma_p`` the diffusion
    rows.  A term of total degree d in the drift picks up the exact factor
    ``eps^{(d-3)/4}`` and in the diffusion ``eps^{d/4}``, which realizes
    the evaluation at ``eps^{1/4}`` times the state together with the
    outer amplification.  Cubic drift terms and constant diffusion terms
    are therefore copied bitwise, and eps = 1 reproduces the unscaled
    coefficients exactly.  Starts at ``(rho0, 0)`` on the critical plane
    with every stable coordinate at 0.  Noise lives in the critical stream
    class, which the reduced process shares.  A planar system is the empty
    stable block: ``P`` is (0, 0) and ``g`` and ``sigma_p`` have no
    outputs, and it runs through the same lines.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if P.size == 0:
        P = P.reshape(0, 0)
    k = P.shape[0]
    dim = 2 + k
    if not 0.0 < eps <= 1.0:
        raise SdeError("eps must lie in (0, 1]")
    if f.n_in != dim or f.n_out != 2:
        raise SdeError("f must map (z, y) to the critical plane")
    if g.n_in != dim or g.n_out != k:
        raise SdeError("g must map (z, y) to the stable block")
    if sigma_q.n_out % 2:
        raise SdeError("sigma_q must have 2*m outputs")
    m = sigma_q.n_out // 2
    if sigma_p.n_out != k * m:
        raise SdeError("sigma_p must have (n-2)*m outputs")
    _check_nonlinear(f, "f")
    _check_nonlinear(g, "g")
    lam0 = float(Q[1, 0])
    root = 1.0 / math.sqrt(eps)
    lin = np.zeros((dim, dim))
    lin[:2, :2] = _rotation(root * lam0 * float(dt))
    stiff = root * P * float(dt)
    if np.array_equal(stiff, np.diag(np.diag(stiff))):
        # what scipy.linalg.expm returns for a diagonal matrix; the empty
        # stable block is diagonal
        lin[2:, 2:] = np.diag(np.exp(np.diag(stiff)))
    else:
        from scipy.linalg import expm
        lin[2:, 2:] = expm(stiff)
    drift = stack([f, g]).graded_scaled(lambda d: eps ** ((d - 3) / 4.0))
    diffusion = stack([sigma_q, sigma_p]).graded_scaled(
        lambda d: eps ** (d / 4.0))
    x0 = np.zeros(dim)
    x0[0] = rho0
    return SimTask(dim=dim, m=m, lin=lin, drift=drift, diffusion=diffusion,
                   x0=x0, dt=float(dt), n_steps=_step_count(T, dt),
                   refined=refined, stream_class=STREAM_CRITICAL)


def reduced_task(reduced, sigma_q, h2, eps, rho0, dt, T):
    """Center-manifold 2D process as a SimTask.

    ``reduced`` is the reduced field (rotation plus cubic); its rotation
    block drives the exact flow and its nonlinear part enters the update
    unscaled, exactly as in the amplified equations.  The diffusion is the
    critical-plane block evaluated on the manifold,
    ``sigma_Q(eps^{1/4} u, h2(eps^{1/4} u))``; on a planar system ``h2``
    has no outputs and the diffusion is ``sigma_Q(eps^{1/4} u)``.  Starts
    at ``(rho0, 0)``, where ``rescaled_task`` starts its critical plane.
    Noise lives in the same stream class as the full simulation, so
    equal-keyed streams couple the two pathwise.
    """
    if reduced.n_in != 2 or reduced.n_out != 2:
        raise SdeError("reduced field must be planar")
    if not 0.0 < eps <= 1.0:
        raise SdeError("eps must lie in (0, 1]")
    if sigma_q.n_out % 2:
        raise SdeError("sigma_q must have 2*m outputs")
    m = sigma_q.n_out // 2
    k = h2.n_out
    if sigma_q.n_in != 2 + k:
        raise SdeError("sigma_q and h2 disagree on the stable dimension")
    Qr = reduced.jacobian(np.zeros(2))
    lam0 = float(Qr[1, 0])
    if max(abs(Qr[0, 0]), abs(Qr[1, 1]), abs(Qr[0, 1] + lam0)) > 1e-12 \
            or lam0 <= 0.0:
        raise SdeError("reduced field must have a rotation linear part")
    drift_terms = [t for t in reduced.terms if sum(t[1]) >= 2]
    drift = PolyMap(2, 2, drift_terms, max_degree=reduced.max_degree)
    quarter = eps ** 0.25
    inner = stack([PolyMap.linear(quarter * np.eye(2),
                                  max_degree=sigma_q.max_degree),
                   h2.graded_scaled(lambda d: eps ** (d / 4.0))])
    diffusion = sigma_q.substitute(inner, truncate_at=sigma_q.max_degree)
    root = 1.0 / math.sqrt(eps)
    lin = _rotation(root * lam0 * float(dt))
    return SimTask(dim=2, m=m, lin=lin, drift=drift, diffusion=diffusion,
                   x0=np.array([float(rho0), 0.0]), dt=float(dt),
                   n_steps=_step_count(T, dt), stream_class=STREAM_CRITICAL)


def limit_task(params, rho0, dt, T, refined=False):
    """Limiting radial diffusion via its planar representation.

    The drift is ``params.a Z|Z|^2``.  Starts at ``(rho0, 0)``; the law
    of the radius does not depend on the starting phase.  ``rho0`` must be
    positive: the limit statement needs a nonzero initial radius, and the
    origin is rejected rather than extrapolated.  Noise lives in the limit
    stream class.
    """
    if rho0 <= 0.0:
        raise SdeError("rho0 must be positive")
    a = float(params.a)
    cubic = PolyMap(2, 2, [
        (0, (3, 0), a), (0, (1, 2), a), (1, (2, 1), a), (1, (0, 3), a)])
    s = float(params.s)
    diffusion = PolyMap(2, 4, [(0, (0, 0), s), (3, (0, 0), s)])
    return SimTask(dim=2, m=2, lin=np.eye(2), drift=cubic,
                   diffusion=diffusion, x0=np.array([float(rho0), 0.0]),
                   dt=float(dt), n_steps=_step_count(T, dt), refined=refined,
                   stream_class=STREAM_LIMIT)


def _resolve_workers(workers):
    """Worker threads: the argument, else 1."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 1:
        raise SdeError("workers must be at least 1")
    return workers


# Tasks that step in one kernel loop: ``first`` of them gives the shared
# dim and step rule, ``members`` their indices among the run's tasks.
_Group = collections.namedtuple("_Group", "first members x0 lin drifts sigmas")

# One task's freshly stepped block of states as ``run_coupled`` hands it to
# a fold: ``first`` is the grid index the block opens at, ``states`` the
# coordinate planes (dim, steps + 1, paths) of the states at grid indices
# ``first`` on, a view of the kernel's block buffer, the first step of
# them the carried states the block before ended on (or x0), and
# ``stop_index`` and ``stop_code`` (paths,) each path's stop index and
# code (``STOP_NONE`` or ``STOP_DIVERGED``) at the block's end.
FoldBlock = collections.namedtuple(
    "FoldBlock", "first states stop_index stop_code")


def run_coupled(tasks, count, master_seed, fold, workers=None):
    """Simulate ``count`` paths of several tasks on one draw of noise.

    The tasks must share ``stream_class``, ``m`` and ``noise_blocks``, so
    path ``p`` of every task rides the Brownian path of stream
    ``(master_seed, p, stream_class)``, drawn once; each task's increments
    are bitwise those its ``increments`` forms from that stream's
    ``standard_blocks(noise_blocks, m)``.  Paths are keyed by
    index and partitioned into fixed-size chunks, so the result is
    bit-identical for every worker count.  Tasks with equal dim, step
    count, step size, step rule and drift and diffusion term rows
    (``_kernels.term_rows`` of their PolyMaps; the eps of one sweep) step
    together in one kernel loop per chunk, which takes each task's own
    maps, with results bitwise those of separate runs.

    A chunk goes through the horizon in time blocks: each block steps
    every group on from where the last block left it, coarse tasks one
    step and refined tasks two per noise block.  Its noise comes from a
    span of whole time blocks, so no time block straddles two spans: each
    path's stream draws the span's noise blocks into its row of one
    buffer, one ``standard_blocks`` call per path and span, and each time
    block copies its noise blocks out of its span into the kernel's
    layout with the paths on the last axis.  Each group forms its first
    task's increments from them, repeated for its other tasks, as the
    (steps, m, G*paths) columns ``run_chunk`` steps without a copy.  The
    buffers are made once per chunk and refilled.  Half of
    ``BLOCK_CELLS`` doubles holds the time block's draws, each group's
    increments and its block of states (at least one noise block), beside
    the carried state each block of states opens on; the other half holds
    the span, rounded down to whole time blocks (at least one).  So a run
    needs memory independent of the horizon beyond what its fold keeps.
    Neither length need divide the horizon: the draws, and so the
    results, are the same for any split.

    After each time block of a chunk, ``fold(paths, blocks)`` takes the
    states: ``paths`` is the chunk's slice of path indices and ``blocks``
    holds, per task, the ``FoldBlock`` the block stepped, its states as
    the kernel's coordinate planes (dim, steps + 1, paths).  Each block
    repeats the last state of the block before, so a fold must give the
    same result for a grid point seen twice.  The blocks are views of
    buffers the next block refills.  Calls for different chunks
    may run at once on different workers, so a fold writes only its
    chunk's paths.

    Returns ``(stop_index, stop_code)``, each (tasks, count): each path's
    final stop index and code.
    """
    count = int(count)
    if count < 1:
        raise SdeError("count must be >= 1")
    if len({(t.stream_class, t.m, t.noise_blocks) for t in tasks}) != 1:
        raise SdeError("coupled tasks must share stream_class, m and "
                       "noise_blocks")
    workers = _resolve_workers(workers)
    guard = GUARD_RADIUS
    # Tasks of one step shape on one increment array and grid step in one
    # kernel loop per chunk.
    by_shape = {}
    for i, task in enumerate(tasks):
        by_shape.setdefault((task.dim, task.n_steps, task.refined, task.dt,
                             term_rows(task.drift),
                             term_rows(task.diffusion)), []).append(i)
    groups = [_Group(
        tasks[members[0]], members,
        np.stack([tasks[i].x0 for i in members]),
        np.stack([tasks[i].lin for i in members]),
        [tasks[i].drift for i in members],
        [tasks[i].diffusion for i in members])
        for members in by_shape.values()]
    stop_index = np.empty((len(tasks), count), dtype=np.int64)
    stop_code = np.empty((len(tasks), count), dtype=np.int64)
    stream_class, m, blocks = (tasks[0].stream_class, tasks[0].m,
                               tasks[0].noise_blocks)

    # A kernel call steps at most CHUNK rows, so a chunk holds CHUNK // G
    # paths for the largest group's G.
    widest = max(len(g.members) for g in groups)
    width = min(count, max(1, CHUNK // widest))
    # Per path and noise block, each group steps each of its tasks once, or
    # twice if refined.  Half the budget holds the noise span: the two
    # half-step draws of each channel.  The other half holds the kernel
    # block: those draws again, laid out for it, and each group's
    # increments and its block of states, a state per step.
    task_steps = [len(g.members) * (2 if g.first.refined else 1)
                  for g in groups]
    cells = 2 * m + sum(n * (m + g.first.dim)
                        for n, g in zip(task_steps, groups))
    length = max(1, BLOCK_CELLS // 2 // (width * cells))
    # a span holds whole time blocks, so none straddles two spans
    span = length * max(1, BLOCK_CELLS // 2 // (width * 2 * m * length))

    def work(start):
        end = min(start + width, count)
        n_paths = end - start
        streams = [NoiseStream(master_seed, p, stream_class)
                   for p in range(start, end)]
        # One set of buffers per chunk, refilled span by span and block by
        # block: the span's draws (paths, blocks, 2, m) as the streams give
        # them, and in the kernel's layout, with the paths on the last
        # axis, the block's draws (blocks, 2, m, paths) and each group's
        # increments (steps, m, G, paths).
        draws = np.empty((n_paths, span, 2, m))
        block_draws = np.empty((length, 2, m, n_paths))
        increments = [np.empty(n * length * m * n_paths) for n in task_steps]
        x0s = [np.broadcast_to(g.x0[:, None, :], (len(g.members), n_paths,
                                                   g.first.dim))
               for g in groups]
        carries = [Carry(x0) for x0 in x0s]
        for at in range(0, blocks, length):
            n_blocks = min(length, blocks - at)
            if at % span == 0:
                n_span = min(span, blocks - at)
                for row, stream in zip(draws, streams):
                    stream.standard_blocks(n_span, m, out=row[:n_span])
            np.copyto(block_draws[:n_blocks].reshape(-1, n_paths),
                      draws[:, at % span:at % span + n_blocks]
                      .reshape(n_paths, -1).T)
            xi = block_draws[:n_blocks].transpose(3, 0, 1, 2)
            folded = [None] * len(tasks)
            for flat, n, g, x0, carry in zip(increments, task_steps, groups,
                                             x0s, carries):
                dW = flat[:n * n_blocks * m * n_paths].reshape(
                    -1, m, len(g.members), n_paths)
                g.first.increments(xi, out=dW[:, :, 0].transpose(2, 0, 1))
                dW[:, :, 1:] = dW[:, :, :1]
                # the block opens on the carried states at this grid index
                first = carry.offset
                states, index, code = run_chunk(
                    x0, g.lin, g.drifts, g.sigmas,
                    dW.reshape(len(dW), m, -1).transpose(2, 0, 1),
                    g.first.dt, guard, carry=carry)
                for j, i in enumerate(g.members):
                    folded[i] = FoldBlock(first, states[j], index[j], code[j])
            fold(slice(start, end), folded)
        for g, carry in zip(groups, carries):
            shape = len(g.members), n_paths
            stop_index[g.members, start:end] = carry.stop_index.reshape(shape)
            stop_code[g.members, start:end] = carry.stop_code.reshape(shape)

    starts = range(0, count, width)
    if workers == 1:
        for start in starts:
            work(start)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, starts))
    return stop_index, stop_code


def run_ensemble(task, count, master_seed, workers=None):
    """Simulate ``count`` independent paths of one task, every state kept.

    ``run_coupled`` with one task and a fold that copies each block of
    states into the ensemble.
    """
    states = np.empty((max(int(count), 0), task.n_steps + 1, task.dim))

    def fold(paths, blocks):
        block = blocks[0]
        states[paths, block.first:block.first + block.states.shape[1]] = \
            block.states.transpose(2, 1, 0)

    stop_index, stop_code = run_coupled([task], count, master_seed, fold,
                                        workers)
    return PathEnsemble(
        grid=task.grid(), states=states, stop_index=stop_index[0],
        stop_reason=tuple(STOP_REASONS[int(c)] for c in stop_code[0]))


def polar_ensemble(ens, delta, nmax):
    """Radius of an ensemble's critical plane with annulus stopping.

    The critical coordinates are the first two state columns by
    construction.  Every radius must start strictly inside
    ``(delta, nmax)``; after the first grid point whose radius leaves the
    open annulus, or after an earlier stop inherited from the ensemble,
    the radius freezes at that point's value.
    """
    if not 0.0 < delta < nmax:
        raise SdeError("barriers must satisfy 0 < delta < nmax")
    z = ens.states[:, :, :2]
    rho = np.sqrt((z * z).sum(axis=2))
    if not (np.all(rho[:, 0] > delta) and np.all(rho[:, 0] < nmax)):
        raise SdeError("initial radius must lie strictly inside the annulus")
    n_paths, n_times = rho.shape
    outside = (rho <= delta) | (rho >= nmax)
    has = outside.any(axis=1)
    first = np.where(has, outside.argmax(axis=1), n_times - 1)
    inherited = np.asarray(ens.stop_index, dtype=np.int64)
    inherited_live = np.array([r != "none" for r in ens.stop_reason])
    eff_inherited = np.where(inherited_live, inherited, n_times - 1)
    stop = np.minimum(np.where(has, first, n_times - 1), eff_inherited)
    cols = np.arange(n_times)[None, :]
    frozen = np.minimum(cols, stop[:, None])
    rows = np.arange(n_paths)[:, None]
    rho = rho[rows, frozen]
    reasons = []
    for i in range(n_paths):
        if has[i] and first[i] <= eff_inherited[i]:
            reasons.append("hit_inner" if rho[i, stop[i]] <= delta
                           else "hit_outer")
        elif inherited_live[i]:
            reasons.append(ens.stop_reason[i])
        else:
            reasons.append("none")
    return PolarEnsemble(rho=rho, stop_index=stop, stop_reason=tuple(reasons))
