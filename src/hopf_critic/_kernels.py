"""Chunked time-stepping kernels behind the simulators.

One step of every integrator in this package has the same shape: apply an
exact linear flow, then an explicit stochastic update with a polynomial
drift and a polynomial diffusion,

    u   = lin @ x_k
    x_{k+1} = u + drift(u) dt + diffusion(u) @ dW_k.

The kernel advances a chunk of paths by one block of steps and freezes a
path as diverged when it leaves the overflow guard or turns non-finite.
A block resumes from a ``Carry``, the per-row state the block before left:
the current states, stop indices and codes and the grid index reached.
Stopped rows never step again, and once every row of a chunk has stopped
a block only repeats the frozen states.  A call without a carry starts
fresh at grid index 0, so one call with the whole horizon's increments is
the unblocked run, and any split into blocks gives bitwise the same
results.  Each step's states go to one row of the carry's step-major
block buffer, and the call returns that block: the caller folds what it
reads out of it before the next block refills the buffer.  Polynomials
arrive packed as flat arrays (component index, exponent rows,
coefficients).

One chunk loop steps a group of G tasks at once, such as the amplified
system at every eps of a sweep: tasks whose drift and diffusion have the
same terms (components and exponents).  Only their coefficients, linear
flows and initial states differ.  The chunk's G x paths rows are stepped
as one block, task-major, each row on its own row of increments; the
linear flow is one batched matrix product of each task's rows with its
own flow.  A lone task is the group of one.

The kernel does not interpret the packed terms.  For each step shape, the
term structure plus the coefficients that are exactly 1.0 or -1.0 in every
task of the group, it generates the source of one straight-line step
function, with one numpy expression per term over state columns, compiles
it once and memoises it.  Every other coefficient comes in as a column
holding each task's value over that task's rows.  The step keeps the
exact operation order of a term-by-term evaluation, so equal inputs give
bitwise equal states, grouped or not:

- a term multiplies left to right, coefficient first, then each variable
  as often as its exponent says (``c*u0*u0*u1``); no powers are shared;
- every drift and noise component accumulates from 0.0 in packed term
  order, and the update is ``(u + d*dt) + n``;
- the only rewrites are exact in IEEE arithmetic: a ``1.0*`` factor is
  dropped, ``-1.0*t`` becomes a subtraction, and coefficients and dt are
  broadcast to arrays of the rows' shape;
- each task's linear flow is the product of its rows with the transposed
  view ``lin.T``, as a per-task ``x @ lin.T`` takes it.

Tasks with equal packed terms share one generated step, so the coupled
rescaled and reduced runs of a planar system stay bitwise equal.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

STOP_NONE = 0
STOP_HIT_INNER = 1
STOP_HIT_OUTER = 2
STOP_LEFT_BALL = 3
STOP_DIVERGED = 4

STOP_REASONS = ("none", "hit_inner", "hit_outer", "left_ball", "diverged")


def pack_poly(p, dim):
    """Flatten a PolyMap into (components, exponents, coefficients) arrays.

    The term order is the map's canonical order, so packing is
    deterministic.  ``dim`` is the expected input dimension; a zero map
    packs into empty arrays.
    """
    if p.n_in != dim:
        raise ValueError(f"polynomial expects {p.n_in} inputs, kernel has {dim}")
    count = len(p.terms)
    comps = np.zeros(count, dtype=np.int64)
    exps = np.zeros((count, dim), dtype=np.int64)
    coefs = np.zeros(count, dtype=np.float64)
    for t, (comp, exponents, coef) in enumerate(p.terms):
        comps[t] = comp
        exps[t, :] = exponents
        coefs[t] = coef
    return comps, exps, coefs


def _step_shape(packed):
    """Step shape and coefficients of the same map in each of G tasks.

    Returns ``(shape, coefs)``: ``shape`` holds one hashable
    ``(component, exponents, unit)`` row per term, where ``unit`` is 1.0 or
    -1.0 when that coefficient is exactly so in every task and None
    otherwise; ``coefs`` is the (G, terms) coefficient matrix.
    """
    comps, exps, _ = packed[0]
    for other in packed[1:]:
        if not (np.array_equal(other[0], comps)
                and np.array_equal(other[1], exps)):
            raise ValueError("grouped tasks must share their terms")
    coefs = np.array([p[2] for p in packed], dtype=np.float64)
    first = coefs[0]
    unit = ((first == 1.0) | (first == -1.0)) & (coefs == first).all(axis=0)
    shape = tuple((comp, tuple(row), c if u else None) for comp, row, c, u
                  in zip(comps.tolist(), exps.tolist(), first.tolist(),
                         unit.tolist()))
    return shape, coefs


@functools.lru_cache(maxsize=128)
def _generate_step(dim, m, drift_shape, sigma_shape):
    """Compile the straight-line step of one step shape.

    Takes the ``_step_shape`` rows of both maps and returns
    ``(step, needs)``: ``needs`` lists, by index into the drift terms
    followed by the diffusion terms, the terms whose coefficient the step
    reads from a column.  ``step(u, w, zero, dt, c)`` maps the
    linear-flow image ``u`` (rows, dim) and the increments ``w`` (rows, m)
    to the next state, a fresh (rows, dim) array; ``zero``, ``dt`` and the
    sequence ``c`` are arrays of shape (rows,) holding 0.0, the step size
    and the columns of ``needs``, in that order.
    """
    needs = []
    drift = [[] for _ in range(dim)]
    noise = [[] for _ in range(dim)]
    used_w = set()
    terms = [(shape, drift, False) for shape in drift_shape]
    terms += [(shape, noise, True) for shape in sigma_shape]
    for index, ((row, exps, unit), sums, channels) in enumerate(terms):
        factors = [f"u{j}" for j, e in enumerate(exps) for _ in range(e)]
        if channels:
            row, col = divmod(row, m)
            factors.append(f"w{col}")
            used_w.add(col)
        # Dropping a unit coefficient and turning -1.0*t into a
        # subtraction are exact; a constant term keeps its coefficient.
        if factors and unit is not None:
            sign = "-" if unit < 0.0 else "+"
        else:
            sign = "+"
            factors.insert(0, f"c{len(needs)}")
            needs.append(index)
        sums[row].append(f" {sign} {'*'.join(factors)}")

    lines = ["def step(u, w, zero, dt, c):"]
    if needs:
        lines.append(f"    [{', '.join(f'c{i}' for i in range(len(needs)))}]"
                     " = c")
    lines += [f"    u{j} = u[:, {j}]" for j in range(dim)]
    lines += [f"    w{j} = w[:, {j}]" for j in sorted(used_w)]
    lines.append("    out = empty(u.shape)")
    for i in range(dim):
        lines += [f"    d{i} = zero{''.join(drift[i])}",
                  f"    n{i} = zero{''.join(noise[i])}",
                  f"    out[:, {i}] = u{i} + d{i}*dt + n{i}"]
    lines.append("    return out")
    namespace = {"empty": np.empty}
    exec(compile("\n".join(lines) + "\n", "<generated step>", "exec"),
         namespace)
    return namespace["step"], tuple(needs)


class Carry:
    """Per-row state of one chunk between blocks of steps.

    ``run_chunk`` advances it in place, one block of increments per call.
    ``x`` (rows, dim) holds every row's state at grid index ``offset``,
    frozen for stopped rows; ``stop_index`` and ``stop_code`` are as
    ``run_chunk`` returns them.  A fresh carry starts at grid index 0 with
    no stops.
    """

    def __init__(self, x0):
        x0 = np.array(x0, dtype=np.float64)
        self.shape = x0.shape
        self.x = x0.reshape(-1, x0.shape[2])
        self.offset = 0
        self.stop_index = np.zeros(len(self.x), dtype=np.int64)
        self.stop_code = np.zeros(len(self.x), dtype=np.int64)
        # every state of the last block, step-major, refilled by the next
        self.block = None


def _chunk(lin, step, cols, dW, dt, guard, carry):
    """Step one block of G tasks x n paths as G*n rows, task-major.

    Row r steps on the increments ``dW[r]`` from ``carry``, which the
    block advances.  ``cols`` holds the coefficient columns, one row per
    column over the G*n rows.  Returns the block's states, step-major
    (steps, G*n, dim), from its first grid index (0 only at the first
    block) to its last.
    """
    n_tasks, n_paths, dim = carry.shape
    n_rows = n_tasks * n_paths
    n_steps = dW.shape[1]
    start = carry.offset
    end = start + n_steps
    # The grid index a block begins at belongs to the block before, except
    # index 0.
    first = start + 1 if start else 0
    guard_sq = guard * guard
    # A finite bound on every squared coordinate: a step within it has only
    # finite states, and each row's sum of dim squares stays within the
    # guard even after rounding, so the full check below can be skipped.
    fast_sq = min(guard_sq, sys.float_info.max) / dim * (1.0 - 1e-9)
    # Per task the transposed view that ``x @ lin.T`` multiplies by.
    lin_t = lin.transpose(0, 2, 1)
    x = carry.x
    stop_index, stop_code = carry.stop_index, carry.stop_code
    # Each step's states go to one contiguous row of the block.
    if carry.block is None or len(carry.block) <= end - first:
        carry.block = np.empty((end + 1 - first, n_rows, dim))
    block = carry.block[:end + 1 - first]
    if start == 0:
        block[0] = x

    def live(active):
        """Task bounds, zero, dt and coefficient columns of live rows; the
        live rows of task g are active[bounds[g]:bounds[g+1]]."""
        return (np.searchsorted(active, n_paths * np.arange(n_tasks + 1)),
                np.zeros(active.size), np.full(active.size, dt),
                cols[:, active])

    # The states the steps wrote reach grid index ``done``.
    done = start
    active = np.flatnonzero(stop_code == STOP_NONE)
    all_live = active.size == n_rows
    bounds, zero, dtv, c = live(active)
    for k in range(n_steps if active.size else 0):
        if all_live:
            xa = x
            u = np.matmul(x.reshape(n_tasks, n_paths, dim), lin_t)
            x_new = step(u.reshape(n_rows, dim), dW[:, k], zero, dtv, c)
        else:
            xa = x[active]
            u = np.empty_like(xa)
            for g in range(n_tasks):
                s, e = bounds[g], bounds[g + 1]
                if e > s:
                    np.matmul(xa[s:e], lin_t[g], out=u[s:e])
            x_new = step(u, dW[active, k], zero, dtv, c)
        bad = None
        if not (x_new * x_new).max(initial=0.0) <= fast_sq:
            finite = np.isfinite(x_new).all(axis=1)
            x_new[~finite] = xa[~finite]
            inside = (x_new * x_new).sum(axis=1) <= guard_sq
            bad = ~(finite & inside)
        if all_live:
            x = x_new
        else:
            x[active] = x_new
        done = start + k + 1
        block[done - first] = x
        if bad is not None and bad.any():
            hit = active[bad]
            stop_index[hit] = done
            stop_code[hit] = STOP_DIVERGED
            active = active[~bad]
            all_live = False
            if active.size == 0:
                break
            bounds, zero, dtv, c = live(active)
    # Once every row has stopped, the rest of the block repeats the frozen
    # states.
    block[done + 1 - first:] = x
    stop_index[active] = end
    carry.x = x
    carry.offset = end
    return block


def run_chunk(x0, lin, drift_packed, sigma_packed, dW, dt, guard,
              carry=None):
    """Advance one chunk of paths of a group of G tasks by one block of steps.

    The group's drift and diffusion maps must have equal terms; a lone
    task is the group of one.  Without ``carry`` the block starts at grid
    index 0 from ``x0``, so one call with every increment runs the whole
    horizon.  A run split into blocks passes the same ``Carry(x0)`` to each
    call in turn, with the next block's increments: the rows go on from
    the carried states and stops, rows stopped earlier never step, and the
    results are bitwise those of one call.

    Parameters
    ----------
    x0 : ndarray, shape (G, paths, dim)
        Initial states; with ``carry`` only their shape is read.
    lin : ndarray, shape (G, dim, dim)
        Each task's exact linear flow, applied at the start of every step.
    drift_packed, sigma_packed : sequences of G packed polynomial triples
        Nonlinear drift (dim outputs) and diffusion (dim*m outputs,
        row-major over the dim x m matrix).
    dW : ndarray, shape (G*paths, steps, m)
        Brownian increments of every row for this block's steps,
        task-major, already scaled to the step size; tasks on one Brownian
        path repeat its increments.
    dt : float
    guard : float
        Overflow radius; paths beyond it freeze as diverged.
    carry : Carry, optional
        State at the end of the previous block, advanced in place.

    Returns
    -------
    (states, stop_index, stop_code), each with a leading task axis of
    length G
        ``states``: (G, paths, K, dim), the block's states at grid indices
        from its start (index 0 only at the first block) to its end, with
        frozen tails after stops; a view of the carry's block buffer,
        which the next call refills;
        ``stop_index``: the block's end for surviving paths, else the
        freeze index;
        ``stop_code``: STOP_NONE or STOP_DIVERGED.
    """
    lin = np.ascontiguousarray(lin, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    dW = np.ascontiguousarray(dW, dtype=np.float64)
    n_tasks, n_paths, dim = x0.shape
    m = dW.shape[2]
    if lin.shape != (n_tasks, dim, dim) \
            or dW.shape[0] != n_tasks * n_paths \
            or len(drift_packed) != n_tasks \
            or len(sigma_packed) != n_tasks:
        raise ValueError("x0, lin, dW and the packed maps disagree on "
                         "tasks, paths or dim")
    if carry is None:
        carry = Carry(x0)
    elif carry.shape != x0.shape:
        raise ValueError("carry and x0 disagree on tasks, paths or dim")
    drift_shape, drift_coefs = _step_shape(drift_packed)
    sigma_shape, sigma_coefs = _step_shape(sigma_packed)
    step, needs = _generate_step(dim, m, drift_shape, sigma_shape)
    coefs = np.concatenate((drift_coefs, sigma_coefs), axis=1)
    cols = np.repeat(coefs[:, list(needs)].T, n_paths, axis=1)
    block = _chunk(lin, step, cols, dW, float(dt), float(guard), carry)
    return (block.reshape(len(block), n_tasks, n_paths, dim)
            .transpose(1, 2, 0, 3),
            carry.stop_index.reshape(n_tasks, n_paths),
            carry.stop_code.reshape(n_tasks, n_paths))
