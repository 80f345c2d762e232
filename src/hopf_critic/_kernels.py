"""Chunked time-stepping kernels behind the simulators.

One step of every integrator in this package has the same shape: apply an
exact linear flow, then an explicit stochastic update with a polynomial
drift and a polynomial diffusion,

    u   = lin @ x_k
    x_{k+1} = u + drift(u) dt + diffusion(u) @ dW_k.

The kernel advances a whole chunk of paths through all steps and freezes a
path as diverged when it leaves the overflow guard or turns non-finite.  By
default it records every state.  A study that reads only a few grid points
passes ``keep``, the grid indices it wants: the kernel then stores the
states at those indices only, plus the running per-path minimum and
maximum of the planar squared radius ``x0*x0 + x1*x1`` over every grid
point from 0 on.  Polynomials arrive packed as flat arrays (component
index, exponent rows, coefficients).

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
    shape = []
    for t, (comp, row) in enumerate(zip(comps, exps)):
        first = float(coefs[0, t])
        unit = first if first in (1.0, -1.0) and bool(
            (coefs[:, t] == first).all()) else None
        shape.append((int(comp), tuple(int(e) for e in row), unit))
    return tuple(shape), coefs


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


def _chunk(x0, lin, step, cols, dW, dt, guard, states, stop_index,
           stop_code, rows):
    """Step one chunk of G tasks x n paths as G*n rows, task-major.

    Row r steps on the increments ``dW[r]``.  ``cols`` holds the
    coefficient columns, one row per column over the G*n rows.  ``rows`` is
    None to store every state, else maps kept grid indices to positions
    along axis 2 of ``states``; then return ``(lo, hi)`` over the rows.
    """
    n_tasks, n_paths, dim = x0.shape
    n_rows = n_tasks * n_paths
    n_steps = dW.shape[1]
    guard_sq = guard * guard
    # A finite bound on every squared coordinate: a step within it has only
    # finite states, and each row's sum of dim squares stays within the
    # guard even after rounding, so the full check below can be skipped.
    fast_sq = min(guard_sq, sys.float_info.max) / dim * (1.0 - 1e-9)
    # Per task the transposed view that ``x @ lin.T`` multiplies by.
    lin_t = lin.transpose(0, 2, 1)
    x = np.array(x0, dtype=np.float64).reshape(n_rows, dim)
    observe = rows is not None
    if observe:
        lo = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]
        hi = lo.copy()
        if 0 in rows:
            states[:, :, rows[0], :] = x0
    else:
        states[:, :, 0, :] = x0
    active = np.arange(n_rows)
    all_live = True
    zero = np.zeros(n_rows)
    dtv = np.full(n_rows, dt)
    c = cols
    for k in range(n_steps):
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
        if observe:
            # Frozen rows repeat their last state, which leaves the range
            # as it was.
            r2 = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]
            np.minimum(lo, r2, out=lo)
            np.maximum(hi, r2, out=hi)
            row = rows.get(k + 1)
            if row is not None:
                states[:, :, row, :] = x.reshape(n_tasks, n_paths, dim)
        else:
            states[:, :, k + 1, :] = x.reshape(n_tasks, n_paths, dim)
        if bad is not None and bad.any():
            hit = active[bad]
            stop_index[hit] = k + 1
            stop_code[hit] = STOP_DIVERGED
            active = active[~bad]
            all_live = False
            if active.size == 0:
                tail = [r for i, r in rows.items() if i > k + 1] \
                    if observe else slice(k + 2, None)
                states[:, :, tail, :] = x.reshape(
                    n_tasks, n_paths, 1, dim)
                break
            # Live rows of task g are active[bounds[g]:bounds[g+1]].
            bounds = np.searchsorted(active, n_paths * np.arange(n_tasks + 1))
            zero = np.zeros(active.size)
            dtv = np.full(active.size, dt)
            c = cols[:, active]
    return (lo, hi) if observe else None


def run_chunk(x0, lin, drift_packed, sigma_packed, dW, dt, guard, out=None,
              keep=None):
    """Advance one chunk of paths of a group of G tasks through every step.

    The group's drift and diffusion maps must have equal terms; a lone
    task is the group of one.

    Parameters
    ----------
    x0 : ndarray, shape (G, paths, dim)
    lin : ndarray, shape (G, dim, dim)
        Each task's exact linear flow, applied at the start of every step.
    drift_packed, sigma_packed : sequences of G packed polynomial triples
        Nonlinear drift (dim outputs) and diffusion (dim*m outputs,
        row-major over the dim x m matrix).
    dW : ndarray, shape (G*paths, steps, m)
        Brownian increments of every row, task-major, already scaled to
        the step size; tasks on one Brownian path repeat its increments.
    dt : float
    guard : float
        Overflow radius; paths beyond it freeze as diverged.
    out : ndarray, optional
        Array to write ``states`` into, such as the caller's slice.
    keep : sequence of int, optional
        Grid indices to keep in place of every state; needs dim >= 2.

    Returns
    -------
    (states, stop_index, stop_code), with ``keep`` also (r2_min, r2_max),
    each with a leading task axis of length G
        ``states``: (G, paths, steps+1, dim) with frozen tails after
        stops, or (G, paths, len(keep), dim) at the kept indices;
        ``stop_index``: steps for surviving paths, else the freeze index;
        ``stop_code``: STOP_NONE or STOP_DIVERGED;
        ``r2_min``, ``r2_max``: per path, the least and greatest
        ``x0*x0 + x1*x1`` over grid points 0 to steps.
    """
    lin = np.ascontiguousarray(lin, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    dW = np.ascontiguousarray(dW, dtype=np.float64)
    n_tasks, n_paths, dim = x0.shape
    n_steps, m = dW.shape[1:]
    if lin.shape != (n_tasks, dim, dim) \
            or dW.shape[0] != n_tasks * n_paths \
            or len(drift_packed) != n_tasks \
            or len(sigma_packed) != n_tasks:
        raise ValueError("x0, lin, dW and the packed maps disagree on "
                         "tasks, paths or dim")
    rows = None if keep is None else {int(i): r for r, i in enumerate(keep)}
    if rows is not None and (dim < 2 or len(rows) != len(keep) or not all(
            0 <= i <= n_steps for i in rows)):
        raise ValueError("keep needs dim >= 2 and distinct grid indices")
    shape = (n_tasks, n_paths,
             n_steps + 1 if rows is None else len(rows), dim)
    states = np.empty(shape) if out is None else out
    if states.shape != shape:
        raise ValueError(f"out has shape {states.shape}, expected {shape}")
    stop_index = np.full(n_tasks * n_paths, n_steps, dtype=np.int64)
    stop_code = np.zeros(n_tasks * n_paths, dtype=np.int64)
    drift_shape, drift_coefs = _step_shape(drift_packed)
    sigma_shape, sigma_coefs = _step_shape(sigma_packed)
    step, needs = _generate_step(dim, m, drift_shape, sigma_shape)
    coefs = np.concatenate((drift_coefs, sigma_coefs), axis=1)
    cols = np.repeat(coefs[:, list(needs)].T, n_paths, axis=1)
    r2 = _chunk(x0, lin, step, cols, dW, float(dt), float(guard), states,
                stop_index, stop_code, rows)
    result = (states, stop_index.reshape(n_tasks, n_paths),
              stop_code.reshape(n_tasks, n_paths))
    if r2 is not None:
        result += tuple(r.reshape(n_tasks, n_paths) for r in r2)
    return result
