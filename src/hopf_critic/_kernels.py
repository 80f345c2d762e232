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

The kernel does not interpret the packed terms.  For each
(drift, diffusion) pair it generates the source of one straight-line step
function, with one numpy expression per term over state columns of shape
(paths,), compiles it once and memoises it on the packed terms.  The chunk
loop applies the linear flow as one matrix product and hands its image to
the generated step.  The step keeps the exact operation order of a
term-by-term evaluation, so equal inputs give bitwise equal states:

- a term multiplies left to right, coefficient first, then each variable
  as often as its exponent says (``c*u0*u0*u1``); no powers are shared;
- every drift and noise component accumulates from 0.0 in packed term
  order, and the update is ``(u + d*dt) + n``;
- the only rewrites are exact in IEEE arithmetic: a ``1.0*`` factor is
  dropped, ``-1.0*t`` becomes a subtraction, and coefficients and dt are
  broadcast to arrays of the chunk's width.

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


def _terms(packed):
    """Hashable (component, exponents, coefficient) rows of a packed map.

    The coefficient is kept as ``float.hex`` text, which round-trips every
    float exactly and tells 0.0 from -0.0.
    """
    comps, exps, coefs = packed
    return tuple((int(c), tuple(int(e) for e in row), float(v).hex())
                 for c, row, v in zip(comps, exps, coefs))


@functools.lru_cache(maxsize=128)
def _generate_step(dim, m, drift_terms, sigma_terms):
    """Compile the straight-line step of one (drift, diffusion) pair.

    Takes the ``_terms`` rows of both maps and returns ``(step, coefs)``.
    ``step(u, w, zero, dt, c)`` maps the linear-flow image ``u``
    (paths, dim) and the increments ``w`` (paths, m) to the next state, a
    fresh (paths, dim) array; ``zero``, ``dt`` and the tuple ``c`` are
    arrays of shape (paths,) holding 0.0, the step size and the distinct
    coefficients ``coefs``, in that order.
    """
    names = {}
    drift = [[] for _ in range(dim)]
    noise = [[] for _ in range(dim)]
    used_w = set()
    for terms, sums, channels in ((drift_terms, drift, False),
                                  (sigma_terms, noise, True)):
        for row, exps, coef in terms:
            factors = [f"u{j}" for j, e in enumerate(exps) for _ in range(e)]
            if channels:
                row, col = divmod(row, m)
                factors.append(f"w{col}")
                used_w.add(col)
            # Dropping a unit coefficient and turning -1.0*t into a
            # subtraction are exact; a constant term keeps its coefficient.
            value = float.fromhex(coef)
            if factors and value in (1.0, -1.0):
                sign = "-" if value < 0.0 else "+"
            else:
                sign = "+"
                factors.insert(0, names.setdefault(coef, f"c{len(names)}"))
            sums[row].append(f" {sign} {'*'.join(factors)}")

    lines = ["def step(u, w, zero, dt, c):"]
    if names:
        lines.append(f"    [{', '.join(names.values())}] = c")
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
    return namespace["step"], tuple(float.fromhex(h) for h in names)




def _chunk(x0, lin, step, coefs, dW, dt, guard, states, stop_index,
           stop_code, rows):
    """Step one chunk.  ``rows`` is None to store every state, else maps
    kept grid indices to rows of ``states``; then return ``(lo, hi)``."""
    n_paths = x0.shape[0]
    n_steps = dW.shape[1]
    guard_sq = guard * guard
    # A finite bound: a step passing it has only finite states inside the
    # guard, so the full check below can be skipped.
    fast_sq = min(guard_sq, sys.float_info.max)
    lin_t = lin.T
    x = np.array(x0, dtype=np.float64)
    observe = rows is not None
    if observe:
        lo = x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]
        hi = lo.copy()
        if 0 in rows:
            states[:, rows[0], :] = x
    else:
        states[:, 0, :] = x
    active = np.arange(n_paths)
    all_live = True

    def constants(width):
        return (np.zeros(width), np.full(width, dt),
                tuple(np.full(width, c) for c in coefs))

    zero, dtv, c = constants(n_paths)
    for k in range(n_steps):
        xa = x if all_live else x[active]
        dWk = dW[:, k] if all_live else dW[active, k]
        x_new = step(xa @ lin_t, dWk, zero, dtv, c)
        bad = None
        if not ((x_new * x_new).sum(axis=1) <= fast_sq).all():
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
                states[:, row, :] = x
        else:
            states[:, k + 1, :] = x
        if bad is not None and bad.any():
            hit = active[bad]
            stop_index[hit] = k + 1
            stop_code[hit] = STOP_DIVERGED
            active = active[~bad]
            all_live = False
            if active.size == 0:
                tail = [r for i, r in rows.items() if i > k + 1] \
                    if observe else slice(k + 2, None)
                states[:, tail, :] = x[:, None, :]
                break
            zero, dtv, c = constants(active.size)
    return (lo, hi) if observe else None


def run_chunk(x0, lin, drift_packed, sigma_packed, dW, dt, guard, out=None,
              keep=None):
    """Advance one chunk of paths through every step.

    Parameters
    ----------
    x0 : ndarray, shape (paths, dim)
    lin : ndarray, shape (dim, dim)
        Exact linear flow applied at the start of every step.
    drift_packed, sigma_packed : packed polynomial triples
        Nonlinear drift (dim outputs) and diffusion (dim*m outputs,
        row-major over the dim x m matrix).
    dW : ndarray, shape (paths, steps, m)
        Brownian increments, already scaled to the step size.
    dt : float
    guard : float
        Overflow radius; paths beyond it freeze as diverged.
    out : ndarray, optional
        Array to write ``states`` into, such as the caller's slice.
    keep : sequence of int, optional
        Grid indices to keep in place of every state; needs dim >= 2.

    Returns
    -------
    (states, stop_index, stop_code), with ``keep`` also (r2_min, r2_max)
        ``states``: (paths, steps+1, dim) with frozen tails after stops,
        or (paths, len(keep), dim) at the kept indices;
        ``stop_index``: steps for surviving paths, else the freeze index;
        ``stop_code``: STOP_NONE or STOP_DIVERGED;
        ``r2_min``, ``r2_max``: per path, the least and greatest
        ``x0*x0 + x1*x1`` over grid points 0 to steps.
    """
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    lin = np.ascontiguousarray(lin, dtype=np.float64)
    dW = np.ascontiguousarray(dW, dtype=np.float64)
    n_paths, dim = x0.shape
    n_steps = dW.shape[1]
    rows = None if keep is None else {int(i): r for r, i in enumerate(keep)}
    if rows is not None and (dim < 2 or len(rows) != len(keep) or not all(
            0 <= i <= n_steps for i in rows)):
        raise ValueError("keep needs dim >= 2 and distinct grid indices")
    shape = (n_paths, n_steps + 1 if rows is None else len(rows), dim)
    states = np.empty(shape) if out is None else out
    if states.shape != shape:
        raise ValueError(f"out has shape {states.shape}, expected {shape}")
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    stop_code = np.zeros(n_paths, dtype=np.int64)
    step, coefs = _generate_step(dim, dW.shape[2], _terms(drift_packed),
                                 _terms(sigma_packed))
    r2 = _chunk(x0, lin, step, coefs, dW, float(dt), float(guard), states,
                stop_index, stop_code, rows)
    if r2 is None:
        return states, stop_index, stop_code
    return (states, stop_index, stop_code) + r2
