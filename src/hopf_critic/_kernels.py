"""Chunked time-stepping kernels behind the simulators.

One step of every integrator in this package has the same shape: apply an
exact linear flow, then an explicit stochastic update with a polynomial
drift and a polynomial diffusion,

    u   = lin @ x_k
    x_{k+1} = u + drift(u) dt + diffusion(u) @ dW_k.

The kernel advances a whole chunk of paths through all steps, records every
state, and freezes a path as diverged when it leaves the overflow guard or
turns non-finite.  Polynomials arrive packed as flat arrays (component
index, exponent rows, coefficients).

The numpy backend does not interpret the packed terms.  For each
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

A compiled per-path loop (numba) over the same packed layout is the other
backend.  Select with the environment variable ``HOPF_CRITIC_BACKEND``
(``numba`` or ``numpy``); the default is the compiled backend when numba
imports cleanly.
"""

from __future__ import annotations

import functools
import os
import sys

import numpy as np

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    _HAVE_NUMBA = False

STOP_NONE = 0
STOP_HIT_INNER = 1
STOP_HIT_OUTER = 2
STOP_LEFT_BALL = 3
STOP_DIVERGED = 4

STOP_REASONS = ("none", "hit_inner", "hit_outer", "left_ball", "diverged")


class BackendError(Exception):
    """Unknown or unavailable kernel backend selection."""


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


def active_backend():
    """Resolve the kernel backend from the environment.

    Returns ``"numba"`` or ``"numpy"``.  Raises BackendError for an
    unrecognized value or when numba is requested but not importable.
    """
    choice = os.environ.get("HOPF_CRITIC_BACKEND", "").strip().lower()
    if choice == "":
        return "numba" if _HAVE_NUMBA else "numpy"
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not _HAVE_NUMBA:
            raise BackendError("backend 'numba' requested but numba is not installed")
        return "numba"
    raise BackendError(f"unknown backend {choice!r} (use 'numba' or 'numpy')")


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


def _chunk_numpy(x0, lin, step, coefs, dW, dt, guard, states, stop_index,
                 stop_code):
    n_paths = x0.shape[0]
    n_steps = dW.shape[1]
    guard_sq = guard * guard
    # A finite bound: a step passing it has only finite states inside the
    # guard, so the full check below can be skipped.
    fast_sq = min(guard_sq, sys.float_info.max)
    lin_t = lin.T
    x = np.array(x0, dtype=np.float64)
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
        states[:, k + 1, :] = x
        if bad is not None and bad.any():
            hit = active[bad]
            stop_index[hit] = k + 1
            stop_code[hit] = STOP_DIVERGED
            active = active[~bad]
            all_live = False
            if active.size == 0:
                states[:, k + 2:, :] = x[:, None, :]
                break
            zero, dtv, c = constants(active.size)
    return states, stop_index, stop_code


if _HAVE_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _chunk_njit(x0, lin, dcomps, dexps, dcoefs, scomps, sexps, scoefs,
                    dW, dt, guard, states, stop_index, stop_code):
        n_paths, dim = x0.shape
        n_steps = dW.shape[1]
        m = dW.shape[2]
        guard_sq = guard * guard
        u = np.empty(dim)
        drift = np.empty(dim)
        noise = np.empty(dim)
        x = np.empty(dim)
        for b in range(n_paths):
            for i in range(dim):
                x[i] = x0[b, i]
                states[b, 0, i] = x[i]
            for k in range(n_steps):
                for i in range(dim):
                    acc = 0.0
                    for j in range(dim):
                        acc += lin[i, j] * x[j]
                    u[i] = acc
                for i in range(dim):
                    drift[i] = 0.0
                    noise[i] = 0.0
                for t in range(dcomps.shape[0]):
                    val = dcoefs[t]
                    for j in range(dim):
                        for _ in range(dexps[t, j]):
                            val *= u[j]
                    drift[dcomps[t]] += val
                for t in range(scomps.shape[0]):
                    val = scoefs[t]
                    for j in range(dim):
                        for _ in range(sexps[t, j]):
                            val *= u[j]
                    row = scomps[t] // m
                    col = scomps[t] - row * m
                    noise[row] += val * dW[b, k, col]
                norm_sq = 0.0
                ok = True
                for i in range(dim):
                    xi = u[i] + drift[i] * dt + noise[i]
                    if not np.isfinite(xi):
                        ok = False
                        break
                    u[i] = xi
                    norm_sq += xi * xi
                if ok and norm_sq <= guard_sq:
                    for i in range(dim):
                        x[i] = u[i]
                        states[b, k + 1, i] = x[i]
                else:
                    if ok:
                        for i in range(dim):
                            x[i] = u[i]
                    stop_index[b] = k + 1
                    stop_code[b] = STOP_DIVERGED
                    for kk in range(k + 1, n_steps + 1):
                        for i in range(dim):
                            states[b, kk, i] = x[i]
                    break
        return states, stop_index, stop_code


def run_chunk(x0, lin, drift_packed, sigma_packed, dW, dt, guard,
              backend=None):
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

    Returns
    -------
    (states, stop_index, stop_code)
        ``states``: (paths, steps+1, dim) with frozen tails after stops;
        ``stop_index``: steps for surviving paths, else the freeze index;
        ``stop_code``: STOP_NONE or STOP_DIVERGED.
    """
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    lin = np.ascontiguousarray(lin, dtype=np.float64)
    dW = np.ascontiguousarray(dW, dtype=np.float64)
    n_paths, dim = x0.shape
    n_steps = dW.shape[1]
    states = np.empty((n_paths, n_steps + 1, dim), dtype=np.float64)
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    stop_code = np.zeros(n_paths, dtype=np.int64)
    if (backend or active_backend()) == "numba":
        dcomps, dexps, dcoefs = drift_packed
        scomps, sexps, scoefs = sigma_packed
        _chunk_njit(x0, lin, dcomps, dexps, dcoefs, scomps, sexps, scoefs,
                    dW, float(dt), float(guard), states, stop_index,
                    stop_code)
    else:
        step, coefs = _generate_step(dim, dW.shape[2], _terms(drift_packed),
                                     _terms(sigma_packed))
        _chunk_numpy(x0, lin, step, coefs, dW, float(dt), float(guard),
                     states, stop_index, stop_code)
    return states, stop_index, stop_code
