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
Every row steps at every step, but a stopped row keeps its frozen state,
and once every row of a chunk has stopped a block only repeats the frozen
states.  A call without a carry starts fresh at grid index 0, so one call
with the whole horizon's increments is the unblocked run, and any split
into blocks gives bitwise the same results.  Every block opens on the
states it carries: row 0 of the carry's step-major block buffer holds
them, so the block repeats the last state of the block before, and each
step's states go to the next row.  The call returns that block: the
caller folds what it reads out of it before the next block refills the
buffer.  Polynomials arrive packed as flat arrays (component
index, exponent rows, coefficients).

Stops are found after the block.  Its states are first bounded at once
by their extremes; only a block that fails that bound is scanned row by
row, and a row live at the block's start stops at its first state that is
non-finite or beyond the guard.  It keeps that state, or the state before
it if that one is not finite, for the rest of the run, so its states and
stops are those of a check after every step.  Rows stopped in an earlier
block step from the origin, so that their frozen states, often beyond the
guard, do not fail the bound in every later block.  Rows never leave the
stacked product, so a path's bits do not depend on which others share
its chunk, as long as the chunk holds two or more paths.

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
function, with one numpy expression per term over state columns, and of
the block's noise sums, compiles them once and memoises them.  Every
other coefficient comes in as a column holding each task's value over
that task's rows.  The step keeps the exact operation order of a
term-by-term evaluation, so equal inputs give bitwise equal states,
grouped or not:

- a term multiplies left to right, coefficient first, then each variable
  as often as its exponent says (``c*u0*u0*u1``); no powers are shared;
- every drift and noise component accumulates from 0.0 in packed term
  order, and the update is ``(u + d*dt) + n``;
- the terms free of state factors that lead a noise component (``w0``,
  ``c*w1``) are summed from 0.0 once per block, for all its steps; each
  step then adds the component's other terms onto its row of those sums,
  in order, so a state-free term after a state term is summed at every
  step;
- each step sums the drift into one (rows, dim) buffer and writes the
  update ``(u + d*dt) + n`` over whole (rows, dim) arrays, straight into
  its row of the block;
- the only rewrites are exact in IEEE arithmetic: a ``1.0*`` factor is
  dropped, ``-1.0*t`` becomes a subtraction, and coefficients are
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
STOP_DIVERGED = 1

STOP_REASONS = ("none", "diverged")

# What a step past the guard, or of a stopped row, may raise; the check
# after the block stops the row.
_QUIET = {"over": "ignore", "invalid": "ignore"}
# 0.0 as an operand of the generated functions: numpy takes a 0-d array
# faster than a Python float, with the same IEEE result.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


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


def _accumulate(head, parts, out):
    """Source that sums ``head`` and then ``parts``, (sign, product)
    pairs, left to right, the last sum written to ``out``."""
    head += "".join(f" {sign} {product}" for sign, product in parts[:-1])
    sign, product = parts[-1]
    op = "subtract" if sign == "-" else "add"
    return f"    {op}({head}, {product}, {out})"


def _names(prefix, parts):
    """The variables of one kind (``u``, ``w`` or ``c``) that the products
    of ``parts`` read, in index order."""
    return sorted({name for _, product in parts
                   for name in product.split("*") if name.startswith(prefix)},
                  key=lambda name: int(name[1:]))


def _compile(lines, name):
    namespace = {"add": np.add, "subtract": np.subtract,
                 "multiply": np.multiply, "zero": _ZERO}
    exec(compile("\n".join(lines) + "\n", "<generated step>", "exec"),
         namespace)
    return namespace[name]


@functools.lru_cache(maxsize=128)
def _generate_step(dim, m, drift_shape, sigma_shape):
    """Compile the straight-line functions of one step shape.

    Takes the ``_step_shape`` rows of both maps and returns
    ``(step, hoist, needs)``: ``needs`` lists, by index into the drift
    terms followed by the diffusion terms, the terms whose coefficient the
    generated functions read from a column of the sequence ``c``.

    ``hoist(w, c, n)`` sums, for every step of a block at once, the
    state-free terms that lead each noise component into ``n`` (steps,
    rows, dim), or writes 0.0 where none lead; ``w`` holds the block's
    increments (rows, steps, m).  ``step(u, w, n, d, c)`` takes the
    columns ``u`` of the linear-flow image and one step's increments ``w``
    (rows, m): it sums each drift component into its column of ``d``
    (left at 0.0 where there are no terms) and adds each noise
    component's other terms onto its column of that step's row ``n``
    (rows, dim) of the hoisted sums.
    """
    needs = []
    drift = [[] for _ in range(dim)]
    noise = [[] for _ in range(dim)]
    terms = [(shape, drift, False) for shape in drift_shape]
    terms += [(shape, noise, True) for shape in sigma_shape]
    for index, ((row, exps, unit), sums, channels) in enumerate(terms):
        factors = [f"u{j}" for j, e in enumerate(exps) for _ in range(e)]
        if channels:
            row, col = divmod(row, m)
            factors.append(f"w{col}")
        # Dropping a unit coefficient and turning -1.0*t into a
        # subtraction are exact; a constant term keeps its coefficient.
        if factors and unit is not None:
            sign = "-" if unit < 0.0 else "+"
        else:
            sign = "+"
            factors.insert(0, f"c{len(needs)}")
            needs.append(index)
        sums[row].append((sign, "*".join(factors)))
    # Per noise component, the leading terms free of state factors, summed
    # once per block, and the terms after them, summed at every step.
    lead = []
    for parts in noise:
        count = 0
        while count < len(parts) and not _names("u", [parts[count]]):
            count += 1
        lead.append(parts[:count])
    rest = [parts[len(first):] for parts, first in zip(noise, lead)]

    def unpack(name, count):
        """Source binding name0, name1, ... to the items of ``name``."""
        names = ", ".join(f"{name}{i}" for i in range(count))
        return f"    [{names}] = {name}"

    def coefficients(parts):
        return [unpack("c", len(needs))] if _names("c", parts) else []

    hoisted = [p for parts in lead for p in parts]
    lines = ["def hoist(w, c, n):"] + coefficients(hoisted)
    lines += [f"    {w} = w[:, :, {w[1:]}].T" for w in _names("w", hoisted)]
    for i, parts in enumerate(lead):
        lines.append(_accumulate("zero", parts, f"n[:, :, {i}]") if parts
                     else f"    n[:, :, {i}] = zero")
    hoist = _compile(lines, "hoist")

    looped = [p for parts in drift + rest for p in parts]
    lines = ["def step(u, w, n, d, c):"] + coefficients(looped)
    lines += [unpack("u", dim), unpack("d", dim)]
    lines += [f"    {w} = w[:, {w[1:]}]" for w in _names("w", looped)]
    lines += [f"    n{i} = n[:, {i}]"
              for i, parts in enumerate(rest) if parts]
    lines += [_accumulate("zero", parts, f"d{i}")
              for i, parts in enumerate(drift) if parts]
    lines += [_accumulate(f"n{i}", parts, f"n{i}")
              for i, parts in enumerate(rest) if parts]
    return _compile(lines, "step"), hoist, tuple(needs)


class Carry:
    """Per-row state of one chunk between blocks of steps.

    ``run_chunk`` advances it in place, one block of increments per call.
    ``x`` (rows, dim) holds every row's state at grid index ``offset``,
    where the next block opens, frozen for stopped rows: they step with
    the others, from the origin, but their states are reset to ``x`` after
    each block.  ``stop_index`` and ``stop_code`` are as ``run_chunk``
    returns them.  A fresh carry starts at grid index 0 with no stops.
    """

    def __init__(self, x0):
        x0 = np.array(x0, dtype=np.float64)
        self.shape = x0.shape
        self.x = x0.reshape(-1, x0.shape[2])
        self.offset = 0
        self.stop_index = np.zeros(len(self.x), dtype=np.int64)
        self.stop_code = np.zeros(len(self.x), dtype=np.int64)
        # every state of the last block, step-major from the carried
        # states, refilled by the next, and a buffer for its noise sums
        self.block = None
        self.noise = None


def _chunk(lin, step, hoist, cols, dW, dt, guard, carry):
    """Step one block of G tasks x n paths as G*n rows, task-major.

    Row r steps on the increments ``dW[r]`` from ``carry``, which the
    block advances.  ``cols`` holds the coefficient columns, one row per
    column over the G*n rows.  Returns the block's states, step-major
    (steps + 1, G*n, dim), at grid indices ``carry.offset`` (the carried
    states) to the block's end.
    """
    n_tasks, n_paths, dim = carry.shape
    n_rows = n_tasks * n_paths
    n_steps = dW.shape[1]
    # Each step's states go to one contiguous row of the block, and its
    # noise sums to one row of a buffer of the steps' shape.
    if carry.block is None or len(carry.block) <= n_steps:
        carry.block = np.empty((n_steps + 1, n_rows, dim))
        carry.noise = np.empty((n_steps, n_rows, dim))
    block = carry.block[:n_steps + 1]
    block[0] = carry.x
    # row k holds the states at grid index carry.offset + k + 1
    states = block[1:]
    live = carry.stop_code == STOP_NONE
    stepped = n_steps > 0 and live.any()
    if stepped:
        noise = carry.noise[:n_steps]
        hoist(dW, cols, noise)
        # Step-major increments, the states with their task axis, the
        # linear-flow image of all rows and their drift.
        dW_steps = dW.transpose(1, 0, 2)
        grouped = states.reshape(n_steps, n_tasks, n_paths, dim)
        u_grouped = np.empty((n_tasks, n_paths, dim))
        u = u_grouped.reshape(n_rows, dim)
        drift = np.zeros((n_rows, dim))
        u_columns, drift_columns, c = tuple(u.T), tuple(drift.T), tuple(cols)
        # Per task the transposed view that ``x @ lin.T`` multiplies by.
        lin_t = lin.transpose(0, 2, 1)
        # Rows stopped in an earlier block step from the origin, where
        # their states stay small enough to pass the guard test below, and
        # get their frozen states back after the block.
        x = carry.x if live.all() else np.where(live[:, None], carry.x, 0.0)
        x_grouped = x.reshape(n_tasks, n_paths, dim)
        with np.errstate(**_QUIET):
            for k in range(n_steps):
                row, n = states[k], noise[k]
                np.matmul(x_grouped, lin_t, out=u_grouped)
                step(u_columns, dW_steps[k], n, drift_columns, c)
                # the update (u + d*dt) + n over whole (rows, dim) arrays
                np.multiply(drift, dt, row)
                np.add(u, row, row)
                np.add(row, n, row)
                x_grouped = grouped[k]
    carry.stop_index[live] = carry.offset + n_steps
    if stepped:
        _find_stops(block, live, carry, guard)
    if not live.all():
        states[:, ~live] = carry.x[~live]
    # the last row of the block, which the next block refills
    carry.x = block[-1].copy()
    carry.offset += n_steps
    return block


def _find_stops(block, live, carry, guard):
    """Freeze as diverged every row of ``live``, the rows live at the
    block's start, from its first state that is non-finite or beyond the
    guard.

    The row keeps that state, or the state before it where it is not
    finite; its stop index is the grid index of that first bad state.
    """
    guard_sq = guard * guard
    # A finite bound on every squared coordinate: steps within it have
    # only finite states, and each row's sum of dim squares stays within
    # the guard even after rounding.  Squares grow with the magnitude, so
    # the steps' extremes bound every state's squares; NaN fails both
    # comparisons.  Row 0 holds the frozen states of stopped rows.
    states = block[1:]
    fast_sq = min(guard_sq, sys.float_info.max) / states.shape[2] \
        * (1.0 - 1e-9)
    high, low = float(states.max()), float(states.min())
    if high * high <= fast_sq and low * low <= fast_sq:
        return
    rows = np.flatnonzero(live)
    path = block[:, rows]
    with np.errstate(**_QUIET):
        finite = np.isfinite(path).all(axis=2)
        # a guard of 1e300 squares to inf, so finiteness is its own test
        bad = ~(finite & ((path * path).sum(axis=2) <= guard_sq))
    # the carried states were checked by the block before, or are x0
    bad[0] = False
    hit = np.flatnonzero(bad.any(axis=0))
    k = bad[:, hit].argmax(axis=0)
    # a first bad state that is not finite freezes at the one before
    frozen = path[k - ~finite[k, hit], hit]
    tail = np.arange(len(path))[:, None] >= k
    block[:, rows[hit]] = np.where(tail[:, :, None], frozen, path[:, hit])
    carry.stop_index[rows[hit]] = carry.offset + k
    carry.stop_code[rows[hit]] = STOP_DIVERGED


def run_chunk(x0, lin, drift_packed, sigma_packed, dW, dt, guard,
              carry=None):
    """Advance one chunk of paths of a group of G tasks by one block of steps.

    The group's drift and diffusion maps must have equal terms; a lone
    task is the group of one.  Without ``carry`` the block starts at grid
    index 0 from ``x0``, so one call with every increment runs the whole
    horizon.  A run split into blocks passes the same ``Carry(x0)`` to each
    call in turn, with the next block's increments: the rows go on from
    the carried states and stops, and the results are bitwise those of one
    call.  Every row steps at every step; stops are found after the block,
    and a stopped row keeps its frozen state.

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
        ``states``: (G, paths, steps + 1, dim), the block's states at grid
        indices from the carried states' to its end, with frozen tails
        after stops; a view of the carry's block buffer, which the next
        call refills;
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
    step, hoist, needs = _generate_step(dim, m, drift_shape, sigma_shape)
    coefs = np.concatenate((drift_coefs, sigma_coefs), axis=1)
    cols = np.repeat(coefs[:, list(needs)].T, n_paths, axis=1)
    # dt as a 0-d array, which numpy takes faster than a float
    block = _chunk(lin, step, hoist, cols, dW, np.array(float(dt)),
                   float(guard), carry)
    return (block.reshape(len(block), n_tasks, n_paths, dim)
            .transpose(1, 2, 0, 3),
            carry.stop_index.reshape(n_tasks, n_paths),
            carry.stop_code.reshape(n_tasks, n_paths))
