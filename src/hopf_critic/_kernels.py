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
states it carries: step 0 of the carry's block buffer holds them, so the
block repeats the last state of the block before, and each step's states
go to the next step of the buffer.  The call returns that block: the
caller folds what it reads out of it before the next block refills the
buffer.

A block is column-major from end to end: the carried states, each step of
the block of states and of its noise sums are (dim, rows) arrays, and a
step's increments are (m, rows), so every coordinate of every row is one
contiguous column.  ``run_chunk`` returns the block as coordinate planes
(G, dim, steps + 1, paths), a view of that buffer.  The increments keep
the shape (rows, steps, m), whose first two axes give the path-steps of
a call as the benchmark's tracer (``perfbench/tracer.py``) counts them;
a view of a contiguous (steps, m, rows) array is stepped without a copy.

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
same term rows (``term_rows``: each term's component and exponents, in
the PolyMap's canonical order).  Only their coefficients, linear flows
and initial states differ.  The chunk's G x paths rows are stepped as
one block, task-major, each row on its own row of increments; the
linear flow is one batched matrix product of each task's rows with its
own flow.  A lone task is the group of one.

The kernel does not interpret the terms.  For each step shape, the
term structure plus the coefficients that are exactly 1.0 or -1.0 in every
task of the group, it generates the source of one straight-line step
function, with numpy calls over contiguous state columns, and of the
block's noise sums, compiles them once and memoises them.  Every other
coefficient comes in as a column holding each task's value over that
task's rows.  A carry builds its plan (the generated functions and the
coefficient columns) on its first block and keeps it for the rest of the
run.  The step keeps the exact operation order of a term-by-term
evaluation, so equal inputs give bitwise equal states, grouped or not:

- a term multiplies left to right, coefficient first, then each variable
  as often as its exponent says (``c*u0*u0*u1``), each product formed in
  one reused temporary with ``out=``; a left-to-right prefix of two or
  more factors that several terms of a step start with (``u0*u0``) is
  formed once into a temporary of its own, which is the same product;
- every drift and noise component accumulates from 0.0 in the PolyMap's
  term order, and the update is ``(u + d*dt) + n``;
- the terms free of state factors that lead a noise component (``w0``,
  ``c*w1``) are summed from 0.0 once per block, for all its steps; each
  step then adds the component's other terms onto its step of those sums,
  in order, so a state-free term after a state term is summed at every
  step;
- each step sums the drift into one (dim, rows) buffer and writes the
  update ``(u + d*dt) + n`` over whole (dim, rows) arrays, straight into
  its step of the block;
- the only rewrites are exact in IEEE arithmetic: a ``1.0*`` factor is
  dropped, ``-1.0*t`` becomes a subtraction, and coefficients are
  broadcast to arrays of the rows' shape;
- each task's linear flow is the product ``x @ lin.T`` of its rows with
  the transposed view ``lin.T`` into a row-major (paths, dim) buffer,
  whose columns are then copied out.  ``lin @ x`` on the columns would
  save that copy, but BLAS rounds it differently with the chunk width.

Sums over the coordinates of a state (the guard test here, norms in the
studies) go through ``sum_squares``, which adds the coordinates' squares
left to right.

Tasks whose PolyMaps have equal term rows share one generated step, so
the coupled rescaled and reduced runs of a planar system stay bitwise
equal.
"""

from __future__ import annotations

import collections
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


def sum_squares(columns):
    """Sum of the squares of a sequence of equal-shape coordinate arrays,
    added left to right.  No coordinates sum to 0.0."""
    squares = [c * c for c in columns]
    if not squares:
        return np.zeros(np.shape(columns)[1:])
    return functools.reduce(np.add, squares)


def term_rows(p):
    """The ``(component, exponents)`` row of each of a PolyMap's terms, in
    its canonical order: what maps must share to step as one group."""
    return tuple((comp, exps) for comp, exps, _ in p.terms)


def _step_shape(maps):
    """Step shape and coefficients of the same map in each of G tasks.

    Returns ``(shape, coefs)``: ``shape`` holds one hashable
    ``(component, exponents, unit)`` row per term, where ``unit`` is 1.0 or
    -1.0 when that coefficient is exactly so in every task and None
    otherwise; ``coefs`` is the (G, terms) coefficient matrix.
    """
    rows = term_rows(maps[0])
    if any(term_rows(p) != rows for p in maps[1:]):
        raise ValueError("grouped tasks must share their terms")
    coefs = np.array([[c for _, _, c in p.terms] for p in maps],
                     dtype=np.float64)
    first = coefs[0]
    unit = ((first == 1.0) | (first == -1.0)) & (coefs == first).all(axis=0)
    shape = tuple((comp, exps, c if u else None) for (comp, exps), c, u
                  in zip(rows, first.tolist(), unit.tolist()))
    return shape, coefs


def _names(prefix, parts):
    """The variables of one kind (``u``, ``w`` or ``c``) that the products
    of ``parts``, (sign, factors) pairs, read, in index order."""
    return sorted({name for _, factors in parts for name in factors
                   if name.startswith(prefix)}, key=lambda name: int(name[1:]))


def _compile(lines, name):
    namespace = {"add": np.add, "subtract": np.subtract,
                 "multiply": np.multiply, "zero": _ZERO}
    exec(compile("\n".join(lines) + "\n", "<generated step>", "exec"),
         namespace)
    return namespace[name]


def _hoist_source(lead, needs):
    """Source of ``hoist(w, c, n)``, which sums every step's leading
    state-free noise terms, ``lead`` per component, from 0.0 at once."""
    hoisted = [p for parts in lead for p in parts]
    lines = ["def hoist(w, c, n):"]
    if _names("c", hoisted):
        lines.append(f"    [{''.join(f'c{i}, ' for i in range(needs))}] = c")
    lines += [f"    {w} = w[:, {w[1:]}]" for w in _names("w", hoisted)]
    for i, parts in enumerate(lead):
        if not parts:
            lines.append(f"    n[:, {i}] = zero")
            continue
        head = "zero" + "".join(f" {sign} {'*'.join(factors)}"
                                for sign, factors in parts[:-1])
        sign, factors = parts[-1]
        op = "subtract" if sign == "-" else "add"
        lines.append(f"    {op}({head}, {'*'.join(factors)}, n[:, {i}])")
    return lines


def _step_source(dim, drift, rest, needs):
    """Source of ``step(u, w, n, d, c, t)`` and its count of temporaries.

    Each product is formed left to right with ``out=`` in ``t0``, or in a
    temporary of its own for a prefix that several products start with,
    formed where it is first read; each component then adds it on.
    """
    looped = [p for parts in drift + rest for p in parts]
    starts = collections.Counter(factors[:j] for _, factors in looped
                                 for j in range(2, len(factors) + 1))
    shared = {prefix for prefix, count in starts.items() if count > 1}
    names = {}
    body = []

    def product(factors, scratch):
        """The name holding the product of ``factors``, emitting the calls
        that form it where it is not formed yet."""
        if len(factors) == 1:
            return factors[0]
        if factors in names:
            return names[factors]
        if factors in shared:
            scratch = names[factors] = f"t{len(names) + 1}"
        head = product(factors[:-1], scratch)
        body.append(f"    multiply({head}, {factors[-1]}, {scratch})")
        return scratch

    for sums, start in ((drift, "zero"), (rest, "n")):
        for i, parts in enumerate(sums):
            head = start if start == "zero" else f"n{i}"
            for sign, factors in parts:
                op = "subtract" if sign == "-" else "add"
                term = product(factors, "t0")
                target = f"d{i}" if start == "zero" else f"n{i}"
                body.append(f"    {op}({head}, {term}, {target})")
                head = target
    lines = ["def step(u, w, n, d, c, t):"]
    if _names("c", looped):
        lines.append(f"    [{''.join(f'c{i}, ' for i in range(needs))}] = c")
    lines.append(f"    [{''.join(f'u{i}, ' for i in range(dim))}] = u")
    lines.append(f"    [{''.join(f'd{i}, ' for i in range(dim))}] = d")
    lines.append(f"    [{''.join(f't{i}, ' for i in range(len(shared) + 1))}]"
                 " = t")
    lines += [f"    {w} = w[{w[1:]}]" for w in _names("w", looped)]
    lines += [f"    n{i} = n[{i}]" for i, parts in enumerate(rest) if parts]
    return lines + body, len(shared) + 1


@functools.lru_cache(maxsize=128)
def _generate_step(dim, m, drift_shape, sigma_shape):
    """Compile the straight-line functions of one step shape.

    Takes the ``_step_shape`` rows of both maps and returns
    ``(step, hoist, needs, temporaries)``: ``needs`` lists, by index into
    the drift terms followed by the diffusion terms, the terms whose
    coefficient the generated functions read from a column of the
    sequence ``c``, and ``step`` takes ``temporaries`` scratch columns.

    ``hoist(w, c, n)`` sums, for every step of a block at once, the
    state-free terms that lead each noise component into ``n`` (steps,
    dim, rows), or writes 0.0 where none lead; ``w`` holds the block's
    increments (steps, m, rows).  ``step(u, w, n, d, c, t)`` takes the
    columns ``u`` of the linear-flow image, one step's increments ``w``
    (m, rows) and the scratch columns ``t``: it sums each drift component
    into its column of ``d`` (left at 0.0 where there are no terms) and
    adds each noise component's other terms onto its column of that
    step's noise sums ``n`` (dim, rows).
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
        sums[row].append((sign, tuple(factors)))
    # Per noise component, the leading terms free of state factors, summed
    # once per block, and the terms after them, summed at every step.
    lead = []
    for parts in noise:
        count = 0
        while count < len(parts) and not _names("u", [parts[count]]):
            count += 1
        lead.append(parts[:count])
    rest = [parts[len(first):] for parts, first in zip(noise, lead)]
    hoist = _compile(_hoist_source(lead, len(needs)), "hoist")
    lines, temporaries = _step_source(dim, drift, rest, len(needs))
    return _compile(lines, "step"), hoist, tuple(needs), temporaries


class Carry:
    """Per-row state of one chunk between blocks of steps.

    ``run_chunk`` advances it in place, one block of increments per call.
    ``x`` (dim, rows) holds every row's state at grid index ``offset``,
    where the next block opens, frozen for stopped rows: they step with
    the others, from the origin, but their states are reset to ``x`` after
    each block.  ``stop_index`` and ``stop_code`` are as ``run_chunk``
    returns them.  A fresh carry starts at grid index 0 with no stops.
    """

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=np.float64)
        self.shape = x0.shape
        self.x = np.ascontiguousarray(
            x0.reshape(-1, x0.shape[2]).T)
        self.offset = 0
        self.stop_index = np.zeros(self.x.shape[1], dtype=np.int64)
        self.stop_code = np.zeros(self.x.shape[1], dtype=np.int64)
        # the step plan of the group, made by the first block, and every
        # state of the last block, from the carried states, refilled by the
        # next
        self.plan = None
        self.block = None


# What a carry's blocks step with: the generated ``step`` and ``hoist``,
# the coefficient columns ``cols`` over the G*n rows and the count of the
# step's scratch columns.
_Plan = collections.namedtuple("_Plan", "step hoist cols temporaries")


def _plan(drifts, sigmas, dim, m, n_paths):
    drift_shape, drift_coefs = _step_shape(drifts)
    sigma_shape, sigma_coefs = _step_shape(sigmas)
    step, hoist, needs, temporaries = _generate_step(dim, m, drift_shape,
                                                     sigma_shape)
    coefs = np.concatenate((drift_coefs, sigma_coefs), axis=1)
    cols = np.repeat(coefs[:, list(needs)].T, n_paths, axis=1)
    return _Plan(step, hoist, tuple(cols), temporaries)


def _chunk(lin, plan, w, dt, guard, carry):
    """Step one block of G tasks x n paths as G*n rows, task-major.

    Row r steps on the increments ``w[:, :, r]`` (steps, m, rows) from
    ``carry``, which the block advances.  Returns the block's states
    (steps + 1, dim, G*n) at grid indices ``carry.offset`` (the carried
    states) to the block's end.
    """
    n_tasks, n_paths, dim = carry.shape
    n_rows = n_tasks * n_paths
    n_steps = len(w)
    if carry.block is None or len(carry.block) <= n_steps:
        carry.block = np.empty((n_steps + 1, dim, n_rows))
    block = carry.block[:n_steps + 1]
    block[0] = carry.x
    # step k holds the states at grid index carry.offset + k + 1
    states = block[1:]
    live = carry.stop_code == STOP_NONE
    stepped = n_steps > 0 and live.any()
    if stepped:
        # Each step's noise sums go where its states will: the step adds
        # its terms onto them and the update onto those.
        plan.hoist(w, plan.cols, states)
        # Each task's rows as the (paths, dim) operand of ``x @ lin.T``,
        # the product's row-major buffer, its columns, the drift's and the
        # update's.
        grouped = states.reshape(n_steps, dim, n_tasks, n_paths) \
            .transpose(0, 2, 3, 1)
        product = np.empty((n_tasks, n_paths, dim))
        u = np.empty((dim, n_rows))
        u_grouped = u.reshape(dim, n_tasks, n_paths).transpose(1, 2, 0)
        drift = np.zeros((dim, n_rows))
        update = np.empty((dim, n_rows))
        u_columns, drift_columns = tuple(u), tuple(drift)
        scratch = tuple(np.empty(n_rows) for _ in range(plan.temporaries))
        lin_t = lin.transpose(0, 2, 1)
        # Rows stopped in an earlier block step from the origin, where
        # their states stay small enough to pass the guard test below, and
        # get their frozen states back after the block.
        x = carry.x if live.all() else np.where(live, carry.x, 0.0)
        x_grouped = x.reshape(dim, n_tasks, n_paths).transpose(1, 2, 0)
        step, cols = plan.step, plan.cols
        matmul, copyto, multiply, add = np.matmul, np.copyto, np.multiply, \
            np.add
        with np.errstate(**_QUIET):
            for row, w_k, x_next in zip(states, w, grouped):
                matmul(x_grouped, lin_t, out=product)
                copyto(u_grouped, product)
                step(u_columns, w_k, row, drift_columns, cols, scratch)
                # the update (u + d*dt) + n over whole (dim, rows) arrays,
                # with the noise sums n in the row
                multiply(drift, dt, update)
                add(u, update, update)
                add(update, row, row)
                x_grouped = x_next
    carry.stop_index[live] = carry.offset + n_steps
    if stepped:
        _find_stops(block, live, carry, guard)
    if not live.all():
        states[:, :, ~live] = carry.x[:, ~live]
    # the last step of the block, which the next block refills
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
    # comparisons.  Step 0 holds the frozen states of stopped rows.
    states = block[1:]
    fast_sq = min(guard_sq, sys.float_info.max) / states.shape[1] \
        * (1.0 - 1e-9)
    high, low = float(states.max()), float(states.min())
    if high * high <= fast_sq and low * low <= fast_sq:
        return
    rows = np.flatnonzero(live)
    path = block[:, :, rows]
    with np.errstate(**_QUIET):
        finite = np.isfinite(path).all(axis=1)
        # a guard of 1e300 squares to inf, so finiteness is its own test
        bad = ~(finite & (sum_squares(path.transpose(1, 0, 2))
                          <= guard_sq))
    # the carried states were checked by the block before, or are x0
    bad[0] = False
    hit = np.flatnonzero(bad.any(axis=0))
    k = bad[:, hit].argmax(axis=0)
    # a first bad state that is not finite freezes at the one before
    frozen = path[k - ~finite[k, hit], :, hit].T
    tail = np.arange(len(path))[:, None] >= k
    block[:, :, rows[hit]] = np.where(tail[:, None, :], frozen,
                                      path[:, :, hit])
    carry.stop_index[rows[hit]] = carry.offset + k
    carry.stop_code[rows[hit]] = STOP_DIVERGED


def run_chunk(x0, lin, drifts, sigmas, dW, dt, guard, carry=None):
    """Advance one chunk of paths of a group of G tasks by one block of steps.

    The group's drift and diffusion maps must have equal term rows; a lone
    task is the group of one.  Without ``carry`` the block starts at grid
    index 0 from ``x0``, so one call with every increment runs the whole
    horizon.  A run split into blocks passes the same ``Carry(x0)`` to each
    call in turn, with the same maps and the next block's increments: the
    rows go on from the carried states and stops, and the results are
    bitwise those of one call.  Every row steps at every step; stops are
    found after the block, and a stopped row keeps its frozen state.

    Parameters
    ----------
    x0 : ndarray, shape (G, paths, dim)
        Initial states; with ``carry`` only their shape is read.
    lin : ndarray, shape (G, dim, dim)
        Each task's exact linear flow, applied at the start of every step.
    drifts, sigmas : sequences of G PolyMaps
        Each task's nonlinear drift, dim inputs to dim outputs, and
        diffusion, dim inputs to dim*m outputs (row-major over the dim x m
        matrix).  The group's drifts, and its diffusions, must have equal
        term rows (``term_rows``).
    dW : ndarray, shape (G*paths, steps, m)
        Brownian increments of every row for this block's steps,
        task-major, already scaled to the step size; tasks on one Brownian
        path repeat its increments.  A view of a contiguous (steps, m,
        G*paths) array is stepped without a copy.
    dt : float
    guard : float
        Overflow radius; paths beyond it freeze as diverged.
    carry : Carry, optional
        State at the end of the previous block, advanced in place.

    Returns
    -------
    (states, stop_index, stop_code), each with a leading task axis of
    length G
        ``states``: (G, dim, steps + 1, paths), the coordinate planes of
        the block's states at grid indices from the carried states' to its
        end, with frozen tails after stops; a view of the carry's block
        buffer, which the next call refills;
        ``stop_index``: the block's end for surviving paths, else the
        freeze index;
        ``stop_code``: STOP_NONE or STOP_DIVERGED.
    """
    lin = np.ascontiguousarray(lin, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    w = np.ascontiguousarray(np.asarray(dW, dtype=np.float64)
                             .transpose(1, 2, 0))
    n_tasks, n_paths, dim = x0.shape
    m = w.shape[1]
    if lin.shape != (n_tasks, dim, dim) \
            or w.shape[2] != n_tasks * n_paths \
            or len(drifts) != n_tasks or len(sigmas) != n_tasks:
        raise ValueError("x0, lin, dW and the maps disagree on tasks, "
                         "paths or dim")
    if any((p.n_in, p.n_out) != (dim, dim) for p in drifts) \
            or any((p.n_in, p.n_out) != (dim, dim * m) for p in sigmas):
        raise ValueError("a drift must map dim to dim components and a "
                         "diffusion dim to dim*m")
    if carry is None:
        carry = Carry(x0)
    elif carry.shape != x0.shape:
        raise ValueError("carry and x0 disagree on tasks, paths or dim")
    if carry.plan is None:
        carry.plan = _plan(drifts, sigmas, dim, m, n_paths)
    # dt as a 0-d array, which numpy takes faster than a float
    block = _chunk(lin, carry.plan, w, np.array(float(dt)), float(guard),
                   carry)
    return (block.reshape(len(block), dim, n_tasks, n_paths)
            .transpose(2, 1, 0, 3),
            carry.stop_index.reshape(n_tasks, n_paths),
            carry.stop_code.reshape(n_tasks, n_paths))
