"""Noise streams, the splitting integrator, ensembles, and polar paths."""

import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic import sde, stats
from hopf_critic._kernels import (STOP_DIVERGED, STOP_REASONS, Carry,
                                  run_chunk, sum_squares)
from hopf_critic.config import load_config
from hopf_critic.polyfield import PolyMap

REPO = Path(__file__).resolve().parent.parent


def cubic_rotation():
    return PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), -1.0), (0, (1, 2), -1.0),
        (1, (1, 0), 1.0), (1, (2, 1), -1.0), (1, (0, 3), -1.0)])


def planar_fields():
    f = PolyMap(2, 2, [
        (0, (3, 0), -1.0), (0, (1, 2), -1.0),
        (1, (2, 1), -1.0), (1, (0, 3), -1.0)])
    g = PolyMap.zero(2, 0)
    sigma_q = PolyMap(2, 4, [
        (0, (0, 0), 1.0), (0, (1, 0), 1.5), (3, (0, 0), 1.0)])
    sigma_p = PolyMap.zero(2, 0)
    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    P = np.zeros((0, 0))
    return f, g, sigma_q, sigma_p, Q, P


def coupled3d_fields():
    # planar cubic rotation plus one stable mode forced by z1^2 and fed
    # back into the plane through the drift and a y-dependent noise
    # coefficient
    f = PolyMap(3, 2, [
        (0, (3, 0, 0), -1.0), (0, (1, 2, 0), -1.0), (0, (1, 0, 1), 0.5),
        (1, (2, 1, 0), -1.0), (1, (0, 3, 0), -1.0)])
    g = PolyMap(3, 1, [(0, (2, 0, 0), 1.0)])
    sigma_q = PolyMap(3, 6, [
        (0, (0, 0, 0), 1.0), (0, (0, 0, 1), 1.0), (4, (0, 0, 0), 1.0)])
    sigma_p = PolyMap(3, 3, [(2, (0, 0, 0), 1.0)])
    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    P = np.array([[-1.0]])
    return f, g, sigma_q, sigma_p, Q, P


def left_to_right(squares):
    """Sum of the last axis of ``squares``, added left to right."""
    return functools.reduce(np.add, np.moveaxis(squares, -1, 0))


def term_loop_chunk(x0, lin, dcomps, dexps, dcoefs, scomps, sexps, scoefs,
                    dW, dt, guard, states, stop_index, stop_code):
    """Reference numpy kernel that interprets the terms one by one.

    The generated step must reproduce its operation order exactly.
    """
    n_paths, dim = x0.shape
    n_steps = dW.shape[1]
    m = dW.shape[2]
    guard_sq = guard * guard
    x = x0.astype(np.float64).copy()
    states[:, 0, :] = x
    active = np.arange(n_paths)
    for k in range(n_steps):
        if active.size == 0:
            states[:, k + 1, :] = states[:, k, :]
            continue
        xa = x[active]
        u = xa @ lin.T
        drift = np.zeros_like(u)
        for t in range(dcomps.shape[0]):
            val = np.full(u.shape[0], dcoefs[t])
            for j in range(dim):
                for _ in range(dexps[t, j]):
                    val = val * u[:, j]
            drift[:, dcomps[t]] += val
        noise = np.zeros_like(u)
        dWk = dW[active, k, :]
        for t in range(scomps.shape[0]):
            val = np.full(u.shape[0], scoefs[t])
            for j in range(dim):
                for _ in range(sexps[t, j]):
                    val = val * u[:, j]
            row, col = divmod(int(scomps[t]), m)
            noise[:, row] += val * dWk[:, col]
        x_new = u + drift * dt + noise
        finite = np.isfinite(x_new).all(axis=1)
        x_new[~finite] = xa[~finite]
        inside = left_to_right(x_new * x_new) <= guard_sq
        bad = ~(finite & inside)
        x[active] = x_new
        states[:, k + 1, :] = x
        if bad.any():
            hit = active[bad]
            stop_index[hit] = k + 1
            stop_code[hit] = STOP_DIVERGED
            active = active[~bad]
    return states, stop_index, stop_code


def to_polar(states, stop_index, stop_reason, delta, nmax):
    """Reference polar conversion of one planar path, one point at a time.

    Returns the radius, frozen from the first grid point outside the open
    annulus ``(delta, nmax)`` or from an inherited stop, with the stop
    index and reason.
    """
    rho = np.sqrt((states * states).sum(axis=1))
    assert delta < rho[0] < nmax
    outside = (rho <= delta) | (rho >= nmax)
    if outside.any():
        s = int(np.argmax(outside))
        reason = "hit_inner" if rho[s] <= delta else "hit_outer"
        rho = rho.copy()
        rho[s:] = rho[s]
    elif stop_reason != "none":
        s = stop_index
        reason = stop_reason
    else:
        s = len(rho) - 1
        reason = "none"
    return rho, s, reason


def one_path_ensemble(states):
    """A never-stopped one-path ensemble holding the given planar states."""
    n = states.shape[0] - 1
    grid = np.linspace(0.0, 1.0, n + 1)
    return sde.PathEnsemble(grid=grid, states=states[None],
                            stop_index=np.array([n]), stop_reason=("none",))


def stream_increments(task, stream):
    """Scaled Brownian increments (n_steps, m) a task draws from a stream."""
    return task.increments(stream.standard_blocks(task.noise_blocks, task.m))


def chunk_inputs(task, count, seed, guard=None):
    """run_chunk arguments for ``count`` keyed paths of a task alone, at
    overflow radius ``guard`` (by default the current
    ``sde.GUARD_RADIUS``, as ``run_coupled`` reads it)."""
    dW = np.stack([stream_increments(
        task, sde.NoiseStream(seed, p, task.stream_class))
        for p in range(count)])
    x0 = np.broadcast_to(task.x0, (1, count, task.dim))
    return (x0, task.lin[None], [task.drift], [task.diffusion], dW, task.dt,
            sde.GUARD_RADIUS if guard is None else guard)


def term_arrays(p):
    """A PolyMap's terms as (components, exponents, coefficients) arrays,
    in its canonical order."""
    comps = np.array([comp for comp, _, _ in p.terms], dtype=np.int64)
    exps = np.array([exps for _, exps, _ in p.terms],
                    dtype=np.int64).reshape(len(p.terms), p.n_in)
    coefs = np.array([coef for _, _, coef in p.terms], dtype=np.float64)
    return comps, exps, coefs


def term_loop_run(x0, lin, drifts, sigmas, dW, dt, guard):
    """The term loop on ``chunk_inputs``' arguments for one task, its
    states as the kernel's coordinate planes (dim, steps + 1, paths)."""
    x0, lin, (drift,), (sigma,) = x0[0], lin[0], drifts, sigmas
    n_paths, n_steps = dW.shape[:2]
    states = np.empty((n_paths, n_steps + 1, x0.shape[1]))
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    stop_code = np.zeros(n_paths, dtype=np.int64)
    states, stop_index, stop_code = term_loop_chunk(
        np.ascontiguousarray(x0), lin, *term_arrays(drift),
        *term_arrays(sigma), dW, float(dt), float(guard), states, stop_index,
        stop_code)
    return states.transpose(2, 1, 0), stop_index, stop_code


# Overflow radii of the run_chunk cases whose paths stop inside the
# horizon: 10 and 1.6 lie inside the radii those paths reach, and 1e300
# squares to inf, so only non-finite states (inf from a cube, nan from
# inf - inf against the noise) stop a path.  Other cases run at
# sde.GUARD_RADIUS.
CASE_GUARDS = {"partial_guard": 10.0, "overflow": 1e300,
               "coupled3d_guard": 1.6, "guard_in_one_task": 10.0}


def kernel_tasks():
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    planar = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                               (1.0, 0.0), np.zeros(0), 1e-3, 0.2)
    f, g, sigma_q, sigma_p, Q, P = coupled3d_fields()
    coupled = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                                (1.0, 0.0), np.zeros(1), 1e-3, 0.2)
    params = sde.LimitParams(np.array([[1.0, 0.5], [0.0, 2.0]]))
    limit = sde.limit_task(params, 1.0, 1e-3, 0.2)
    cube = PolyMap(1, 1, [(0, (3,), 1.0)])
    # from 0.5 the cubic blows up near t = 2: noise pushes some paths
    # past the guard mid-chunk while others survive
    partial = sde.em_task(cube, PolyMap(1, 1, [(0, (0,), 1.0)]),
                          np.array([0.5]), 1e-2, 2.0)
    # at the 1e300 guard the quadratic noise drives paths to overflow
    overflow = sde.em_task(cube, PolyMap(1, 1, [(0, (2,), 1.0)]),
                           np.array([1.0]), 1e-2, 2.0)
    # several terms of mixed size per component, with a step long enough
    # that a reordered sum shows in the state
    dense = sde.em_task(
        PolyMap(2, 2, [
            (0, (1, 0), -0.7), (0, (2, 0), 0.3), (0, (1, 1), -1.1),
            (0, (0, 2), 0.45), (0, (3, 0), -1.0),
            (1, (0, 1), -0.9), (1, (1, 1), 0.6), (1, (2, 1), -1.3),
            (1, (0, 3), -1.0)]),
        PolyMap(2, 4, [(0, (0, 0), 0.8), (0, (1, 0), 0.35),
                       (0, (0, 1), -0.25), (1, (1, 1), 0.2),
                       (3, (0, 0), 1.0), (3, (0, 1), -0.4)]),
        np.array([0.6, -0.3]), 5e-2, 5.0)
    # from 2.0 every path leaves the guard long before the horizon
    all_guard = sde.em_task(cube, PolyMap(1, 1, [(0, (0,), 0.1)]),
                            np.array([2.0]), 1e-2, 2.0)
    # noise rows summed in different places: row 0 has only terms without
    # state factors, summed once per block; row 1 starts with -w0, summed
    # so too, then has u0*w0 and a w1 term after it, both summed at every
    # step; row 2 has none.  Drift row 0 has no terms.
    hoisting = sde.em_task(
        PolyMap(3, 3, [
            (1, (0, 1, 0), -0.8), (1, (1, 1, 0), 0.1), (1, (0, 1, 2), -0.1),
            (2, (0, 0, 1), -0.5), (2, (2, 0, 0), 0.2)]),
        PolyMap(3, 6, [(0, (0, 0, 0), 0.7), (1, (0, 0, 0), 1.0),
                       (2, (0, 0, 0), -1.0), (2, (1, 0, 0), 0.4),
                       (3, (0, 0, 0), 0.5), (3, (0, 1, 0), -1.0)]),
        np.array([0.6, -0.3, 0.2]), 5e-2, 5.0)
    return {"planar": planar, "coupled3d": coupled, "limit": limit,
            "dense": dense, "partial_guard": partial, "overflow": overflow,
            "all_guard": all_guard, "hoisting": hoisting}


@pytest.mark.parametrize("name", sorted(kernel_tasks()))
def test_generated_step_matches_term_loop_bitwise(name):
    task = kernel_tasks()[name]
    args = chunk_inputs(task, 40, 3, CASE_GUARDS.get(name))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = term_loop_run(*args)
        got = [a[0] for a in run_chunk(*args)]
    for want, have in zip(expected, got):
        assert want.dtype == have.dtype and want.shape == have.shape
        assert want.tobytes() == have.tobytes()
    diverged = int(np.sum(got[2] == STOP_DIVERGED))
    expected_range = {"partial_guard": (1, 39), "overflow": (1, 39),
                      "all_guard": (40, 40)}.get(name, (0, 0))
    assert expected_range[0] <= diverged <= expected_range[1]


def test_noise_stream_is_reproducible_and_distinct_per_path():
    a = sde.NoiseStream(42, 7).standard_blocks(16, 3)
    b = sde.NoiseStream(42, 7).standard_blocks(16, 3)
    c = sde.NoiseStream(42, 8).standard_blocks(16, 3)
    d = sde.NoiseStream(43, 7).standard_blocks(16, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert a.shape == (16, 2, 3)


def test_noise_stream_prefix_stability():
    long = sde.NoiseStream(5, 0).standard_blocks(64, 2)
    short = sde.NoiseStream(5, 0).standard_blocks(16, 2)
    assert np.array_equal(long[:16], short)


@pytest.mark.parametrize("seed, path, stream_class", [
    (0, 0, sde.STREAM_GENERIC), (42, 7, sde.STREAM_CRITICAL),
    ((1 << 64) - 1, (1 << 48) - 1, (1 << 16) - 1)])
def test_noise_stream_is_the_philox_stream_of_its_key(seed, path,
                                                      stream_class):
    # the stream is that of a Philox keyed by the seed and the class and
    # path index, counter 0, whatever way it is built
    key = np.array([seed, (stream_class << 48) | path], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)) \
        .standard_normal((40, 2, 3))
    got = sde.NoiseStream(seed, path, stream_class).standard_blocks(40, 3)
    assert got.tobytes() == want.tobytes()


def test_seeds_past_64_bits_are_refused_not_aliased():
    # a seed of 2**64 or more would key the stream of its low 64 bits
    for seed in (-1, 1 << 64, (1 << 64) + 5):
        with pytest.raises(sde.SdeError, match=r"\[0, 2\*\*64\)"):
            sde.NoiseStream(seed, 0)
        with pytest.raises(stats.StatsError, match=r"\[0, 2\*\*64\)"):
            stats.wasserstein1([0.0, 1.0], [2.0], seed=seed)


def test_noise_stream_stream_classes_are_independent():
    a = sde.NoiseStream(9, 1, stream_class=sde.STREAM_CRITICAL)
    b = sde.NoiseStream(9, 1, stream_class=sde.STREAM_LIMIT)
    assert not np.array_equal(a.standard_blocks(8, 2),
                              b.standard_blocks(8, 2))


def test_builders_stamp_their_stream_class():
    # full and reduced critical runs couple on one class; the plain and
    # limit runs each keep their own
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    em = sde.em_task(cubic_rotation(), sigma_q, np.ones(2), 1e-2, 0.1)
    rescaled = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                                 (1.0, 0.0), np.zeros(0), 1e-2, 0.1)
    reduced = sde.reduced_task(cubic_rotation(), sigma_q, PolyMap.zero(2, 0),
                               1e-2, (1.0, 0.0), 1e-2, 0.1)
    limit = sde.limit_task(sde.LimitParams(np.eye(2)), 1.0, 1e-2, 0.1)
    assert [t.stream_class for t in (em, rescaled, reduced, limit)] == [
        sde.STREAM_GENERIC, sde.STREAM_CRITICAL, sde.STREAM_CRITICAL,
        sde.STREAM_LIMIT]


def test_increments_have_brownian_moments():
    dt = 0.01
    n = 200_000
    # a Brownian motion task: the increments run_ensemble draws for it
    task = sde.em_task(PolyMap.zero(1, 1), PolyMap(1, 1, [(0, (0,), 1.0)]),
                       np.zeros(1), dt, n * dt)
    xi = stream_increments(task, sde.NoiseStream(123, 0))[:, 0]
    se_mean = math.sqrt(dt / n)
    assert abs(xi.mean()) < 4 * se_mean
    se_var = dt * math.sqrt(2.0 / n)
    assert abs(xi.var() - dt) < 4 * se_var
    lag = np.corrcoef(xi[:-1], xi[1:])[0, 1]
    assert abs(lag) < 4 / math.sqrt(n)


def test_refined_increments_ride_the_same_brownian_path():
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    coarse = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                               (1.0, 0.0), np.zeros(0), 1e-3, 0.05)
    fine = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                             (1.0, 0.0), np.zeros(0), 5e-4, 0.05,
                             refined=True)
    dw_coarse = stream_increments(
        coarse, sde.NoiseStream(7, 0, stream_class=sde.STREAM_CRITICAL))
    dw_fine = stream_increments(
        fine, sde.NoiseStream(7, 0, stream_class=sde.STREAM_CRITICAL))
    assert dw_fine.shape[0] == 2 * dw_coarse.shape[0]
    paired = dw_fine[0::2] + dw_fine[1::2]
    assert_allclose(paired, dw_coarse, rtol=0, atol=1e-15)


def test_ou_terminal_variance_matches_exact_solution():
    # dX = -X dt + dW from 0: var X(1) = (1 - e^-2) / 2
    drift = PolyMap(1, 1, [(0, (1,), -1.0)])
    diffusion = PolyMap(1, 1, [(0, (0,), 1.0)])
    task = sde.em_task(drift, diffusion, np.zeros(1), 1e-2, 1.0)
    ens = sde.run_ensemble(task, 10_000, 2024)
    final = ens.states[:, -1, 0]
    exact = (1.0 - math.exp(-2.0)) / 2.0
    se = exact * math.sqrt(2.0 / (len(final) - 1))
    assert abs(final.var() - exact) < 3 * se + 3e-3


def test_exponential_decay_matches_ode_limit():
    drift = PolyMap(1, 1, [(0, (1,), -2.0)])
    diffusion = PolyMap.zero(1, 1)
    task = sde.em_task(drift, diffusion, np.array([1.0]), 1e-4, 1.0)
    path = sde.run_ensemble(task, 1, 0)
    assert_allclose(path.states[0, -1, 0], math.exp(-2.0), rtol=1e-3)


def test_noiseless_limit_follows_deterministic_radius():
    # s = 0: rho(t) = (1 + 2 t)^(-1/2) from rho0 = 1
    params = sde.LimitParams(np.zeros((2, 2)))
    path = sde.run_ensemble(sde.limit_task(params, 1.0, 1e-4, 1.0), 1, 0)
    assert_allclose(np.linalg.norm(path.states[0, -1]), 3.0 ** -0.5,
                    rtol=1e-3)


def test_limit_task_rejects_nonpositive_initial_radius():
    params = sde.LimitParams(np.eye(2))
    with pytest.raises(sde.SdeError):
        sde.limit_task(params, 0.0, 1e-3, 1.0)


def test_grid_step_count_must_divide_horizon():
    drift = PolyMap(1, 1, [(0, (1,), -1.0)])
    diffusion = PolyMap.zero(1, 1)
    # T / dt off the grid, overflowing to inf, and NaN
    for dt, T in ((0.3, 1.0), (5e-324, 1.0), (1e-3, float("nan"))):
        with pytest.raises(sde.SdeError):
            sde.em_task(drift, diffusion, np.zeros(1), dt, T)


def test_rotation_linear_step_preserves_radius_without_forcing():
    f = PolyMap.zero(2, 2)
    g = PolyMap.zero(2, 0)
    sigma_q = PolyMap.zero(2, 4)
    sigma_p = PolyMap.zero(2, 0)
    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    P = np.zeros((0, 0))
    task = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                             (1.0, 0.0), np.zeros(0), 1e-3, 1.0)
    path = sde.run_ensemble(task, 1, 0)
    radii = np.hypot(path.states[0, :, 0], path.states[0, :, 1])
    assert_allclose(radii, 1.0, atol=1e-12)


def test_reduced_equals_rescaled_for_planar_system():
    # with no stable block the reduced simulation is the rescaled one,
    # coupled bitwise through the shared stream
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    eps = 1e-2
    full = sde.run_ensemble(sde.rescaled_task(
        f, g, sigma_q, sigma_p, Q, P, eps, (1.0, 0.0), np.zeros(0), 1e-3,
        0.5), 1, 31)
    reduced_field = cubic_rotation()
    h2 = PolyMap.zero(2, 0)
    red = sde.run_ensemble(sde.reduced_task(
        reduced_field, sigma_q, h2, eps, (1.0, 0.0), 1e-3, 0.5), 1, 31)
    assert np.array_equal(full.states, red.states)


def test_run_ensemble_worker_count_does_not_change_results():
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    task = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                             (1.0, 0.0), np.zeros(0), 1e-3, 0.2)
    one = sde.run_ensemble(task, 300, 5, workers=1)
    four = sde.run_ensemble(task, 300, 5, workers=4)
    assert np.array_equal(one.states, four.states)
    assert np.array_equal(one.stop_index, four.stop_index)
    assert one.stop_reason == four.stop_reason


def test_path_results_do_not_depend_on_ensemble_size():
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    task = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                             (1.0, 0.0), np.zeros(0), 1e-3, 0.2)
    small = sde.run_ensemble(task, 3, 5)
    large = sde.run_ensemble(task, 300, 5)
    assert np.array_equal(large.states[:3], small.states)


def test_path_results_with_guard_stops_do_not_depend_on_chunk_width(
        monkeypatch):
    # Every row of a chunk steps through one stacked product at every step,
    # stopped or not, so a path's bits do not depend on which other paths
    # share its chunk.  A chunk of a single path still rounds differently:
    # numpy sends a one-row product to BLAS gemv, whose rounding differs
    # from gemm's; a linear flow in a fixed order of operations would
    # remove that too.
    cfg = load_config(REPO / "configs" / "coupled3d.cfg")
    system = stats.prepare_system(cfg.drift, cfg.sigma)
    task = sde.rescaled_task(
        system.f, system.g, system.sigma_q, system.sigma_p, system.split.Q,
        system.split.P, 0.1, (1.0, 0.0), np.zeros(1), 1e-3, 1.0)
    monkeypatch.setattr(sde, "GUARD_RADIUS", 1.25)
    runs = []
    for width in (1024, 16, 5):
        monkeypatch.setattr(sde, "CHUNK", width)
        runs.append(sde.run_ensemble(task, 24, 3))
    assert "diverged" in runs[0].stop_reason
    for run in runs[1:]:
        assert run.states.tobytes() == runs[0].states.tobytes()
        assert run.stop_index.tobytes() == runs[0].stop_index.tobytes()
        assert run.stop_reason == runs[0].stop_reason


def dense_task(dim, T=0.05):
    """An amplified task of ``dim`` coordinates whose stable block is a
    dense matrix, so that every coordinate of its linear flow sums dim
    products, and whose stable modes are forced by the critical plane."""
    k = dim - 2
    rng = np.random.default_rng(dim)
    P = -1.5 * np.eye(k) + 0.2 * rng.standard_normal((k, k))
    exps = np.eye(dim, dtype=int)
    cubic = [(0, tuple(3 * exps[0]), -1.0),
             (0, tuple(exps[0] + 2 * exps[1]), -1.0),
             (1, tuple(2 * exps[0] + exps[1]), -1.0),
             (1, tuple(3 * exps[1]), -1.0),
             (0, tuple(exps[0] + exps[2]), 0.5)]
    f = PolyMap(dim, 2, cubic)
    g = PolyMap(dim, k, [(i, tuple(2 * exps[0]), 1.0 / (i + 1))
                         for i in range(k)])
    sigma_q = PolyMap(dim, 4, [(0, (0,) * dim, 1.0), (3, (0,) * dim, 1.0)])
    sigma_p = PolyMap(dim, 2 * k, [(2 * i + i % 2, (0,) * dim, 0.5)
                                   for i in range(k)])
    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    return sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2, (1.0, 0.0),
                             np.zeros(k), 1e-3, T)


@pytest.mark.parametrize("dim", [9, 16])
def test_path_bits_do_not_depend_on_chunk_width_at_high_dim(monkeypatch,
                                                           dim):
    # The linear flow of each task is x @ lin.T on its (paths, dim) rows,
    # whose rounding BLAS keeps for every count of rows; a chunk of two or
    # three paths steps each of them as a chunk of six does.
    task = dense_task(dim)
    assert np.count_nonzero(task.lin) > dim * dim // 2
    runs = []
    for width in (6, 3, 2):
        monkeypatch.setattr(sde, "CHUNK", width)
        runs.append(every_state([task], 6, 3))
    once = run_chunk(*chunk_inputs(task, 6, 3))
    for run in runs:
        [(states, index, code)] = run
        assert states.tobytes() == once[0][0].tobytes()
        assert index.tobytes() == once[1][0].tobytes()
        assert code.tobytes() == once[2][0].tobytes()


def test_sum_squares_adds_coordinates_as_a_contiguous_last_axis():
    # sum_squares adds the coordinates left to right at every dim; below 8
    # coordinates that is also how numpy sums a contiguous last axis
    rng = np.random.default_rng(1)
    for dim in list(range(1, 20)) + [127, 128, 129, 300]:
        x = rng.standard_normal((5, 7, dim)) \
            * 10.0 ** rng.integers(-4, 4, (5, 7, dim))
        assert x.flags.c_contiguous
        got = sum_squares(np.moveaxis(x, 2, 0))
        assert got.tobytes() == left_to_right(x * x).tobytes()
        if dim < 8:
            assert got.tobytes() == (x * x).sum(axis=2).tobytes()
    # from 8 coordinates on, numpy adds a contiguous last axis pairwise and
    # a strided one left to right, as sum_squares does
    for dim in (9, 16):
        x = rng.standard_normal((50, 40, dim)) \
            * 10.0 ** rng.integers(-4, 4, (50, 40, dim))
        planes = np.ascontiguousarray(np.moveaxis(x, 2, 0))
        strided = np.moveaxis(planes, 0, 2)
        assert sum_squares(planes).tobytes() == \
            (strided * strided).sum(axis=2).tobytes()
        assert (sum_squares(planes) != (x * x).sum(axis=2)).any()
    assert sum_squares(np.zeros((0, 3, 4))).tobytes() == \
        np.zeros((3, 4)).tobytes()


def boundary_state(dim, seed):
    """A state whose sum of squares rounds differently added pairwise, as
    numpy adds a contiguous row, than added left to right, as the guard
    test adds it, and a guard whose square lies between the two sums.

    Returns ``(v, guard, pairwise, ordered)``."""
    rng = np.random.default_rng(seed)
    while True:
        v = np.concatenate(([1.0], rng.uniform(0.0, 1e-4, dim - 1)))
        sq = v * v
        pairwise = float(sq.sum())
        ordered = 0.0
        for s in sq.tolist():
            ordered += s
        low, high = sorted((pairwise, ordered))
        guard = math.sqrt(low)
        if low < high and low <= guard * guard < high:
            return v, guard, pairwise, ordered


@pytest.mark.parametrize("dim", [9, 16])
def test_guard_test_sums_squares_as_a_contiguous_row(dim):
    # one step from the origin on unit noise lands each path on its
    # increments exactly; the first path lands where the guard test's
    # answer depends on the order of the sum, which is left to right
    v, guard, pairwise, ordered = boundary_state(dim, dim)
    zero = (0,) * dim
    task = sde.em_task(
        PolyMap.zero(dim, dim),
        PolyMap(dim, dim * dim, [(i * dim + i, zero, 1.0)
                                 for i in range(dim)]),
        np.zeros(dim), 1e-2, 1e-2)
    dW = np.stack([v, 0.5 * v])[:, None, :]
    args = (np.zeros((1, 2, dim)), task.lin[None], [task.drift],
            [task.diffusion], dW, task.dt, guard)
    expected = term_loop_run(*args)
    got = [a[0] for a in run_chunk(*args)]
    assert got[0][:, 1, 0].tobytes() == v.tobytes()
    for want, have in zip(expected, got):
        assert want.tobytes() == have.tobytes()
    stopped = bool(got[2][0] == STOP_DIVERGED)
    assert stopped == (ordered > guard * guard) != (pairwise > guard * guard)
    assert got[2][1] == 0


def test_guard_radius_marks_divergent_paths():
    # dX = +X^3 dt blows up quickly from 2
    drift = PolyMap(1, 1, [(0, (3,), 1.0)])
    diffusion = PolyMap.zero(1, 1)
    task = sde.em_task(drift, diffusion, np.array([2.0]), 1e-2, 2.0)
    ens = sde.run_ensemble(task, 2, 0)
    assert all(r == "diverged" for r in ens.stop_reason)
    stop = int(ens.stop_index[0])
    assert np.all(ens.states[0, stop:] == ens.states[0, stop])


def test_polar_ensemble_keeps_radius_over_multiple_turns():
    n = 400
    theta = np.linspace(0.0, 4.0 * np.pi, n + 1)
    states = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    polar = sde.polar_ensemble(one_path_ensemble(states), 0.1, 10.0)
    assert_allclose(polar.rho[0], 2.0, rtol=1e-12)
    assert polar.stop_reason[0] == "none"


def test_polar_ensemble_freezes_at_outer_barrier():
    n = 100
    radius = np.linspace(1.0, 3.0, n + 1)
    states = np.stack([radius, np.zeros(n + 1)], axis=1)
    polar = sde.polar_ensemble(one_path_ensemble(states), 0.5, 2.0)
    assert polar.stop_reason[0] == "hit_outer"
    stop = polar.stop_index[0]
    assert polar.rho[0, stop] >= 2.0
    assert_allclose(polar.rho[0, stop:], polar.rho[0, stop])


def test_polar_ensemble_matches_per_path_conversion():
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    task = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-1,
                             (1.0, 0.0), np.zeros(0), 1e-3, 1.0)
    ens = sde.run_ensemble(task, 50, 3)
    polar = sde.polar_ensemble(ens, 0.4, 2.5)
    for i in range(len(ens.states)):
        rho, stop, reason = to_polar(ens.states[i], int(ens.stop_index[i]),
                                     ens.stop_reason[i], 0.4, 2.5)
        assert_allclose(polar.rho[i], rho, rtol=1e-14, atol=1e-14)
        assert polar.stop_reason[i] == reason
        assert polar.stop_index[i] == stop


def observable_tasks():
    """Tasks of dimension >= 2, whose planar radius the kernel can watch."""
    tasks = {name: task for name, task in kernel_tasks().items()
             if task.dim >= 2}
    # every path leaves the guard long before the horizon, so the kept
    # rows after the last stop are filled from the frozen states
    cube = PolyMap(2, 2, [(0, (3, 0), 1.0), (1, (0, 3), 1.0)])
    tasks["all_guard_2d"] = sde.em_task(
        cube, PolyMap(2, 4, [(0, (0, 0), 0.1), (3, (0, 0), 0.1)]),
        np.array([2.0, 0.5]), 1e-2, 2.0)
    return tasks


def fold_block(fold, first, states, stop_index, stop_code):
    """Hand what one ``run_chunk`` call returns for G tasks to a
    ``run_coupled`` fold, as its only chunk's block from grid index
    ``first``."""
    fold(slice(0, stop_index.shape[1]), [
        sde.FoldBlock(first, *parts)
        for parts in zip(states, stop_index, stop_code)])


def folded(fold):
    """Every array an ``AnnulusFold`` holds, for bitwise comparison."""
    return [fold.r2_min, fold.r2_max] + fold.radii


@pytest.mark.parametrize("name", sorted(observable_tasks()))
def test_observed_chunk_keeps_the_full_run_columns_bitwise(name):
    task = observable_tasks()[name]
    args = chunk_inputs(task, 40, 3)
    keep = [0, 1, task.n_steps // 3, task.n_steps - 1, task.n_steps]
    with np.errstate(over="ignore", invalid="ignore"):
        once = run_chunk(*args)
    fold = stats.AnnulusFold([keep], 40)
    fold_block(fold, 0, *once)
    # the states (paths, steps + 1, dim) of the task's coordinate planes
    states, stop_code = once[0][0].transpose(2, 1, 0), once[2][0]
    z = states[:, keep, :2]
    assert fold.radii[0].tobytes() == np.sqrt((z * z).sum(axis=2)).tobytes()
    z = states[:, :, :2]
    r2 = (z * z).sum(axis=2)
    assert fold.r2_min[0].tobytes() == r2.min(axis=1).tobytes()
    assert fold.r2_max[0].tobytes() == r2.max(axis=1).tobytes()
    if name == "all_guard_2d":
        assert np.all(stop_code == STOP_DIVERGED)
        assert once[1][0].max() < task.n_steps - 1


def test_run_chunk_returns_its_block_buffer():
    task = kernel_tasks()["planar"]
    x0, lin, drifts, sigmas, dW, dt, guard = chunk_inputs(task, 8, 3)
    carry = Carry(x0)
    first = run_chunk(x0, lin, drifts, sigmas, dW[:, :50], dt, guard,
                      carry=carry)[0]
    assert first.shape == (1, task.dim, 51, 8)
    assert np.shares_memory(first, carry.block)
    kept = first.copy()
    second = run_chunk(x0, lin, drifts, sigmas, dW[:, 50:100], dt, guard,
                       carry=carry)[0]
    # the next block refills the buffer, grid indices 50 (the carried
    # states) to 100
    assert second.shape == (1, task.dim, 51, 8)
    assert np.shares_memory(first, second)
    once = run_chunk(x0, lin, drifts, sigmas, dW[:, :100], dt, guard)[0]
    assert once.tobytes() == np.concatenate(
        (kept, second[:, :, 1:]), axis=2).tobytes()
    with pytest.raises(ValueError):
        # one increment row per task and path
        run_chunk(x0, lin, drifts, sigmas, dW[:4], dt, guard)
    with pytest.raises(ValueError):
        run_chunk(x0[:, :4], lin, drifts, sigmas, dW[:4], dt, guard,
                  carry=carry)


def test_fold_blocks_are_coordinate_planes_of_the_kernel_block(monkeypatch):
    # per path and noise block 6 draws, 3 increments and 3 block states;
    # 5 paths a chunk: time blocks of 7 steps
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 7 * 5 * 12)
    task = kernel_tasks()["coupled3d"]
    buffers, seen = [], []

    def counted(*args, **kwargs):
        result = run_chunk(*args, **kwargs)
        buffers.append(kwargs["carry"].block)
        return result

    def fold(at, blocks):
        [block] = blocks
        assert block.states.shape == (task.dim, len(block.states[0]), 5)
        assert np.shares_memory(block.states, buffers[-1])
        seen.append(block.states[:, 1:].copy() if seen
                    else block.states.copy())

    monkeypatch.setattr(sde, "run_chunk", counted)
    sde.run_coupled([task], 5, 3, fold)
    assert len(seen) == 29 and seen[1].shape == (task.dim, 7, 5)
    ens = sde.run_ensemble(task, 5, 3)
    assert np.concatenate(seen, axis=1).tobytes() == \
        ens.states.transpose(2, 1, 0).tobytes()


def misfit_maps():
    """Drift and diffusion maps that do not fit a group of two planar tasks
    on two noise channels, each with what ``run_chunk`` says of them."""
    task = kernel_tasks()["planar"]
    drift, sigma = task.drift, task.diffusion
    shape = "a drift must map dim to dim components and a diffusion"
    terms = "grouped tasks must share their terms"
    return {
        "drift_n_in": ([drift, PolyMap(3, 2, [(0, (3, 0, 0), -1.0)])],
                       [sigma, sigma], shape),
        "drift_n_out": ([drift, PolyMap(2, 1, [(0, (3, 0), -1.0)])],
                        [sigma, sigma], shape),
        "sigma_n_in": ([drift, drift],
                       [sigma, PolyMap(1, 4, [(0, (0,), 1.0)])], shape),
        # a 2 x 1 diffusion on two channels would add both into
        # component 0
        "sigma_n_out": ([drift, drift],
                        [sigma, PolyMap(2, 2, [(0, (0, 0), 1.0),
                                               (1, (0, 0), 1.0)])], shape),
        "drift_terms": ([drift, PolyMap(2, 2, drift.terms[1:])],
                        [sigma, sigma], terms),
        "sigma_terms": ([drift, drift],
                        [sigma, PolyMap(2, 4, sigma.terms[:-1])], terms),
    }


@pytest.mark.parametrize("name", sorted(misfit_maps()))
def test_run_chunk_refuses_maps_that_do_not_fit_the_group(name):
    task = kernel_tasks()["planar"]
    x0, lin, _, _, dW, dt, guard = group_inputs([task, task], 4, 3)
    drifts, sigmas, message = misfit_maps()[name]
    with pytest.raises(ValueError, match=message):
        run_chunk(x0, lin, drifts, sigmas, dW[:, :5], dt, guard)
    # the same group with the first task's maps throughout steps
    run_chunk(x0, lin, drifts[:1] * 2, sigmas[:1] * 2, dW[:, :5], dt, guard)


def observer_task(name):
    fields, y0 = {"planar": (planar_fields(), np.zeros(0)),
                  "coupled3d": (coupled3d_fields(), np.zeros(1))}[name]
    return sde.rescaled_task(*fields, 1e-1, (1.0, 0.0), y0, 1e-3, 0.5)


@pytest.mark.parametrize("name", ["planar", "coupled3d"])
@pytest.mark.parametrize("nmax, guard, stops", [
    # a near outer barrier: paths hit both barriers
    (1.8, sde.GUARD_RADIUS, {"hit_inner", "hit_outer"}),
    # a guard inside a far outer barrier: paths diverge instead
    (10.0, 1.6, {"hit_inner", "diverged"}),
], ids=["barriers", "guard"])
def test_observed_survivors_match_polar_ensemble_bitwise(
        monkeypatch, name, nmax, guard, stops):
    monkeypatch.setattr(sde, "CHUNK", 16)
    monkeypatch.setattr(sde, "GUARD_RADIUS", guard)
    task = observer_task(name)
    delta, keep = 0.5, [125, 250, 500]
    polar = sde.polar_ensemble(sde.run_ensemble(task, 60, 11), delta, nmax)
    alive = np.array([r == "none" for r in polar.stop_reason])
    assert stops <= set(polar.stop_reason) and alive.any()
    fold = stats.AnnulusFold([keep], 60)
    stop_code = sde.run_coupled([task], 60, 11, fold)[1]
    [(inside, radii)] = fold.survivors(stop_code, delta, nmax)
    assert inside.tobytes() == alive.tobytes()
    assert radii.T.tobytes() == polar.rho[alive][:, keep].tobytes()


def every_state(tasks, count, seed, workers=None):
    """``run_coupled`` with a fold that keeps every state of every task;
    returns the states, as coordinate planes (dim, steps+1, paths), and
    stop arrays per task."""
    states = [np.full((t.dim, t.n_steps + 1, count), np.nan) for t in tasks]

    def fold(at, blocks):
        for kept, block in zip(states, blocks):
            kept[:, block.first:block.first + block.states.shape[1], at] = \
                block.states

    stop_index, stop_code = sde.run_coupled(tasks, count, seed, fold,
                                            workers)
    return list(zip(states, stop_index, stop_code))


def test_coupled_draw_matches_separate_ensembles_bitwise(monkeypatch):
    monkeypatch.setattr(sde, "CHUNK", 16)
    # Per path and noise block, in the kernel's half of the budget: 6
    # draws, and the increments and block states of the coarse and
    # refined pairs (2 x (3 + 3), 4 x (3 + 3)) and of the reduced task
    # (3 + 2); 16 // 2 = 8 paths a chunk.  Time blocks of 50 noise blocks,
    # all of them drawn in one span.
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 50 * 8 * 47)
    f, g, sigma_q, sigma_p, Q, P = coupled3d_fields()
    tasks = [sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, eps,
                               (1.0, 0.0), np.zeros(1), h, 0.2, refined=r)
             for eps in (1e-1, 1e-2) for h, r in ((1e-3, False),
                                                  (5e-4, True))]
    tasks.append(sde.reduced_task(
        PolyMap(2, 2, [(0, (0, 1), -1.0), (0, (3, 0), -1.0),
                       (0, (1, 2), -1.0), (1, (1, 0), 1.0),
                       (1, (2, 1), -1.0), (1, (0, 3), -1.0)]),
        sigma_q, PolyMap(2, 1, [(0, (2, 0), 0.5)]), 1e-2, (1.0, 0.0),
        1e-3, 0.2))
    keep = [[0, 100, 200] if not t.refined else [0, 200, 400]
            for t in tasks]
    separate = [sde.run_ensemble(task, 40, 5) for task in tasks]
    alone = []
    for task, rows in zip(tasks, keep):
        fold = stats.AnnulusFold([rows], 40)
        sde.run_coupled([task], 40, 5, fold)
        alone.append(folded(fold))
    groups, widths = [], []

    def counted(*args, **kwargs):
        groups.append(len(args[1]))
        widths.append(args[4].shape[0])
        return run_chunk(*args, **kwargs)

    monkeypatch.setattr(sde, "run_chunk", counted)
    for workers in (1, 3):
        groups.clear()
        widths.clear()
        coupled = every_state(tasks, 40, 5, workers)
        # groups of two take 16 // 2 paths a chunk: five chunks of four
        # time blocks, each stepping both eps in one loop per step rule
        # and the reduced task alone
        assert sorted(groups) == [1] * 5 * 4 + [2] * 10 * 4
        assert max(widths) == 16
        fold = stats.AnnulusFold(keep, 40)
        sde.run_coupled(tasks, 40, 5, fold, workers)
        for i, (one, (states, index, code), kept) in enumerate(
                zip(separate, coupled, alone)):
            assert states.tobytes() == one.states.transpose(2, 1, 0).tobytes()
            assert index.tobytes() == one.stop_index.tobytes()
            assert tuple(STOP_REASONS[c] for c in code) == one.stop_reason
            z = one.states[:, keep[i], :2]
            assert fold.radii[i].tobytes() == \
                np.sqrt((z * z).sum(axis=2)).tobytes()
            assert [a.tobytes() for a in (fold.r2_min[i], fold.r2_max[i],
                                          fold.radii[i])] == \
                [a.tobytes() for a in kept]
    limit = sde.limit_task(sde.LimitParams(np.eye(2)), 1.0, 1e-3, 0.2)
    with pytest.raises(sde.SdeError):
        sde.run_coupled([tasks[0], limit], 40, 5, lambda at, blocks: None)


def group_inputs(tasks, count, seed, guard=None):
    """run_chunk arguments stepping tasks of one step shape as a group."""
    args = [chunk_inputs(task, count, seed, guard) for task in tasks]
    for other in args[1:]:
        assert other[4].tobytes() == args[0][4].tobytes()
    return (np.concatenate([a[0] for a in args]),
            np.concatenate([a[1] for a in args]),
            [p for a in args for p in a[2]], [p for a in args for p in a[3]],
            np.concatenate([a[4] for a in args]), tasks[0].dt, args[0][6])


def group_tasks():
    f, g, sigma_q, sigma_p, Q, P = coupled3d_fields()
    coupled = [sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, eps,
                                 (1.0, 0.0), np.zeros(1), 1e-3, 0.2)
               for eps in (1e-1, 1e-2)]
    # a guard inside the typical radius: paths of both tasks stop at
    # different steps, so the live rows of each task step with its own flow
    fenced = [sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, eps,
                                (1.0, 0.0), np.zeros(1), 1e-3, 0.5)
              for eps in (1e-1, 1e-2)]
    # equal terms, but each coefficient is +1.0 in the first task and
    # -0.5 or -1.0 in the second: the first task's paths blow up past the
    # guard mid-chunk, some of them, while the second's never do
    noise = PolyMap(2, 4, [(0, (0, 0), 1.0), (3, (0, 0), 1.0)])
    one_side = [sde.em_task(PolyMap(2, 2, [(0, (3, 0), a), (1, (0, 3), b)]),
                            noise, np.array([0.5, 0.5]), 1e-2, 2.0)
                for a, b in ((1.0, 1.0), (-0.5, -1.0))]
    return {"coupled3d": coupled, "coupled3d_guard": fenced,
            "guard_in_one_task": one_side}


def observed(result, keep):
    """``run_chunk``'s result, with ``keep`` its blocks folded through an
    ``AnnulusFold`` per task in place of the states."""
    if keep is None:
        return result
    fold = stats.AnnulusFold([keep] * len(result[1]), result[1].shape[1])
    fold_block(fold, 0, *result)
    return folded(fold) + list(result[1:])


# "keep" folds the states into the checkpoint radii and planar radius
# range that converge reads, in place of comparing every state
@pytest.mark.parametrize("observe", [False, True], ids=["all", "keep"])
@pytest.mark.parametrize("name", sorted(group_tasks()))
def test_grouped_chunk_matches_one_task_at_a_time_bitwise(name, observe):
    tasks = group_tasks()[name]
    guard = CASE_GUARDS.get(name)
    n_steps = tasks[0].n_steps
    keep = [0, 1, n_steps // 3, n_steps] if observe else None
    with np.errstate(over="ignore", invalid="ignore"):
        grouped = run_chunk(*group_inputs(tasks, 40, 3, guard))
        for g, task in enumerate(tasks):
            alone = run_chunk(*chunk_inputs(task, 40, 3, guard))
            one = [a[g:g + 1] for a in grouped]
            for want, have in zip(observed(alone, keep),
                                  observed(one, keep)):
                assert want.dtype == have.dtype
                assert want.shape == have.shape
                assert want.tobytes() == have.tobytes()
    diverged = (grouped[2] == STOP_DIVERGED).sum(axis=1)
    if name == "guard_in_one_task":
        assert 1 <= diverged[0] <= 39 and diverged[1] == 0
    elif name == "coupled3d_guard":
        assert np.all((1 <= diverged) & (diverged <= 39))
    else:
        assert not diverged.any()


def blocked_run(args, length, fold=None):
    """``run_chunk`` on ``args``' increments in blocks of ``length`` steps,
    one ``Carry`` throughout, each block copied into one array and, where
    given, handed to ``fold``; also checks that each call returns exactly
    the states of its grid indices, opening on the last state of the call
    before, bitwise."""
    x0, lin, drifts, sigmas, dW, dt, guard = args
    n_tasks, n_paths, dim = np.shape(x0)
    n_steps = dW.shape[1]
    states = np.full((n_tasks, dim, n_steps + 1, n_paths), np.nan)
    carry = Carry(x0)
    last = np.asarray(x0).transpose(0, 2, 1)
    for at in range(0, n_steps, length):
        end = min(at + length, n_steps)
        result = run_chunk(x0, lin, drifts, sigmas, dW[:, at:end], dt,
                           guard, carry=carry)
        assert result[0].shape == (n_tasks, dim, end + 1 - at, n_paths)
        assert np.shares_memory(result[0], carry.block)
        assert result[0][:, :, 0].tobytes() == last.tobytes()
        last = result[0][:, :, -1].copy()
        states[:, :, at:end + 1] = result[0]
        if fold is not None:
            fold_block(fold, at, *result)
        assert carry.offset == end
    return (states,) + result[1:]


def blocked_cases():
    """run_chunk arguments of lone tasks and of groups, with guard stops
    inside blocks, on blocks' last steps and of every row early."""
    cases = {name: chunk_inputs(task, 40, 3)
             for name, task in observable_tasks().items()}
    for name in ("partial_guard", "overflow"):
        cases[name] = chunk_inputs(kernel_tasks()[name], 40, 3,
                                   CASE_GUARDS[name])
    for name, tasks in group_tasks().items():
        cases[f"group_{name}"] = group_inputs(tasks, 40, 3,
                                              CASE_GUARDS.get(name))
    return cases


# observe: fold every block through an AnnulusFold as well
@pytest.mark.parametrize("length", [1, 7])
@pytest.mark.parametrize("name, observe", [
    # the planar radius needs dim >= 2
    (name, observe) for name, args in sorted(blocked_cases().items())
    for observe in (False, True) if not observe or args[0].shape[2] >= 2])
def test_blocked_chunk_matches_one_call_bitwise(name, observe, length):
    args = blocked_cases()[name]
    n_tasks, n_paths = np.shape(args[0])[:2]
    n_steps = args[4].shape[1]
    # grid index 0, block edges (7, 14) and the steps either side of one
    keep = sorted({0, 1, 6, 7, 8, 14, n_steps // 3, n_steps - 1,
                   n_steps}) if observe else None
    fold = stats.AnnulusFold([keep] * n_tasks, n_paths) if observe else None
    with np.errstate(over="ignore", invalid="ignore"):
        once = observed(run_chunk(*args), keep)
        blocked = blocked_run(args, length, fold)
    if observe:
        assert not np.isnan(blocked[0]).any()
        blocked = folded(fold) + list(blocked[1:])
    assert len(once) == len(blocked)
    for want, have in zip(once, blocked):
        assert want.dtype == have.dtype and want.shape == have.shape
        assert want.tobytes() == have.tobytes()


@pytest.mark.parametrize("name", ["partial_guard", "group_coupled3d_guard",
                                  "group_guard_in_one_task"])
def test_steps_past_the_guard_leak_no_warnings(name):
    # rows leave the guard mid-block and, like every stopped row, step on
    # to the block's end before the stops are found, where the cubic ones
    # overflow; no warning of that reaches the caller, in one call or in
    # blocks
    args = blocked_cases()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_chunk(*args)
        blocked_run(args, 7)


@pytest.mark.parametrize("name", ["partial_guard", "group_coupled3d_guard"])
def test_blocks_cover_guard_stops_inside_and_at_block_ends(name):
    stop_index, stop_code = run_chunk(*blocked_cases()[name])[1:3]
    stops = stop_index[stop_code == STOP_DIVERGED]
    # blocks of 7 steps end at multiples of 7
    assert (stops % 7 == 0).any() and (stops % 7 != 0).any()


def test_rows_all_stopped_before_the_last_block_only_fill_it():
    args = blocked_cases()["all_guard_2d"]
    n_steps = args[4].shape[1]
    once = run_chunk(*args)
    assert once[1].max() < n_steps - 7
    # no row reads the increments of the blocks after the last stop: NaN
    # there changes nothing, and those blocks repeat the frozen states
    dW = args[4].copy()
    dW[:, (once[1].max() // 7 + 1) * 7:] = np.nan
    blocked = blocked_run(args[:4] + (dW,) + args[5:], 7)
    for want, have in zip(once, blocked):
        assert want.tobytes() == have.tobytes()
    for path, stop in zip(blocked[0][0].transpose(2, 1, 0), once[1][0]):
        assert np.all(path[stop:] == path[stop])


def test_noise_stream_draws_in_pieces_equal_one_draw():
    whole = sde.NoiseStream(9, 4, sde.STREAM_CRITICAL).standard_blocks(1000,
                                                                        3)
    stream = sde.NoiseStream(9, 4, sde.STREAM_CRITICAL)
    pieces = [stream.standard_blocks(n, 3) for n in (1, 127, 128, 300)]
    into = np.empty((444, 2, 3))
    assert stream.standard_blocks(444, 3, out=into) is into
    assert np.concatenate(pieces + [into]).tobytes() == whole.tobytes()


def coupled_rule_tasks(T, dt=1e-3):
    """Two eps, each coarse and refined, on one stream class."""
    f, g, sigma_q, sigma_p, Q, P = coupled3d_fields()
    return [sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, eps, (1.0, 0.0),
                              np.zeros(1), h, T, refined=r)
            for eps in (1e-1, 1e-2) for h, r in ((dt, False),
                                                 (dt / 2.0, True))]


@pytest.mark.parametrize("length", [1, 7])
@pytest.mark.parametrize("observe", [False, True], ids=["all", "keep"])
def test_blocked_coupled_run_matches_one_call_per_task_bitwise(
        monkeypatch, length, observe):
    monkeypatch.setattr(sde, "CHUNK", 16)
    # per path and noise block, in the kernel's half of the budget: 6
    # draws, and the increments and block states of the coarse and refined
    # pairs, 2 x (3 + 3) and 4 x (3 + 3); 16 // 2 = 8 paths a chunk, and
    # noise spans of 7 time blocks
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * length * 8 * 42)
    # a guard near the start radius stops some paths of every task
    monkeypatch.setattr(sde, "GUARD_RADIUS", 1.2)
    tasks = coupled_rule_tasks(0.05)
    keep = [[0, 7, 14, 15, 50] if not t.refined else [0, 14, 28, 29, 100]
            for t in tasks]
    lengths = []

    def counted(*args, **kwargs):
        lengths.append(args[4].shape[1])
        return run_chunk(*args, **kwargs)

    monkeypatch.setattr(sde, "run_chunk", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        for workers in (1, 3):
            if observe:
                fold = stats.AnnulusFold(keep, 40)
                index, code = sde.run_coupled(tasks, 40, 5, fold, workers)
                runs = [(fold.r2_min[i], fold.r2_max[i], fold.radii[i],
                         index[i], code[i]) for i in range(len(tasks))]
            else:
                runs = every_state(tasks, 40, 5, workers)
            for i, task in enumerate(tasks):
                once = observed(run_chunk(*chunk_inputs(task, 40, 5)),
                                keep[i] if observe else None)
                assert len(once) == len(runs[i])
                for want, have in zip(once, runs[i]):
                    assert want.tobytes() == have.tobytes()
            assert all(STOP_DIVERGED in run[-1] for run in runs)
    # coarse groups step length steps a block, refined ones 2 * length
    assert set(lengths) <= {length, 2 * length, 50 % length,
                            2 * (50 % length)}
    assert max(lengths) == 2 * length


def test_noise_spans_straddling_time_blocks_match_one_call_per_task_bitwise(
        monkeypatch):
    monkeypatch.setattr(sde, "CHUNK", 16)
    # 16 // 2 = 8 paths a chunk; half the budget holds noise spans of
    # 1250 // (8 x 6) = 26 noise blocks, the other half time blocks of
    # 1250 // (8 x 42) = 3 (see
    # test_blocked_coupled_run_matches_one_call_per_task_bitwise), so the
    # time block of noise blocks 24 to 26 takes two from the first span and
    # one from the next
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2500)
    span, length, blocks = 26, 3, 50
    assert span % length and blocks % length and blocks % span
    monkeypatch.setattr(sde, "GUARD_RADIUS", 1.2)
    tasks = coupled_rule_tasks(0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [run_chunk(*chunk_inputs(task, 40, 5)) for task in tasks]
    draws, lengths = [], []
    standard_blocks = sde.NoiseStream.standard_blocks

    def drawn(self, n_blocks, channels, out=None):
        draws.append(n_blocks)
        return standard_blocks(self, n_blocks, channels, out=out)

    def counted(*args, **kwargs):
        lengths.append(args[4].shape[1])
        return run_chunk(*args, **kwargs)

    monkeypatch.setattr(sde.NoiseStream, "standard_blocks", drawn)
    monkeypatch.setattr(sde, "run_chunk", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        for workers in (1, 2):
            runs = every_state(tasks, 40, 5, workers)
            for once, run in zip(alone, runs):
                assert [a[0].tobytes() for a in once] == \
                    [a.tobytes() for a in run]
            assert all(STOP_DIVERGED in run[-1] for run in runs)
    # each path draws a span, then the rest of the horizon
    assert sorted(draws) == [blocks - span] * 80 + [span] * 80
    # time blocks of 3 noise blocks and the 2 left over, coarse and refined
    assert set(lengths) == {length, 2 * length, blocks % length,
                            2 * (blocks % length)}


def test_unsorted_checkpoints_come_back_in_the_callers_order():
    task = coupled_rule_tasks(0.05)[0]
    ordered = stats.AnnulusFold([[0, 20, 50]], 12)
    shuffled = stats.AnnulusFold([[50, 0, 20]], 12)
    for fold in (ordered, shuffled):
        sde.run_coupled([task], 12, 2, fold)
    assert shuffled.radii[0].tobytes() == \
        ordered.radii[0][:, [2, 0, 1]].tobytes()
    # a grid index past the horizon is never reached
    beyond = stats.AnnulusFold([[0, 51]], 12)
    sde.run_coupled([task], 12, 2, beyond)
    assert np.isnan(beyond.radii[0][:, 1]).all()
    assert beyond.radii[0][:, 0].tobytes() == ordered.radii[0][:, 0].tobytes()


def test_observed_run_memory_does_not_grow_with_the_horizon(monkeypatch):
    import tracemalloc

    # 64 paths of 42 draw, increment and block state cells a noise block
    # in the kernel's half of the budget (see
    # test_blocked_coupled_run_matches_one_call_per_task_bitwise): time
    # blocks of 16 noise blocks, so both horizons take several
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 16 * 64 * 42)
    peaks = {}
    for T in (0.5, 4.0):
        tasks = coupled_rule_tasks(T, dt=1e-2)
        keep = [[0, t.n_steps // 2, t.n_steps] for t in tasks]
        tracemalloc.start()
        try:
            sde.run_coupled(tasks, 64, 1, stats.AnnulusFold(keep, 64))
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[4.0] - peaks[0.5]) <= 0.1 * peaks[0.5], peaks


def test_limit_params_recompute_validation():
    with pytest.raises(sde.SdeError):
        sde.LimitParams(np.eye(3))
    params = sde.LimitParams(np.array([[1.0, 0.5], [0.0, 2.0]]))
    assert_allclose(params.sigma1_sq, 1.25)
    assert_allclose(params.sigma2_sq, 4.0)
    assert_allclose(params.sigma12, 1.0)
    assert_allclose(params.s, math.sqrt((1.25 + 4.0) / 2.0))


IMPORT_GUARD = """
import json
import math
import os
import sys

import numpy as np

from hopf_critic import cli, sde, stats
from hopf_critic.config import load_config
from hopf_critic.polyfield import PolyMap

code = cli.main(["normal-form", "--config", "configs/hopf2d.cfg",
                 "--out", sys.argv[1]])
assert code == 0
assert "scipy.linalg" not in sys.modules, "planar run loaded scipy.linalg"
manifest = os.path.join(sys.argv[1], "manifest.json")
assert json.load(open(manifest))["versions"]["scipy"] is None, \
    "planar run recorded a scipy version"

code = cli.main(["reduce", "--config", "configs/coupled3d.cfg", "--paths",
                 "4", "--out", sys.argv[1]])
assert code == 0
cfg = load_config("configs/coupled3d.cfg")
system = stats.prepare_system(cfg.drift, cfg.sigma)
split = system.split
eps, dt = 1e-2, 1e-3
task = sde.rescaled_task(system.f, system.g, system.sigma_q, system.sigma_p,
                         split.Q, split.P, eps, (1.0, 0.0), np.zeros(1),
                         dt, 0.1)
sde.run_ensemble(task, 4, 0)
assert "scipy.linalg" not in sys.modules, "diagonal P loaded scipy.linalg"

# a stable block that is not diagonal needs the dense exponential
P = np.array([[-1.0, 0.5], [-0.25, -2.0]])
cubic = PolyMap(4, 2, [(0, (3, 0, 0, 0), -1.0), (1, (0, 3, 0, 0), -1.0)])
dense = sde.rescaled_task(cubic, PolyMap.zero(4, 2),
                          PolyMap(4, 2, [(0, (0, 0, 0, 0), 1.0)]),
                          PolyMap(4, 2, [(1, (0, 0, 0, 0), 1.0)]),
                          split.Q, P, eps, (1.0, 0.0), np.zeros(2), dt, 0.1)
assert "scipy.linalg" in sys.modules, "dense P did not load scipy.linalg"
import scipy
code = cli.main(["normal-form", "--config", "configs/hopf2d.cfg",
                 "--out", sys.argv[1]])
assert code == 0
assert json.load(open(manifest))["versions"]["scipy"] == scipy.__version__, \
    "a run with scipy loaded did not record its version"

from scipy.linalg import expm
want = expm(1.0 / math.sqrt(eps) * split.P * dt)
assert task.lin[2:, 2:].tobytes() == want.tobytes(), "diagonal block differs"
want = expm(1.0 / math.sqrt(eps) * P * dt)
assert dense.lin[2:, 2:].tobytes() == want.tobytes(), "dense block differs"
"""


def test_scipy_linalg_loads_only_for_a_dense_stable_block(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    src = Path(sde.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           str(tmp_path / "out")],
                          cwd=repo, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
