"""Noise streams, the splitting integrator, ensembles, and polar paths."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic import sde
from hopf_critic._kernels import STOP_DIVERGED, pack_poly, run_chunk
from hopf_critic.polyfield import PolyMap


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


def term_loop_chunk(x0, lin, dcomps, dexps, dcoefs, scomps, sexps, scoefs,
                    dW, dt, guard, states, stop_index, stop_code):
    """Reference numpy kernel that interprets the packed terms one by one.

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
        inside = (x_new * x_new).sum(axis=1) <= guard_sq
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
                            stop_index=np.array([n]), stop_time=grid[[n]],
                            stop_reason=("none",), master_seed=0)


def chunk_inputs(task, count, seed):
    """run_chunk arguments for ``count`` keyed paths of a task."""
    dW = np.stack([task.increments_from(
        sde.NoiseStream(seed, p, task.stream_class)) for p in range(count)])
    x0 = np.broadcast_to(task.x0, (count, task.dim))
    return (x0, task.lin, pack_poly(task.drift, task.dim),
            pack_poly(task.diffusion, task.dim), dW, task.dt, task.guard)


def term_loop_run(x0, lin, drift_packed, sigma_packed, dW, dt, guard):
    n_paths, n_steps = dW.shape[:2]
    states = np.empty((n_paths, n_steps + 1, x0.shape[1]))
    stop_index = np.full(n_paths, n_steps, dtype=np.int64)
    stop_code = np.zeros(n_paths, dtype=np.int64)
    return term_loop_chunk(np.ascontiguousarray(x0), lin, *drift_packed,
                           *sigma_packed, dW, float(dt), float(guard),
                           states, stop_index, stop_code)


def kernel_tasks():
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    planar = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                               (1.0, 0.0), np.zeros(0), 1e-3, 0.2)
    f, g, sigma_q, sigma_p, Q, P = coupled3d_fields()
    coupled = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                                (1.0, 0.0), np.zeros(1), 1e-3, 0.2)
    params = sde.LimitParams.from_sigma_bar(np.array([[1.0, 0.5],
                                                      [0.0, 2.0]]))
    limit = sde.limit_task(params, 1.0, 1e-3, 0.2)
    cube = PolyMap(1, 1, [(0, (3,), 1.0)])
    # from 0.5 the cubic blows up near t = 2: noise pushes some paths
    # past the guard mid-chunk while others survive
    partial = sde.em_task(cube, PolyMap(1, 1, [(0, (0,), 1.0)]),
                          np.array([0.5]), 1e-2, 2.0, guard=10.0)
    # a guard of 1e300 squares to inf, so only non-finite states (inf
    # from the cube, nan from inf - inf against the noise) stop a path
    overflow = sde.em_task(cube, PolyMap(1, 1, [(0, (2,), 1.0)]),
                           np.array([1.0]), 1e-2, 2.0, guard=1e300)
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
    return {"planar": planar, "coupled3d": coupled, "limit": limit,
            "dense": dense, "partial_guard": partial, "overflow": overflow,
            "all_guard": all_guard}


@pytest.mark.parametrize("name", sorted(kernel_tasks()))
def test_generated_step_matches_term_loop_bitwise(name):
    task = kernel_tasks()[name]
    args = chunk_inputs(task, 40, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = term_loop_run(*args)
        got = run_chunk(*args, backend="numpy")
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


def test_noise_stream_stream_classes_are_independent():
    a = sde.NoiseStream(9, 1, stream_class=sde.STREAM_CRITICAL)
    b = sde.NoiseStream(9, 1, stream_class=sde.STREAM_LIMIT)
    assert not np.array_equal(a.standard_blocks(8, 2),
                              b.standard_blocks(8, 2))


def test_increments_have_brownian_moments():
    dt = 0.01
    n = 200_000
    # a Brownian motion task: the increments run_ensemble draws for it
    task = sde.em_task(PolyMap.zero(1, 1), PolyMap(1, 1, [(0, (0,), 1.0)]),
                       np.zeros(1), dt, n * dt)
    xi = task.increments_from(sde.NoiseStream(123, 0))[:, 0]
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
    dw_coarse = coarse.increments_from(
        sde.NoiseStream(7, 0, stream_class=sde.STREAM_CRITICAL))
    dw_fine = fine.increments_from(
        sde.NoiseStream(7, 0, stream_class=sde.STREAM_CRITICAL))
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
    params = sde.LimitParams.from_sigma_bar(np.zeros((2, 2)))
    path = sde.run_ensemble(sde.limit_task(params, 1.0, 1e-4, 1.0), 1, 0)
    assert_allclose(path.norms()[0, -1], 3.0 ** -0.5, rtol=1e-3)


def test_limit_task_rejects_nonpositive_initial_radius():
    params = sde.LimitParams.from_sigma_bar(np.eye(2))
    with pytest.raises(sde.SdeError):
        sde.limit_task(params, 0.0, 1e-3, 1.0)


def test_grid_step_count_must_divide_horizon():
    drift = PolyMap(1, 1, [(0, (1,), -1.0)])
    diffusion = PolyMap.zero(1, 1)
    with pytest.raises(sde.SdeError):
        sde.em_task(drift, diffusion, np.zeros(1), 0.3, 1.0)


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


def test_backend_parity_within_tolerance(monkeypatch):
    pytest.importorskip("numba")
    f, g, sigma_q, sigma_p, Q, P = planar_fields()
    task = sde.rescaled_task(f, g, sigma_q, sigma_p, Q, P, 1e-2,
                             (1.0, 0.0), np.zeros(0), 1e-3, 0.5)
    monkeypatch.setenv("HOPF_CRITIC_BACKEND", "numba")
    a = sde.run_ensemble(task, 64, 9)
    monkeypatch.setenv("HOPF_CRITIC_BACKEND", "numpy")
    b = sde.run_ensemble(task, 64, 9)
    assert np.max(np.abs(a.states - b.states)) < 1e-10
    assert a.stop_reason == b.stop_reason


def test_unknown_backend_is_rejected(monkeypatch):
    from hopf_critic._kernels import BackendError, active_backend
    monkeypatch.setenv("HOPF_CRITIC_BACKEND", "fortran")
    with pytest.raises(BackendError):
        active_backend()


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
    for i in range(ens.n_paths):
        rho, stop, reason = to_polar(ens.states[i], int(ens.stop_index[i]),
                                     ens.stop_reason[i], 0.4, 2.5)
        assert_allclose(polar.rho[i], rho, rtol=1e-14, atol=1e-14)
        assert polar.stop_reason[i] == reason
        assert polar.stop_index[i] == stop


def test_limit_params_recompute_validation():
    with pytest.raises(sde.SdeError):
        sde.LimitParams.from_sigma_bar(np.eye(3))
    params = sde.LimitParams.from_sigma_bar(np.array([[1.0, 0.5],
                                                      [0.0, 2.0]]))
    assert_allclose(params.sigma1_sq, 1.25)
    assert_allclose(params.sigma2_sq, 4.0)
    assert_allclose(params.sigma12, 1.0)
    assert_allclose(params.s, math.sqrt((1.25 + 4.0) / 2.0))


IMPORT_GUARD = """
import math
import sys

import numpy as np

from hopf_critic import cli, sde, stats
from hopf_critic.config import load_config

code = cli.main(["normal-form", "--config", "configs/hopf2d.cfg",
                 "--out", sys.argv[1]])
assert code == 0
assert "scipy.linalg" not in sys.modules, "planar run loaded scipy.linalg"

cfg = load_config("configs/coupled3d.cfg")
system = stats.prepare_system(cfg.drift, cfg.sigma)
split = system.split
eps, dt = 1e-2, 1e-3
task = sde.rescaled_task(system.f, system.g, system.sigma_q, system.sigma_p,
                         split.Q, split.P, eps, (1.0, 0.0), np.zeros(1),
                         dt, 0.1)
from scipy.linalg import expm
want = expm(1.0 / math.sqrt(eps) * split.P * dt)
assert task.lin[2:, 2:].tobytes() == want.tobytes(), "expm block differs"
"""


def test_scipy_linalg_loads_only_for_a_stable_block(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    src = Path(sde.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           str(tmp_path / "out")],
                          cwd=repo, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
