"""End-to-end checks of every verified claim, each with a runtime budget.

Every test prints one PASS or FAIL line with the measured quantities, so a
plain pytest run doubles as a verification protocol.  Budgets are wall
clock on the host; the compiled kernel is warmed once before any timing.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hopf_critic import cli, normalform, sde, stats
from hopf_critic.polyfield import PolyMap
from hopf_critic.spectral import hopf_split, transform_system

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile the stepping kernel once so budgets measure the work, not
    # the jit
    drift = PolyMap(1, 1, [(0, (1,), -1.0)])
    diffusion = PolyMap(1, 1, [(0, (0,), 1.0)])
    sde.run_ensemble(sde.em_task(drift, diffusion, np.zeros(1), 0.5, 1.0),
                     2, 0)


def _verdict(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def random_stable(rng, k):
    A = rng.normal(size=(k, k))
    radius = max(abs(np.linalg.eigvals(A).real).max(), 1.0)
    return A - (radius + 0.5) * np.eye(k)


def random_quadratic(rng, n_vars, n_out):
    terms = []
    for comp in range(n_out):
        for i in range(n_vars):
            for j in range(i, n_vars):
                exps = [0] * n_vars
                exps[i] += 1
                exps[j] += 1
                terms.append((comp, tuple(exps), float(rng.normal())))
    return PolyMap(n_vars, n_out, terms)


def random_split_system(rng, n):
    k = n - 2
    lam0 = float(rng.uniform(0.3, 4.0))
    terms = [(0, tuple([0, 1] + [0] * k), -lam0),
             (1, tuple([1, 0] + [0] * k), lam0)]
    P = random_stable(rng, k)
    for i in range(k):
        for j in range(k):
            exps = [0] * n
            exps[2 + j] = 1
            terms.append((2 + i, tuple(exps), float(P[i, j])))
    drift = PolyMap(n, n, terms) + random_quadratic(rng, n, n) * 0.8
    sigma = PolyMap(n, n * n,
                    [(i * (n + 1), tuple([0] * n), 1.0) for i in range(n)])
    return drift, sigma


def planar_normal_form():
    drift = PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), -1.0), (0, (1, 2), -1.0),
        (1, (1, 0), 1.0), (1, (2, 1), -1.0), (1, (0, 3), -1.0)])
    sigma = PolyMap(2, 4, [(0, (0, 0), 1.0), (0, (1, 0), 1.5),
                           (3, (0, 0), 1.0)])
    return stats.prepare_system(drift, sigma)


def coupled_normal_form():
    # normal-form cubic in the rotation plane, one stable direction with
    # quadratic forcing from the plane, noise on every coordinate
    drift = PolyMap(3, 3, [
        (0, (0, 1, 0), -1.0), (0, (3, 0, 0), -1.0), (0, (1, 2, 0), -1.0),
        (1, (1, 0, 0), 1.0), (1, (2, 1, 0), -1.0), (1, (0, 3, 0), -1.0),
        (2, (0, 0, 1), -1.0), (2, (2, 0, 0), 1.0)])
    sigma = PolyMap(3, 9, [(0, (0, 0, 0), 1.0), (0, (0, 0, 1), 1.0),
                           (4, (0, 0, 0), 1.0), (8, (0, 0, 0), 1.0)])
    return stats.prepare_system(drift, sigma)


def test_homological_solve_inverts_at_scale():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst_residual = 0.0
    worst_cond = 0.0
    for _ in range(200):
        lam0 = float(rng.uniform(0.1, 10.0))
        k = int(rng.integers(0, 7))
        P = random_stable(rng, k) if k else np.zeros((0, 0))
        size = 3 + 2 * k
        fplus = rng.normal(size=size) + 1j * rng.normal(size=size)
        L = normalform.build_L(lam0, P)
        worst_cond = max(worst_cond, float(np.linalg.cond(L)))
        transform = normalform.solve_quadratic(lam0, P, fplus)
        residual = np.max(np.abs(L @ transform.coefficients + fplus))
        worst_residual = max(worst_residual, float(residual))
    elapsed = time.perf_counter() - start
    ok = worst_residual < 1e-10 and np.isfinite(worst_cond) and elapsed < 5.0
    assert _verdict(ok, "homological solve",
                    f"200 systems, max residual {worst_residual:.2e} "
                    f"(< 1e-10), max cond {worst_cond:.2e}, "
                    f"{elapsed:.2f}s (< 5s)")


def test_quadratic_terms_cancel_across_random_systems():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = (3, 4, 5)[trial % 3]
        drift, sigma = random_split_system(rng, n)
        split = hopf_split(drift.jacobian(np.zeros(n)))
        f, g, _, _ = transform_system(drift, sigma, split)
        fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
        transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
        f_new, _ = normalform.apply_quadratic_transform(
            f, g, split.Q, split.P, transform)
        for comp, exps, coef in f_new.homogeneous_part(2).terms:
            if exps[0] + exps[1] > 0:
                worst = max(worst, abs(coef))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    assert _verdict(ok, "quadratic cancellation",
                    f"50 systems, max surviving coefficient {worst:.2e} "
                    f"(< 1e-9), {elapsed:.2f}s (< 10s)")


def test_center_manifold_is_tangent_and_invariant_to_cubic_order():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_tangency = 0.0
    slopes = []
    for n in (3, 4, 5):
        drift, sigma = random_split_system(rng, n)
        split = hopf_split(drift.jacobian(np.zeros(n)))
        f, g, _, _ = transform_system(drift, sigma, split)
        fplus, _ = normalform.complexify_quadratic(f.homogeneous_part(2))
        transform = normalform.solve_quadratic(split.lam0, split.P, fplus)
        f_new, g_new = normalform.apply_quadratic_transform(
            f, g, split.Q, split.P, transform)
        manifold = normalform.center_manifold_quadratic(
            split.Q, split.P, f_new, g_new)
        worst_tangency = max(worst_tangency, normalform.tangency_residual(
            split.Q, split.P, g_new, manifold))
        radii = (1e-1, 1e-2, 1e-3)
        defects = [normalform.invariance_defect(
            split.Q, split.P, f_new, g_new, manifold,
            r * np.array([0.6, 0.8])) for r in radii]
        slopes.append(float(np.polyfit(np.log(radii),
                                       np.log(defects), 1)[0]))
    elapsed = time.perf_counter() - start
    ok = worst_tangency < 1e-10 and min(slopes) >= 2.7 and elapsed < 5.0
    assert _verdict(ok, "manifold tangency",
                    f"max order-2 residual {worst_tangency:.2e} (< 1e-10), "
                    f"min defect slope {min(slopes):.2f} (>= 2.7), "
                    f"{elapsed:.2f}s (< 5s)")


def test_averaged_coefficients_match_phase_quadrature():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    phi = 2.0 * np.pi * np.arange(1024) / 1024
    worst = 0.0
    for _ in range(100):
        bar = rng.normal(size=(2, int(rng.integers(1, 4))))
        params = sde.LimitParams(bar)
        drift = stats.averaged_drift(params)
        for eta in (0.5, 1.0, 2.0):
            gap = abs(np.mean(drift.pre_average(eta, phi)) - drift(eta))
            worst = max(worst, gap / max(1.0, abs(drift(eta))))
        gap = abs(np.mean(stats.noise_profile(params, phi))
                  - stats.averaged_diffusion(params))
        worst = max(worst, gap / max(1.0, stats.averaged_diffusion(params)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 2.0
    assert _verdict(ok, "averaging identities",
                    f"100 random noise matrices, max quadrature gap "
                    f"{worst:.2e} (< 1e-12), {elapsed:.2f}s (< 2s)")


def test_radial_marginals_converge_to_the_limit_law():
    system = planar_normal_form()
    start = time.perf_counter()
    report = stats.convergence_study(
        system, (1e-1, 1e-2, 1e-3), (1.0,), 5000, 1e-3, rho0=1.0,
        master_seed=0, refine=True)
    elapsed = time.perf_counter() - start
    ks = {row.epsilon: row.cells[0].ks for row in report.rows}
    decreasing = report.verdicts["ks_strictly_decreasing"]["1.0"]
    shift = report.verdicts["max_ks_refinement_shift"]
    ok = (decreasing and ks[1e-3] < 0.05 and shift < 0.01
          and elapsed < 300.0)
    assert _verdict(ok, "weak convergence",
                    f"KS {ks[1e-1]:.4f} > {ks[1e-2]:.4f} > {ks[1e-3]:.4f} "
                    f"(last < 0.05), dt-halving shift {shift:.4f} (< 0.01), "
                    f"{elapsed:.1f}s (< 300s)")


def test_manifold_defect_shrinks_with_epsilon():
    system = coupled_normal_form()
    start = time.perf_counter()
    report = stats.reduction_diagnostics(
        system, (1e-2, 1e-4), 2.0, 0.4, 200, 1e-3, horizon=1.0,
        master_seed=0)
    elapsed = time.perf_counter() - start
    u = {row.epsilon: row.u_median for row in report.rows}
    ratio = u[1e-2] / u[1e-4]
    ok = ratio >= 1.5 and elapsed < 180.0
    assert _verdict(ok, "manifold defect",
                    f"median sup|U| {u[1e-2]:.2e} at eps=1e-2 vs "
                    f"{u[1e-4]:.2e} at eps=1e-4, ratio {ratio:.2f} "
                    f"(>= 1.5), {elapsed:.1f}s (< 180s)")


def test_planar_gap_decreases_with_epsilon():
    system = coupled_normal_form()
    start = time.perf_counter()
    report = stats.reduction_diagnostics(
        system, (1e-2, 1e-3, 1e-4), 2.0, 0.4, 200, 1e-3, horizon=1.0,
        master_seed=0)
    elapsed = time.perf_counter() - start
    phi = [row.phi_median for row in report.rows]
    ok = phi[0] > phi[1] > phi[2] and elapsed < 180.0
    assert _verdict(ok, "planar approximation",
                    f"median sup|Phi| {phi[0]:.2e} > {phi[1]:.2e} > "
                    f"{phi[2]:.2e} across eps 1e-2, 1e-3, 1e-4 "
                    f"(slope {report.gamma_fit:.2f}), "
                    f"{elapsed:.1f}s (< 180s)")


def test_long_run_radii_match_the_invariant_density():
    params = sde.LimitParams(np.eye(2))
    start = time.perf_counter()
    report = stats.stationary_check(params, 200.0, 50.0, 1e-3, 32,
                                    master_seed=0)
    elapsed = time.perf_counter() - start
    ok = report.w1 < 0.02 and elapsed < 120.0
    assert _verdict(ok, "stationary oracle",
                    f"W1 {report.w1:.4f} (< 0.02) over "
                    f"{report.n_samples} samples, "
                    f"{elapsed:.1f}s (< 120s)")


def test_phase_rotates_at_the_fast_rate():
    system = planar_normal_form()
    eps = 1e-4
    start = time.perf_counter()
    split = system.split
    task = sde.rescaled_task(system.f, system.g, system.sigma_q,
                             system.sigma_p, split.Q, split.P, eps,
                             (1.0, 0.0), np.zeros(0), 1e-3, 1.0)
    ensemble = sde.run_ensemble(task, 32, 0)
    angles = np.unwrap(np.arctan2(ensemble.states[:, :, 1],
                                  ensemble.states[:, :, 0]), axis=1)
    elapsed = time.perf_counter() - start
    assert all(r == "none" for r in ensemble.stop_reason)
    rates = angles[:, -1] - angles[:, 0]
    expected = eps ** -0.5
    rel = abs(float(np.mean(rates)) / expected - 1.0)
    ok = rel < 0.05 and elapsed < 30.0
    assert _verdict(ok, "fast phase",
                    f"mean unwrapped rate {np.mean(rates):.3f} vs "
                    f"eps^-1/2 = {expected:.1f}, relative error {rel:.2e} "
                    f"(< 0.05), {elapsed:.1f}s (< 30s)")


def test_converge_artifacts_are_worker_invariant(tmp_path):
    config = str(REPO / "configs" / "hopf2d.cfg")
    start = time.perf_counter()
    outs = {}
    for workers in ("1", "3"):
        out = tmp_path / f"workers{workers}"
        code = cli.main(["converge", "--config", config, "--out", str(out),
                         "--workers", workers])
        assert code == 0
        outs[workers] = out
    elapsed = time.perf_counter() - start
    same_csv = (outs["1"] / "convergence.csv").read_bytes() == \
        (outs["3"] / "convergence.csv").read_bytes()
    same_json = (outs["1"] / "convergence.json").read_bytes() == \
        (outs["3"] / "convergence.json").read_bytes()
    manifest = json.loads((outs["1"] / "manifest.json").read_text())
    ok = same_csv and same_json and elapsed < 60.0
    assert _verdict(ok, "determinism",
                    f"worker counts 1 and 3, csv identical: {same_csv}, "
                    f"json identical: {same_json}, seed {manifest['seed']}, "
                    f"{elapsed:.1f}s (< 60s)")
