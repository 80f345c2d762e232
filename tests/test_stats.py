"""Averaged coefficients, sample distances, studies, and writers."""

import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic import _kernels, sde, stats
from hopf_critic.config import load_config
from hopf_critic.polyfield import PolyMap
from hopf_critic.spectral import check_hypotheses

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def golden_planar():
    drift = PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), -1.0), (0, (1, 2), -1.0),
        (1, (1, 0), 1.0), (1, (2, 1), -1.0), (1, (0, 3), -1.0)])
    sigma = PolyMap(2, 4, [(0, (0, 0), 1.0), (0, (1, 0), 1.5),
                           (3, (0, 0), 1.0)])
    return drift, sigma


def coupled_3d():
    drift = PolyMap(3, 3, [
        (0, (0, 1, 0), -1.0), (0, (3, 0, 0), -1.0), (0, (1, 2, 0), -1.0),
        (1, (1, 0, 0), 1.0), (1, (2, 1, 0), -1.0), (1, (0, 3, 0), -1.0),
        (2, (0, 0, 1), -1.0), (2, (2, 0, 0), 1.0)])
    sigma = PolyMap(3, 9, [(0, (0, 0, 0), 1.0), (0, (0, 0, 1), 1.0),
                           (4, (0, 0, 0), 1.0), (8, (0, 0, 0), 1.0)])
    return drift, sigma


def drift_record(drift):
    """An AveragedDrift's quartic coefficient, constant and positive zero,
    0.0 where there is none."""
    root = (drift.constant / -drift.a) ** 0.25 \
        if drift.a < 0.0 < drift.constant else 0.0
    return {"quartic_coefficient": drift.a, "constant": drift.constant,
            "root": root}


def ks_oracle(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = 0.0
    for t in np.concatenate((a, b)):
        gap = max(gap, abs(np.mean(a <= t) - np.mean(b <= t)))
    return gap


def w1_oracle(a, b):
    b = np.asarray(b, dtype=float)
    return min(float(np.mean(np.abs(np.asarray(a, dtype=float) - b[list(p)])))
               for p in itertools.permutations(range(b.size)))


def test_phase_average_of_drift_profile_matches_closed_form():
    rng = np.random.default_rng(0)
    phi = 2.0 * np.pi * np.arange(1024) / 1024
    for a in (-1.0, -0.25):
        for _ in range(10):
            bar = rng.normal(size=(2, rng.integers(1, 4)))
            params = sde.LimitParams(bar, a=a)
            drift = stats.averaged_drift(params)
            assert drift_record(drift)["quartic_coefficient"] == a
            for eta in (0.5, 1.0, 2.0):
                assert_allclose(np.mean(drift.pre_average(eta, phi)),
                                drift(eta), rtol=1e-12, atol=1e-12)


def test_phase_average_of_noise_profile_matches_closed_form():
    rng = np.random.default_rng(1)
    phi = 2.0 * np.pi * np.arange(1024) / 1024
    for _ in range(10):
        bar = rng.normal(size=(2, rng.integers(1, 4)))
        params = sde.LimitParams(bar)
        assert_allclose(np.mean(stats.noise_profile(params, phi)),
                        stats.averaged_diffusion(params),
                        rtol=1e-12, atol=1e-12)


def test_averaged_drift_identity_noise_values():
    for a in (-1.0, -0.25):
        params = sde.LimitParams(np.eye(2), a=a)
        drift = stats.averaged_drift(params)
        # b(1) = a + c with c = (S1 + S2)/4 = 1/2
        assert_allclose(drift(1.0), a + 0.5)
        assert_allclose(stats.averaged_diffusion(params), 1.0)
        root = drift_record(drift)["root"]
        assert_allclose(root, (0.5 / -a) ** 0.25)
        assert_allclose(drift(root), 0.0, atol=1e-15)
        assert math.sqrt(stats.averaged_diffusion(params)) == params.s


def test_averaged_drift_rejects_nonpositive_radius():
    params = sde.LimitParams(np.eye(2))
    drift = stats.averaged_drift(params)
    with pytest.raises(ValueError):
        drift(0.0)
    with pytest.raises(ValueError):
        drift.pre_average(-1.0, 0.3)


def test_ks_distance_known_values():
    assert_allclose(stats.ks_distance([1.0, 2.0, 3.0], [1.5, 2.5, 3.5]),
                    1.0 / 3.0)
    assert stats.ks_distance([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert stats.ks_distance([0.0, 1.0], [5.0, 6.0]) == 1.0


def test_ks_distance_matches_brute_force_and_is_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=rng.integers(2, 30))
        b = rng.normal(size=rng.integers(2, 30)) + rng.normal() * 0.5
        d = stats.ks_distance(a, b)
        assert_allclose(d, ks_oracle(a, b), rtol=0, atol=1e-12)
        assert d == stats.ks_distance(b, a)
        assert 0.0 <= d <= 1.0


def test_wasserstein1_known_values():
    rng = np.random.default_rng(3)
    a = rng.normal(size=50)
    assert_allclose(stats.wasserstein1(a, a + 0.8), 0.8, rtol=1e-12)
    assert_allclose(stats.wasserstein1([0.0], [2.0]), 2.0)
    assert_allclose(stats.wasserstein1([1.0, 2.0, 3.0], [1.5, 2.5, 3.5]), 0.5)


def test_wasserstein1_matches_optimal_assignment():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        assert_allclose(stats.wasserstein1(a, b), w1_oracle(a, b),
                        rtol=0, atol=1e-12)


def test_wasserstein1_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = rng.normal(size=(3, 7))
        ab = stats.wasserstein1(a, b)
        bc = stats.wasserstein1(b, c)
        ac = stats.wasserstein1(a, c)
        assert ac <= ab + bc + 1e-12


def test_wasserstein1_subsampling_is_deterministic():
    rng = np.random.default_rng(6)
    a = rng.normal(size=100)
    b = rng.normal(size=17)
    assert stats.wasserstein1(a, b, seed=5) == stats.wasserstein1(a, b, seed=5)
    assert stats.wasserstein1(a, b) == stats.wasserstein1(a, b)


def test_distances_reject_empty_samples():
    with pytest.raises(stats.StatsError):
        stats.ks_distance([], [1.0])
    with pytest.raises(stats.StatsError):
        stats.wasserstein1([1.0], [])


def test_prepare_system_on_planar_normal_form():
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    assert system.split.P.shape == (0, 0)
    assert_allclose(system.split.lam0, 1.0)
    assert_allclose(system.limit.a, -1.0)
    assert_allclose(system.limit.s, 1.0)
    assert_allclose(system.limit.sigma12, 0.0, atol=1e-12)
    assert system.h2.n_out == 0
    cubic = {(c, e): v for c, e, v in system.reduced.homogeneous_part(3).terms}
    for key, value in {(0, (3, 0)): -1.0, (0, (1, 2)): -1.0,
                       (1, (2, 1)): -1.0, (1, (0, 3)): -1.0}.items():
        assert abs(cubic[key] - value) < 1e-12


def test_prepare_system_keeps_stable_block_and_manifold():
    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    assert system.split.P.shape == (1, 1)
    assert system.h2.n_out == 1
    assert system.limit.a < 0.0
    assert system.limit.s > 0.0


def test_prepare_system_rejects_noncritical_origin():
    drift, sigma = golden_planar()
    shifted = drift + PolyMap(2, 2, [(0, (0, 0), 0.1)])
    with pytest.raises(stats.StatsError):
        stats.prepare_system(shifted, sigma)


def test_prepare_system_rejects_mismatched_sigma_shape():
    drift, _ = golden_planar()
    with pytest.raises(stats.StatsError):
        stats.prepare_system(drift, PolyMap.zero(2, 3))


def test_prepared_systems_compare_by_identity_without_raising():
    # ndarray fields make a field-wise == ambiguous and hash impossible
    drift, sigma = coupled_3d()
    first = stats.prepare_system(drift, sigma)
    second = stats.prepare_system(drift, sigma)
    for x, y in ((first, second), (first.limit, second.limit),
                 (first.split, second.split)):
        assert (x == y) is False
        assert x == x
        assert hash(x) == hash(x)
        assert len({x, y}) == 2


@pytest.mark.parametrize("path", sorted(REPO_CONFIGS.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_check_reads_the_prepared_cubic_coefficient(path):
    # one reduction feeds check and every study; brusselator's coefficient
    # is -0.24999999999999983, not -1/4 exactly
    cfg = load_config(path)
    report = check_hypotheses(cfg.drift, cfg.sigma)
    a = stats.prepare_system(cfg.drift, cfg.sigma).limit.a
    assert np.float64(report.radial_cubic_coefficient).tobytes() \
        == np.float64(a).tobytes()


def test_convergence_study_runs_with_the_computed_cubic_coefficient():
    _, sigma = golden_planar()
    steep = PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), -2.0), (0, (1, 2), -2.0),
        (1, (1, 0), 1.0), (1, (2, 1), -2.0), (1, (0, 3), -2.0)])
    system = stats.prepare_system(steep, sigma)
    assert system.limit.a == -2.0
    report = stats.convergence_study(system, (1e-2,), (0.1,), 4, 1e-3)
    assert report.rows[0].cells[0].ks >= 0.0


def test_convergence_study_rejects_a_repelling_cubic():
    _, sigma = golden_planar()
    repel = PolyMap(2, 2, [
        (0, (0, 1), -1.0), (0, (3, 0), 1.0), (0, (1, 2), 1.0),
        (1, (1, 0), 1.0), (1, (2, 1), 1.0), (1, (0, 3), 1.0)])
    system = stats.prepare_system(repel, sigma)
    assert system.limit.a == 1.0
    with pytest.raises(stats.StatsError, match="not supercritical"):
        stats.convergence_study(system, (1e-2,), (0.1,), 4, 1e-3)


def test_convergence_study_validates_run_parameters():
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    with pytest.raises(stats.StatsError):
        stats.convergence_study(system, (2.0,), (0.1,), 4, 1e-3)
    with pytest.raises(stats.StatsError):
        stats.convergence_study(system, (1e-2,), (0.1,), 1, 1e-3)
    with pytest.raises(stats.StatsError):
        stats.convergence_study(system, (1e-2,), (0.1,), 4, 1e-3, rho0=20.0)
    with pytest.raises(stats.StatsError):
        stats.convergence_study(system, (1e-2,), (0.15,), 4, 1e-1)


def dkw_band(n, alpha=0.05):
    """Massart's DKW deviation of an n-sample empirical CDF at level alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@pytest.mark.parametrize("name", ["hopf2d.cfg", "coupled3d.cfg"])
def test_shipped_normal_form_configs_keep_the_standard_cubic(name):
    # bitwise -1.0, so the limit law's bits match the hardcoded cubic's
    cfg = load_config(REPO_CONFIGS / name)
    assert stats.prepare_system(cfg.drift, cfg.sigma).limit.a == -1.0


def test_brusselator_limit_law_takes_the_computed_cubic_coefficient():
    # Not in normal form: its reduced radial coefficient is -1/4.  Against
    # that limit law KS sits inside the two-sample DKW band; against the
    # normal form's -1 it lies far outside.
    cfg = load_config(REPO_CONFIGS / "brusselator.cfg")
    system = stats.prepare_system(cfg.drift, cfg.sigma)
    assert_allclose(system.limit.a, -0.25, atol=1e-12)
    control = dataclasses.replace(
        system, limit=dataclasses.replace(system.limit, a=-1.0))
    checkpoints, paths, dt = (0.5, 1.0), 400, 1e-3
    results = []
    for prepared in (system, control):
        report = stats.convergence_study(prepared, (1e-3,), checkpoints,
                                         paths, dt, master_seed=0)
        # the limit ensemble's survivors, as the study counts them
        fold = stats.AnnulusFold([[int(round(c / dt)) for c in checkpoints]],
                                 paths)
        task = sde.limit_task(prepared.limit, 1.0, dt, max(checkpoints))
        codes = sde.run_coupled([task], paths, 0, fold)[1]
        limit_alive = fold.survivors(codes, 0.05, 10.0)[0][0].sum()
        band = dkw_band(report.rows[0].n_survivors) + dkw_band(limit_alive)
        results.append(([c.ks for c in report.rows[0].cells], band))
    (ks, band), (ks_control, band_control) = results
    assert max(ks) < band
    assert min(ks_control) > band_control


def test_convergence_study_report_structure(tmp_path):
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    report = stats.convergence_study(system, (1e-1, 1e-2), (0.5, 1.0),
                                     60, 1e-3)
    assert report.epsilons == (0.1, 0.01)
    assert len(report.rows) == 2
    for row in report.rows:
        assert 0.0 <= row.stopped_fraction <= 1.0
        assert row.n_survivors == round(60 * (1.0 - row.stopped_fraction))
        assert len(row.cells) == 2
        for cell in row.cells:
            assert 0.0 <= cell.ks <= 1.0
            assert cell.w1 >= 0.0
            assert all(q1 <= q2 for q1, q2 in
                       zip(cell.quantiles, cell.quantiles[1:]))
            assert cell.ks_refined is None
    assert set(report.verdicts) == {"reliable", "ks_strictly_decreasing"}
    assert set(report.verdicts["ks_strictly_decreasing"]) == {"0.5", "1.0"}

    out = tmp_path / "convergence.csv"
    stats.write_convergence_csv(report, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "epsilon,checkpoint,ks,w1,stopped_fraction,n_paths,dt"
    assert len(lines) == 1 + 4
    fields = lines[1].split(",")
    assert float(fields[0]) == report.rows[0].epsilon
    assert float(fields[2]) == report.rows[0].cells[0].ks
    assert float(fields[3]) == report.rows[0].cells[0].w1
    assert int(fields[5]) == 60

    record = report.as_record()
    assert record["rows"][1]["cells"][1]["ks"] == report.rows[1].cells[1].ks
    assert record["verdicts"]["reliable"] in (True, False)


def test_convergence_study_single_epsilon_verdict_is_undecided():
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    report = stats.convergence_study(system, (1e-2,), (0.5,), 16, 1e-2)
    assert report.verdicts["ks_strictly_decreasing"]["0.5"] is None


def test_convergence_refinement_reuses_the_brownian_path():
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    report = stats.convergence_study(system, (1e-1,), (0.5,), 40, 1e-2,
                                     refine=True)
    cell = report.rows[0].cells[0]
    assert cell.ks_refined is not None
    assert abs(cell.ks - cell.ks_refined) < 0.2
    assert report.verdicts["max_ks_refinement_shift"] >= 0.0


@pytest.mark.parametrize("guard", [sde.GUARD_RADIUS, 1.6],
                         ids=["annulus", "guard"])
def test_converge_fold_matches_polar_ensemble_bitwise(monkeypatch, guard):
    system = stats.prepare_system(*golden_planar())
    split = system.split
    # a near outer barrier: paths hit both; a guard inside it stops some
    # amplified paths as diverged, while the limit runs keep the default
    delta, nmax, paths, seed = 0.5, 1.8, 24, 3
    steps = ((1e-3, False), (5e-4, True))
    runs = [
        [sde.limit_task(system.limit, 1.0, h, 0.5, refined=r)
         for h, r in steps],
        [sde.rescaled_task(system.f, system.g, system.sigma_q,
                           system.sigma_p, split.Q, split.P, eps,
                           1.0, h, 0.5, refined=r)
         for eps in (1e-1, 1e-2) for h, r in steps]]
    guards = (sde.GUARD_RADIUS, guard)
    keep = [[[500, 250] if not t.refined else [1000, 500] for t in tasks]
            for tasks in runs]
    # A chunk's states depend on its width once a task is down to one live
    # row there (see CHANGES.md), so each task's reference runs in the
    # chunks of 8 paths the pair of eps takes below.
    monkeypatch.setattr(sde, "CHUNK", 8)
    reference, reasons = [], set()
    for tasks, rows, radius in zip(runs, keep, guards):
        monkeypatch.setattr(sde, "GUARD_RADIUS", radius)
        for task, kept in zip(tasks, rows):
            polar = sde.polar_ensemble(sde.run_ensemble(task, paths, seed),
                                       delta, nmax)
            alive = np.array([r == "none" for r in polar.stop_reason])
            reference.append((alive, polar.rho[alive][:, kept].T))
            reasons.update(polar.stop_reason)
    # 16 // 2 = 8 paths a chunk; per path and noise block, in the
    # kernel's half of the budget, 4 draws and the increments and block
    # states of the coarse and refined pairs, 2 x (2 + 2) and 4 x (2 + 2):
    # time blocks of 3 noise blocks, each opening on the last one's end
    monkeypatch.setattr(sde, "CHUNK", 16)
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 3 * 8 * 28)
    # up to three chunks at once, switching threads often: a fold writing
    # outside its chunk's paths would change a survivor or a radius
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            found = []
            for tasks, rows, radius in zip(runs, keep, guards):
                monkeypatch.setattr(sde, "GUARD_RADIUS", radius)
                fold = stats.AnnulusFold(rows, paths)
                stop_code = sde.run_coupled(tasks, paths, seed, fold,
                                            workers)[1]
                found += fold.survivors(stop_code, delta, nmax)
            for (alive, radii), (want_alive, want_radii) in zip(
                    found, reference):
                assert alive.tobytes() == want_alive.tobytes()
                assert radii.tobytes() == want_radii.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert {"none", "hit_inner", "hit_outer"} <= reasons
    assert ("diverged" in reasons) == (guard < nmax)


def test_independent_same_law_ensembles_sit_below_the_ks_null_bound():
    params = sde.LimitParams(np.eye(2))
    task = sde.limit_task(params, 1.0, 1e-3, 1.0)
    a = sde.polar_ensemble(sde.run_ensemble(task, 800, 11), 0.05, 10.0)
    b = sde.polar_ensemble(sde.run_ensemble(task, 800, 12), 0.05, 10.0)
    alive_a = np.array([r == "none" for r in a.stop_reason])
    alive_b = np.array([r == "none" for r in b.stop_reason])
    ra = a.rho[alive_a, -1]
    rb = b.rho[alive_b, -1]
    bound = 1.36 * math.sqrt((ra.size + rb.size) / (ra.size * rb.size))
    assert stats.ks_distance(ra, rb) < bound


def test_radial_law_does_not_depend_on_initial_phase():
    cubic = PolyMap(2, 2, [(0, (3, 0), -1.0), (0, (1, 2), -1.0),
                           (1, (2, 1), -1.0), (1, (0, 3), -1.0)])
    iso = PolyMap(2, 4, [(0, (0, 0), 1.0), (3, (0, 0), 1.0)])
    r = 1.0 / math.sqrt(2.0)
    east = sde.run_ensemble(
        sde.em_task(cubic, iso, np.array([1.0, 0.0]), 1e-3, 1.0), 600, 7)
    diag = sde.run_ensemble(
        sde.em_task(cubic, iso, np.array([r, r]), 1e-3, 1.0), 600, 8)
    ks = stats.ks_distance(np.linalg.norm(east.states[:, -1], axis=1),
                           np.linalg.norm(diag.states[:, -1], axis=1))
    assert ks < 1.36 * math.sqrt(2.0 / 600.0)


def test_reduction_rejects_mixed_quadratic_drift():
    drift, sigma = golden_planar()
    quad = drift + PolyMap(2, 2, [(0, (2, 0), 0.5)])
    system = stats.prepare_system(quad, sigma)
    with pytest.raises(stats.NonTrivialQuadratic):
        stats.reduction_diagnostics(system, (1e-2,), 2.0, 0.4, 2, 1e-3,
                                    horizon=0.01)


def test_reduction_validates_run_parameters():
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    with pytest.raises(stats.StatsError):
        stats.reduction_diagnostics(system, (1e-2,), -1.0, 0.4, 2, 1e-3)
    with pytest.raises(stats.StatsError):
        stats.reduction_diagnostics(system, (1e-2,), 2.0, 0.7, 2, 1e-3)
    with pytest.raises(stats.StatsError):
        stats.reduction_diagnostics(system, (1e-2,), 2.0, 0.4, 2, 1e-3,
                                    rho0=5.0)


def test_reduction_on_planar_system_has_no_manifold_defect():
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    report = stats.reduction_diagnostics(system, (1e-1, 1e-2), 2.0, 0.4,
                                         20, 1e-3, horizon=0.5)
    for row in report.rows:
        assert row.u_median == 0.0
        assert row.u_p90 == 0.0
        assert row.phi_median == 0.0
        assert row.phi_p90 == 0.0
    assert math.isnan(report.q_fit)
    assert math.isnan(report.gamma_fit)


def test_reduction_decays_onto_manifold_without_noise():
    # stiff stable direction, quadratic forcing from the rotation plane,
    # zero diffusion: after the transient the gap to the quadratic
    # manifold is the numerically resolved higher-order remainder, and
    # the planar block never deviates at all
    drift = PolyMap(3, 3, [
        (0, (0, 1, 0), -1.0), (1, (1, 0, 0), 1.0),
        (2, (0, 0, 1), -10.0), (2, (2, 0, 0), 1.0)])
    sigma = PolyMap.zero(3, 3)
    system = stats.prepare_system(drift, sigma)
    report = stats.reduction_diagnostics(system, (1e-4,), 2.0, 0.4, 1,
                                         1e-7, horizon=0.05)
    row = report.rows[0]
    assert row.u_median < 1e-6
    assert row.phi_median == 0.0
    assert row.excluded_fraction == 0.0
    assert row.ball_exit_fraction == 0.0


def test_reduction_errors_shrink_with_epsilon():
    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    report = stats.reduction_diagnostics(system, (1e-2, 1e-3), 2.0, 0.4,
                                         40, 1e-3, horizon=1.0)
    rows = {row.epsilon: row for row in report.rows}
    assert rows[1e-3].u_median < rows[1e-2].u_median
    assert rows[1e-3].phi_median < rows[1e-2].phi_median
    assert report.q_fit > 0.0
    assert report.gamma_fit > 0.0

    record = report.as_record()
    assert record["rows"][0]["u_median"] == report.rows[0].u_median
    assert record["Delta"] == 2.0


def coupled_nd(n):
    """The ``coupled_3d`` system widened to n coordinates: the planar cubic
    rotation, fed back from the first stable mode through a noise
    coefficient, and n - 2 stable modes of distinct rates, each forced by
    z1^2."""
    def exps(**powers):
        return tuple(powers.get(f"x{i}", 0) for i in range(n))

    terms = [(0, exps(x1=1), -1.0), (0, exps(x0=3), -1.0),
             (0, exps(x0=1, x1=2), -1.0), (1, exps(x0=1), 1.0),
             (1, exps(x0=2, x1=1), -1.0), (1, exps(x1=3), -1.0)]
    for k in range(2, n):
        terms += [(k, exps(**{f"x{k}": 1}), -1.0 - 0.1 * k),
                  (k, exps(x0=2), 1.0 / k)]
    sigma = PolyMap(n, n * n, [(0, exps(), 1.0), (0, exps(x2=1), 1.0)]
                    + [(i * n + i, exps(), 1.0) for i in range(1, n)])
    return PolyMap(n, n, terms), sigma


def contiguous_sum(x):
    """Sum of squares over the last axis, contiguous as the states of an
    ensemble are, so numpy adds 8 or more of them pairwise."""
    return (x * x).sum(axis=2)


def ordered_sum(x):
    """Sum of squares over the last axis, left to right from 0.0, which
    adds no rounding to a square."""
    total = np.zeros(x.shape[:2])
    for j in range(x.shape[2]):
        total = total + x[:, :, j] * x[:, :, j]
    return total


def loop_reduction_row(system, eps, big_delta, beta, paths, dt, horizon,
                       master_seed, sum_squares=ordered_sum):
    """One eps's reduction row from the per-path loop over the sups of
    |U| and |Phi| on every state, the study's reference, and each path's
    exit index.  ``sum_squares`` adds the squares of the coordinates of
    every state."""
    split, h2 = system.split, system.h2
    # both ride stream (master_seed, p) of one stream class
    full, reduced = (sde.run_ensemble(task, paths, master_seed) for task in (
        sde.rescaled_task(system.f, system.g, system.sigma_q, system.sigma_p,
                          split.Q, split.P, eps, 1.0, dt, horizon),
        sde.reduced_task(system.reduced, system.sigma_q, h2, eps, 1.0, dt,
                         horizon)))
    n_steps = int(round(horizon / dt))
    Z, Y, Zt = full.states[:, :, :2], full.states[:, :, 2:], reduced.states
    hv = h2.evaluate_batch(Z.reshape(-1, 2)).reshape(Y.shape)
    U = Y - (eps ** 0.25) * hv
    norm_u = np.sqrt(sum_squares(U))
    norm_phi = np.sqrt(sum_squares(Z - Zt))
    outside = (np.sqrt(sum_squares(full.states)) >= big_delta) \
        | (np.sqrt(sum_squares(Zt)) >= big_delta)
    exit_idx = np.where(outside.any(axis=1), outside.argmax(axis=1),
                        n_steps + 1)
    for ens in (full, reduced):
        died = np.array([r != "none" for r in ens.stop_reason])
        exit_idx = np.minimum(
            exit_idx, np.where(died, ens.stop_index, n_steps + 1))
    i_beta = int(math.ceil(eps ** beta / dt - 1e-12))
    sup_u = np.full(paths, np.nan)
    included = np.zeros(paths, dtype=bool)
    sup_phi = np.empty(paths)
    for p in range(paths):
        stop = min(int(exit_idx[p]), n_steps + 1)
        sup_phi[p] = norm_phi[p, :max(stop, 1)].max()
        if i_beta < stop:
            sup_u[p] = norm_u[p, i_beta:stop].max()
            included[p] = True
    return stats.ReductionRow(
        epsilon=eps, u_median=float(np.quantile(sup_u[included], 0.5)),
        u_p90=float(np.quantile(sup_u[included], 0.9)),
        phi_median=float(np.quantile(sup_phi, 0.5)),
        phi_p90=float(np.quantile(sup_phi, 0.9)),
        excluded_fraction=float(1.0 - included.mean()),
        ball_exit_fraction=float((exit_idx <= n_steps).mean())), exit_idx


def test_reduction_over_two_eps_equals_one_eps_at_a_time():
    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    # a small Delta-ball and a long cutoff: some paths leave the ball
    # before eps^beta and are excluded, others leave it later
    run = dict(big_delta=1.3, beta=0.45, paths=24, dt=1e-3, horizon=1.0,
               master_seed=3)
    _kernels._generate_step.cache_clear()
    both = stats.reduction_diagnostics(system, (1e-1, 1e-2), **run)
    # one step for the full runs of both eps, one for the reduced runs
    assert _kernels._generate_step.cache_info().misses == 2
    stats.reduction_diagnostics(system, (1e-3, 1e-4), **run)
    assert _kernels._generate_step.cache_info().misses == 2
    alone = [stats.reduction_diagnostics(system, (eps,), **run).rows[0]
             for eps in (1e-1, 1e-2)]
    assert both.rows == tuple(alone)
    assert both.rows == tuple(loop_reduction_row(system, eps, **run)[0]
                              for eps in (1e-1, 1e-2))
    assert 0.0 < both.rows[0].excluded_fraction < 1.0
    assert 0.0 < both.rows[0].ball_exit_fraction < 1.0


def test_planar_reduction_takes_the_general_path(monkeypatch):
    # k = 0 is the empty stable block: the fold evaluates the empty h2 and
    # the empty U like any other, and reads |U| = 0 and, on the shared
    # noise, Phi = 0, as the per-path reference does
    drift, sigma = golden_planar()
    system = stats.prepare_system(drift, sigma)
    run = dict(big_delta=1.3, beta=0.45, paths=12, dt=1e-3, horizon=0.5,
               master_seed=3)
    reference, _ = loop_reduction_row(system, 1e-1, **run)
    empty_calls = []
    evaluate_batch = PolyMap.evaluate_batch

    def counted(self, points):
        if self.n_out == 0:
            empty_calls.append(len(points))
        return evaluate_batch(self, points)

    monkeypatch.setattr(PolyMap, "evaluate_batch", counted)
    report = stats.reduction_diagnostics(system, (1e-1,), **run)
    assert system.h2.n_out == 0
    assert empty_calls
    assert report.rows == (reference,)
    assert report.rows[0].u_median == 0.0
    assert report.rows[0].phi_median == 0.0
    assert 0.0 < report.rows[0].excluded_fraction < 1.0


def test_reduction_runs_every_eps_in_one_call(monkeypatch):
    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    # eps^beta before the horizon, so every row's U statistics are finite
    run = dict(big_delta=2.0, beta=0.4, paths=8, dt=1e-3, horizon=0.5)
    epsilons = (1e-2, 1e-3, 1e-4)
    alone = [stats.reduction_diagnostics(system, (eps,), **run).rows[0]
             for eps in epsilons]
    sizes = []
    run_coupled = sde.run_coupled

    def counted(tasks, *args, **kwargs):
        sizes.append(len(tasks))
        return run_coupled(tasks, *args, **kwargs)

    monkeypatch.setattr(sde, "run_coupled", counted)
    rows = stats.reduction_diagnostics(system, epsilons, **run).rows
    # a full and a reduced task per eps, all in one call
    assert sizes == [6]
    assert rows == tuple(alone)
    assert all(math.isfinite(r.u_median) for r in rows)


@pytest.mark.parametrize("guard", [sde.GUARD_RADIUS, 1.25],
                         ids=["ball", "guard"])
def test_reduction_fold_matches_every_state_bitwise(monkeypatch, guard):
    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    split = system.split
    # a guard inside the Delta-ball stops most runs as diverged
    monkeypatch.setattr(sde, "GUARD_RADIUS", guard)
    run = dict(big_delta=1.3, beta=0.45, paths=24, dt=1e-3, horizon=0.5,
               master_seed=3)
    epsilons = (1e-1, 1e-2)
    # A chunk's states depend on its width once a task is down to one live
    # row there (see CHANGES.md), so each eps's reference runs in the
    # chunks of 8 paths the pair of eps takes below.
    monkeypatch.setattr(sde, "CHUNK", 8)
    reference = [loop_reduction_row(system, eps, **run) for eps in epsilons]
    # 16 // 2 = 8 paths a chunk; per path and step, in the kernel's half
    # of the budget, 6 draws and the increments and block states of both
    # full (2 x (3 + 3)) and reduced (2 x (3 + 2)) runs: time blocks of 3
    # steps, each opening on the last one's end
    span = 3
    monkeypatch.setattr(sde, "CHUNK", 16)
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * span * 8 * 28)
    # up to three chunks at once, switching threads often: a fold writing
    # outside its chunk's paths would change a row
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            report = stats.reduction_diagnostics(system, epsilons,
                                                 workers=workers, **run)
            assert report.rows == tuple(row for row, _ in reference)
    finally:
        sys.setswitchinterval(interval)
    assert all(0.0 < row.excluded_fraction < 1.0 for row in report.rows)
    exits = np.concatenate([exit_idx for _, exit_idx in reference])
    left = exits[exits <= 500]
    # exits inside a block and on a block's last step
    assert (left % span == 0).any() and (left % span != 0).any()
    task = sde.rescaled_task(system.f, system.g, system.sigma_q,
                             system.sigma_p, split.Q, split.P, 1e-1,
                             1.0, run["dt"], run["horizon"])
    stops = sde.run_ensemble(task, run["paths"], run["master_seed"])
    assert ("diverged" in stops.stop_reason) == (guard < run["big_delta"])


@pytest.mark.parametrize("n", [9, 16])
def test_reduction_norms_sum_coordinates_left_to_right(n):
    # The fold reads coordinate planes and sums their squares left to
    # right, where numpy sums the last axis of the ensemble's contiguous
    # states pairwise from 8 coordinates on: the state's at n >= 8 (read
    # for ball exits) and the manifold defect U's at n >= 10, whose sups
    # and medians show the order.
    system = stats.prepare_system(*coupled_nd(n))
    run = dict(big_delta=2.5, beta=0.45, paths=16, dt=1e-3, horizon=0.5,
               master_seed=3)
    epsilons = (1e-1, 1e-2)
    report = stats.reduction_diagnostics(system, epsilons, **run)
    reference = [loop_reduction_row(system, eps, **run)[0]
                 for eps in epsilons]
    assert report.rows == tuple(reference)
    assert all(row.excluded_fraction < 1.0 for row in report.rows)
    if n >= 10:
        contiguous = [loop_reduction_row(system, eps, **run,
                                         sum_squares=contiguous_sum)[0]
                      for eps in epsilons]
        assert report.rows != tuple(contiguous)


def test_reduction_memory_does_not_grow_with_the_horizon(monkeypatch):
    import tracemalloc

    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    # 64 paths of 28 cells a step in the kernel's half of the budget (see
    # test_reduction_fold_matches_every_state_bitwise): time blocks of 16
    # steps, so both horizons take several
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 16 * 64 * 28)
    peaks = {}
    for T in (0.5, 4.0):
        tracemalloc.start()
        try:
            stats.reduction_diagnostics(system, (1e-1, 1e-2), 2.0, 0.4, 64,
                                        1e-2, horizon=T)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[4.0] - peaks[0.5]) <= 0.1 * peaks[0.5], peaks


def test_reduction_csv_round_trips_values(tmp_path):
    drift, sigma = coupled_3d()
    system = stats.prepare_system(drift, sigma)
    report = stats.reduction_diagnostics(system, (1e-2,), 2.0, 0.4, 8,
                                         1e-3, horizon=0.2)
    out = tmp_path / "reduction.csv"
    stats.write_reduction_csv(report, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("epsilon,u_median,u_p90,phi_median,phi_p90,"
                        "excluded_fraction,ball_exit_fraction,n_paths,dt")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[1]) == report.rows[0].u_median
    assert float(fields[3]) == report.rows[0].phi_median
    assert int(fields[7]) == 8


def test_stationary_normalizer_matches_quadrature():
    # int eta exp(a eta^4 / (2 s^2)) d eta = sqrt(pi s^2 / (2 |a|)) / 2
    for a in (-1.0, -0.25):
        params = sde.LimitParams(np.eye(2), a=a)
        report = stats.stationary_check(params, 5.0, 1.0, 1e-3, 4)
        assert abs(report.normalizer
                   - 0.5 * math.sqrt(math.pi / (2.0 * abs(a)))) < 1e-6
        assert report.n_samples == 4 * 4000
        assert report.s == 1.0


def test_stationary_samples_match_invariant_law():
    params = sde.LimitParams(np.eye(2))
    first = stats.stationary_check(params, 30.0, 5.0, 1e-3, 8, master_seed=1)
    second = stats.stationary_check(params, 30.0, 5.0, 1e-3, 8, master_seed=2)
    assert first.w1 < 0.04
    assert second.w1 < 0.04
    assert abs(first.w1 - second.w1) < 0.02


def test_stationary_law_concentrates_at_drift_root_for_small_noise():
    params = sde.LimitParams(0.1 * np.eye(2))
    report = stats.stationary_check(params, 50.0, 15.0, 1e-3, 8, rho0=0.3,
                                    master_seed=3)
    assert report.w1 < 0.02
    ens = sde.run_ensemble(sde.limit_task(params, 0.3, 1e-3, 50.0), 8, 3)
    median = float(np.median(np.linalg.norm(ens.states[:, 15001:], axis=2)))
    root = drift_record(stats.averaged_drift(params))["root"]
    assert abs(median - root) < 0.05


def test_stationary_check_folds_the_post_burn_in_radii_bitwise(monkeypatch):
    params = sde.LimitParams(np.eye(2))
    T, burn_in, dt, paths = 2.0, 0.5, 1e-3, 12
    # the reference: every state kept, the live paths' radii after the
    # burn-in read from the norms
    ens = sde.run_ensemble(sde.limit_task(params, 1.0, dt, T), paths, 4)
    alive = np.array([r == "none" for r in ens.stop_reason])
    samples = np.linalg.norm(ens.states[alive, 501:], axis=2).ravel()
    eta_max = max(float(samples.max()) * 1.0001, 120.0 ** 0.25)
    grid = np.linspace(0.0, eta_max, 10_000)
    density = grid * np.exp(-(grid ** 4) / 2.0)
    cdf = np.concatenate(([0.0], np.cumsum(
        0.5 * (density[1:] + density[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    positions = (np.arange(samples.size) + 0.5) / samples.size
    w1 = float(np.mean(np.abs(np.sort(samples)
                              - np.interp(positions, cdf, grid))))
    # 5 paths a chunk; per path and step, in the kernel's half of the
    # budget, 4 draws, 2 increments and 2 block states: time blocks of 7
    # steps, so grid index 501, the first sample, lies inside the block of
    # grid indices 497 (the carried states) to 504
    monkeypatch.setattr(sde, "CHUNK", 5)
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 7 * 5 * 8)
    for workers in (1, 2):
        report = stats.stationary_check(params, T, burn_in, dt, paths,
                                        master_seed=4, workers=workers)
        assert report.n_samples == samples.size
        assert report.eta_max == eta_max
        assert report.w1 == w1


def test_stationary_check_reads_radii_from_the_burn_in_index_bitwise(
        monkeypatch):
    # an anisotropic sigma_bar and a != -1, so every field of the record
    # depends on the coefficients
    params = sde.LimitParams(np.array([[1.0, 0.5], [0.0, 2.0]]), a=-0.6)
    T, burn_in, dt, paths, seed = 1.5, 0.4, 1e-3, 11, 6
    start = 401
    # the reference: every state kept, the never-stopped paths' radii from
    # grid index start on, through the study's quadrature
    ens = sde.run_ensemble(sde.limit_task(params, 1.0, dt, T), paths, seed)
    x = ens.states[np.array([r == "none" for r in ens.stop_reason]), start:]
    samples = np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]).ravel()
    s_sq = params.s * params.s
    eta_max = max(float(samples.max()) * 1.0001,
                  (120.0 * s_sq / -params.a) ** 0.25)
    grid = np.linspace(0.0, eta_max, 10_000)
    density = grid * np.exp(params.a * grid ** 4 / (2.0 * s_sq))
    cdf = np.concatenate(([0.0], np.cumsum(
        0.5 * (density[1:] + density[:-1]) * np.diff(grid))))
    normalizer = float(cdf[-1])
    cdf /= normalizer
    positions = (np.arange(samples.size) + 0.5) / samples.size
    w1 = float(np.mean(np.abs(np.sort(samples)
                              - np.interp(positions, cdf, grid))))
    reference = {"w1": w1, "n_samples": samples.size, "s": params.s,
                 "normalizer": normalizer, "eta_max": eta_max, "horizon": T,
                 "burn_in": burn_in, "dt": dt, "n_paths": paths}
    # 5 paths a chunk and time blocks of 7 steps (see the test above): one
    # block holds grid indices 399 to 406, across the burn-in index
    spans = []
    run_coupled = sde.run_coupled

    def recording(tasks, count, master_seed, fold, workers=None):
        def spy(at, blocks):
            spans.append((blocks[0].first, blocks[0].states.shape[1]))
            fold(at, blocks)
        return run_coupled(tasks, count, master_seed, spy, workers)

    monkeypatch.setattr(sde, "run_coupled", recording)
    monkeypatch.setattr(sde, "CHUNK", 5)
    monkeypatch.setattr(sde, "BLOCK_CELLS", 2 * 7 * 5 * 8)
    for workers in (1, 2):
        spans.clear()
        report = stats.stationary_check(params, T, burn_in, dt, paths,
                                        master_seed=seed, workers=workers)
        assert report.as_record() == reference
        assert any(first < start < first + rows for first, rows in spans)


def test_stationary_check_validates_inputs():
    params = sde.LimitParams(np.eye(2))
    with pytest.raises(stats.StatsError):
        stats.stationary_check(params, 1.0, 2.0, 1e-3, 4)
    silent = sde.LimitParams(np.zeros((2, 2)))
    with pytest.raises(stats.StatsError):
        stats.stationary_check(silent, 1.0, 0.0, 1e-3, 4)
    for a in (0.0, 0.25):
        repelling = sde.LimitParams(np.eye(2), a=a)
        with pytest.raises(stats.StatsError, match="attracting"):
            stats.stationary_check(repelling, 1.0, 0.0, 1e-3, 4)
        assert drift_record(stats.averaged_drift(repelling))["root"] == 0.0


def test_trajectory_csv_layout(tmp_path):
    drift = PolyMap(1, 1, [(0, (1,), -1.0)])
    diffusion = PolyMap(1, 1, [(0, (0,), 1.0)])
    ens = sde.run_ensemble(sde.em_task(drift, diffusion, np.zeros(1),
                                       0.25, 1.0), 3, 0)
    out = tmp_path / "trajectory.csv"
    stats.write_trajectory_csv(ens, out, ["x1"])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "path,t,x1,stopped"
    assert len(lines) == 1 + 3 * 5
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        assert fields[3] == "0"
    assert float(lines[1].split(",")[2]) == ens.states[0, 0, 0]
    with pytest.raises(stats.StatsError):
        stats.write_trajectory_csv(ens, out, ["x1", "x2"])


def row_loop_trajectory_csv(ensemble, path, columns):
    """Reference writer that formats one row at a time.

    The block writer in ``stats`` must reproduce its bytes exactly.
    """
    lines = ["path,t," + ",".join(columns) + ",stopped"]
    for p in range(len(ensemble.states)):
        live = ensemble.stop_reason[p] == "none"
        for k, t in enumerate(ensemble.grid):
            stopped = 0 if live or k < ensemble.stop_index[p] else 1
            values = [str(p), format(float(t), ".17g")]
            values.extend(format(float(v), ".17g")
                          for v in ensemble.states[p, k])
            values.append(str(stopped))
            lines.append(",".join(values))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def writer_ensembles():
    planar = sde.run_ensemble(sde.em_task(*golden_planar(),
                                          np.array([1.0, 0.0]), 1e-2, 0.5),
                              6, 1)
    coupled = sde.run_ensemble(sde.em_task(*coupled_3d(),
                                           np.array([1.0, 0.0, 0.2]),
                                           1e-2, 0.5), 5, 2)
    # from 0.5 the cubic blows up near t = 2, so noise pushes some paths
    # past the guard mid-run while others survive
    cube = PolyMap(1, 1, [(0, (3,), 1.0)])
    noise = PolyMap(1, 1, [(0, (0,), 1.0)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sde, "GUARD_RADIUS", 10.0)
        guarded = sde.run_ensemble(
            sde.em_task(cube, noise, np.array([0.5]), 1e-2, 2.0), 40, 3)
    states = planar.states[:4, :6].copy()
    states[0, 1] = (-0.0, 5e-324)
    states[0, 2] = (math.inf, -math.inf)
    states[1, 3] = (math.nan, -0.0)
    edited = sde.PathEnsemble(
        grid=planar.grid[:6], states=states,
        stop_index=np.array([5, 3, 0, 5]),
        stop_reason=("none", "diverged", "hit_outer", "none"))
    return {"planar": (planar, ["z1", "z2"]),
            "coupled3d": (coupled, ["z1", "z2", "y1"]),
            "guarded": (guarded, ["x1"]),
            "edited": (edited, ["z1", "z2"])}


@pytest.mark.parametrize("name", sorted(writer_ensembles()))
def test_trajectory_csv_matches_row_loop_bytes(tmp_path, name):
    ensemble, columns = writer_ensembles()[name]
    if name == "guarded":
        assert 0 < ensemble.stop_reason.count("diverged") < len(ensemble.states)
    want, got = tmp_path / "rows.csv", tmp_path / "blocks.csv"
    row_loop_trajectory_csv(ensemble, want, columns)
    stats.write_trajectory_csv(ensemble, got, columns)
    assert got.read_bytes() == want.read_bytes()
    if name == "edited":
        text = got.read_text()
        for cell in (",-0,4.9406564584124654e-324,0\n", ",inf,-inf,0\n",
                     ",nan,-0,1\n"):
            assert cell in text
        assert [line[-1] for line in text.splitlines()
                if line.startswith("2,")] == ["1"] * 6


def test_trajectory_writer_memory_does_not_grow_with_paths_or_horizon(
        tmp_path):
    import tracemalloc

    def planar(paths, T):
        return sde.run_ensemble(sde.em_task(*golden_planar(),
                                            np.array([1.0, 0.0]), 5e-3, T),
                                paths, 5)

    # the first write builds the formatter's tables, which then stay
    stats.write_trajectory_csv(planar(2, 0.01), tmp_path / "t.csv",
                               ["z1", "z2"])
    peaks = {}
    # from 3,232 to 205,056 rows, each at least one full slab
    for paths, T in ((32, 0.5), (256, 0.5), (32, 4.0), (256, 4.0)):
        ensemble = planar(paths, T)
        assert ensemble.states.shape[0] * ensemble.states.shape[1] \
            >= stats._SLAB_ROWS
        tracemalloc.start()
        try:
            stats.write_trajectory_csv(ensemble, tmp_path / "t.csv",
                                       ["z1", "z2"])
            peaks[paths, T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1.1 * min(peaks.values()), peaks


def test_svg_plot_writes_polylines_and_rejects_bad_log_data(tmp_path):
    out = tmp_path / "plot.svg"
    stats.svg_line_plot(out, [("a", [1.0, 2.0], [3.0, 4.0]),
                              ("b", [1.0, 2.0], [5.0, 1.0])],
                        title="gap", xlabel="x", ylabel="y")
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "gap" in text
    with pytest.raises(stats.StatsError):
        stats.svg_line_plot(out, [("a", [0.0, 1.0], [1.0, 2.0])], logx=True)
