"""Config grammar, subcommand artifacts, exit codes, and the manifest."""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hopf_critic import cli, sde
from hopf_critic.config import (RUN_KEYS, ConfigError, load_config,
                                parse_config)

GOLDEN = """\
[system]
n 2
drift 1 0 1 -1.0
drift 1 3 0 -1.0
drift 1 1 2 -1.0
drift 2 1 0 1.0
drift 2 2 1 -1.0
drift 2 0 3 -1.0
sigma 1 1 0 0 1.0
sigma 1 1 1 0 1.5
sigma 2 2 0 0 1.0

[run]
epsilon 1e-1
T 0.5
dt 1e-2
paths 30
seed 0
checkpoints 0.25 0.5

[output]
directory out
"""

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, text=GOLDEN, name="system.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_fills_defaults():
    cfg = parse_config("[system]\nn 2\n")
    assert cfg.n == 2
    assert cfg.m == 2
    assert cfg.includes_mu is False
    assert cfg.epsilons == (1e-2,)
    assert cfg.T == 1.0
    assert cfg.dt == 1e-3
    assert cfg.paths == 100
    assert cfg.seed == 0
    assert cfg.rho0 == 1.0
    assert cfg.delta == 0.05
    assert cfg.nmax == 10.0
    assert cfg.big_delta == 2.0
    assert cfg.beta == 0.4
    # no checkpoints line: the CLI compares at T once its flags are applied
    assert cfg.checkpoints is None
    assert cfg.workers is None
    assert cfg.out_dir == "out"
    assert cfg.plot is False


def test_config_builds_the_declared_polynomials():
    cfg = parse_config(GOLDEN)
    assert_allclose(cfg.drift(np.array([1.0, 0.0])), [-1.0, 1.0])
    assert_allclose(cfg.sigma(np.zeros(2)).reshape(2, 2), np.eye(2))
    assert_allclose(cfg.sigma(np.array([1.0, 0.0])).reshape(2, 2),
                    [[2.5, 0.0], [0.0, 1.0]])
    assert cfg.checkpoints == (0.25, 0.5)


def test_checkpoints_default_to_the_horizon():
    cfg = parse_config("[system]\nn 2\n[run]\nT 2.0\n")
    assert cfg.checkpoints is None
    parser = cli.build_parser()
    for flags, horizon in (([], 2.0), (["--T", "0.5"], 0.5)):
        args = parser.parse_args(["converge", "--config", "x.cfg", *flags])
        assert cli._apply_overrides(cfg, args).checkpoints == (horizon,)


def test_parse_collects_every_error_with_line_numbers():
    text = """\
[system]
n 1
drift 1 0 -1.0
bogus 3
[run]
epsilon 2.0
dt -1
[output]
plot maybe
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    errors = exc.value.errors
    assert len(errors) == 4
    assert any("line 2" in e and "n must be" in e for e in errors)
    assert any("line 3" in e and "drift" in e for e in errors)
    assert any("line 4" in e and "bogus" in e for e in errors)
    assert any("line 9" in e and "plot" in e for e in errors)
    # the ranges of epsilon and dt are judged by the CLI, after its flags
    assert not any("epsilon" in e or "dt" in e for e in errors)


def test_parse_rejects_duplicate_scalar_keys():
    text = "[system]\nn 2\n[run]\nT 1.0\nT 2.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("duplicate key 'T'" in e for e in exc.value.errors)


def test_parse_rejects_keys_outside_sections():
    with pytest.raises(ConfigError) as exc:
        parse_config("n 2\n[system]\nn 2\n")
    assert any("outside any section" in e for e in exc.value.errors)


def test_parse_rejects_out_of_range_indices():
    text = "[system]\nn 2\ndrift 3 0 0 1.0\nsigma 1 5 0 0 1.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("row 3 out of range" in e for e in exc.value.errors)
    assert any("column 5 out of range" in e for e in exc.value.errors)


def test_parameter_flag_extends_drift_exponents():
    text = """\
[system]
n 2
mu true
drift 1 0 1 0 -1.0
drift 1 1 0 1 1.0
sigma 1 1 0 0 1.0
"""
    cfg = parse_config(text)
    assert cfg.includes_mu is True
    assert cfg.drift.n_in == 3
    assert cfg.drift.n_out == 2
    assert_allclose(cfg.drift(np.array([1.0, 0.5, 0.25])), [-0.25, 0.0])


def test_shipped_example_configs_parse():
    planar = load_config(REPO_CONFIGS / "hopf2d.cfg")
    assert planar.n == 2
    assert planar.epsilons == (1e-1, 1e-2)
    coupled = load_config(REPO_CONFIGS / "coupled3d.cfg")
    assert coupled.n == 3
    assert coupled.drift.n_in == 3
    brusselator = load_config(REPO_CONFIGS / "brusselator.cfg")
    assert brusselator.n == 2
    assert_allclose(brusselator.drift(np.array([1.0, 1.0])), [7.0, -8.0])


def test_check_reports_verdicts_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["check", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "critical_point: true" in text
    assert "supercritical: true" in text
    assert "transversality: unknown" in text
    record = json.loads((out / "hypotheses.json").read_text())
    assert record["verdict_sigma_nonzero_at_origin"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "check"


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


NO_PAIR = """\
[system]
n 2
drift 1 1 0 -1.0
drift 2 0 1 -2.0
sigma 1 1 0 0 1.0
sigma 2 2 0 0 1.0
"""


@pytest.mark.parametrize("config, missing, present", [
    ("hopf2d", "stable_real_part", "critical_pair_real_part"),
    ("no-pair", "critical_pair_real_part", "stable_real_part")],
    ids=["hopf2d", "no-pair"])
def test_check_writes_strict_json_with_null_margins(tmp_path, config,
                                                    missing, present):
    # a margin over no eigenvalues is null, never -Infinity or NaN, so
    # hypotheses.json parses as RFC 8259 JSON
    cfg = (str(REPO_CONFIGS / "hopf2d.cfg") if config == "hopf2d"
           else write_config(tmp_path, NO_PAIR))
    out = tmp_path / "out"
    assert cli.main(["check", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "hypotheses.json").read_text(),
                        parse_constant=reject_constant)
    assert record[f"margin_{missing}"] is None
    assert isinstance(record[f"margin_{present}"], float)
    assert record["verdict_simple_imaginary_pair"] is (config == "hopf2d")


def test_check_flags_subcritical_system_but_still_exits_zero(tmp_path,
                                                             capsys):
    text = GOLDEN.replace("-1.0", "1.0").replace("drift 1 0 1 1.0",
                                                 "drift 1 0 1 -1.0")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "supercritical: false" in capsys.readouterr().out


def test_check_with_parameter_reports_transversality(tmp_path, capsys):
    text = """\
[system]
n 2
mu true
drift 1 0 1 0 -1.0
drift 2 1 0 0 1.0
drift 1 3 0 0 -1.0
drift 1 1 2 0 -1.0
drift 2 2 1 0 -1.0
drift 2 0 3 0 -1.0
drift 1 1 0 1 1.0
drift 2 0 1 1 1.0
sigma 1 1 0 0 1.0
sigma 2 2 0 0 1.0
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert "transversality: true" in capsys.readouterr().out
    assert cli.main(["normal-form", "--config", cfg, "--out",
                     str(out)]) == 0
    record = json.loads((out / "normal_form.json").read_text())
    assert_allclose(record["radial_cubic_coefficient"], -1.0, atol=1e-12)


def test_normal_form_writes_reduction_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["normal-form", "--config", cfg, "--out",
                     str(out)]) == 0
    record = json.loads((out / "normal_form.json").read_text())
    assert_allclose(record["lam0"], 1.0)
    assert_allclose(record["radial_cubic_coefficient"], -1.0, atol=1e-12)
    assert record["limit"]["a"] == record["radial_cubic_coefficient"]
    assert_allclose(record["limit"]["s"], 1.0, atol=1e-12)
    assert isinstance(record["reduced_terms"], list)
    assert record["stable_block"] == []


def test_simulate_writes_one_trajectory_file_per_epsilon(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--epsilon", "0.1", "0.05", "--paths", "5",
                     "--dt", "0.01", "--T", "0.1",
                     "--checkpoints", "0.1"])
    assert code == 0
    for eps in ("0.1", "0.05"):
        lines = (out / f"trajectory_eps{eps}.csv").read_text().strip()
        lines = lines.split("\n")
        assert lines[0] == "path,t,z1,z2,stopped"
        assert len(lines) == 1 + 5 * 11
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["trajectory_eps0.05.csv",
                                   "trajectory_eps0.1.csv"]


def test_converge_artifacts_do_not_depend_on_worker_count(tmp_path,
                                                         monkeypatch):
    # 16-path chunks split the 40 paths three ways, so the threads share
    # every coupled draw and every observed ensemble
    monkeypatch.setattr(sde, "CHUNK", 16)
    cfg = write_config(tmp_path)
    runs = {}
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}"
        code = cli.main(["converge", "--config", cfg, "--out", str(out),
                         "--paths", "40", "--epsilon", "0.1", "0.05",
                         "--checkpoints", "0.25", "0.5", "--refine",
                         "--workers", workers])
        assert code == 0
        runs[workers] = out
    for name in ("convergence.csv", "convergence.json"):
        assert (runs["1"] / name).read_bytes() == \
            (runs["3"] / name).read_bytes()
    first = json.loads((runs["1"] / "manifest.json").read_text())
    second = json.loads((runs["3"] / "manifest.json").read_text())
    assert first.pop("workers") == 1
    assert second.pop("workers") == 3
    assert first == second


def test_converge_summary_and_manifest_contents(tmp_path, capsys,
                                               monkeypatch):
    # a planar run loads no scipy, so the manifest records none; earlier
    # tests of this process may have loaded it
    monkeypatch.delitem(sys.modules, "scipy", raising=False)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["converge", "--config", cfg, "--out", str(out),
                     "--paths", "24", "--epsilon", "0.1",
                     "--checkpoints", "0.25", "--seed", "7"])
    assert code == 0
    text = capsys.readouterr().out
    assert "eps=0.1" in text
    # spelled as convergence.json spells it
    assert 'verdict ks_strictly_decreasing: {"0.25": null}\n' in text
    # one eps has no order to test: the verdict is null, not true
    record = json.loads((out / "convergence.json").read_text())
    assert record["verdicts"]["ks_strictly_decreasing"] == {"0.25": None}
    rows = (out / "convergence.csv").read_text().strip().split("\n")
    assert rows[0].split(",")[5] == "n_paths"
    assert rows[1].split(",")[5] == "24"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["paths"] == 24
    assert manifest["config_sha256"] == hashlib.sha256(
        Path(cfg).read_bytes()).hexdigest()
    assert "backend" not in manifest
    assert set(manifest["versions"]) == {"package", "python", "numpy",
                                         "scipy"}
    assert manifest["versions"]["scipy"] is None
    assert (manifest["rho0"], manifest["delta"], manifest["N"]) == \
        (1.0, 0.05, 10.0)
    assert (manifest["Delta"], manifest["beta"]) == (2.0, 0.4)
    assert manifest["refine"] is False
    assert "formats" not in manifest
    assert manifest["plot"] is False


def test_manifest_hash_tells_override_sets_apart(tmp_path):
    cfg = write_config(tmp_path)
    runs = {}
    for name, flags in (("a", []), ("b", []), ("rho0", ["--rho0", "0.8"]),
                        ("paths", ["--paths", "31"]), ("plot", ["--plot"])):
        out = tmp_path / name
        assert cli.main(["check", "--config", cfg, "--out", str(out),
                         *flags]) == 0
        runs[name] = json.loads((out / "manifest.json").read_text())
    assert runs["rho0"]["rho0"] == 0.8
    assert runs["plot"]["plot"] is True
    assert len({run["config_sha256"] for run in runs.values()}) == 1
    assert runs["a"]["resolved_sha256"] == runs["b"]["resolved_sha256"]
    assert len({runs[name]["resolved_sha256"]
                for name in ("a", "rho0", "paths", "plot")}) == 4


def test_every_run_key_is_a_flag_and_a_manifest_entry(tmp_path):
    # per [run] key: the values of a config line, then of its flag; neither
    # is the default, and each is in range for check
    values = {"epsilon": ("0.2 0.3", "0.4"), "T": ("0.8", "0.6"),
              "dt": ("2e-3", "5e-3"), "paths": ("30", "31"),
              "seed": ("7", "8"), "rho0": ("0.8", "0.9"),
              "delta": ("0.1", "0.2"), "N": ("5", "6"), "Delta": ("3", "4"),
              "beta": ("0.3", "0.2"), "checkpoints": ("0.25 0.5", "0.75"),
              "workers": ("2", "3")}
    assert list(values) == list(RUN_KEYS)
    system = GOLDEN[:GOLDEN.index("[run]")]
    fixed = {"subcommand", "config_sha256", "resolved_sha256", "refine",
             "plot", "versions", "outputs"}
    for key, spec in RUN_KEYS.items():
        in_file, by_flag = (
            [spec.type(t) for t in tokens.split()] if spec.several
            else spec.type(tokens) for tokens in values[key])
        cfg = write_config(
            tmp_path, f"{system}[run]\n{key} {values[key][0]}\n",
            name=f"{key}.cfg")
        field = getattr(load_config(cfg), spec.field)
        assert (list(field) if spec.several else field) == in_file
        assert field != spec.default
        manifests = []
        for flags in ([], [f"--{key}", *values[key][1].split()]):
            out = tmp_path / f"{key}-{len(flags)}"
            assert cli.main(["check", "--config", cfg, "--out", str(out),
                             *flags]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        from_file, from_flag = manifests
        assert set(from_file) == set(RUN_KEYS) | fixed
        assert (from_file[key], from_flag[key]) == (in_file, by_flag)
        # the resolved worker count is recorded, outside the hash
        assert (from_file["resolved_sha256"] == from_flag["resolved_sha256"]) \
            is (key == "workers")
    # the flags are the [run] keys and a few more, on every subcommand
    parser = cli.build_parser()
    subs, = (action for action in parser._actions
             if isinstance(action, argparse._SubParsersAction))
    assert list(subs.choices) == list(cli._DISPATCH)
    for name, sub in subs.choices.items():
        flags = {flag for action in sub._actions if action.dest != "help"
                 for flag in action.option_strings}
        refine = {"--refine"} if name in ("converge", "report") else set()
        assert flags == {f"--{key}" for key in RUN_KEYS} | refine | {
            "--config", "--out", "--plot"}


def test_converge_plot_writes_svg(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["converge", "--config", cfg, "--out", str(out),
                     "--paths", "16", "--epsilon", "0.2", "0.1",
                     "--checkpoints", "0.25", "--plot"])
    assert code == 0
    assert (out / "convergence.svg").read_text().startswith("<svg")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "convergence.svg" in manifest["outputs"]


def test_report_plot_writes_both_studies_svgs(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["report", "--config", str(REPO_CONFIGS / "coupled3d.cfg"),
                     "--out", str(out), "--paths", "16", "--T", "0.5",
                     "--plot"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("convergence.svg", "reduction.svg"):
        assert (out / name).read_text().startswith("<svg")
        assert name in manifest["outputs"]


def test_reduce_writes_rows_per_epsilon(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["reduce", "--config", cfg, "--out", str(out),
                     "--paths", "10", "--epsilon", "0.1", "0.05"])
    assert code == 0
    assert "u_median" in capsys.readouterr().out
    rows = (out / "reduction.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    record = json.loads((out / "reduction.json").read_text())
    assert [r["epsilon"] for r in record["rows"]] == [0.1, 0.05]


def test_planar_reduce_writes_strict_json_with_null_fits(tmp_path):
    # a planar system has no manifold defect and no planar gap, so no
    # slope can be fitted: the fits are null, never NaN
    out = tmp_path / "out"
    code = cli.main(["reduce", "--config", str(REPO_CONFIGS / "hopf2d.cfg"),
                     "--out", str(out), "--paths", "20"])
    assert code == 0
    record = json.loads((out / "reduction.json").read_text(),
                        parse_constant=reject_constant)
    assert record["q_fit"] is None
    assert record["gamma_fit"] is None
    assert [(r["u_median"], r["phi_median"]) for r in record["rows"]] == \
        [(0.0, 0.0)] * 2


def test_undefined_reduction_values_print_as_null(tmp_path, capsys):
    # the planar fits are null in reduction.json, and so on every line
    # that shows them
    cfg = str(REPO_CONFIGS / "hopf2d.cfg")
    for command in ("reduce", "report"):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out),
                         "--paths", "20"]) == 0
        text = capsys.readouterr().out
        assert "fitted slopes: q=null gamma=null\n" in text
        assert "nan" not in text
    assert (out / "report.txt").read_text() == text


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = cli.main(["check", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "error: CONFIG:" in capsys.readouterr().err


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "[system]\nn 2\n[run]\nepsilon 3.0\n")
    assert cli.main(["check", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: CONFIG:" in err
    assert "epsilon" in err


def test_flag_override_out_of_range_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = cli.main(["converge", "--config", cfg, "--dt", "-0.5"])
    assert code == 1
    assert "dt must lie in (0, T]" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--dt", "0.3"], "not an integral number of dt"),
    (["--checkpoints", "0.5005"], "not on the dt=0.001 grid"),
])
def test_off_grid_times_exit_one(tmp_path, capsys, flags, message):
    code = cli.main(["converge", "--config", str(REPO_CONFIGS / "hopf2d.cfg"),
                     "--out", str(tmp_path / "out"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG: ")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, text", [
    ("simulate", ["--epsilon", "0.01000001", "0.01"], GOLDEN),
    ("converge", ["--epsilon", "0.1", "0.1"], GOLDEN),
    ("simulate", [], GOLDEN.replace("epsilon 1e-1", "epsilon 1e-1 0.1")),
], ids=["simulate-flag", "converge-flag", "simulate-config"])
def test_epsilons_equal_at_g_precision_exit_one(tmp_path, capsys, command,
                                                 flags, text):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg, "--out", str(out), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG: ")
    assert "epsilon must be distinct at :g precision" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message, text", [
    ("converge", ["--workers", "0"], "workers must be at least 1", GOLDEN),
    ("converge", ["--paths", "1"], "converge needs at least 2 paths",
     GOLDEN),
    ("report", ["--paths", "1"], "report needs at least 2 paths",
     GOLDEN),
    ("reduce", ["--Delta", "0.5"], "reduce needs rho0 < Delta", GOLDEN),
    ("report", ["--Delta", "0.5"], "report needs rho0 < Delta", GOLDEN),
    ("converge", ["--T", "0.1"], "checkpoint 0.25 outside (0, T]",
     GOLDEN),
    ("converge", ["--T", "nan"], "T must be positive and finite",
     GOLDEN),
    ("simulate", ["--T", "inf"], "T must be positive and finite",
     GOLDEN),
    ("converge", ["--dt", "nan"], "dt must lie in (0, T]", GOLDEN),
    ("reduce", ["--Delta", "nan"], "Delta must be positive", GOLDEN),
    ("converge", [], "T must be positive and finite",
     GOLDEN.replace("T 0.5", "T nan")),
    ("converge", ["--T", "0"], "T must be positive and finite", GOLDEN),
    ("reduce", ["--Delta", "-1"], "Delta must be positive", GOLDEN),
    ("converge", ["--dt", "5e-324"], "not an integral number of dt",
     GOLDEN),
    ("converge", ["--checkpoints", "0.25", "0.25", "0.5"],
     "checkpoints must be distinct at :g precision, repeated: 0.25", GOLDEN),
    ("report", ["--checkpoints", "0.25", "0.2500000001"],
     "checkpoints must be distinct at :g precision, repeated: 0.25", GOLDEN),
    # a seed past 64 bits would alias a smaller one's noise
    ("converge", ["--seed", str(2 ** 64)], "seed must lie in [0, 2**64)",
     GOLDEN),
], ids=["workers-0", "converge-one-path", "report-one-path",
        "reduce-rho0-outside-Delta", "report-rho0-outside-Delta",
        "checkpoint-beyond-T", "T-nan", "T-inf", "dt-nan", "Delta-nan",
        "file-T-nan", "T-zero", "Delta-negative", "dt-overflows-steps",
        "checkpoints-repeated", "checkpoints-equal-at-g", "seed-2**64"])
def test_configuration_mistakes_exit_one(tmp_path, capsys, command, flags,
                                         message, text):
    out = tmp_path / "out"
    code = cli.main([command, "--config", write_config(tmp_path, text),
                     "--out", str(out), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CONFIG: ")
    assert message in err
    # one mistake, one error: no second, derived complaint
    assert err.count("error: ") == 1
    assert not out.exists()


def test_leftover_formats_line_is_an_unknown_key(tmp_path, capsys):
    # every study writes both CSV and JSON; there is no formats setting
    cfg = write_config(tmp_path, GOLDEN + "formats csv json\n")
    out = tmp_path / "out"
    code = cli.main(["converge", "--config", cfg, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    line = len(GOLDEN.splitlines()) + 1
    assert err == (f"error: CONFIG: line {line}: unknown key 'formats' "
                   "in [output]\n")
    assert not out.exists()


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge"])
    assert exc.value.code == 1
    assert "error: CONFIG:" in capsys.readouterr().err


def test_runtime_failures_exit_two_with_error_code(tmp_path, capsys):
    text = GOLDEN.replace("[run]", "drift 1 2 0 0.5\n\n[run]")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main(["reduce", "--config", cfg, "--out", str(out),
                     "--paths", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NON_TRIVIAL_QUADRATIC: ")


def test_report_covers_both_studies(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["report", "--config", cfg, "--out", str(out),
                     "--paths", "20", "--epsilon", "0.1",
                     "--checkpoints", "0.5"])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "convergence to the limit law" in text
    assert "reduction errors" in text
    assert text == capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "report"


def test_report_notes_skipped_reduction_for_mixed_quadratic(tmp_path):
    # the quadratic is large enough to trip the reduction gate
    text = GOLDEN.replace("[run]", "drift 1 2 0 1e-6\n\n[run]")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main(["report", "--config", cfg, "--out", str(out),
                     "--paths", "12", "--epsilon", "0.1",
                     "--checkpoints", "0.25"])
    assert code == 0
    text = (out / "report.txt").read_text()
    assert "skipped" in text
    assert "reduction errors" not in text
    assert (out / "convergence.json").exists()
    assert not (out / "reduction.json").exists()


def test_system_off_normal_form_converges_and_reports(tmp_path, capsys):
    # the Brusselator's reduced cubic averages to -1/4; converge and report
    # compare against that limit law, and report skips the reduction
    cfg = str(REPO_CONFIGS / "brusselator.cfg")
    assert cli.main(["check", "--config", cfg, "--out",
                     str(tmp_path / "check")]) == 0
    assert "supercritical: true" in capsys.readouterr().out
    record = json.loads((tmp_path / "check" / "hypotheses.json").read_text())
    assert_allclose(record["radial_cubic_coefficient"], -0.25, atol=1e-12)
    flags = ["--paths", "50", "--epsilon", "1e-3"]
    for command in ("converge", "report"):
        assert cli.main([command, "--config", cfg, "--out",
                         str(tmp_path / command), *flags]) == 0
    text = (tmp_path / "report" / "report.txt").read_text()
    assert "radial cubic coeff.    -0.25\n" in text
    assert "reduction diagnostics skipped" in text


def test_report_agrees_with_converge_and_reduce(tmp_path, capsys):
    cfg = str(REPO_CONFIGS / "coupled3d.cfg")
    flags = ["--paths", "16", "--T", "0.5", "--checkpoints", "0.25", "0.5"]
    printed = {}
    for command, extra in (("report", ["--refine"]),
                           ("converge", ["--refine"]), ("reduce", [])):
        assert cli.main([command, "--config", cfg, "--out",
                         str(tmp_path / command), *flags, *extra]) == 0
        printed[command] = capsys.readouterr().out
    report = tmp_path / "report"
    text = (report / "report.txt").read_text()
    # report runs the two studies: the same tables, byte for byte, and
    # the same lines as each prints alone
    tables = {"converge": ["convergence.csv", "convergence.json"],
              "reduce": ["reduction.csv", "reduction.json"]}
    for command, names in tables.items():
        for name in names:
            assert (report / name).read_bytes() == \
                (tmp_path / command / name).read_bytes()
        assert printed[command] in text
    manifest = json.loads((report / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(
        tables["converge"] + tables["reduce"] + ["report.txt"])
    assert [line for line in text.splitlines() if line.startswith("eps=")] \
        == [line for command in ("converge", "reduce")
            for line in printed[command].splitlines()
            if line.startswith("eps=")]
    conv = json.loads((tmp_path / "converge" / "convergence.json")
                      .read_text())
    red = json.loads((tmp_path / "reduce" / "reduction.json").read_text())
    expected = []
    for row in conv["rows"]:
        for cell in row["cells"]:
            expected.append(f"t={cell['checkpoint']:<6g} "
                            f"ks={cell['ks']:.5f} w1={cell['w1']:.5f} ")
    for row in red["rows"]:
        expected.append(f"u_median={row['u_median']:.6g} "
                        f"phi_median={row['phi_median']:.6g} ")
    lines = [line for line in text.splitlines() if line.startswith("eps=")]
    assert len(lines) == len(expected) == 6
    for line, want in zip(lines, expected):
        assert want in line
    for name, value in conv["verdicts"].items():
        assert f"verdict {name}: {json.dumps(value)}\n" in text


@pytest.mark.parametrize("command, config, flags, checkpoints", [
    # no checkpoints line: they follow the T left after --T
    ("reduce", "coupled3d.cfg", [], [0.05]),
    # checkpoints 0.5 1.0 lie beyond T, but simulate never reads them
    ("simulate", "hopf2d.cfg", [], [0.5, 1.0]),
    # an explicit --checkpoints stays accepted where it is not read
    ("reduce", "coupled3d.cfg", ["--checkpoints", "1.0"], [1.0]),
    ("converge", "coupled3d.cfg", [], [0.05]),
], ids=["reduce", "simulate", "reduce-explicit", "converge-follows-T"])
def test_checkpoints_are_checked_only_where_read(tmp_path, command, config,
                                                 flags, checkpoints):
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(REPO_CONFIGS / config),
                     "--out", str(out), "--T", "0.05", "--paths", "4",
                     *flags])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["T"] == 0.05
    assert manifest["checkpoints"] == checkpoints


def test_converge_checkpoint_beyond_the_overridden_T_exits_one(tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    code = cli.main(["converge", "--config", str(REPO_CONFIGS / "hopf2d.cfg"),
                     "--out", str(out), "--T", "0.05"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: CONFIG: checkpoint 0.5 outside (0, T]\n"
    assert not out.exists()


@pytest.mark.parametrize("command, edits, flags", [
    ("check", [("dt 1e-2", "dt 2.0")], ["--dt", "1e-3"]),
    ("check", [("paths 30", "paths 0")], ["--paths", "2"]),
    ("converge", [("T 0.5", "T 1.0"), ("checkpoints 0.25 0.5",
                                       "checkpoints 0.5 2.0")],
     ["--T", "2", "--paths", "4"]),
    # checkpoints 0.25 0.5 lie beyond the file's T, but simulate never
    # reads them
    ("simulate", [("T 0.5", "T 0.05")], ["--paths", "2"]),
], ids=["dt", "paths", "checkpoints", "simulate-unread-checkpoints"])
def test_flag_fixes_a_file_value(tmp_path, command, edits, flags):
    # run values are judged once, after the flags
    text = GOLDEN
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, text),
                     "--out", str(out), *flags]) == 0
    assert (out / "manifest.json").exists()
