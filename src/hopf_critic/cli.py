"""Command-line driver: configuration, orchestration, and reporting.

Subcommands
-----------
check        audit the structural hypotheses of the configured system
normal-form  emit the quadratic transform, manifold, and reduced field
simulate     write amplified-system trajectory CSVs, one per eps
converge     distances between amplified and limit radial marginals
reduce       coupled center-manifold and planar error diagnostics
report       human-readable summary of both studies

Every run writes a ``manifest.json`` recording the config hash, every
resolved run parameter with a hash over them, the resolved worker count
and package versions; with a fixed config and seed all data
artifacts are byte-identical across reruns and worker counts.  Exit status
is 0 on success (``check`` reports failed verdicts in its output, not its
status), 1 on configuration or flag validation errors, and 2 on runtime
failures, which are printed as ``error: CODE: message`` with an
upper-snake code derived from the exception type.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import platform
import re
import sys

import numpy as np

from .config import ConfigError, load_config
from .spectral import check_hypotheses, freeze_parameter
from . import sde, stats

_SUBCOMMANDS = ("check", "normal-form", "simulate", "converge", "reduce",
                "report")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: CONFIG: {message}\n")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a config file")
    # every other flag's dest names the Config field it overrides
    sub.add_argument("--out", dest="out_dir", metavar="OUT",
                     help="output directory override")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--paths", type=int)
    sub.add_argument("--dt", type=float)
    sub.add_argument("--T", type=float)
    sub.add_argument("--epsilon", dest="epsilons", metavar="EPSILON",
                     type=float, nargs="+")
    sub.add_argument("--checkpoints", type=float, nargs="+")
    sub.add_argument("--rho0", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--N", dest="nmax", type=float)
    sub.add_argument("--Delta", dest="big_delta", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--plot", action="store_true", default=None)


def build_parser():
    parser = _Parser(prog="hopf-critic",
                     description="Critical-fluctuation simulator and "
                                 "verifier for noisy oscillatory systems")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="subcommand")
    for name in _SUBCOMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)
        if name in ("converge", "report"):
            sub.add_argument("--refine", action="store_true", default=False,
                             help="repeat at half the step on the same "
                                  "Brownian paths")
    return parser


def _apply_overrides(cfg, args):
    """The config with every given flag applied; checkpoints default to T."""
    fields = {field.name for field in dataclasses.fields(cfg)}
    cfg = dataclasses.replace(cfg, **{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in fields and value is not None})
    if cfg.checkpoints is None:
        cfg = dataclasses.replace(cfg, checkpoints=(cfg.T,))
    return cfg


def _range_errors(cfg, command):
    # Each check accepts what is in range, so NaN fails it; a value is
    # judged against T, Delta or rho0 only when that one is valid.
    errors = []
    T_valid = 0.0 < cfg.T < math.inf
    if not T_valid:
        errors.append("T must be positive and finite")
    dt_valid = 0.0 < cfg.dt <= (cfg.T if T_valid else math.inf)
    if not dt_valid:
        errors.append("dt must lie in (0, T]")
    if not cfg.paths >= 1:
        errors.append("paths must be at least 1")
    elif not cfg.paths >= 2 and command in ("converge", "report"):
        errors.append(f"{command} needs at least 2 paths")
    if not 0 <= cfg.seed < 1 << 64:
        errors.append("seed must lie in [0, 2**64)")
    for e in cfg.epsilons:
        if not 0.0 < e < 1.0:
            errors.append(f"epsilon {e} outside (0, 1)")
            break
    # only the limit-law studies read checkpoints
    checkpoints = cfg.checkpoints if command in ("converge", "report") \
        else ()
    # outputs label eps and checkpoints at :g precision
    for label, values in (("epsilons", cfg.epsilons),
                          ("checkpoints", checkpoints)):
        names = [f"{v:g}" for v in values]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            errors.append(f"{label} must be distinct at :g precision, "
                          f"repeated: {' '.join(repeated)}")
    if T_valid:
        inside = [c for c in checkpoints if 0.0 < c <= cfg.T * (1 + 1e-12)]
        if len(inside) < len(checkpoints):
            outside = next(c for c in checkpoints if c not in inside)
            errors.append(f"checkpoint {outside} outside (0, T]")
        if dt_valid:
            try:
                n_steps = sde._step_count(cfg.T, cfg.dt)
                stats._checkpoint_indices(inside, cfg.dt, n_steps)
            except (sde.SdeError, stats.StatsError) as exc:
                errors.append(str(exc))
    if not 0.0 < cfg.beta < 0.5:
        errors.append("beta must lie in (0, 0.5)")
    radii_valid = 0.0 < cfg.delta < cfg.rho0 < cfg.nmax
    if not radii_valid:
        errors.append("need 0 < delta < rho0 < N")
    if not 0.0 < cfg.big_delta:
        errors.append("Delta must be positive")
    elif (command in ("reduce", "report") and radii_valid
          and not cfg.rho0 < cfg.big_delta):
        errors.append(f"{command} needs rho0 < Delta: the coupled runs "
                      "start inside the Delta-ball")
    try:
        sde._resolve_workers(cfg.workers)
    except sde.SdeError as exc:
        errors.append(str(exc))
    return errors


def _code_for(exc):
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).upper()


def _prepare(cfg):
    drift = freeze_parameter(cfg.drift) if cfg.includes_mu else cfg.drift
    return stats.prepare_system(drift, cfg.sigma)


def _out_dir(cfg):
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_json(path, record):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_manifest(cfg, args, outputs):
    from . import __version__
    config_sha256 = hashlib.sha256(cfg.text.encode()).hexdigest()
    resolved = {
        "seed": cfg.seed,
        "epsilons": list(cfg.epsilons),
        "checkpoints": list(cfg.checkpoints),
        "dt": cfg.dt,
        "T": cfg.T,
        "paths": cfg.paths,
        "rho0": cfg.rho0,
        "delta": cfg.delta,
        "N": cfg.nmax,
        "Delta": cfg.big_delta,
        "beta": cfg.beta,
        "refine": getattr(args, "refine", False),
        "plot": cfg.plot,
    }
    resolved_text = json.dumps({"config_sha256": config_sha256, **resolved},
                               sort_keys=True)
    record = {
        "subcommand": args.command,
        "config_sha256": config_sha256,
        "resolved_sha256": hashlib.sha256(resolved_text.encode()).hexdigest(),
        **resolved,
        "workers": sde._resolve_workers(cfg.workers),
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            # the scipy the run loaded, if any: planar and diagonal-stable
            # runs never load it
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        },
        "outputs": sorted(outputs),
    }
    _write_json(os.path.join(cfg.out_dir, "manifest.json"), record)


def _verdict_word(value):
    return {True: "true", False: "false"}.get(value, "unknown")


def _cmd_check(cfg, args):
    report = check_hypotheses(cfg.drift, cfg.sigma)
    out = _out_dir(cfg)
    _write_json(os.path.join(out, "hypotheses.json"), report.as_record())
    print(f"n: {report.n}")
    print(f"critical_point_residual: {report.critical_point_residual:.3e}")
    lam = "unknown" if report.lam0 is None else f"{report.lam0:.17g}"
    print(f"lam0: {lam}")
    radial = report.radial_cubic_coefficient
    print("radial_cubic_coefficient: "
          + ("unknown" if radial is None else f"{radial:.17g}"))
    for key, value in report.verdicts.items():
        print(f"{key}: {_verdict_word(value)}")
    return ["hypotheses.json"]


def _complex_pair(z):
    return [float(z.real), float(z.imag)]


def _cmd_normal_form(cfg, args):
    system = _prepare(cfg)
    out = _out_dir(cfg)
    transform = system.transform
    record = {
        "lam0": system.split.lam0,
        "stable_block": system.split.P.tolist(),
        "change_of_basis": system.split.C.tolist(),
        "transform": {
            "beta1": _complex_pair(transform.beta1),
            "beta2": _complex_pair(transform.beta2),
            "beta12": _complex_pair(transform.beta12),
            "alpha1": [_complex_pair(z) for z in transform.alpha1],
            "alpha2": [_complex_pair(z) for z in transform.alpha2],
            "shift_terms": transform.p_real.term_lines(),
        },
        "manifold_terms": system.h2.term_lines(),
        "reduced_terms": system.reduced.term_lines(),
        "radial_cubic_coefficient": system.limit.a,
        "limit": {
            "a": system.limit.a,
            "sigma1_sq": system.limit.sigma1_sq,
            "sigma2_sq": system.limit.sigma2_sq,
            "sigma12": system.limit.sigma12,
            "s": system.limit.s,
        },
    }
    _write_json(os.path.join(out, "normal_form.json"), record)
    print(f"lam0: {system.split.lam0:.17g}")
    print(f"radial_cubic_coefficient: {system.limit.a:.17g}")
    print(f"limit_s: {system.limit.s:.17g}")
    print(f"wrote {os.path.join(out, 'normal_form.json')}")
    return ["normal_form.json"]


def _cmd_simulate(cfg, args):
    system = _prepare(cfg)
    out = _out_dir(cfg)
    split = system.split
    k = split.P.shape[0]
    columns = ["z1", "z2"] + [f"y{j + 1}" for j in range(k)]
    outputs = []
    for eps in cfg.epsilons:
        task = sde.rescaled_task(
            system.f, system.g, system.sigma_q, system.sigma_p,
            split.Q, split.P, eps, (cfg.rho0, 0.0), np.zeros(k),
            cfg.dt, cfg.T)
        ensemble = sde.run_ensemble(task, cfg.paths, cfg.seed, cfg.workers)
        name = f"trajectory_eps{eps:g}.csv"
        stats.write_trajectory_csv(ensemble, os.path.join(out, name),
                                   columns)
        # free every state before the next eps is simulated
        del ensemble
        outputs.append(name)
        print(f"wrote {name} ({cfg.paths} paths, {task.n_steps} steps)")
    return outputs


def _maybe_log(values):
    return all(v > 0.0 for v in values)


def _shown(value, spec):
    """A study record's value as text; an undefined one (None) is null."""
    return "null" if value is None else format(value, spec)


def _converge(cfg, args, system, out):
    """Run the limit-law study, write its tables and plot; return the
    outputs and the summary lines."""
    report = stats.convergence_study(
        system, cfg.epsilons, cfg.checkpoints, cfg.paths, cfg.dt,
        delta=cfg.delta, nmax=cfg.nmax, rho0=cfg.rho0,
        master_seed=cfg.seed, workers=cfg.workers, refine=args.refine)
    stats.write_convergence_csv(report, os.path.join(out, "convergence.csv"))
    _write_json(os.path.join(out, "convergence.json"), report.as_record())
    outputs = ["convergence.csv", "convergence.json"]
    if cfg.plot:
        series = [(f"t={c:g}", list(report.epsilons),
                   [row.cells[j].ks for row in report.rows])
                  for j, c in enumerate(report.checkpoints)]
        logy = all(_maybe_log(ys) for _, _, ys in series)
        stats.svg_line_plot(os.path.join(out, "convergence.svg"), series,
                            title="distance to the limit law",
                            xlabel="eps", ylabel="KS", logx=True, logy=logy)
        outputs.append("convergence.svg")
    lines = [f"eps={row.epsilon:<8g} t={cell.checkpoint:<6g} "
             f"ks={cell.ks:.5f} w1={cell.w1:.5f} "
             f"stopped={row.stopped_fraction:.3f}"
             for row in report.rows for cell in row.cells]
    lines.append("")
    lines += [f"verdict {name}: {json.dumps(value)}"
              for name, value in report.verdicts.items()]
    return outputs, lines


def _reduce(cfg, args, system, out):
    """Run the reduction study, write its tables and plot; return the
    outputs and the summary lines, which spell values as the JSON does."""
    report = stats.reduction_diagnostics(
        system, cfg.epsilons, cfg.big_delta, cfg.beta, cfg.paths, cfg.dt,
        horizon=cfg.T, z0=(cfg.rho0, 0.0), master_seed=cfg.seed,
        workers=cfg.workers)
    stats.write_reduction_csv(report, os.path.join(out, "reduction.csv"))
    record = report.as_record()
    _write_json(os.path.join(out, "reduction.json"), record)
    outputs = ["reduction.csv", "reduction.json"]
    if cfg.plot:
        eps = list(report.epsilons)
        u = [row.u_median for row in report.rows]
        phi = [row.phi_median for row in report.rows]
        series = [("sup |U|", eps, u), ("sup |Phi|", eps, phi)]
        usable = [(l, x, y) for l, x, y in series if _maybe_log(y)]
        if usable:
            stats.svg_line_plot(os.path.join(out, "reduction.svg"), usable,
                                title="reduction errors",
                                xlabel="eps", ylabel="median sup norm",
                                logx=True, logy=True)
            outputs.append("reduction.svg")
    lines = [f"eps={row['epsilon']:<8g} "
             f"u_median={_shown(row['u_median'], '.6g')} "
             f"phi_median={_shown(row['phi_median'], '.6g')} "
             f"excluded={_shown(row['excluded_fraction'], '.3f')}"
             for row in record["rows"]]
    lines.append(f"fitted slopes: q={_shown(record['q_fit'], '.4f')} "
                 f"gamma={_shown(record['gamma_fit'], '.4f')}")
    return outputs, lines


def _run_study(body, cfg, args):
    """One study on its own: its outputs, its lines on stdout."""
    outputs, lines = body(cfg, args, _prepare(cfg), _out_dir(cfg))
    print("\n".join(lines))
    return outputs


def _cmd_report(cfg, args):
    system = _prepare(cfg)
    out = _out_dir(cfg)
    outputs, conv_lines = _converge(cfg, args, system, out)
    lines = [
        "critical fluctuation study",
        "==========================",
        "",
        f"state dimension        {cfg.n}",
        f"noise channels         {cfg.m}",
        f"rotation rate lam0     {system.split.lam0:.6g}",
        f"radial cubic coeff.    {system.limit.a:.6g}",
        f"limit diffusion s      {system.limit.s:.6g}",
        f"paths per ensemble     {cfg.paths}",
        f"step size              {cfg.dt:g}",
        "",
        "convergence to the limit law",
        "----------------------------",
        *conv_lines,
    ]
    try:
        red_outputs, red_lines = _reduce(cfg, args, system, out)
    except stats.NonTrivialQuadratic:
        lines += ["", "reduction diagnostics skipped: drift has mixed "
                      "quadratic terms (supply normal-form coordinates)"]
    else:
        outputs += red_outputs
        lines += ["", "reduction errors", "----------------", *red_lines]
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out, "report.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text)
    sys.stdout.write(text)
    return outputs + ["report.txt"]


_DISPATCH = {
    "check": _cmd_check,
    "normal-form": _cmd_normal_form,
    "simulate": _cmd_simulate,
    "converge": functools.partial(_run_study, _converge),
    "reduce": functools.partial(_run_study, _reduce),
    "report": _cmd_report,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: CONFIG: {line}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: CONFIG: {exc}", file=sys.stderr)
        return 1
    cfg = _apply_overrides(cfg, args)
    errors = _range_errors(cfg, args.command)
    if errors:
        for line in errors:
            print(f"error: CONFIG: {line}", file=sys.stderr)
        return 1
    try:
        outputs = _DISPATCH[args.command](cfg, args)
        _write_manifest(cfg, args, outputs)
    except Exception as exc:
        print(f"error: {_code_for(exc)}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
