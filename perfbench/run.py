"""hopf-critic benchmark: fixed CLI workloads timed in fresh child processes.

    python3 perfbench/run.py --workload converge-wide --seed 0 \\
        --seconds 40 --trace 0

With ``--trace 0`` the workload's ``hopf-critic`` command runs again and
again in fresh child processes until ``--seconds`` is spent, after a few
``normal-form`` runs that time set-up.  Every child's outputs pass the gate
in ``workloads.py``; a child that exits nonzero, times out or fails the gate
counts as failed and its timings are dropped.  The end-to-end metrics are
medians over the children.

With ``--trace 1`` one child runs the workload in-process under the span
tracer of ``tracer.py`` and the per-layer metrics are printed instead.

Every child runs the numpy backend with ``--workers 1``, one BLAS/OpenMP
thread and ``HOPF_CRITIC_WORKERS`` unset.  Human-readable lines go first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its samples and environment to ``.perfbench_out/results/``.

    python3 perfbench/run.py --record-digests

re-records ``digests.json`` from one run of each workload at the default
seed, for a change that alters the program's outputs on purpose.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass

from workloads import (DEFAULT_SEED, DIGESTS_FILE, WORKLOADS, check_outputs,
                       setup_argv, sha256)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".perfbench_out"
MIN_SETUPS = 5
MIN_SAMPLES = 3
# A run has to end within 180 s: no child starts after LAST_START_S and
# every child is killed at END_S.
LAST_START_S = 150.0
END_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("HOPF_CRITIC_WORKERS", None)
    env["HOPF_CRITIC_BACKEND"] = "numpy"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment():
    """What the children ran under, recorded with every result."""
    numba = _version("numba") if importlib.util.find_spec("numba") else None
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": numba or "absent: a numba figure is not reproducible here",
        "HOPF_CRITIC_BACKEND": "numpy",
        "HOPF_CRITIC_WORKERS": "unset",
        "workers": 1,
        "threads": {name: "1" for name in THREAD_VARS},
    }


@dataclass
class Child:
    """Resource use of one finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    problems: list


def run_child(argv, log_path, timeout):
    """Run ``argv`` from the checkout root and reap it with ``os.wait4``."""
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if wall >= timeout:
        problems.append(f"timed out after {timeout:g} s")
    elif proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}, see {log_path}")
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,
                 status=proc.returncode, problems=problems)


def cli_child(args, log_path, timeout=END_S):
    return run_child([sys.executable, "-m", "hopf_critic", *args], log_path,
                     timeout)


def summary(values):
    """Median, the highest percentile with ten samples beyond it, count."""
    ordered = sorted(values)
    n = len(ordered)
    record = {"median": statistics.median(ordered), "samples": n}
    k = n - 10
    if k >= 1:
        record[f"p{100.0 * k / n:g}"] = ordered[k - 1]
    return record


def _describe(name, unit, record):
    tail = [f"{key} {value:.6g} {unit}" for key, value in record.items()
            if key.startswith("p")]
    tail = ", ".join(tail) if tail else (
        "no percentile has ten samples beyond it")
    return (f"{name}: median {record['median']:.6g} {unit}; {tail}; "
            f"{record['samples']} samples")


def _setup_ok(out_dir):
    try:
        with open(os.path.join(out_dir, "normal_form.json"),
                  encoding="utf-8") as handle:
            json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"normal_form.json: {exc}"]
    return []


def measure(workload, seed, seconds):
    """Untraced children: one set-up child before each workload child.

    Interleaving spreads both kinds of sample over the whole run, so a
    slow spell of the host hits them alike.
    """
    base = os.path.join(OUT, workload.name)
    setup_dir = os.path.join(base, "setup")
    run_dir = os.path.join(base, "run")
    os.makedirs(setup_dir, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)

    def left():
        return max(1.0, END_S - (time.perf_counter() - start))

    def setup_child():
        child = cli_child(setup_argv(workload, setup_dir),
                          os.path.join(base, "setup.log"), left())
        child.problems = child.problems or _setup_ok(setup_dir)
        setups.append(child)

    start = time.perf_counter()
    setups, runs = [], []
    while True:
        good = [c.wall_s for c in runs if not c.problems]
        next_s = statistics.median(good) if good else 0.0
        if setups:
            next_s += statistics.median(c.wall_s for c in setups)
        elapsed = time.perf_counter() - start
        if runs and elapsed + next_s > LAST_START_S:
            break
        if len(runs) >= MIN_SAMPLES and elapsed + next_s > seconds:
            break
        setup_child()
        child = cli_child(workload.argv(seed, run_dir),
                          os.path.join(base, "run.log"), left())
        child.problems = child.problems or check_outputs(
            workload, run_dir, seed)
        runs.append(child)
    while (len(setups) < MIN_SETUPS
           and time.perf_counter() - start < LAST_START_S):
        setup_child()
    return setups, runs


def end_to_end(workload, setups, runs):
    """Summaries of the five end-to-end metrics over the good children."""
    good = [c for c in runs if not c.problems]
    good_setups = [c for c in setups if not c.problems]
    if not good or not good_setups:
        return None
    steps = workload.path_steps()
    return {
        "wall_s": summary([c.wall_s for c in good]),
        "cpu_s": summary([c.cpu_s for c in good]),
        "path_steps_per_s": summary([steps / c.wall_s for c in good]),
        "peak_rss_mb": summary([c.peak_rss_mb for c in good]),
        "setup_s": summary([c.wall_s for c in good_setups]),
    }


def traced(workload, seed, seconds):
    """One child running the workload in-process under the span tracer."""
    base = os.path.join(OUT, workload.name)
    out_dir = os.path.join(base, "traced")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(base, "traced.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    child = run_child(
        [sys.executable, os.path.join(HERE, "tracer.py"),
         "--workload", json.dumps(asdict(workload)), "--seed", str(seed),
         "--seconds", repr(float(seconds)), "--out", out_dir,
         "--result", result_path],
        os.path.join(base, "traced.log"), END_S)
    if child.problems:
        return child, None
    with open(result_path, encoding="utf-8") as handle:
        return child, json.load(handle)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _result_line(correct, attempted, failed, values, specs):
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _save(workload, seed, trace, record):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{workload.name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return path


def run_untraced(workload, seed, seconds, spec):
    setups, runs = measure(workload, seed, seconds)
    children = setups + runs
    failed = [c for c in children if c.problems]
    for child in failed:
        print(f"failed: {'; '.join(child.problems)}")
    summaries = end_to_end(workload, setups, runs)
    env = environment()
    path = _save(workload, seed, 0, {
        "workload": asdict(workload), "seed": seed, "environment": env,
        "setup": [asdict(c) for c in setups],
        "runs": [asdict(c) for c in runs], "summary": summaries})
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if summaries is None:
        print("error: no child of this workload finished correctly",
              file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, record in summaries.items():
        print(_describe(name, units[name], record))
    print(f"failed_fraction: {len(failed)}/{len(children)} = "
          f"{len(failed) / len(children):.3g}")
    print(f"path_steps per run: {workload.path_steps()}; samples in {path}")
    values = {name: record["median"] for name, record in summaries.items()}
    print(_result_line(not failed, len(children), len(failed), values,
                       spec["end_to_end"]))
    return 0


def run_traced(workload, seed, seconds, spec):
    child, result = traced(workload, seed, seconds)
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if result is None or not result["metrics"]:
        problems = child.problems or (result or {}).get("problems", [])
        print(f"error: traced run failed: {'; '.join(problems)}",
              file=sys.stderr)
        return 1
    _save(workload, seed, 1, dict(result, environment=env, seed=seed,
                                  workload=asdict(workload)))
    for problem in result["problems"]:
        print(f"failed: {problem}")
    for note in result["notes"]:
        print(f"note: {note}")
    for metric in spec["per_layer"]:
        print(f"{metric['name']}: {result['metrics'][metric['name']]:.6g} "
              f"{metric['unit']}")
    print(f"traced runs: {len(result['per_run'])}; "
          f"peak RSS of the traced child {child.peak_rss_mb:.0f} MiB")
    print(_result_line(not result["failed"], result["attempted"],
                       result["failed"], result["metrics"],
                       spec["per_layer"]))
    return 0


def record_digests():
    digests = {}
    for workload in WORKLOADS.values():
        out_dir = os.path.join(OUT, workload.name, "digest")
        os.makedirs(out_dir, exist_ok=True)
        child = cli_child(workload.argv(DEFAULT_SEED, out_dir),
                          os.path.join(OUT, workload.name, "digest.log"))
        if child.problems:
            print(f"error: {workload.name}: {'; '.join(child.problems)}",
                  file=sys.stderr)
            return 1
        digests[workload.name] = {
            name: sha256(os.path.join(out_dir, name))
            for name in workload.artifacts()}
    with open(DIGESTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGESTS_FILE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/hopf_critic/cli.py", "configs/hopf2d.cfg",
                           "configs/coupled3d.cfg", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a hopf-critic checkout, missing {missing}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    os.chdir(ROOT)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    spec = load_spec()
    if args.trace:
        return run_traced(workload, args.seed, args.seconds, spec)
    return run_untraced(workload, args.seed, args.seconds, spec)


if __name__ == "__main__":
    sys.exit(main())
