"""The fixed hopf-critic CLI workloads and the gate on their outputs.

Every workload spells out its sizes as CLI flags instead of inheriting them
from the config file, so the work a run does (and therefore path-steps/s)
is known here without asking the program.

The gate runs after every child.  At ``DEFAULT_SEED`` it compares the
SHA-256 of each data artifact against ``digests.json``; at any other seed it
checks the CSV header, the row count and that every value is finite, and
that the JSON artifacts parse to finite numbers.  ``manifest.json`` is never
checked, because it records package versions.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

CONVERGENCE_HEADER = ["epsilon", "checkpoint", "ks", "w1",
                      "stopped_fraction", "n_paths", "dt"]
REDUCTION_HEADER = ["epsilon", "u_median", "u_p90", "phi_median", "phi_p90",
                    "excluded_fraction", "ball_exit_fraction", "n_paths",
                    "dt"]


@dataclass(frozen=True)
class Workload:
    """One CLI invocation with every size given explicitly."""

    name: str
    subcommand: str
    config: str
    paths: int
    T: float
    dt: float
    epsilons: tuple
    checkpoints: tuple = ()
    refine: bool = False

    @classmethod
    def from_record(cls, record):
        """Inverse of ``dataclasses.asdict``."""
        record = dict(record)
        for key in ("epsilons", "checkpoints"):
            record[key] = tuple(record[key])
        return cls(**record)

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))

    def argv(self, seed, out_dir):
        """CLI arguments after ``hopf-critic``; always one worker."""
        args = [self.subcommand, "--config", self.config,
                "--out", out_dir, "--seed", str(seed), "--workers", "1",
                "--paths", str(self.paths), "--T", repr(self.T),
                "--dt", repr(self.dt),
                "--epsilon", *(repr(e) for e in self.epsilons),
                # The CLI checks the config's checkpoints against T even
                # where the subcommand never reads them.
                "--checkpoints",
                *(repr(c) for c in self.checkpoints or (self.T,))]
        if self.refine:
            args.append("--refine")
        return args

    def path_steps(self):
        """Path-steps simulated by one run; refined runs count doubled steps.

        converge runs the limit ensemble plus one per eps, and again at
        half the step with ``--refine``; reduce runs a full and a reduced
        ensemble per eps; simulate runs one ensemble per eps.
        """
        per_ensemble = self.paths * self.n_steps
        e = len(self.epsilons)
        if self.subcommand == "converge":
            return (1 + e) * per_ensemble * (3 if self.refine else 1)
        if self.subcommand == "reduce":
            return 2 * e * per_ensemble
        if self.subcommand == "simulate":
            return e * per_ensemble
        raise ValueError(f"no path-step count for {self.subcommand}")

    def artifacts(self):
        """Data artifact name -> (CSV header, row count), None for JSON."""
        e = len(self.epsilons)
        if self.subcommand == "converge":
            return {"convergence.csv": (CONVERGENCE_HEADER,
                                        e * len(self.checkpoints)),
                    "convergence.json": None}
        if self.subcommand == "reduce":
            return {"reduction.csv": (REDUCTION_HEADER, e),
                    "reduction.json": None}
        if self.subcommand == "simulate":
            return {f"trajectory_eps{eps:g}.csv":
                    (["path", "t", "z1", "z2", "stopped"],
                     self.paths * (self.n_steps + 1))
                    for eps in self.epsilons}
        raise ValueError(f"no artifacts for {self.subcommand}")

    def tiny(self):
        """A seconds-long copy of this workload for the harness's own tests."""
        checkpoints = (0.25, 0.5) if self.checkpoints else ()
        return dataclasses.replace(self, paths=min(self.paths, 6), T=0.5,
                                   checkpoints=checkpoints)


# Sizes: each child takes 2-5 s on a 2-core x86 host, so a 40 s run holds
# several samples of each workload.
WORKLOADS = {
    # Headline verdict: many paths in the vectorised kernel, one noise
    # stream per path and ensemble, the polar pass, full state arrays.
    # The kernel steps 256-path chunks (sde.CHUNK), so 512 paths is already
    # its wide regime while keeping each child short.
    "converge-wide": Workload(
        name="converge-wide", subcommand="converge",
        config="configs/hopf2d.cfg", paths=512, T=1.0, dt=1e-3,
        epsilons=(0.1, 0.01), checkpoints=(0.5, 1.0), refine=True),
    # Few paths for many steps: per-step dispatch in the kernel dominates;
    # 3-D state with a stable block, reduced_task and evaluate_batch.
    "reduce-long": Workload(
        name="reduce-long", subcommand="reduce",
        config="configs/coupled3d.cfg", paths=32, T=10.0, dt=1e-3,
        epsilons=(0.01, 0.001)),
    # Every state kept and written as %.17g CSV: the writers dominate.
    "simulate-dump": Workload(
        name="simulate-dump", subcommand="simulate",
        config="configs/hopf2d.cfg", paths=200, T=1.0, dt=1e-3,
        epsilons=(0.1, 0.01)),
}


def setup_argv(workload, out_dir):
    """``normal-form`` on the workload's config: import, parse, prepare."""
    return ["normal-form", "--config", workload.config, "--out", out_dir]


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_digests():
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _check_csv(path, header, rows):
    problems = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        got = next(reader, None)
        if got != header:
            return [f"{os.path.basename(path)}: header {got} != {header}"]
        count = 0
        for line in reader:
            count += 1
            if len(line) != len(header):
                problems.append(f"{os.path.basename(path)}: row {count} has "
                                f"{len(line)} fields")
                break
            try:
                values = [float(v) for v in line]
            except ValueError as exc:
                problems.append(f"{os.path.basename(path)}: row {count}: "
                                f"{exc}")
                break
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{os.path.basename(path)}: row {count} "
                                f"has a non-finite value")
                break
    if not problems and count != rows:
        problems.append(f"{os.path.basename(path)}: {count} rows, "
                        f"expected {rows}")
    return problems


def _numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)


def _check_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except ValueError as exc:
            return [f"{os.path.basename(path)}: {exc}"]
    if not isinstance(record, dict) or not record:
        return [f"{os.path.basename(path)}: not a nonempty object"]
    if not all(math.isfinite(v) for v in _numbers(record)):
        return [f"{os.path.basename(path)}: non-finite number"]
    return []


def check_outputs(workload, out_dir, seed, digests=None):
    """Problems with a finished run's artifacts; an empty list means correct.

    ``digests`` maps artifact names to SHA-256 and is consulted only at
    ``DEFAULT_SEED``; it defaults to this workload's entry in digests.json.
    """
    problems = []
    expected = workload.artifacts()
    for name in expected:
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name}: missing")
    if problems:
        return problems
    if seed == DEFAULT_SEED:
        if digests is None:
            digests = load_digests().get(workload.name, {})
        for name in expected:
            want = digests.get(name)
            got = sha256(os.path.join(out_dir, name))
            if want is None:
                problems.append(f"{name}: no recorded digest")
            elif got != want:
                problems.append(f"{name}: sha256 {got[:12]} differs from "
                                f"the recorded {want[:12]}")
        return problems
    for name, shape in expected.items():
        path = os.path.join(out_dir, name)
        if shape is None:
            problems += _check_json(path)
        else:
            problems += _check_csv(path, *shape)
    return problems
