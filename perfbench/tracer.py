"""Traced in-process runs: spans around the calls into each layer.

The wrappers live here, outside the program.  Each public function is
patched under the name its caller looks it up by (``sde.run_chunk``, not
``_kernels.run_chunk``; ``cli.load_config``, not ``config.load_config``),
so every call the CLI makes passes through a span.  Spans are kept in memory
and written out when the traced child ends.

Run as a script by ``run.py --trace 1``; it alternates untraced and traced
calls of ``cli.main`` in this one process until ``--seconds`` is spent, so
the tracing overhead is measured against the same process state.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import gc
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time

Span = collections.namedtuple("Span", "id name start end parent run")


class Tracer:
    """In-memory span and counter store, safe to record from any thread.

    A span's parent is the innermost span open in the same thread; spans
    opened in a worker thread with nothing open there hang under the run's
    root span.
    """

    def __init__(self, run_id=0):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans = []
        self.counts = collections.Counter()
        self.run_id = run_id
        self.root = None

    def add(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    @contextlib.contextmanager
    def span(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id))

    def run(self, fn):
        """Call ``fn`` under a root span named ``cli.main``."""
        with self.span("cli.main") as root:
            self.root = root
            try:
                return fn()
            finally:
                self.root = None


def _count_chunk(tracer, args, result):
    dW, states = args[4], result[0]
    tracer.add("kernels.run_chunk.calls")
    tracer.add("kernels.run_chunk.path_steps", dW.shape[0] * dW.shape[1])
    tracer.add("kernels.run_chunk.bytes_computed", states.nbytes + dW.nbytes)


def _count_stream(tracer, args, result):
    tracer.add("sde.noise.streams")


def _count_normals(tracer, args, result):
    tracer.add("sde.noise.normals", result.size)


def _count_ensemble(tracer, args, result):
    tracer.add("sde.run_ensemble.states_bytes", result.states.nbytes)
    tracer.add("sde.run_ensemble.stops_diverged",
               result.stop_reason.count("diverged"))


def _count_polar(tracer, args, result):
    paths, times = result.rho.shape
    tracer.add("sde.polar_ensemble.calls")
    tracer.add("sde.polar_ensemble.live_steps", int(result.stop_index.sum()))
    tracer.add("sde.polar_ensemble.steps", paths * (times - 1))
    for reason in ("hit_inner", "hit_outer"):
        tracer.add(f"sde.polar_ensemble.stops_{reason}",
                   result.stop_reason.count(reason))


def _count_distance(tracer, args, result):
    tracer.add("stats.distances.calls")


def _count_written(position):
    def count(tracer, args, result):
        tracer.add("stats.write.bytes", os.path.getsize(args[position]))
    return count


# (owner inside hopf_critic, attribute, span name, counter)
PATCHES = (
    ("cli", "load_config", "config.load_config", None),
    ("stats", "prepare_system", "stats.prepare_system", None),
    ("stats", "convergence_study", "stats.study", None),
    ("stats", "reduction_diagnostics", "stats.study", None),
    ("sde", "run_ensemble", "sde.run_ensemble", _count_ensemble),
    ("sde", "run_chunk", "kernels.run_chunk", _count_chunk),
    ("sde.NoiseStream", "__init__", "sde.noise", _count_stream),
    ("sde.NoiseStream", "standard_blocks", "sde.noise", _count_normals),
    ("sde", "polar_ensemble", "sde.polar_ensemble", _count_polar),
    ("polyfield.PolyMap", "evaluate_batch", "polyfield.evaluate_batch",
     None),
    ("stats", "ks_distance", "stats.distances", _count_distance),
    ("stats", "wasserstein1", "stats.distances", _count_distance),
    ("stats", "write_convergence_csv", "stats.write", _count_written(1)),
    ("stats", "write_reduction_csv", "stats.write", _count_written(1)),
    ("stats", "write_trajectory_csv", "stats.write", _count_written(1)),
    ("stats", "svg_line_plot", "stats.write", _count_written(0)),
)


def _owner(dotted):
    module, _, attr = dotted.partition(".")
    owner = importlib.import_module(f"hopf_critic.{module}")
    return getattr(owner, attr) if attr else owner


def _wrap(tracer, name, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result
    return wrapper


@contextlib.contextmanager
def patched(tracer):
    """Route every call in PATCHES through ``tracer`` until the block ends."""
    saved = []
    try:
        for owner_name, attr, span_name, count in PATCHES:
            owner = _owner(owner_name)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, span_name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the time its children cover."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(
        [(max(a, s.start), min(b, s.end)) for a, b in children[s.id]
         if b > s.start and a < s.end]) for s in spans}


def busy_times(spans):
    """Layer name -> summed duration of its outermost spans.

    A span nested inside a span of the same name adds nothing, so no time
    is counted twice.
    """
    by_id = {s.id: s for s in spans}
    busy = collections.Counter()
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            busy[s.name] += s.end - s.start
    return busy


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    busy = busy_times(spans)
    own = self_times(spans)
    selfs = collections.Counter()
    for s in spans:
        selfs[s.name] += own[s.id]
    wall = busy["cli.main"]

    def pct(seconds):
        return 100.0 * seconds / wall

    kernel_s = busy["kernels.run_chunk"]
    polar_steps = counts["sde.polar_ensemble.steps"]
    return {
        "kernels.run_chunk.calls": counts["kernels.run_chunk.calls"],
        "kernels.run_chunk.busy_s": kernel_s,
        "kernels.run_chunk.busy_pct": pct(kernel_s),
        "kernels.run_chunk.path_steps": counts["kernels.run_chunk.path_steps"],
        "kernels.run_chunk.path_steps_per_s":
            counts["kernels.run_chunk.path_steps"] / kernel_s,
        "kernels.run_chunk.bytes_computed":
            counts["kernels.run_chunk.bytes_computed"],
        "sde.noise.streams": counts["sde.noise.streams"],
        "sde.noise.normals": counts["sde.noise.normals"],
        "sde.noise.busy_s": busy["sde.noise"],
        "sde.run_ensemble.self_s": selfs["sde.run_ensemble"],
        "sde.run_ensemble.states_mb":
            counts["sde.run_ensemble.states_bytes"] / 1e6,
        "sde.run_ensemble.stops_diverged":
            counts["sde.run_ensemble.stops_diverged"],
        "sde.polar_ensemble.calls": counts["sde.polar_ensemble.calls"],
        "sde.polar_ensemble.busy_pct": pct(busy["sde.polar_ensemble"]),
        "sde.polar_ensemble.live_step_fraction":
            counts["sde.polar_ensemble.live_steps"] / polar_steps
            if polar_steps else 0.0,
        "sde.polar_ensemble.stops_hit_inner":
            counts["sde.polar_ensemble.stops_hit_inner"],
        "sde.polar_ensemble.stops_hit_outer":
            counts["sde.polar_ensemble.stops_hit_outer"],
        "polyfield.evaluate_batch.busy_s": busy["polyfield.evaluate_batch"],
        "stats.study.self_pct": pct(selfs["stats.study"]),
        "stats.distances.calls": counts["stats.distances.calls"],
        "stats.distances.busy_pct": pct(busy["stats.distances"]),
        "stats.write.busy_s": busy["stats.write"],
        "stats.write.busy_pct": pct(busy["stats.write"]),
        "stats.write.bytes": counts["stats.write.bytes"],
        "config.load_config.busy_s": busy["config.load_config"],
        "stats.prepare_system.busy_s": busy["stats.prepare_system"],
        "cli.main.self_s": selfs["cli.main"],
        "trace.wall_s": wall,
    }


# Counts that depend only on the workload and seed, never on timing.
EXACT_COUNTS = (
    "kernels.run_chunk.calls", "kernels.run_chunk.path_steps",
    "kernels.run_chunk.bytes_computed", "sde.noise.streams",
    "sde.noise.normals", "sde.run_ensemble.states_mb",
    "sde.run_ensemble.stops_diverged", "sde.polar_ensemble.calls",
    "sde.polar_ensemble.live_step_fraction",
    "sde.polar_ensemble.stops_hit_inner",
    "sde.polar_ensemble.stops_hit_outer", "stats.distances.calls",
    "stats.write.bytes",
)


# Layers a workload may never call; each is also the name of its span.
OPTIONAL_LAYERS = ("sde.polar_ensemble", "stats.study", "stats.distances")


def not_applicable(spans):
    """Notes for layers this run never entered; their metrics read 0."""
    seen = {s.name for s in spans}
    return [f"{layer}: not called by this workload, its metrics read 0"
            for layer in OPTIONAL_LAYERS if layer not in seen]


def _one_run(cli, argv, tracer):
    """Call ``cli.main`` once; return its wall time in seconds."""
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        status = cli.main(argv)
    else:
        with patched(tracer):
            status = tracer.run(lambda: cli.main(argv))
    wall = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"hopf-critic exited with status {status}")
    return wall


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from workloads import Workload, check_outputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="the Workload's fields as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    workload = Workload.from_record(json.loads(args.workload))

    from hopf_critic import cli

    cli_argv = workload.argv(args.seed, args.out)
    deadline = time.perf_counter() + args.seconds
    traced_runs, untraced_walls, problems = [], [], []
    attempted = 0
    while True:
        pair_start = time.perf_counter()
        # Alternate which side goes first so warm-up favours neither.
        for traced in ((False, True) if attempted % 4 == 0
                       else (True, False)):
            attempted += 1
            tracer = Tracer(attempted) if traced else None
            try:
                wall = _one_run(cli, cli_argv, tracer)
            except RuntimeError as exc:
                problems.append(f"run {attempted}: {exc}")
                continue
            found = check_outputs(workload, args.out, args.seed)
            if found:
                problems.append(f"run {attempted}: {'; '.join(found)}")
            elif traced:
                traced_runs.append(tracer)
            else:
                untraced_walls.append(wall)
        if time.perf_counter() + (time.perf_counter() - pair_start) \
                > deadline:
            break

    spans = [s for tracer in traced_runs for s in tracer.spans]
    with open(os.path.join(args.out, "spans.json"), "w",
              encoding="utf-8") as handle:
        json.dump([s._asdict() for s in spans], handle)
    per_run = [layer_metrics(t.spans, t.counts) for t in traced_runs]
    metrics = {}
    if per_run and untraced_walls:
        for name in per_run[0]:
            values = [m[name] for m in per_run]
            metrics[name] = (values[0] if name in EXACT_COUNTS
                             else statistics.median(values))
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(untraced_walls))
        unsteady = [name for name in EXACT_COUNTS
                    if any(m[name] != metrics[name] for m in per_run)]
        if unsteady:
            problems.append(f"counts differ between runs: {unsteady}")
    result = {
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "problems": problems,
        "metrics": metrics,
        "per_run": per_run,
        "notes": not_applicable(traced_runs[-1].spans) if traced_runs
        else [],
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
