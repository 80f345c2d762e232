"""Tests of the benchmark harness itself, on tiny copies of each workload.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run; they
start hopf-critic children and take about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, os.path.join(run.ROOT, "src"))

TINY = [w.tiny() for w in workloads.WORKLOADS.values()]
IDS = [w.name for w in TINY]
SEED = 7


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    for name, value in run.child_env().items():
        monkeypatch.setenv(name, value)


def _out(*parts):
    path = os.path.join(run.ROOT, run.OUT, "selftest", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def _last_json(capsys):
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads_defined_here():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(
        workload, capsys):
    spec = run.load_spec()
    assert run.run_untraced(workload, SEED, 0.1, spec) == 0
    lines, result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SETUPS + run.MIN_SAMPLES
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
        assert any(line.startswith(f"{metric['name']}: median ")
                   and f" {metric['unit']};" in line for line in lines)
    assert any(line.startswith("failed_fraction: 0/") for line in lines)


@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_traced_run_prints_every_per_layer_metric_with_its_unit(
        workload, capsys):
    spec = run.load_spec()
    assert run.run_traced(workload, SEED, 0.1, spec) == 0
    lines, result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']}: ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    assert result["metrics"]["kernels.run_chunk.path_steps"]["value"] \
        == workload.path_steps()


def _traced_once(workload, out_dir):
    from hopf_critic import cli
    recorder = tracer.Tracer()
    with tracer.patched(recorder):
        status = recorder.run(lambda: cli.main(workload.argv(SEED, out_dir)))
    assert status == 0
    assert workloads.check_outputs(workload, out_dir, SEED) == []
    return recorder


@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_spans_nest_and_self_times_fit_in_the_wall(workload):
    recorder = _traced_once(workload, _out(workload.name, "nest"))
    spans = {s.id: s for s in recorder.spans}
    roots = [s for s in spans.values() if s.parent is None]
    assert [r.name for r in roots] == ["cli.main"]
    for span in spans.values():
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    own = tracer.self_times(recorder.spans)
    assert min(own.values()) >= 0.0
    assert sum(own.values()) <= roots[0].end - roots[0].start


@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_exact_counts_repeat_across_two_runs(workload):
    first, second = (
        tracer.layer_metrics(r.spans, r.counts) for r in (
            _traced_once(workload, _out(workload.name, "repeat")),
            _traced_once(workload, _out(workload.name, "repeat"))))
    for name in tracer.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["kernels.run_chunk.path_steps"] == workload.path_steps()


def test_patched_names_are_restored():
    from hopf_critic import cli, sde
    before = (cli.load_config, sde.run_chunk, sde.NoiseStream.__init__)
    with tracer.patched(tracer.Tracer()):
        assert sde.run_chunk is not before[1]
    assert (cli.load_config, sde.run_chunk,
            sde.NoiseStream.__init__) == before


def _default_seed_run(workload):
    out_dir = _out(workload.name, "digest")
    child = run.cli_child(workload.argv(workloads.DEFAULT_SEED, out_dir),
                          os.path.join(out_dir, "child.log"))
    assert child.problems == []
    return out_dir


@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_a_corrupted_digest_or_artifact_trips_the_gate(workload):
    out_dir = _default_seed_run(workload)
    digests = {name: workloads.sha256(os.path.join(out_dir, name))
               for name in workload.artifacts()}
    seed = workloads.DEFAULT_SEED
    assert workloads.check_outputs(workload, out_dir, seed, digests) == []
    name = sorted(digests)[0]
    corrupted = dict(digests, **{name: "0" * 64})
    assert workloads.check_outputs(workload, out_dir, seed, corrupted)
    with open(os.path.join(out_dir, name), "a", encoding="utf-8") as handle:
        handle.write(" ")
    assert workloads.check_outputs(workload, out_dir, seed, digests)


def test_a_digest_mismatch_counts_as_a_failed_run():
    # digests.json holds the full-size digests, so a tiny run mismatches.
    workload = TINY[0]
    setups, runs = run.measure(workload, workloads.DEFAULT_SEED, 0.1)
    assert all(not c.problems for c in setups)
    assert runs and all(any("sha256" in p for p in c.problems)
                        for c in runs)
    assert run.end_to_end(workload, setups, runs) is None


def test_a_non_finite_value_fails_the_schema_check():
    workload = TINY[2]
    out_dir = _out(workload.name, "schema")
    child = run.cli_child(workload.argv(SEED, out_dir),
                          os.path.join(out_dir, "child.log"))
    assert child.problems == []
    assert workloads.check_outputs(workload, out_dir, SEED) == []
    name = sorted(workload.artifacts())[0]
    path = os.path.join(out_dir, name)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    fields = lines[1].split(",")
    fields[2] = "nan"
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    assert any("non-finite" in p
               for p in workloads.check_outputs(workload, out_dir, SEED))
