"""Fast checks of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
COUNT_UNITS = ("count", "count/pass", "B/pass")

# A handful of items per workload keeps each run well under a second.
SMALL = {"orbit-ensemble": slice(0, 2), "simulate-cli": slice(0, 4),
         "verify-sweep": slice(65, 68), "curvature-scan": slice(0, 6)}


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload to a few items and keep output out of the tree."""
    build = workloads.build

    def small_build(name, seed, outdir):
        wl = build(name, seed, outdir)
        wl.items = wl.items[SMALL[name]]
        return wl

    monkeypatch.setattr(workloads, "build", small_build)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return tmp_path


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(small, capsys, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.run_one(name, 3, 0.0, trace) == 0
        out = _result(capsys)
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_injected_bad_item_raises_failed_ratio(small, capsys, monkeypatch):
    build = workloads.build

    def with_bad_control(name, seed, outdir):
        wl = build(name, seed, outdir)
        control = next(i for i in inputs.verify_invocations(seed) if i.expect == "control")
        wl.items = wl.items + [dataclasses.replace(control, expect_code=0, expect="pass")]
        return wl

    monkeypatch.setattr(workloads, "build", with_bad_control)
    assert run.run_one("verify-sweep", 3, 0.0, 0) == 1
    out = _result(capsys)
    assert not out["correct"] and out["failed"] >= 1
    assert out["metrics"]["pass_ratio"]["value"] < 1.0


def test_gates_fail_on_nan():
    assert workloads.fails(math.nan, 1e-8)
    assert workloads.fails(1e-8, 1e-8)
    assert not workloads.fails(1e-9, 1e-8)
    assert math.isnan(workloads.worst([1.0, math.nan, 2.0]))


def test_raising_item_counts_as_failed(tmp_path):
    wl = workloads.build("orbit-ensemble", 3, str(tmp_path))
    wl.items = [dataclasses.replace(wl.items[0], preset="no-such-preset"), wl.items[1]]
    p = run.run_pass(wl)
    assert len(p.latencies) == 2 and len(p.failures) == 1
    assert "KeyError" in p.failures[0]


def test_local_index_uses_the_samples_nearest_each_item(monkeypatch):
    monkeypatch.setattr(run, "LOCAL_REFS", 1)       # one sample on each side
    slow = run.Pass(refs=[1.0, 2.0], ref_times=[0.0, 10.0], starts=[1.0, 11.0],
                    latencies=[3.0, 6.0])
    fast = run.Pass(refs=[4.0], ref_times=[20.0], starts=[21.0, 22.0],
                    latencies=[4.0, 8.0])
    scale = run.local_index([slow, fast])
    assert scale == [[1.5, 3.0], [4.0, 4.0]]
    assert run.item_metrics([slow, fast], scale)["wall_s"] == 1.5 + 2.0


def test_metric_calls_are_49_per_curvature_point(tmp_path):
    wl = workloads.build("curvature-scan", 5, str(tmp_path))
    wl.items = wl.items[::100]
    tracer = spans.Tracer()
    with tracer.installed():
        run.run_pass(wl)
    layer = spans.aggregate(tracer, 0, len(tracer))
    assert layer["spaces.curvature_calls"] == len(wl.items)
    assert layer["spaces.metric_calls"] == 49 * layer["spaces.curvature_calls"]


def test_wrappers_are_removed_after_the_traced_block():
    before = workloads.dynamics.integrate, workloads.cli.main
    with spans.Tracer().installed():
        assert workloads.dynamics.integrate is not before[0]
    assert (workloads.dynamics.integrate, workloads.cli.main) == before


def _traced(name, seed, tmp_path):
    wl = workloads.build(name, seed, str(tmp_path / name))
    (tmp_path / name).mkdir(parents=True, exist_ok=True)
    wl.items = wl.items[SMALL[name]]
    _, metrics, _ = run.per_layer(wl, 0.0)
    return metrics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(tmp_path, name):
    a = _traced(name, 7, tmp_path / "a")
    b = _traced(name, 7, tmp_path / "b")
    counts = [k for k in a if UNITS[k] in COUNT_UNITS or k.endswith(("_per_check", "_per_time"))]
    assert counts
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_integrate_time_is_gradients_monitors_and_self(tmp_path):
    m = _traced("orbit-ensemble", 2, tmp_path)
    assert m["dynamics.rhs_evals"] == m["phase.gradient_calls"] > 0
    assert m["dynamics.monitor_evals"] == m["phase.value_calls"] > 0
    parts = m["phase.gradient_s"] + m["phase.value_s"] + m["dynamics.integrate_self_s"]
    assert parts == pytest.approx(m["dynamics.integrate_s"], rel=1e-6)


def test_inputs_depend_only_on_the_seed():
    for make in (inputs.orbits, inputs.simulate_invocations,
                 inputs.verify_invocations, inputs.curvature_points):
        assert make(4) == make(4)
        assert make(4) != make(5)
        assert len(make(4)) >= 100


def test_digest_mismatch_with_an_earlier_run_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.build("simulate-cli", 1, str(tmp_path))
    env = {"src_sha256": "x"}
    wl.first_digests = {"sim000": {"csv": "aa"}}
    assert run._check_digests(wl, "simulate-cli", 1, env) == []
    assert run._check_digests(wl, "simulate-cli", 1, env) == []
    wl.first_digests = {"sim000": {"csv": "bb"}}
    assert len(run._check_digests(wl, "simulate-cli", 1, env)) == 1


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "curvature-scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
