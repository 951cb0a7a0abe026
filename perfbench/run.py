"""Benchmark for curvkepler: four seeded closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload orbit-ensemble --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

One process, one thread: each item starts when the previous one returned,
and every item passes a correctness gate.  A *pass* runs the workload's fixed
item set once; the run repeats passes until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
``setup_s`` is the median over several fresh interpreters of the time from
interpreter start to the first timed item (imports, input generation,
prebuilt observables and the warm-up items).  Each item's latency is its
median over the run's passes, which keeps a burst of load from another
process out of the figures; ``wall_s`` is the sum of those latencies (the
time for the fixed item set) and ``item_p50_ms`` / ``item_p90_ms`` are taken
over them.  Every workload has at least 100 items, so p90 has ten beyond it.

``--trace 1`` reports the per-layer metrics.  It first counts the duals the
first items build and micro-times ``KScalar * KScalar`` (both kept out of
every timed run), then splits ``--seconds`` between untraced passes and
passes with spans installed around each module's entry points (see
``spans.py``); per-layer times are medians over traced passes, counts are
per pass, and ``trace.overhead_ratio`` compares the two halves.

Every time metric but ``setup_s`` is scaled to a nominal host speed (see
``hostspeed.py``).  Between items, every ``REF_EVERY_S`` seconds, a pass
takes a sample of the host-speed index.  Each item latency is divided by the
median of the ``2 * LOCAL_REFS`` samples nearest to it in time (about a
second each side) before the per-item medians are taken, and the per-layer
times by the run's median sample.  Sampling all through the run, rather
than in a burst before each pass, is what makes the index track the host's
speed.  On the recordings ``hostspeed.py`` describes, the nearest samples
took the spread of wall_s, item_p50_ms and item_p90_ms from 0.07/0.06/0.05
(run median) to 0.05/0.05/0.05 on orbit-ensemble and from 0.04/0.05/0.04 to
0.03/0.03/0.03 on simulate-cli.  Raw values are printed in brackets and
kept in the result record.  ``setup_s`` stays raw: fresh-interpreter
start-up (process creation, imports, page faults) did not follow the index,
and over groups of seven probes dividing by it widened the IQR/median from
0.11 to 0.15-0.20.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
item fails its gate.  Scratch output, span logs, result records and output
digests go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import workloads  # imports the library from ../src, or exits non-zero
from workloads import WORKLOADS, ItemResult, worst

import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
REF_EVERY_S = 0.3
LOCAL_REFS = 4
TIME_UNITS = ("s", "ms", "s/pass", "us/call", "ns")
WARMUP_ITEMS = 3
DUAL_COUNT_ITEMS = 6


@dataclass
class Pass:
    wall: float = 0.0
    refs: list = field(default_factory=list)      # host-speed index samples
    ref_times: list = field(default_factory=list)  # when each was taken
    ref_s: float = 0.0                             # time spent taking them
    starts: list = field(default_factory=list)     # when each item started
    latencies: list = field(default_factory=list)
    results: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ref(self):
        return statistics.median(self.refs)


def run_item(wl, item):
    try:
        return wl.run(item)
    except Exception as exc:   # a raising item counts as failed; the run goes on
        return ItemResult(ok=False, reason=f"{type(exc).__name__}: {exc}")


def run_pass(wl):
    """One pass over the items, sampling the host-speed index every REF_EVERY_S."""
    out = Pass()
    t0 = next_ref = time.perf_counter()
    for item in wl.items:
        if time.perf_counter() >= next_ref:
            out.ref_times.append(time.perf_counter())
            index, spent = hostspeed.sample()
            out.refs.append(index)
            out.ref_s += spent
            next_ref = time.perf_counter() + REF_EVERY_S
        a = time.perf_counter()
        out.starts.append(a)
        res = run_item(wl, item)
        out.latencies.append(time.perf_counter() - a)
        out.results.append(res)
        if not res.ok:
            out.failures.append(f"{wl.label(item)}: {res.reason}")
    out.wall = time.perf_counter() - t0 - out.ref_s
    return out


def run_passes(wl, budget, on_pass=None):
    """Whole passes until the next one would overrun ``budget`` seconds."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        if on_pass is not None:
            on_pass()
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - t0 + typical > budget:
            return passes


def _tree_sha256(base, pattern):
    h = hashlib.sha256()
    for path in sorted(base.rglob(pattern)):
        h.update(str(path.relative_to(base)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(ROOT / "src", "*.py"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }


def setup_probe(name, seed):
    """Fresh-interpreter set-up: build the workload and run its warm-up."""
    outdir = OUT / f"tmp-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(name, seed, str(outdir))
        for item in wl.items[:WARMUP_ITEMS]:
            run_item(wl, item)
        print(f"READY {time.monotonic():.9f}", flush=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure_setup(name, seed):
    """Median over SETUP_PROBES fresh interpreters, spawn to first timed item."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        if proc.returncode != 0 or not ready:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-500:]}")
        samples.append(float(ready[-1].split()[1]) - t0)
    return statistics.median(samples)


def _check_digests(wl, name, seed, env):
    """Compare CLI output digests with an earlier run of the same code."""
    if not hasattr(wl, "first_digests"):
        return []
    key = {"src_sha256": env["src_sha256"], "bench_sha256": _tree_sha256(HERE, "*.py")}
    path = OUT / "digests" / f"{name}-seed{seed}.json"
    record = {**key, "digests": wl.first_digests}
    mismatches = []
    if path.exists():
        old = json.loads(path.read_text())
        if all(old.get(k) == v for k, v in key.items()):
            mismatches = [f"{label}: output differs from an earlier run"
                          for label, d in wl.first_digests.items()
                          if old["digests"].get(label) != d]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def _quantile90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def local_index(passes):
    """Per pass and item, the median of the index samples nearest the item."""
    samples = sorted((t, x) for p in passes for t, x in zip(p.ref_times, p.refs))
    times = [t for t, _ in samples]
    values = [x for _, x in samples]
    out = []
    for p in passes:
        js = [bisect.bisect_left(times, t) for t in p.starts]
        out.append([statistics.median(values[max(0, j - LOCAL_REFS):j + LOCAL_REFS])
                    for j in js])
    return out


def item_metrics(passes, scale):
    """wall_s, item_p50_ms and item_p90_ms over per-item medians of latency / scale."""
    per_item = [statistics.median(p.latencies[i] / s[i] for p, s in zip(passes, scale))
                for i in range(len(passes[0].latencies))]
    return {"wall_s": sum(per_item),
            "item_p50_ms": 1e3 * statistics.median(per_item),
            "item_p90_ms": 1e3 * _quantile90(per_item)}


def end_to_end(name, seed, wl, seconds):
    """Raw and host-speed-scaled end-to-end metrics, except pass_ratio."""
    unscaled = {"setup_s": measure_setup(name, seed)}
    for item in wl.items[:WARMUP_ITEMS]:
        run_item(wl, item)
    passes = run_passes(wl, seconds)
    unscaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ones = [[1.0] * len(p.latencies) for p in passes]
    raw = {**unscaled, **item_metrics(passes, ones)}
    scaled = {**unscaled, **item_metrics(passes, local_index(passes))}
    return passes, raw, scaled


def per_layer(wl, seconds):
    # The one-off dual-counting pass over the first items doubles as warm-up.
    count_items = wl.items[:DUAL_COUNT_ITEMS]
    duals = spans.count_duals(lambda: [run_item(wl, it) for it in count_items])
    mul_ns = spans.dual_mul_ns()
    plain = run_passes(wl, seconds / 2)
    tracer = spans.Tracer()
    bounds = [0]
    with tracer.installed():
        traced = run_passes(wl, seconds / 2, on_pass=lambda: bounds.append(len(tracer)))
    layers = [spans.aggregate(tracer, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # median_low keeps a count that every pass agrees on exactly as counted.
    metrics = {key: statistics.median_low(layer[key] for layer in layers)
               for key in layers[0]}
    first = traced[0].results
    metrics.update({
        "kernel.dual_mul_ns": mul_ns,
        "kernel.duals_per_gradient": duals,
        "spaces.worst_curvature_err": worst(r.curvature_err for p in traced for r in p.results),
        "dynamics.worst_drift": worst(r.drift for p in traced for r in p.results),
        "cli.output_bytes": sum(r.output_bytes for r in first),
        "cli.exit_code_mismatches": sum(r.code_mismatch for r in first),
        # Each pass's wall over its own host-speed index, so host speed drift
        # between the two halves does not read as tracing overhead.
        "trace.overhead_ratio": statistics.median(p.wall / p.ref for p in traced)
        / statistics.median(p.wall / p.ref for p in plain) - 1.0,
    })
    return plain + traced, metrics, tracer


def _declared_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name, seed, seconds, trace):
    units = _declared_units(trace)
    env = environment()
    OUT.mkdir(exist_ok=True)
    outdir = OUT / f"tmp-{os.getpid()}"
    outdir.mkdir(exist_ok=True)
    try:
        wl = workloads.build(name, seed, str(outdir))
        if trace:
            passes, raw, tracer = per_layer(wl, seconds)
            tracer.write_csv(OUT / f"spans-{name}.csv")
        else:
            passes, raw, values = end_to_end(name, seed, wl, seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    failures = [f for p in passes for f in p.failures]
    failures += _check_digests(wl, name, seed, env)
    attempted = sum(len(p.latencies) for p in passes)
    index = statistics.median(r for p in passes for r in p.refs)
    if trace:
        values = {k: v / index if units[k] in TIME_UNITS else v for k, v in raw.items()}
    else:
        raw["pass_ratio"] = values["pass_ratio"] = (attempted - len(failures)) / attempted
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           "match BENCHMARK.json")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "items_per_pass": len(wl.items), "host_index": index,
              "pass_walls_s": [p.wall for p in passes], "raw_metrics": raw,
              "environment": env, "failures": failures[:50], **result}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))

    print(f"perfbench {name} seed={seed} trace={trace} passes={len(passes)} "
          f"items={attempted} failed={len(failures)} "
          f"failed_ratio={len(failures) / attempted:.4g}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"  host-speed index {index:.3f} (median); times below but setup_s are "
          "scaled to the nominal host speed, raw in brackets")
    for key in units:
        bracket = f"  [{raw[key]:.6g}]" if raw[key] != values[key] else ""
        print(f"  {key:<30} {values[key]:>16.6g} {units[key]}{bracket}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def run_all(seed, seconds, trace):
    """Every workload, each in its own process (peak RSS is per workload)."""
    codes = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        codes[name] = subprocess.run(cmd, cwd=ROOT, timeout=600).returncode
    print("perfbench all: " + ", ".join(f"{n}={'ok' if c == 0 else f'exit {c}'}"
                                        for n, c in codes.items()))
    return 0 if not any(codes.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
