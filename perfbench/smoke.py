#!/usr/bin/env python3
"""Smoke test of the benchmark itself on tiny phantoms (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

Checks that every metric is printed with a unit and matches BENCHMARK.json,
that the span tree is well formed (children inside their parents, self
time >= 0), and that corrupt input files are counted as failed operations
instead of crashing the run.  Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import run  # sets the single-thread environment before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import harness  # noqa: E402

TINY = dict(kind="straight-tube", radius=2.0, length=10.0, noise_deg=10.0,
            distractor_amp=0.8)
WORKLOADS = (
    harness.Workload("tiny-inproc", TINY, order=2, seed_count=1, via_cli=False,
                     seed_stride=1),
    harness.Workload("tiny-cli", TINY, order=2, seed_count=1, via_cli=True,
                     seed_stride=1),
)
FAILURES = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def run_cli(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1])


def metrics_printed_with_units(spec):
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_cli(w.name, trace)
            label = f"{w.name} trace={trace}"
            check(code == 0, f"{label}: exit code 0")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0, f"{label}: correct")
            metrics = result["metrics"]
            declared = {m["name"]: m["unit"] for m in spec[section]}
            check(set(metrics) == set(declared),
                  f"{label}: metrics match BENCHMARK.json {section} "
                  f"(missing {sorted(set(declared) - set(metrics))}, "
                  f"extra {sorted(set(metrics) - set(declared))})")
            bad = [k for k, v in metrics.items()
                   if not isinstance(v["value"], (int, float)) or not v["unit"]
                   or declared.get(k, v["unit"]) != v["unit"]]
            check(not bad, f"{label}: every metric has a number and its unit {bad}")


def span_tree_well_formed():
    w = WORKLOADS[1]
    record = json.loads(
        (run.WORK / "results" / f"{w.name}-seed3-trace1.json").read_text()
    )
    check(record["trace"]["well_formed"] == [], "tracer reports no span problems")
    spans = np.load(run.WORK / "results" / f"{w.name}-seed3.spans.npz")
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    names = spans["names"][spans["name"]]
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    check(len(child) > 0 and np.all(par < child), "parents precede children")
    check(bool(np.all(start[child] >= start[par]) and np.all(end[child] <= end[par])),
          "children lie inside their parents")
    covered = np.zeros(len(start))
    np.add.at(covered, par, end[child] - start[child])
    check(bool(np.all(end - start - covered >= -1e-9)), "self time >= 0")
    roots = set(names[parent < 0])
    check(roots == {"bench.pipeline", "grids.load_inputs"},
          f"roots are the pipeline and the input load: {sorted(roots)}")
    check({"cli.main.track", "tracking.track", "grids.save_tract"} <= set(names),
          "layer spans recorded under the CLI subcommands")


def corrupt_inputs_are_failures():
    w = WORKLOADS[0]
    work = run.WORK / "smoke-corrupt"

    def measure(corrupt):
        inputs, out = harness.prepare(w, work)
        corrupt(inputs)
        probe = [sys.executable, str(Path(run.__file__).resolve()), "--probe-setup",
                 str(inputs)]
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        record = harness.run(w, 3, 0.1, False, inputs, out, probe, env)
        return record, harness.end_to_end(record)

    def truncate_peaks(inputs):
        path = inputs / "peaks.rvf"
        path.write_bytes(path.read_bytes()[:-100])

    record, metrics = measure(truncate_peaks)
    check(record["attempted"] == 1 and record["failed"] == 1,
          f"truncated peaks file: setup counted as failed "
          f"({record['failed']}/{record['attempted']})")
    check(metrics["ok_frac"] == 0.0, "truncated peaks file: ok_frac 0")

    def endpoints_off_grid(inputs):
        (inputs / "endpoints.txt").write_text("p1: -50 0 0\np2: 50 0 0\n")

    record, metrics = measure(endpoints_off_grid)
    stages = sorted({e["stage"] for e in record["errors"]})
    check(record["failed"] >= 2 and stages == ["evaluate", "tractogram"],
          f"off-grid endpoints: tractogram and evaluate failed, baseline ran "
          f"({record['failed']}/{record['attempted']}, {stages})")
    check(metrics["baseline_s"] is not None and metrics["tractogram_s"] is None,
          "off-grid endpoints: baseline still timed")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in WORKLOADS:
        harness.WORKLOADS[w.name] = w
    metrics_printed_with_units(spec)
    span_tree_well_formed()
    corrupt_inputs_are_failures()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
