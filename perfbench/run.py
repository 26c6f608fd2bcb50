#!/usr/bin/env python3
"""tractfield benchmark: phantom workloads through the full pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload helix-noisy --seed 42 --seconds 35 --trace 0

The workload's phantom input files are generated from ``--seed`` (untimed).
``setup_s`` is the median time fresh processes, started before the loop and
after each iteration, take to import ``tractfield`` and load those inputs.  The pipeline then runs in this process, one stage
call after the other, until ``--seconds`` have passed; every output is
checked.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced iterations
alternate and it holds the per-layer metrics.  The full record (samples,
tract digests, machine, predictions) goes to ``perfbench/work/results``.
"""

import time

SETUP_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
# One client and no extra threads: BLAS runs single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def declared_units(path):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def _probe_setup(inputs_dir):
    """Child process: import tractfield, load the inputs, print the time."""
    sys.path.insert(0, str(SRC))
    import harness  # imports tractfield

    harness.load_inputs(Path(inputs_dir))
    print(json.dumps({"setup_s": time.perf_counter() - SETUP_T0}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv):
    if argv[:1] == ["--probe-setup"]:  # the setup child, started by harness
        return _probe_setup(argv[1])
    args = parse_args(argv)
    if not (SRC / "tractfield" / "__init__.py").is_file():
        print(f"benchmark: no tractfield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import machine

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    code_id = machine.source_digest(SRC)
    inputs_dir, out_dir = harness.prepare(workload, WORK / workload.name)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             str(inputs_dir)]
    record = harness.run(
        workload, args.seed, args.seconds, bool(args.trace),
        inputs_dir, out_dir, probe, env,
        harness.DigestLog(WORK / "digests.json"), code_id,
        results / f"{workload.name}-seed{args.seed}.spans.npz",
    )
    if args.trace:
        trace = record.get("trace", {})
        metrics = trace.get("per_layer", {})
        for layer, share in trace.get("self_shares", {}).items():
            print(f"self time share {layer:<11s} {share:7.2%}", file=sys.stderr)
        for p in trace.get("predictions", []):
            status = "held" if p["held"] else "FAILED"
            print(f"prediction {status}: {p['statement']}", file=sys.stderr)
    else:
        metrics = harness.end_to_end(record)
    for err in record["errors"]:
        print(f"benchmark: failed {err}", file=sys.stderr)
    record.update(
        args=vars(args), phantom_seed=harness.PHANTOM_SEED, code=code_id,
        machine=machine.describe(args.seed, ROOT), metrics=metrics,
    )
    out_path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(f"benchmark: record in {out_path}", file=sys.stderr)
    units = declared_units(ROOT / "BENCHMARK.json")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
