"""Workloads, pipeline stages, output checks and the closed measurement loop.

One process drives the pipeline, one stage call at a time: the tractogram
stage (centerline, prior, fit, track, save), the baseline stage (peak
following, save) and the evaluate stage (Dice, HD/AHD, completion of both
tracts).  In-process workloads call the library; the CLI workload runs the
same steps as ``tractfield.cli.main`` subcommands, so every artifact goes
through its file.  Output checks run after the timed stages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tractfield as tf
from tractfield import cli

import layers
from tracer import Tracer, check_well_formed, totals_by_run

# The polyfield tests bound |div| of fitted fields by this.
DIV_TOL = 1e-6
# Tracker settings of the seed README's helix comparison, shared by every
# workload.
STEP = 0.3
SIGMA = 0.1
# The phantom's noise and distractors are drawn once, at the seed README's
# rng seed; the workload seed drives the tracker's substreams.  Across
# phantom seeds the baseline's completion alone moves by a quarter of its
# median, more than any bound the benchmark could hold.
PHANTOM_SEED = 42
# Two iterations at least, for a median of two samples.  A traced run
# alternates untraced and traced iterations and makes at least three, so
# that the tracing overhead compares one traced iteration with the untraced
# ones before and after it, which cancels a steady drift in host speed.
MIN_ITERATIONS = 2
MIN_TRACED_ITERATIONS = 3
MAX_ITERATIONS = 50
STAGES = ("tractogram", "baseline", "evaluate")
QUALITY = (
    "completion_track", "completion_baseline", "dice_track", "dice_baseline",
    "hd_track", "ahd_track", "hd_baseline", "ahd_baseline",
)
# The seed README's noisy-helix comparison at rng seed 42, which seeds every
# foreground voxel.  It is checked once per run, outside the timed loop.
KNOWN_ANSWERS = {
    ("helix-noisy", 42): {
        "record_track": "overlap=99.9502 hd=2.5733 ahd=0.7063",
        "completion_track": 0.494,
        "completion_baseline": 0.274,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    order: int
    seed_count: int
    via_cli: bool
    # Both trackers start from every seed_stride-th foreground voxel, which
    # keeps a stage call to a few seconds, so that several iterations fit in
    # one run.  The CLI's track subcommand seeds every voxel, so the CLI
    # workload uses 1 and a shorter tube instead.
    seed_stride: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "helix-noisy",
            dict(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                 turns=1.0, noise_deg=10.0, distractor_amp=0.8),
            order=4, seed_count=2, via_cli=False, seed_stride=5,
        ),
        Workload(
            "fan-dense",
            dict(kind="fanning", radius=3.0, length=30.0, noise_deg=10.0,
                 distractor_amp=0.8),
            order=8, seed_count=6, via_cli=False, seed_stride=8,
        ),
        Workload(
            "straight-cli",
            dict(kind="straight-tube", radius=3.0, length=12.0, noise_deg=10.0,
                 distractor_amp=0.8),
            order=4, seed_count=1, via_cli=True, seed_stride=1,
        ),
    )
}


class StageFailed(Exception):
    """A stage call returned an error or its output failed a check."""


@dataclass
class Inputs:
    mask: object
    peaks: object
    desc: object
    p1: np.ndarray
    p2: np.ndarray


def _quiet_cli(argv):
    """Run one ``tractfield`` subcommand; raise StageFailed on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise StageFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def prepare(workload, work):
    """Generate the workload's phantom input files (untimed)."""
    if work.exists():
        shutil.rmtree(work)
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    spec_path = work / "phantom.spec"
    tf.save_phantom_spec(tf.PhantomSpec(**workload.spec), spec_path)
    _quiet_cli(["phantom", "--spec", spec_path, "--out", inputs,
                "--rng-seed", PHANTOM_SEED])
    return inputs, out


def load_inputs(inputs):
    """The user's inputs: mask, peaks, descriptor and endpoints."""
    p1, p2 = cli._load_endpoints(inputs / cli.ENDPOINTS_FILE)
    return Inputs(
        tf.load_mask(inputs / cli.MASK_FILE),
        tf.load_peaks(inputs / cli.PEAKS_FILE),
        tf.load_descriptor(inputs / cli.DESCRIPTOR_FILE),
        p1,
        p2,
    )


def measure_setup(command, env):
    """Seconds a fresh process takes to import tractfield and load the inputs."""
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise StageFailed(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _track_params(workload, seed):
    return tf.TrackParams(step=STEP, sigma=SIGMA,
                          seed_count=workload.seed_count, rng_seed=seed)


def _baseline_params():
    return tf.TrackParams(step=STEP, sigma=0.0, seed_count=1, rng_seed=0)


def _record(dice, hd, ahd):
    return f"overlap={dice:.4f} hd={hd:.4f} ahd={ahd:.4f}"


class Runner:
    """Stages and checks of one workload at one seed."""

    def __init__(self, workload, seed, inputs_dir, out_dir, stride=None):
        self.w = workload
        self.seed = seed
        self.stride = workload.seed_stride if stride is None else stride
        self.inputs_dir = inputs_dir
        self.out = out_dir
        self.tracer = NULL_TRACER
        self.inputs = None
        self.axis = None
        self.checked = {}
        self.expected = {}

    def load(self):
        with self.tracer.span("grids.load_inputs"):
            self.inputs = load_inputs(self.inputs_dir)
        # The scoring reference, not a user input: loaded outside any stage.
        self.axis = tf.load_tract(self.inputs_dir / cli.AXIS_FILE)

    # -- stages -----------------------------------------------------------

    def tractogram(self):
        path = self.out / cli.TRACT_FILE
        if self.w.via_cli:
            i, o = self.inputs_dir, self.out
            self._cli("centerline", "--mask", i / cli.MASK_FILE,
                      "--endpoints", i / cli.ENDPOINTS_FILE, "--out", o)
            self._cli("prior", "--peaks", i / cli.PEAKS_FILE,
                      "--centerline", o / cli.CENTERLINE_FILE,
                      "--mask", i / cli.MASK_FILE, "--out", o)
            self._cli("fit", "--prior", o / cli.PRIOR_FILE, "--mask", i / cli.MASK_FILE,
                      "--order", self.w.order, "--out", o)
            self._cli("track", "--field", o / cli.FIELD_FILE, "--mask", i / cli.MASK_FILE,
                      "--step", STEP, "--sigma", SIGMA,
                      "--seed-count", self.w.seed_count, "--rng-seed", self.seed,
                      "--out", o)
            return {"path": path}
        inp = self.inputs
        axis = tf.extract_centerline(inp.mask, inp.p1, inp.p2)
        prior = tf.build_prior(inp.peaks, axis, inp.mask)
        field = tf.fit_bundle_field(prior, inp.mask, self.w.order)
        tract = tf.track(field, inp.mask, inp.mask.foreground_points()[::self.stride],
                         _track_params(self.w, self.seed))
        tf.save_tract(tract, path)
        return {"path": path, "tract": tract, "field": field, "prior": prior}

    def baseline(self):
        path = self.out / cli.BASELINE_FILE
        if self.w.via_cli:
            self._cli("baseline", "--peaks", self.inputs_dir / cli.PEAKS_FILE,
                      "--mask", self.inputs_dir / cli.MASK_FILE,
                      "--step", STEP, "--out", self.out)
            return {"path": path}
        inp = self.inputs
        tract = tf.baseline_peak_track(inp.peaks, inp.mask,
                                       inp.mask.foreground_points()[::self.stride],
                                       _baseline_params())
        tf.save_tract(tract, path)
        return {"path": path, "tract": tract}

    def evaluate(self, track_out, baseline_out):
        scores = {}
        for label, product in (("track", track_out), ("baseline", baseline_out)):
            if self.w.via_cli:
                dice, hd, ahd, tract = self._cli_metrics(label, product["path"])
            else:
                tract = product["tract"]
                dice = tf.spatial_overlap(tf.voxelize(tract, self.inputs.mask),
                                          self.inputs.mask)
                hd, ahd = tf.hausdorff(tract, self.axis)
            scores[f"completion_{label}"] = tf.completion_rate(tract, self.inputs.desc)
            scores[f"dice_{label}"] = dice
            scores[f"hd_{label}"] = hd
            scores[f"ahd_{label}"] = ahd
        return scores

    def _cli(self, command, *args):
        with self.tracer.span(f"cli.main.{command}"):
            _quiet_cli([command, *args])

    def _cli_metrics(self, label, tract_path):
        out = self.out / f"metrics-{label}"
        self._cli("metrics", "--tract", tract_path,
                  "--ref-tract", self.inputs_dir / cli.AXIS_FILE,
                  "--grid", self.inputs_dir / cli.MASK_FILE,
                  "--ref-mask", self.inputs_dir / cli.MASK_FILE, "--out", out)
        with open(out / cli.METRICS_FILE, encoding="ascii") as fh:
            record = dict(item.split("=") for item in fh.readline().split())
        tract = tf.load_tract(tract_path)
        return float(record["overlap"]), float(record["hd"]), float(record["ahd"]), tract

    # -- checks (untimed) ---------------------------------------------------

    def _check_digest(self, key, path):
        digest = sha256(path)
        want = self.expected.setdefault(key, digest)
        if digest != want:
            raise StageFailed(f"{path.name} digest {digest[:12]} differs from {want[:12]}")
        return digest

    def check_tractogram(self, product):
        digest = self._check_digest("track", product["path"])
        if self.checked.get("track") == digest:
            return digest
        tract = product.get("tract") or tf.load_tract(product["path"])
        field = product.get("field") or tf.load_field(self.out / cli.FIELD_FILE)
        prior = product.get("prior") or tf.prior_from_peaks(
            tf.load_peaks(self.out / cli.PRIOR_FILE))
        _check_inside(tract, self.inputs.mask, "streamlines")
        points, _ = prior.samples()
        div = float(np.abs(field.divergence_many(points)).max())
        if not div <= DIV_TOL:
            raise StageFailed(f"fitted field |div| {div:.2e} exceeds {DIV_TOL:g}")
        self.checked["track"] = digest
        return digest

    def check_baseline(self, product):
        digest = self._check_digest("baseline", product["path"])
        if self.checked.get("baseline") != digest:
            tract = product.get("tract") or tf.load_tract(product["path"])
            _check_inside(tract, self.inputs.mask, "baseline")
            self.checked["baseline"] = digest
        return digest

    def check_scores(self, scores):
        for key, value in scores.items():
            if not math.isfinite(value):
                raise StageFailed(f"{key} is not finite")
        for label in ("track", "baseline"):
            if not 0 <= scores[f"dice_{label}"] <= 100:
                raise StageFailed(f"dice_{label} outside [0, 100]")
            if not 0 <= scores[f"completion_{label}"] <= 1:
                raise StageFailed(f"completion_{label} outside [0, 1]")
            if not 0 <= scores[f"ahd_{label}"] <= scores[f"hd_{label}"]:
                raise StageFailed(f"ahd_{label} must lie in [0, hd_{label}]")
        first = self.expected.setdefault("scores", scores)
        if scores != first:
            raise StageFailed("scores differ between repeats of one seed")


def check_known_answer(workload, seed, inputs_dir, out_dir, known):
    """Run the pipeline once from every foreground voxel and compare its record."""
    out_dir.mkdir(exist_ok=True)
    runner = Runner(workload, seed, inputs_dir, out_dir, stride=1)
    runner.load()
    scores = runner.evaluate(runner.tractogram(), runner.baseline())
    got = {
        "record_track": _record(scores["dice_track"], scores["hd_track"],
                                scores["ahd_track"]),
        "completion_track": round(scores["completion_track"], 3),
        "completion_baseline": round(scores["completion_baseline"], 3),
    }
    if got != known:
        raise StageFailed(f"known answer mismatch: {got} != {known}")


def _check_inside(tract, mask, label):
    """Independent nearest-voxel test that every point lies in the mask."""
    grid = mask.grid
    pts = np.vstack(tract.streamlines)
    idx = np.floor((pts - grid.origin) / grid.spacing + 0.5).astype(np.int64)
    inb = np.all((idx >= 0) & (idx < grid.dims), axis=1)
    if not inb.all() or not grid.data[idx[:, 0], idx[:, 1], idx[:, 2]].all():
        raise StageFailed(f"{label}: a point lies outside the mask")


def _attempt(fn, *args):
    """(result, seconds, error text) of one stage call or check."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failed stage is counted, not fatal
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return None, time.perf_counter() - t0, detail
    return result, time.perf_counter() - t0, None


def iteration(runner, tracer=None):
    """One closed-loop pass over the three stages, then the output checks.

    With a tracer the inputs are loaded again under a span first, and the
    wrappers stay installed for the three stages only.
    """
    traced = tracer is not None
    runner.tracer = tracer or NULL_TRACER
    tracer = runner.tracer
    sample = {"traced": traced, "errors": {}}
    ctx = contextlib.nullcontext()
    if traced:
        runner.load()
        ctx = tracer.installed(layers.patches())
    t0 = time.perf_counter()
    with ctx, tracer.span("bench.pipeline"):
        with tracer.span("bench.tractogram"):
            track_out, sample["tractogram_s"], err_t = _attempt(runner.tractogram)
        with tracer.span("bench.baseline"):
            base_out, sample["baseline_s"], err_b = _attempt(runner.baseline)
        if err_t or err_b:
            scores, err_e = None, "skipped: a tract is missing"
            sample["evaluate_s"] = None
        else:
            with tracer.span("bench.evaluate"):
                scores, sample["evaluate_s"], err_e = _attempt(
                    runner.evaluate, track_out, base_out
                )
    sample["pipeline_s"] = time.perf_counter() - t0
    if not err_t:
        sample["digest_track"], _, err_t = _attempt(runner.check_tractogram, track_out)
    if not err_b:
        sample["digest_baseline"], _, err_b = _attempt(runner.check_baseline, base_out)
    if not err_e:
        _, _, err_e = _attempt(runner.check_scores, scores)
        sample["scores"] = scores
    for stage, err in zip(STAGES, (err_t, err_b, err_e)):
        if err:
            sample["errors"][stage] = err
    return sample


class NullTracer(Tracer):
    """Tracer whose spans record nothing (untraced iterations)."""

    @contextlib.contextmanager
    def span(self, name):
        yield


NULL_TRACER = NullTracer()


class DigestLog:
    """Tract digests per code version, workload and seed, kept across runs."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def get(self, code_id, workload, seed):
        return dict(self.data.get(code_id, {}).get(workload, {}).get(str(seed), {}))

    def put(self, code_id, workload, seed, digests):
        self.data.setdefault(code_id, {}).setdefault(workload, {})[str(seed)] = digests
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def run(workload, seed, seconds, trace, inputs_dir, out_dir, setup_command,
        setup_env, digest_log=None, code_id=None, spans_path=None):
    """Measure one workload at one seed on prepared inputs; returns the record.

    A stage call that raises or fails its output check is counted in
    ``failed`` and the loop goes on; so is a setup that cannot load the
    inputs, after which no stage runs.  One setup probe runs before the
    loop and one after each iteration, so that ``setup_s`` is sampled over
    the whole run, as the stage times are.
    """
    tracer = Tracer()
    runner = Runner(workload, seed, inputs_dir, out_dir)
    record = {"attempted": 0, "failed": 0, "errors": [], "samples": [],
              "setup_samples": []}

    def probe_setup(*load):
        record["attempted"] += 1
        setup, _, err = _attempt(measure_setup, setup_command, setup_env)
        if not err:
            record["setup_samples"].append(setup)
            for fn in load:
                _, _, err = _attempt(fn)
        if err:
            record["failed"] += 1
            record["errors"].append({"stage": "setup", "error": err})
        return not err

    if not probe_setup(runner.load):
        return record
    # Digests of earlier runs of the same code on the same workload and seed.
    settings = repr((workload, STEP, SIGMA, PHANTOM_SEED))
    log_key = f"{workload.name}-{hashlib.sha256(settings.encode()).hexdigest()[:12]}"
    if digest_log is not None:
        runner.expected.update(digest_log.get(code_id, log_key, seed))

    min_iterations = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
    deadline = time.perf_counter() + seconds
    durations = []
    while len(record["samples"]) < MAX_ITERATIONS:
        n = len(record["samples"])
        tracer.run_id = n
        t0 = time.perf_counter()
        sample = iteration(runner, tracer if trace and n % 2 else None)
        record["samples"].append(sample)
        record["attempted"] += len(STAGES)
        record["failed"] += len(sample["errors"])
        record["errors"].extend(
            {"iteration": n, "stage": s, "error": e} for s, e in sample["errors"].items()
        )
        probe_setup()
        durations.append(time.perf_counter() - t0)
        # No iteration starts that would likely end past the deadline, so a
        # run measures for about ``seconds``.
        if (n + 1 >= min_iterations
                and time.perf_counter() + statistics.median(durations) > deadline):
            break
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    known = KNOWN_ANSWERS.get((workload.name, seed))
    if known:
        record["attempted"] += 1
        _, _, err = _attempt(check_known_answer, workload, seed, inputs_dir,
                             out_dir / "known-answer", known)
        if err:
            record["failed"] += 1
            record["errors"].append({"stage": "known-answer", "error": err})
    record["digests"] = {
        k: runner.expected[k] for k in ("track", "baseline") if k in runner.expected
    }
    if digest_log is not None and not record["failed"]:
        digest_log.put(code_id, log_key, seed, record["digests"])
    if trace:
        record["trace"] = _trace_summary(workload, tracer, record["samples"])
        problems = record["trace"]["well_formed"]
        record["attempted"] += 1
        if problems:
            record["failed"] += 1
            record["errors"].append({"stage": "trace", "error": "; ".join(problems)})
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(record):
    """End-to-end metrics from the untraced iterations."""
    samples = [s for s in record["samples"] if not s["traced"]]
    metrics = {"setup_s": _median(record.get("setup_samples") or [])}
    for stage in STAGES:
        metrics[f"{stage}_s"] = _median(
            [s[f"{stage}_s"] for s in samples if stage not in s["errors"]]
        )
    metrics["pipeline_s"] = _median([s["pipeline_s"] for s in samples if not s["errors"]])
    metrics["peak_rss_mb"] = record.get("peak_rss_mb")
    scored = [s["scores"] for s in samples if "scores" in s]
    for key in QUALITY:
        metrics[key] = scored[0][key] if scored else None
    metrics["ok_frac"] = 1.0 - record["failed"] / record["attempted"]
    return metrics


def _trace_summary(workload, tracer, samples):
    tables = tracer.arrays()
    totals = totals_by_run(tracer)
    per_run = {
        run: layers.layer_metrics(t, dict(tracer.counts.get(run, {})))
        for run, t in totals.items()
    }
    per_layer = {
        key: statistics.median(m[key] for m in per_run.values())
        for key in next(iter(per_run.values()), {})
    }
    # Each traced iteration against the untraced ones next to it, so that a
    # change of host speed between distant iterations does not count.
    pipeline = [s["pipeline_s"] for s in samples]
    pairs = [
        (pipeline[i], statistics.mean(pipeline[j] for j in (i - 1, i + 1)
                                      if 0 <= j < len(samples) and not samples[j]["traced"]))
        for i, s in enumerate(samples) if s["traced"]
    ]
    overhead = statistics.median(t - u for t, u in pairs)
    per_layer["trace.overhead_s"] = overhead
    per_layer["trace.overhead_frac"] = overhead / statistics.median(u for _, u in pairs)
    first = next(iter(totals.values()))
    checks = layers.predictions(workload.name, workload.via_cli, per_layer, first)
    per_layer["trace.predictions_failed"] = sum(not ok for _, ok in checks)
    return {
        "per_layer": per_layer,
        "self_shares": layers.self_shares(first),
        "spans": len(tables["start"]),
        "well_formed": check_well_formed(tables),
        "predictions": [{"statement": s, "held": ok} for s, ok in checks],
        "totals": {str(run): t for run, t in totals.items()},
    }
