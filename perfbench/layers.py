"""Layer boundaries of ``tractfield`` and the per-layer metrics derived from them.

``patches`` lists every cross-module call the traced run wraps, named
``<module>.<function>``; ``layer_metrics`` turns one traced iteration's
span totals and counters into the per-layer metrics of BENCHMARK.json, and
``predictions`` checks the workload rationale against them.
"""

from __future__ import annotations

import os

import tractfield as tf
from tractfield import centerline, cli, grids, metrics, phantom, polyfield, prior, tracking

LAYERS = (
    "bench", "phantom", "centerline", "prior", "polyfield",
    "tracking", "grids", "metrics", "cli",
)
CLI_SUBCOMMANDS = ("centerline", "prior", "fit", "track", "baseline", "metrics")


def _evaluated_points(tracer, args, result):
    tracer.count("polyfield.evaluate_many_points", len(args[1]))


def _tractogram_counts(key, reps_of):
    def counter(tracer, args, result):
        seeds, params = args[2], args[3]
        tracer.count(f"{key}_started", len(seeds) * reps_of(params))
        tracer.count(f"{key}_kept", len(result.streamlines))
        tracer.count(f"{key}_points", sum(len(s) for s in result.streamlines))
    return counter


def _saved_bytes(tracer, args, result):
    tracer.count("grids.save_tract_bytes", os.path.getsize(args[1]))


def _loaded_bytes(tracer, args, result):
    tracer.count("grids.load_tract_bytes", os.path.getsize(args[0]))


def patches():
    """(owner, attribute, span name, counter) for every wrapped call site.

    Owners are the namespaces the caller looks the name up in: the
    ``tractfield`` package for the benchmark's own calls, ``tractfield.cli``
    for the subcommands, the calling module for library-internal calls, and
    the class for methods.
    """
    table = []

    def add(owners, attr, name, counter=None):
        table.extend((owner, attr, name, counter) for owner in owners)

    add([tf, cli], "extract_centerline", "centerline.extract")
    add([tf, cli], "build_prior", "prior.build")
    add([prior, tracking], "select_peak", "prior.select_peak")
    add([tf, cli], "fit_bundle_field", "polyfield.fit")
    add([polyfield.PolyField], "evaluate_many", "polyfield.evaluate_many",
        _evaluated_points)
    add([tf, cli], "track", "tracking.track",
        _tractogram_counts("tracking.track", lambda p: p.seed_count))
    add([tf, cli], "baseline_peak_track", "tracking.baseline",
        _tractogram_counts("tracking.baseline", lambda p: 1))
    add([tracking], "sample_direction", "tracking.sample_direction")
    add([tracking, centerline], "inside_many", "grids.inside_many")
    add([tracking, prior, metrics, phantom, centerline], "nearest_indices",
        "grids.nearest_indices")
    add([grids.PeaksField], "peaks_at", "grids.peaks_at")
    add([tf, cli], "save_tract", "grids.save_tract", _saved_bytes)
    add([tf, cli], "load_tract", "grids.load_tract", _loaded_bytes)
    add([tf], "completion_rate", "phantom.completion_rate")
    add([phantom.FieldDescriptor], "axis_params", "phantom.axis_params")
    add([tf, cli], "voxelize", "metrics.voxelize")
    add([tf, cli], "hausdorff", "metrics.hausdorff")
    return table


def layer_metrics(totals, counts):
    """Per-layer metrics of one traced iteration.

    ``totals`` maps span name to (calls, seconds, self seconds); ``counts``
    holds the counters the wrappers accumulated.
    """
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    m = {
        "phantom.completion_rate_s": secs("phantom.completion_rate"),
        "phantom.axis_params_calls": calls("phantom.axis_params"),
        "phantom.axis_params_s": secs("phantom.axis_params"),
        "centerline.extract_s": secs("centerline.extract"),
        "prior.build_s": secs("prior.build"),
        "prior.select_peak_calls": calls("prior.select_peak"),
        "prior.select_peak_s": secs("prior.select_peak"),
        "polyfield.fit_s": secs("polyfield.fit"),
        "polyfield.evaluate_many_calls": calls("polyfield.evaluate_many"),
        "polyfield.evaluate_many_points": counts.get("polyfield.evaluate_many_points", 0),
        "polyfield.evaluate_many_s": secs("polyfield.evaluate_many"),
        "tracking.track_s": secs("tracking.track"),
        "tracking.track_self_s": own("tracking.track"),
        "tracking.sample_direction_calls": calls("tracking.sample_direction"),
        "tracking.sample_direction_s": secs("tracking.sample_direction"),
        "tracking.track_points": counts.get("tracking.track_points", 0),
        "tracking.track_kept_frac": ratio("tracking.track_kept", "tracking.track_started"),
        "tracking.baseline_s": secs("tracking.baseline"),
        "tracking.baseline_self_s": own("tracking.baseline"),
        "tracking.baseline_points": counts.get("tracking.baseline_points", 0),
        "tracking.baseline_kept_frac": ratio(
            "tracking.baseline_kept", "tracking.baseline_started"
        ),
        "grids.inside_many_calls": calls("grids.inside_many"),
        "grids.inside_many_s": secs("grids.inside_many"),
        "grids.nearest_indices_calls": calls("grids.nearest_indices"),
        "grids.peaks_at_calls": calls("grids.peaks_at"),
        "grids.save_tract_s": secs("grids.save_tract"),
        "grids.save_tract_bytes": counts.get("grids.save_tract_bytes", 0),
        "grids.load_tract_s": secs("grids.load_tract"),
        "grids.load_tract_bytes": counts.get("grids.load_tract_bytes", 0),
        "grids.load_inputs_s": secs("grids.load_inputs"),
        "metrics.voxelize_s": secs("metrics.voxelize"),
        "metrics.hausdorff_s": secs("metrics.hausdorff"),
    }
    main_names = [f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS]
    for name in main_names:
        m[f"{name}_s"] = secs(name)
    m["cli.main_s"] = sum(secs(name) for name in main_names)
    m["cli.self_s"] = sum(own(name) for name in main_names)
    return m


def self_shares(totals):
    """Each layer's share of the iteration's summed self time."""
    self_total = sum(v[2] for v in totals.values())
    return {
        layer: sum(v[2] for k, v in totals.items() if k.split(".")[0] == layer)
        / self_total
        for layer in LAYERS
    } if self_total else {}


def predictions(workload, via_cli, m, totals):
    """Check the workload rationale on one traced iteration.

    Returns (statement, held) pairs for the predictions that apply to this
    workload.
    """
    pipeline = totals.get("bench.pipeline", (0, 0.0, 0.0))[1]
    completion_share = m["phantom.completion_rate_s"] / pipeline if pipeline else 0.0
    library = {
        name: v[1] for name, v in totals.items()
        if name.split(".")[0] not in ("bench", "cli")
    }
    largest = max(library, key=library.get) if library else None
    out = []
    if workload == "helix-noisy":
        out.append((
            f"phantom.completion_rate_s is a large share (>= 5%) of pipeline "
            f"time: {completion_share:.1%}",
            completion_share >= 0.05,
        ))
    else:
        out.append((
            f"phantom.completion_rate_s is under 1% of pipeline time: "
            f"{completion_share:.2%}",
            completion_share < 0.01,
        ))
    if workload == "straight-cli":
        out.append((
            f"tracking.baseline is the largest library span: largest is {largest}",
            largest == "tracking.baseline",
        ))
    if workload == "fan-dense":
        inner = {
            name: m[f"{name}_s"]
            for name in ("polyfield.evaluate_many", "tracking.sample_direction",
                         "grids.inside_many")
        }
        inner_top = max(inner, key=inner.get)
        out.append((
            f"tracking.track is the largest library span ({largest}) and "
            f"polyfield.evaluate_many the largest call inside it ("
            + ", ".join(f"{k} {v:.2f} s" for k, v in inner.items()) + ")",
            largest == "tracking.track" and inner_top == "polyfield.evaluate_many",
        ))
    out.append((
        f"grids.load_tract_s is nonzero only on the CLI workload: "
        f"{m['grids.load_tract_s']:.3f} s",
        (m["grids.load_tract_s"] > 0) == via_cli,
    ))
    return out
