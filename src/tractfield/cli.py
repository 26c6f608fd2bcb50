"""Command-line front end: phantom, centerline, prior, fit, track, baseline,
metrics, and the full pipeline.

Every subcommand writes its outputs plus a ``manifest-<name>.json`` into the
``--out`` directory.  ``STAGES`` is the one description of a stage: its
input flags, its parameter flags and the outputs it writes, which are also
its manifest's ``inputs``, ``parameters`` and ``outputs``.  ``pipeline``
chains the stages through those files, so running it equals running the
stages by hand with the same flags.  Exit codes: 0 success, 1 usage or
parameter error, 2 data or format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .centerline import RESAMPLE_STEP, extract_centerline, load_centerline, save_centerline
from .errors import ConditioningError, DomainError, TractFieldError
from .grids import (
    _line,
    _numbers,
    _parse_fields,
    _read_text,
    _require_keys,
    _write_text,
    load_mask,
    load_peaks,
    load_tract,
    load_volume,
    save_peaks,
    save_tract,
    save_volume,
)
from .metrics import hausdorff, spatial_overlap, voxelize
from .phantom import generate, load_phantom_spec, save_phantom_spec
from .polyfield import (ORDER_DEFAULT, RIDGE_PER_SAMPLE, bundle_ridge, fit_bundle_field,
                        load_field, save_field)
from .prior import MIN_AMP_DEFAULT, build_prior
from .tracking import ANGLE_MAX_DEFAULT, TrackParams, baseline_peak_track, track

MASK_FILE = "mask.rvf"
PEAKS_FILE = "peaks.rvf"
AXIS_FILE = "axis.tract"
DESCRIPTOR_FILE = "descriptor.txt"
ENDPOINTS_FILE = "endpoints.txt"
CENTERLINE_FILE = "centerline.tract"
PRIOR_FILE = "prior.rvf"
FIELD_FILE = "field.txt"
TRACT_FILE = "streamlines.tract"
BASELINE_FILE = "baseline.tract"
METRICS_FILE = "metrics.txt"

# The errors that exit 3.
_NUMERICAL = (ConditioningError, FloatingPointError, np.linalg.LinAlgError)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _save_endpoints(path, p1, p2):
    _write_text(path, [_line("p1", p1), _line("p2", p2)])


def _load_endpoints(path):
    fields = _parse_fields(_read_text(path).splitlines(), path)
    _require_keys(fields, ("p1", "p2"), path)
    return tuple(np.array(_numbers(fields[key], key, path, 3)) for key in ("p1", "p2"))


class _Flag(NamedTuple):
    """One command-line flag, written once and shared by every stage taking it.

    ``file`` is the run-directory file that feeds an input flag: ``pipeline``
    sets the flag to that file instead of declaring it.
    """

    name: str
    options: dict
    file: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


def _flag(name, help, file=None, **options):
    return _Flag(name, dict(options, help=help), file)


_FLAGS = {
    flag.name: flag
    for flag in (
        _flag("--out", "output directory", required=True),
        _flag("--spec", "phantom spec text file", required=True),
        _flag("--rng-seed", "random seed", type=int, default=TrackParams.rng_seed),
        _flag("--mask", "mask volume file", MASK_FILE, required=True),
        _flag("--endpoints", "endpoint file with p1 and p2 lines (as written by phantom)",
              ENDPOINTS_FILE, required=True),
        _flag("--delta", "centerline resampling step, mm",
              type=float, default=RESAMPLE_STEP),
        _flag("--peaks", "peaks volume file", PEAKS_FILE, required=True),
        _flag("--centerline", "centerline file", CENTERLINE_FILE, required=True),
        _flag("--cutoff", "peak amplitude floor", type=float, default=MIN_AMP_DEFAULT),
        _flag("--prior", "prior volume file", PRIOR_FILE, required=True),
        _flag("--order", "polynomial order", type=int, default=ORDER_DEFAULT),
        _flag("--ridge", f"coefficient shrinkage weight (default {RIDGE_PER_SAMPLE:g} "
              "per sample)", type=float, default=None),
        _flag("--field", "fitted field file", FIELD_FILE, required=True),
        _flag("--step", "integration step, mm", type=float, default=TrackParams.step),
        _flag("--max-steps", "step budget per direction", type=int,
              default=TrackParams.max_steps),
        _flag("--min-len", "minimum streamline length, mm (default 3x step)",
              type=float, default=None),
        _flag("--sigma", "direction perturbation std", type=float, default=TrackParams.sigma),
        _flag("--seed-count", "streamline repetitions per seed", type=int,
              default=TrackParams.seed_count),
        _flag("--angle-max", "turning angle stop, degrees",
              type=float, default=ANGLE_MAX_DEFAULT),
        _flag("--tract", "tract file to score", TRACT_FILE, required=True),
        _flag("--ref-tract", "reference tract file", AXIS_FILE, required=True),
        _flag("--grid", "volume file defining the voxelization grid",
              MASK_FILE, required=True),
        _flag("--ref-mask", "score overlap against this mask instead of the "
              "voxelized reference tract", MASK_FILE, default=None),
    )
}
_TRACK_FLAGS = ("--step", "--max-steps", "--min-len")
_SEEDING = "all foreground voxel centers"


# Each stage function takes the parsed flags and ``out``, its stage's
# ``outputs`` keys mapped to paths in --out; it writes those files and
# returns what it resolved or measured, which the manifest's parameters
# record over the stage's flag values.  Library calls go through this
# module's globals at call time, so a profiler can wrap them here.


def _phantom(args, out):
    spec = load_phantom_spec(args.spec)
    result = generate(spec, args.rng_seed)
    save_volume(result.mask, out["mask"])
    save_peaks(result.peaks, out["peaks"])
    save_centerline(result.centerline, out["axis"])
    save_phantom_spec(spec, out["descriptor"])
    _save_endpoints(out["endpoints"], result.p1, result.p2)
    return {}


def _centerline(args, out):
    p1, p2 = _load_endpoints(args.endpoints)
    save_centerline(extract_centerline(load_mask(args.mask), p1, p2, args.delta),
                    out["centerline"])
    return {"p1": p1.tolist(), "p2": p2.tolist()}


def _prior(args, out):
    prior = build_prior(load_peaks(args.peaks), load_centerline(args.centerline),
                        load_mask(args.mask), args.cutoff)
    save_peaks(prior, out["prior"])
    return {}


def _fit(args, out):
    prior = load_peaks(args.prior)
    mask = load_mask(args.mask)
    ridge = bundle_ridge(prior, mask, args.ridge)
    save_field(fit_bundle_field(prior, mask, args.order, ridge), out["field"])
    return {"ridge": float(ridge)}


def _track(args, out):
    params = TrackParams(step=args.step, sigma=args.sigma, max_steps=args.max_steps,
                         seed_count=args.seed_count, rng_seed=args.rng_seed,
                         min_len=args.min_len)
    field = load_field(args.field)
    mask = load_mask(args.mask)
    save_tract(track(field, mask, mask.foreground_points(), params), out["tract"])
    return {"min_len": params.min_len, "seeding": _SEEDING}


def _baseline(args, out):
    params = TrackParams(step=args.step, max_steps=args.max_steps, min_len=args.min_len)
    peaks = load_peaks(args.peaks)
    mask = load_mask(args.mask)
    tract = baseline_peak_track(
        peaks, mask, mask.foreground_points(), params, args.angle_max, args.cutoff
    )
    save_tract(tract, out["tract"])
    return {"min_len": params.min_len, "seeding": _SEEDING}


def _metrics(args, out):
    tract = load_tract(args.tract)
    ref_tract = load_tract(args.ref_tract)
    grid = load_volume(args.grid)
    tract_mask = voxelize(tract, grid)
    if args.ref_mask:
        reference = load_mask(args.ref_mask)
        against = "reference mask"
    else:
        reference = voxelize(ref_tract, grid)
        against = "voxelized reference tract"
    overlap = spatial_overlap(tract_mask, reference)
    hd, ahd = hausdorff(tract, ref_tract)
    record = f"overlap={overlap:.4f} hd={hd:.4f} ahd={ahd:.4f}"
    table = [
        record,
        "",
        f"spatial overlap  {overlap:8.2f}  % Dice, voxelized tract vs {against}",
        f"hausdorff        {hd:8.2f}  mm, pooled points vs reference tract",
        f"avg hausdorff    {ahd:8.2f}  mm, pooled points vs reference tract",
    ]
    _write_text(out["metrics"], table)
    print("\n".join(table))
    return {"overlap": overlap, "hd": hd, "ahd": ahd}


class _Stage(NamedTuple):
    """One subcommand: its input and parameter flags, the files it writes
    into --out (manifest key -> file name) and its stage function."""

    name: str
    help: str
    inputs: tuple
    params: tuple
    outputs: dict
    run: Callable


# The stages in pipeline order.
STAGES = (
    _Stage("phantom", "generate a synthetic tube phantom",
           ("--spec",), ("--rng-seed",),
           {"mask": MASK_FILE, "peaks": PEAKS_FILE, "axis": AXIS_FILE,
            "descriptor": DESCRIPTOR_FILE, "endpoints": ENDPOINTS_FILE},
           _phantom),
    _Stage("centerline", "extract a mask centerline",
           ("--mask", "--endpoints"), ("--delta",),
           {"centerline": CENTERLINE_FILE}, _centerline),
    _Stage("prior", "select one peak per voxel",
           ("--peaks", "--centerline", "--mask"), ("--cutoff",),
           {"prior": PRIOR_FILE}, _prior),
    _Stage("fit", "fit the divergence-free polynomial field",
           ("--prior", "--mask"), ("--order", "--ridge"),
           {"field": FIELD_FILE}, _fit),
    _Stage("track", "trace streamlines through a fitted field",
           ("--field", "--mask"),
           _TRACK_FLAGS + ("--sigma", "--seed-count", "--rng-seed"),
           {"tract": TRACT_FILE}, _track),
    _Stage("baseline", "deterministic peak-following tracker",
           ("--peaks", "--mask"), _TRACK_FLAGS + ("--angle-max", "--cutoff"),
           {"tract": BASELINE_FILE}, _baseline),
    _Stage("metrics", "compare a tract against a reference",
           ("--tract", "--ref-tract", "--grid", "--ref-mask"), (),
           {"metrics": METRICS_FILE}, _metrics),
)


def _run_stage(stage, args):
    os.makedirs(args.out, exist_ok=True)
    outputs = {key: os.path.join(args.out, name) for key, name in stage.outputs.items()}
    inputs = {name: getattr(args, _FLAGS[name].dest) for name in stage.inputs}
    parameters = {_FLAGS[name].dest: getattr(args, _FLAGS[name].dest)
                  for name in stage.params}
    try:
        parameters.update(stage.run(args, outputs))
    except (DomainError, *_NUMERICAL) as exc:
        # The input data is at fault: name the files it came from.  A
        # FormatError or OSError names its file already.
        named = ", ".join(f"{name} {path}" for name, path in inputs.items() if path)
        raise type(exc)(f"{exc} (inputs: {named})") from exc
    payload = {
        "subcommand": stage.name,
        "version": __version__,
        "parameters": parameters,
        "inputs": {_FLAGS[name].dest: path for name, path in inputs.items()},
        "outputs": outputs,
    }
    path = os.path.join(args.out, f"manifest-{stage.name}.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _run_pipeline(args):
    # Every input flag but --spec, which pipeline declares itself, reads a
    # file an earlier stage wrote into the run directory.
    for stage in STAGES:
        for name in stage.inputs:
            flag = _FLAGS[name]
            if flag.file:
                setattr(args, flag.dest, os.path.join(args.out, flag.file))
        _run_stage(stage, args)
    return 0


def _add_flags(parser, names):
    for name in names:
        parser.add_argument(name, **_FLAGS[name].options)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tractfield",
        description="Fit a divergence-free polynomial flow to bundle "
        "orientations and trace streamlines through it.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="<command>",
                                parser_class=_Parser)
    sub.required = True
    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        _add_flags(p, stage.inputs + stage.params + ("--out",))
        p.set_defaults(func=partial(_run_stage, stage))
    p = sub.add_parser("pipeline", help="run phantom through metrics in one go")
    params = dict.fromkeys(name for stage in STAGES for name in stage.params)
    _add_flags(p, ("--spec", "--out", *params))
    p.set_defaults(func=_run_pipeline)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # LinAlgError is a ValueError: this clause must come before exit 1's.
    except _NUMERICAL as exc:
        print(f"tractfield: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"tractfield: invalid parameter: {exc}", file=sys.stderr)
        return 1
    except (TractFieldError, OSError) as exc:
        print(f"tractfield: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main(sys.argv[1:]))
