"""The library names the benchmark uses must exist where it looks them up.

``perfbench/layers.py`` patches ``<owner>.<attr>`` for every traced call,
and the benchmark scripts call ``tractfield`` (imported as ``tf``) and
``tractfield.cli`` by attribute; a refactor that renames, moves or deletes
one of them fails here instead of in a benchmark run, and so does a tracker
that stops calling a traced name through its module.  The benchmark files
are executed or parsed from source, read only.
"""

import ast
import runpy
import sys
from pathlib import Path

import numpy as np

import tractfield
from tractfield import (
    Mask,
    PeaksField,
    PhantomSpec,
    PolyField,
    TrackParams,
    baseline_peak_track,
    cli,
    generate,
    load_phantom_spec,
    load_tract,
    save_phantom_spec,
    save_tract,
    track,
    tracking,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def attributes_read(module_name):
    """Every ``<module_name>.<attr>`` read in the benchmark's scripts."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == module_name):
                names.add(node.attr)
    return names


def test_every_traced_name_exists():
    patches = runpy.run_path(str(LAYERS))["patches"]()
    assert patches
    for owner, attr, name, _ in patches:
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr, name)


def test_trackers_call_the_traced_names(monkeypatch):
    # Every call a tracker makes to a traced name must go through the
    # wrapper.  A tracker that binds one of these names locally bypasses it,
    # and its per-layer metrics would read low or 0 instead of failing.
    traced = {}
    fired = {}
    for owner, attr, name, _ in runpy.run_path(str(LAYERS))["patches"]():
        if owner is tracking:
            func = getattr(owner, attr)
            traced[func.__code__] = name
            fired[name] = 0

            def counting(*args, _func=func, _name=name, **kwargs):
                fired[_name] += 1
                return _func(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
    bypassed = set()

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code in traced
                and frame.f_back.f_globals is tracking.__dict__):
            bypassed.add(traced[frame.f_code])

    tube = generate(PhantomSpec(kind="straight-tube", radius=2.0, length=8.0))
    seeds = tube.mask.foreground_points()[::5]
    sys.setprofile(profile)
    try:
        track(tube.field.to_polyfield(), tube.mask, seeds, TrackParams(seed_count=1))
        baseline_peak_track(tube.peaks, tube.mask, seeds,
                            TrackParams(sigma=0.0, seed_count=1))
    finally:
        sys.setprofile(None)
    assert fired and all(fired.values()), fired
    assert not bypassed


def test_every_module_name_the_benchmark_reads_exists():
    for module, alias in ((tractfield, "tf"), (cli, "cli")):
        names = attributes_read(alias)
        assert names, alias
        missing = sorted(name for name in names if not hasattr(module, name))
        assert not missing, (alias, missing)


def test_methods_the_benchmark_calls_exist():
    for cls, attr in ((PeaksField, "samples"), (PolyField, "divergence_many"),
                      (Mask, "foreground_points")):
        assert callable(cls.__dict__.get(attr)), (cls.__name__, attr)


def test_benchmark_reads_a_mask_through_grid():
    # ``perfbench/harness.py`` checks that every tracked point is inside the
    # mask through ``mask.grid``'s origin, spacing, dims and data; without
    # them every benchmark iteration would fail that check.
    mask = generate(PhantomSpec(kind="straight-tube", radius=2.0, length=8.0)).mask
    grid = mask.grid
    assert (grid.origin, grid.spacing, grid.dims) == (mask.origin, mask.spacing, mask.dims)
    assert grid.data.dtype == mask.data.dtype
    assert grid.data.tobytes() == mask.data.tobytes()


def test_benchmark_reads_a_tract_as_lines(tmp_path):
    # ``perfbench/layers.py`` counts ``len(result.streamlines)`` and their
    # points, the harness stacks ``tract.streamlines`` and falls back to a
    # file only when a product's tract is falsy.
    tube = generate(PhantomSpec(kind="straight-tube", radius=2.0, length=8.0))
    tract = track(tube.field.to_polyfield(), tube.mask, tube.mask.foreground_points()[::5],
                  TrackParams(seed_count=2))
    save_tract(tract, tmp_path / "t.tract")
    for got in (tract, load_tract(tmp_path / "t.tract")):
        assert bool(got)
        assert np.vstack(got.streamlines).tobytes() == got.points.tobytes()
        assert len(got.streamlines) == len(got.counts) > 1


def test_workload_specs_build_and_round_trip(tmp_path, monkeypatch):
    # The harness writes each workload's spec with ``save_phantom_spec`` and
    # ``tractfield phantom`` reads it back, so every key it sets must stay a
    # spec field.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = runpy.run_path(str(PERFBENCH / "harness.py"))["WORKLOADS"]
    assert workloads
    for name, workload in workloads.items():
        spec = PhantomSpec(**workload.spec)
        save_phantom_spec(spec, tmp_path / f"{name}.spec")
        assert load_phantom_spec(tmp_path / f"{name}.spec") == spec, name
