"""Command-line behaviour: artifacts, manifests, exit codes, reproducibility."""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tractfield
from tractfield import (
    Mask,
    PhantomSpec,
    completion_rate,
    fit_bundle_field,
    inside_many,
    load_centerline,
    load_descriptor,
    load_field,
    load_mask,
    load_peaks,
    load_tract,
    save_phantom_spec,
    save_volume,
)
from tractfield import cli
from tractfield.cli import main
from tractfield.grids import _load_lines, _save_lines
from tractfield.metrics import hausdorff, spatial_overlap, voxelize
from tractfield.phantom import KINDS, _VOXEL_BUDGET
from tractfield.polyfield import bundle_ridge

TRACK_FLAGS = ["--seed-count", "1", "--rng-seed", "0"]
DATA_ARTIFACTS = [
    "mask.rvf",
    "peaks.rvf",
    "axis.tract",
    "descriptor.txt",
    "endpoints.txt",
    "centerline.tract",
    "prior.rvf",
    "field.txt",
    "streamlines.tract",
    "baseline.tract",
    "metrics.txt",
]
STAGE_NAMES = ["phantom", "centerline", "prior", "fit", "track", "baseline", "metrics"]
# Every subcommand's flags as (type, default, required).
TRACK_SURFACE = {
    "--step": (float, 0.3, False),
    "--max-steps": (int, 2000, False),
    "--min-len": (float, None, False),
}
NOISE_SURFACE = {
    "--sigma": (float, 0.1, False),
    "--seed-count": (int, 10, False),
    "--rng-seed": (int, 0, False),
}
CLI_SURFACE = {
    "phantom": {
        "--spec": (None, None, True),
        "--out": (None, None, True),
        "--rng-seed": (int, 0, False),
    },
    "centerline": {
        "--mask": (None, None, True),
        "--endpoints": (None, None, True),
        "--delta": (float, 0.5, False),
        "--out": (None, None, True),
    },
    "prior": {
        "--peaks": (None, None, True),
        "--centerline": (None, None, True),
        "--mask": (None, None, True),
        "--cutoff": (float, 0.05, False),
        "--out": (None, None, True),
    },
    "fit": {
        "--prior": (None, None, True),
        "--mask": (None, None, True),
        "--order": (int, 4, False),
        "--ridge": (float, None, False),
        "--out": (None, None, True),
    },
    "track": {
        "--field": (None, None, True),
        "--mask": (None, None, True),
        **TRACK_SURFACE,
        **NOISE_SURFACE,
        "--out": (None, None, True),
    },
    "baseline": {
        "--peaks": (None, None, True),
        "--mask": (None, None, True),
        **TRACK_SURFACE,
        "--angle-max": (float, 40.0, False),
        "--cutoff": (float, 0.05, False),
        "--out": (None, None, True),
    },
    "metrics": {
        "--tract": (None, None, True),
        "--ref-tract": (None, None, True),
        "--grid": (None, None, True),
        "--ref-mask": (None, None, False),
        "--out": (None, None, True),
    },
    "pipeline": {
        "--spec": (None, None, True),
        "--out": (None, None, True),
        "--order": (int, 4, False),
        "--ridge": (float, None, False),
        "--cutoff": (float, 0.05, False),
        "--delta": (float, 0.5, False),
        "--angle-max": (float, 40.0, False),
        **TRACK_SURFACE,
        **NOISE_SURFACE,
    },
}
RECORD_RE = re.compile(
    r"^overlap=(\d+\.\d{4}) hd=(\d+\.\d{4}) ahd=(\d+\.\d{4})$"
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def manifest_text(run_dir, name):
    """A stage manifest with the run directory replaced by a placeholder."""
    text = (run_dir / f"manifest-{name}.json").read_text()
    return text.replace(str(run_dir), "<run>")


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "tube.spec"
    spec = PhantomSpec(
        kind="straight-tube", radius=3.0, length=12.0, noise_deg=5.0,
        distractor_amp=0.3,
    )
    save_phantom_spec(spec, path)
    return str(path)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("pipeline")
    code = main(["pipeline", "--spec", spec_file, "--out", str(out)] + TRACK_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def stages_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("stages")
    o = str(out)
    cmds = [
        ["phantom", "--spec", spec_file, "--out", o, "--rng-seed", "0"],
        ["centerline", "--mask", f"{o}/mask.rvf",
         "--endpoints", f"{o}/endpoints.txt", "--out", o],
        ["prior", "--peaks", f"{o}/peaks.rvf",
         "--centerline", f"{o}/centerline.tract", "--mask", f"{o}/mask.rvf",
         "--out", o],
        ["fit", "--prior", f"{o}/prior.rvf", "--mask", f"{o}/mask.rvf", "--out", o],
        ["track", "--field", f"{o}/field.txt", "--mask", f"{o}/mask.rvf",
         "--out", o] + TRACK_FLAGS,
        ["baseline", "--peaks", f"{o}/peaks.rvf", "--mask", f"{o}/mask.rvf",
         "--out", o],
        ["metrics", "--tract", f"{o}/streamlines.tract",
         "--ref-tract", f"{o}/axis.tract", "--grid", f"{o}/mask.rvf",
         "--ref-mask", f"{o}/mask.rvf", "--out", o],
    ]
    for cmd in cmds:
        assert main(cmd) == 0, cmd[0]
    return out


class TestParser:
    def test_flags_and_defaults_are_pinned(self):
        parser = cli._build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        surface = {
            name: {
                a.option_strings[0]: (a.type, a.default, a.required)
                for a in p._actions
                if a.dest != "help"
            }
            for name, p in sub.choices.items()
        }
        assert surface == CLI_SURFACE

    def test_cached_parser_is_reentrant(self, tmp_path, stages_dir, capsys, monkeypatch):
        # Every call in one process parses with the same cached parser.  Each
        # must give the exit code, output and files of the same call on a
        # parser built for it alone, so no value of an earlier call, such as
        # --ref-mask, reaches a later one.
        assert cli._build_parser() is cli._build_parser()
        s = str(stages_dir)
        metrics = ["metrics", "--tract", f"{s}/streamlines.tract",
                   "--ref-tract", f"{s}/axis.tract", "--grid", f"{s}/mask.rvf"]
        calls = [
            ["metrics", "--tract", f"{s}/streamlines.tract"],
            metrics + ["--ref-mask", f"{s}/mask.rvf"],
            metrics,
            ["track", "--field", f"{s}/field.txt", "--mask", f"{s}/mask.rvf"] + TRACK_FLAGS,
        ]

        def run_calls():
            results = []
            for i, argv in enumerate(calls):
                out = tmp_path / str(i)
                code = main(argv + ["--out", str(out)])
                files = {path.name: path.read_bytes() for path in sorted(out.glob("*"))}
                results.append((code, capsys.readouterr(), files))
                shutil.rmtree(out, ignore_errors=True)
            return results

        cached = run_calls()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = run_calls()
        assert cached == fresh
        assert [code for code, _, _ in cached] == [1, 0, 0, 0]
        assert not cached[0][2]
        assert b"vs reference mask" in cached[1][2]["metrics.txt"]
        assert b"vs voxelized reference tract" in cached[2][2]["metrics.txt"]
        manifest = json.loads(cached[2][2]["manifest-metrics.json"])
        assert manifest["inputs"]["ref_mask"] is None


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["bogus"]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["fit", "--bogus"]) == 1

    def test_version_prints_and_succeeds(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == tractfield.__version__

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "centerline", "--mask", str(tmp_path / "nope.rvf"),
            "--endpoints", str(tmp_path / "nope.txt"), "--out", str(tmp_path),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("tractfield:")

    def test_malformed_spec_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        for text, key in [
            ("kind: moebius-strip", "kind"), ("radius: nan", "radius"),
            ("noise_deg: nan", "noise_deg"), ("distractor_band: 0.5", "distractor_band"),
            ("margin: -5", "margin"), ("distractor_band: 0.6 0.4", "distractor_band"),
            # adjacent turns touch: pitch - 2 * radius is 0
            ("kind: helix\nradius: 4\npitch: 8\nturns: 2", "pitch"),
            # unknown keys, as are margin and distractor_band above
            ("kind: straight-tube\nlength: 10\ndims: 20 10 10", "dims"),
            ("origin: 0 0 0", "origin"), ("distractor_count: 2", "distractor_count"),
            ("kind: fanning\nfan_rate: -0.04", "fan_rate"), ("fan_rate: 0", "fan_rate"),
        ]:
            bad.write_text(f"{text}\n")
            assert main(["phantom", "--spec", str(bad), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert str(bad) in err and key in err, text

    def test_grid_over_the_voxel_budget_is_data_error(self, tmp_path, capsys):
        # Never allocated: each grid would take tens of GB.
        huge = tmp_path / "huge.spec"
        for text, dims in [("length: 1e7", "10000005 x 11 x 11"), ("spacing: 0.001", " x ")]:
            huge.write_text(f"{text}\n")
            assert main(["phantom", "--spec", str(huge), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert str(huge) in err and dims in err and str(_VOXEL_BUDGET) in err, text
        assert not (tmp_path / "mask.rvf").exists()

    def test_malformed_endpoints_is_data_error(self, tmp_path, stages_dir, capsys):
        bad = tmp_path / "endpoints.txt"
        for text in [
            "p1 is somewhere\n",
            "p1: a b c\np2: 1 0 0\n",
            "p1: 0 0\np2: 1 0 0\n",
        ]:
            bad.write_text(text)
            code = main([
                "centerline", "--mask", f"{stages_dir}/mask.rvf",
                "--endpoints", str(bad), "--out", str(tmp_path),
            ])
            assert code == 2, text
            assert str(bad) in capsys.readouterr().err

    def test_corrupt_tract_is_data_error(self, tmp_path, stages_dir, capsys):
        bad = tmp_path / "streamlines.tract"
        bad.write_bytes((stages_dir / "streamlines.tract").read_bytes()[:-1])
        code = main([
            "metrics", "--tract", str(bad), "--ref-tract", f"{stages_dir}/axis.tract",
            "--grid", f"{stages_dir}/mask.rvf", "--out", str(tmp_path),
        ])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_mask_voxel_of_2_is_data_error(self, tmp_path, stages_dir, capsys):
        bad = tmp_path / "mask.rvf"
        bad.write_bytes((stages_dir / "mask.rvf").read_bytes()[:-1] + b"\x02")
        code = main([
            "centerline", "--mask", str(bad), "--endpoints", f"{stages_dir}/endpoints.txt",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{bad}: mask values must be 0 or 1" in capsys.readouterr().err

    def test_empty_centerline_is_data_error(self, tmp_path, stages_dir, capsys):
        bad = tmp_path / "centerline.tract"
        bad.write_bytes(b"step: 0.5\nlines: 1\npoints: 0\ndtype: f64\nencoding: raw\n\n"
                        + bytes(8))
        code = main([
            "prior", "--peaks", f"{stages_dir}/peaks.rvf", "--centerline", str(bad),
            "--mask", f"{stages_dir}/mask.rvf", "--out", str(tmp_path),
        ])
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_centerline_needs_endpoints(self, tmp_path, stages_dir, capsys):
        code = main([
            "centerline", "--mask", f"{stages_dir}/mask.rvf", "--out", str(tmp_path)
        ])
        assert code == 1
        assert "the following arguments are required: --endpoints" in capsys.readouterr().err

    def test_bad_track_step_is_parameter_error(self, tmp_path, stages_dir, capsys):
        track = ["track", "--field", f"{stages_dir}/field.txt"]
        baseline = ["baseline", "--peaks", f"{stages_dir}/peaks.rvf"]
        prior = ["prior", "--peaks", f"{stages_dir}/peaks.rvf",
                 "--centerline", f"{stages_dir}/centerline.tract"]
        centerline = ["centerline", "--endpoints", f"{stages_dir}/endpoints.txt"]
        fit = ["fit", "--prior", f"{stages_dir}/prior.rvf"]
        for stage, flag, value in [
            (track, "--step", "0"),
            (track, "--step", "nan"),
            (track, "--step", "inf"),
            (baseline, "--step", "inf"),
            (fit, "--ridge", "nan"),
            (fit, "--ridge", "inf"),
            (track, "--sigma", "nan"),
            (track, "--sigma", "inf"),
            (baseline, "--min-len", "inf"),
            (baseline, "--min-len", "nan"),
            (prior, "--cutoff", "nan"),
            (prior, "--cutoff", "inf"),
            (baseline, "--cutoff", "nan"),
            (baseline, "--angle-max", "nan"),
            (baseline, "--angle-max", "-10"),
            (baseline, "--angle-max", "400"),
            (centerline, "--delta", "0"),
            (centerline, "--delta", "-1"),
            (centerline, "--delta", "nan"),
            (centerline, "--delta", "inf"),
        ]:
            code = main(stage + [
                "--mask", f"{stages_dir}/mask.rvf", flag, value,
                "--out", str(tmp_path),
            ])
            assert code == 1, (stage[0], flag, value)
            assert "invalid parameter" in capsys.readouterr().err

    def test_cutoff_above_every_peak_names_the_cutoff(self, tmp_path, stages_dir, capsys):
        # No seed can start, which is a data error, and no line was dropped
        # as short.
        code = main(["baseline", "--peaks", f"{stages_dir}/peaks.rvf",
                     "--mask", f"{stages_dir}/mask.rvf", "--cutoff", "2",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no seed's voxel has a peak at or above min_amp (--cutoff) 2.0" in err
        assert "min_len" not in err
        assert not (tmp_path / "baseline.tract").exists()

    def test_overflowing_centerline_is_format_error(self, tmp_path, stages_dir, capsys):
        # Finite points at opposite ends of the float range: their difference
        # overflows, and the tangents built from it are not finite.
        bad = tmp_path / "bad.tract"
        _save_lines(bad, 0.5, [[0.0, 0.0, 0.0], [0.0, 0.0, 1e308], [0.0, 0.0, -1e308]], [3])
        code = main(["prior", "--peaks", f"{stages_dir}/peaks.rvf", "--centerline", str(bad),
                     "--mask", f"{stages_dir}/mask.rvf", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tractfield: {bad}: tangents must be finite")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("delta", ["5e-324", "1e-300"])
    def test_tiny_delta_is_parameter_error(self, tmp_path, stages_dir, capsys, delta):
        # 5e-324 once overflowed in the point count and 1e-300 failed inside
        # numpy; both are refused before any allocation.
        code = main([
            "centerline", "--mask", f"{stages_dir}/mask.rvf",
            "--endpoints", f"{stages_dir}/endpoints.txt", "--delta", delta,
            "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"invalid parameter: delta {float(delta)!r}" in err
        assert "budget" in err
        assert not (tmp_path / "centerline.tract").exists()

    def test_mismatched_grids_is_data_error(self, tmp_path, stages_dir, capsys):
        small = tmp_path / "small.rvf"
        save_volume(Mask((2, 2, 2), (1, 1, 1), (0, 0, 0), np.ones((2, 2, 2), np.uint8)),
                    small)
        peaks, mask = f"{stages_dir}/peaks.rvf", f"{stages_dir}/mask.rvf"
        prior = f"{stages_dir}/prior.rvf"
        metrics = ["metrics", "--tract", f"{stages_dir}/streamlines.tract",
                   "--ref-tract", f"{stages_dir}/axis.tract", "--grid", mask]
        for argv, message, paths in [
            (["prior", "--peaks", peaks, "--centerline", f"{stages_dir}/centerline.tract",
              "--mask", str(small)], "does not match", [peaks, str(small)]),
            (["fit", "--prior", prior, "--mask", str(small)], "does not match",
             [prior, str(small)]),
            (["baseline", "--peaks", peaks, "--mask", str(small)], "does not match",
             [peaks, str(small)]),
            (metrics + ["--ref-mask", str(small)], "different grids", [mask, str(small)]),
            # the phantom's peaks hold a distractor slot, a prior file one peak
            (["fit", "--prior", peaks, "--mask", mask], "one peak per voxel", [peaks]),
        ]:
            code = main(argv + ["--out", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 2, argv[0]
            assert message in err, argv[0]
            for path in paths:
                assert path in err, (argv[0], path)

    @pytest.mark.parametrize("error, code, named", [
        (tractfield.DomainError, 2, True),
        (tractfield.ConditioningError, 3, True),
        (FloatingPointError, 3, True),
        (np.linalg.LinAlgError, 3, True),
        (tractfield.FormatError, 2, False),
        (ValueError, 1, False),
        (OSError, 2, False),
    ])
    def test_error_class_decides_exit_code(self, tmp_path, stages_dir, capsys, monkeypatch,
                                           error, code, named):
        # A data error other than a format error, and every numerical
        # failure, names the stage's inputs; a FormatError or OSError names
        # its file itself.
        def fail(*args):
            raise error("the stage failed")

        monkeypatch.setattr(cli, "fit_bundle_field", fail)
        prior, mask = f"{stages_dir}/prior.rvf", f"{stages_dir}/mask.rvf"
        assert main(["fit", "--prior", prior, "--mask", mask, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("numerical failure" in err) == (code == 3)
        inputs = f" (inputs: --prior {prior}, --mask {mask})" if named else ""
        assert err.endswith(f"the stage failed{inputs}\n")

    def test_underdetermined_fit_is_numerical_error(self, tmp_path, capsys):
        spec = PhantomSpec(kind="straight-tube", radius=1.0, length=4.0)
        spath = tmp_path / "tiny.spec"
        save_phantom_spec(spec, spath)
        code = main([
            "pipeline", "--spec", str(spath), "--out", str(tmp_path / "run"),
        ] + TRACK_FLAGS)
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.oldest_numpy
    @pytest.mark.parametrize("key, value, message", [
        ("coeffs.x", "1e308", "field vectors overflow"),
        ("offset", "1e308", "field vectors are not finite at the seeds"),
        ("offset", "-1e308", "field vectors are not finite at the seeds"),
        ("scale", "5e-324", "field vectors are not finite at the seeds"),
    ])
    def test_overflowing_field_is_numerical_error(self, tmp_path, stages_dir, capsys, key,
                                                  value, message):
        # The first value of one field line replaced.  A coefficient of 1e308
        # keeps the field's values finite, but their squared norms overflow,
        # which read as zero slopes and let the run finish.  An extreme
        # offset or scale overflows the seeds' monomials, and the run once
        # exited 2 with "every streamline was shorter than min_len" after
        # numpy's invalid-value warnings.
        field = tmp_path / "field.txt"
        lines = (stages_dir / "field.txt").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{key}:"))
        values = lines[row].split()
        values[1] = value
        lines[row] = " ".join(values)
        field.write_text("\n".join(lines) + "\n")
        code = main(["track", "--field", str(field), "--mask", f"{stages_dir}/mask.rvf",
                     "--out", str(tmp_path / "run")] + TRACK_FLAGS)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"tractfield: numerical failure: {message}")
        assert err.count("\n") == 1 and f"--field {field}" in err
        assert not (tmp_path / "run" / "streamlines.tract").exists()

    # In the six tests below a finite number read from a file overflowed
    # later, in arithmetic numpy warns about; tier-1 turns any such warning
    # into an error, so each case also shows that none is left.
    @pytest.mark.oldest_numpy
    def test_overflowing_hausdorff_is_numerical_error(self, tmp_path, stages_dir, capsys):
        # The reference axis moved 1e200 mm along x: every squared distance
        # overflows, and hd and ahd once read inf at exit 0.
        far = tmp_path / "far.tract"
        step, points, counts = _load_lines(stages_dir / "axis.tract")
        _save_lines(far, step, points + [1e200, 0.0, 0.0], counts)
        code = main(["metrics", "--tract", f"{stages_dir}/streamlines.tract",
                     "--ref-tract", str(far), "--grid", f"{stages_dir}/mask.rvf",
                     "--ref-mask", f"{stages_dir}/mask.rvf", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("tractfield: numerical failure: hausdorff distances overflow")
        assert err.count("\n") == 1 and str(far) in err
        assert not (tmp_path / "run" / "metrics.txt").exists()

    @pytest.mark.oldest_numpy
    @pytest.mark.parametrize("artifact", ["endpoints.txt", "mask.rvf"])
    def test_endpoint_far_off_the_grid_is_data_error(self, tmp_path, stages_dir, capsys,
                                                     artifact):
        # p1's x at 1e308: the voxel index is past the int64 range.  A mask
        # origin's x at 1e308 collapses the voxel centres, so the mask fails
        # to load.
        bad = tmp_path / artifact
        raw = (stages_dir / artifact).read_bytes()
        key = b"p1: " if artifact == "endpoints.txt" else b"origin: "
        start = raw.index(key) + len(key)
        bad.write_bytes(raw[:start] + b"1e308" + raw[raw.index(b" ", start):])
        files = {name: str(bad if name == artifact else stages_dir / name)
                 for name in ("endpoints.txt", "mask.rvf")}
        code = main(["centerline", "--mask", files["mask.rvf"],
                     "--endpoints", files["endpoints.txt"], "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        if artifact == "endpoints.txt":
            assert err.startswith("tractfield: p1 at (")
            assert "is not inside the mask foreground" in err
        else:
            assert err.startswith(f"tractfield: {bad}: the voxel centres along x cannot be "
                                  "represented")
        assert err.count("\n") == 1 and str(bad) in err

    @pytest.mark.oldest_numpy
    def test_far_tract_is_numerical_error(self, tmp_path, stages_dir, capsys):
        # The whole tract moved 1e200 mm along x: it passes the gap check,
        # but its voxel indices are past the int64 range, where voxelize once
        # warned about the cast.
        far = tmp_path / "far.tract"
        step, points, counts = _load_lines(stages_dir / "streamlines.tract")
        _save_lines(far, step, points + [1e200, 0.0, 0.0], counts)
        code = main(["metrics", "--tract", str(far), "--ref-tract", f"{stages_dir}/axis.tract",
                     "--grid", f"{stages_dir}/mask.rvf", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("tractfield: numerical failure: hausdorff distances overflow")
        assert err.count("\n") == 1 and str(far) in err
        assert not (tmp_path / "run" / "metrics.txt").exists()

    @pytest.mark.oldest_numpy
    @pytest.mark.parametrize("key, value, stage", [
        ("spacing", "5e-324", "metrics"),
        ("spacing", "1e308", "track"),
        ("spacing", "1e308", "baseline"),
        ("origin", "1e308", "track"),
        ("origin", "-1e308", "metrics"),
    ])
    def test_unrepresentable_voxel_centres_are_format_error(self, tmp_path, stages_dir,
                                                            capsys, key, value, stage):
        # The mask's first spacing or origin value replaced: half a spacing
        # underflows, or the centres overflow or collapse to one value.
        # metrics once wrote overlap 0 at exit 0, and track and baseline
        # warned about the overflow before they exited.
        bad = tmp_path / "mask.rvf"
        raw = (stages_dir / "mask.rvf").read_bytes()
        start = raw.index(f"{key}: ".encode()) + len(key) + 2
        bad.write_bytes(raw[:start] + value.encode() + raw[raw.index(b" ", start):])
        o = stages_dir
        inputs = {
            "metrics": ["--tract", f"{o}/streamlines.tract", "--ref-tract", f"{o}/axis.tract",
                        "--grid", str(bad)],
            "track": ["--field", f"{o}/field.txt", "--mask", str(bad)] + TRACK_FLAGS,
            "baseline": ["--peaks", f"{o}/peaks.rvf", "--mask", str(bad)],
        }
        code = main([stage, *inputs[stage], "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"tractfield: {bad}: the voxel centres along x cannot be "
                              "represented (dims ")
        assert err.count("\n") == 1
        assert not any((tmp_path / "run").iterdir())

    @pytest.mark.oldest_numpy
    def test_far_tract_point_is_format_error(self, tmp_path, stages_dir, capsys):
        # One point's x at 1e308: the gap to its neighbours overflows.
        far = tmp_path / "far.tract"
        step, points, counts = _load_lines(stages_dir / "streamlines.tract")
        points = points.copy()
        points[0, 0] = 1e308
        _save_lines(far, step, points, counts)
        code = main(["metrics", "--tract", str(far), "--ref-tract", f"{stages_dir}/axis.tract",
                     "--grid", f"{stages_dir}/mask.rvf", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"tractfield: {far}: consecutive streamline points exceed twice "
                       "the step length\n")

    @pytest.mark.oldest_numpy
    def test_centerline_point_off_the_grid_is_data_error(self, tmp_path, stages_dir, capsys):
        # Point 10's x at -1e308: the prior was once written at exit 0.
        far = tmp_path / "far.tract"
        step, points, counts = _load_lines(stages_dir / "centerline.tract")
        points = points.copy()
        points[10, 0] = -1e308
        _save_lines(far, step, points, counts)
        code = main(["prior", "--peaks", f"{stages_dir}/peaks.rvf", "--centerline", str(far),
                     "--mask", f"{stages_dir}/mask.rvf", "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("tractfield: centerline point 10 at (-1e+308, ")
        assert "lies off the mask's grid" in err
        assert err.count("\n") == 1 and str(far) in err
        assert not (tmp_path / "run" / "prior.rvf").exists()


# Each value that replaces one header number, or None to remove it.
HEADER_VALUES = ("nan", "inf", "1e308", "-1e308", "5e-324", "0", "-1", None)


def payload_values(dtype):
    """The values that replace one payload number of ``dtype``: the header's,
    with float32's own range ends, and for integers their range ends."""
    if dtype == np.float64:
        return (np.nan, np.inf, 1e308, -1e308, 5e-324, 0.0, -1.0, None)
    if dtype == np.float32:
        return (np.nan, np.inf, 3.4e38, -3.4e38, 1e-45, 0.0, -1.0, None)
    info = np.iinfo(dtype)
    return (info.max, info.min, 0, -1, 2, None)


@st.composite
def one_number_changed(draw, raw):
    """``raw``, an artifact's bytes, with one number replaced or removed: a
    number in a ``key: values`` line, or one value of a raw payload."""
    end = raw.find(b"\n\n")
    head = raw if end < 0 else raw[:end]
    lines = head.decode("ascii").split("\n")
    fields = dict(line.split(": ", 1) for line in lines if line)
    slots = [(i, j) for i, line in enumerate(lines)
             if line and not line.startswith(("dtype:", "encoding:"))
             for j in range(1, len(line.split()))]
    segments = []
    if end >= 0:
        size = len(raw) - end - 2
        if "lines" in fields:
            lines_bytes = 8 * int(fields["lines"])
            segments = [(np.dtype("<i8"), 0, int(fields["lines"])),
                        (np.dtype("<f8"), lines_bytes, (size - lines_bytes) // 8)]
        else:
            dtype = np.dtype("u1" if fields["dtype"] == "u8" else "<f4")
            segments = [(dtype, 0, size // dtype.itemsize)]
    if not segments or draw(st.booleans()):
        i, j = draw(st.sampled_from(slots))
        value = draw(st.sampled_from(HEADER_VALUES))
        words = lines[i].split()
        words[j:j + 1] = [] if value is None else [value]
        lines[i] = " ".join(words)
        return "\n".join(lines).encode("ascii") + raw[len(head):]
    dtype, start, count = draw(st.sampled_from([s for s in segments if s[2]]))
    at = len(head) + 2 + start + dtype.itemsize * draw(st.integers(0, count - 1))
    value = draw(st.sampled_from(payload_values(dtype)))
    new = b"" if value is None else np.array(value).astype(dtype).tobytes()
    return raw[:at] + new + raw[at + dtype.itemsize:]


def read_record(path):
    assert RECORD_RE.match(Path(path).read_text().splitlines()[0])


# How to tell that a stage output is finite: its reader rejects a non-finite
# number.
OUTPUT_READERS = {
    "centerline.tract": load_centerline,
    "prior.rvf": load_peaks,
    "field.txt": load_field,
    "streamlines.tract": load_tract,
    "metrics.txt": read_record,
}


@pytest.mark.oldest_numpy
@pytest.mark.parametrize("artifact", [
    "mask.rvf", "endpoints.txt", "peaks.rvf", "centerline.tract", "prior.rvf",
    "field.txt", "streamlines.tract",
])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_changed_number_fails_loudly(stages_dir, artifact, data):
    # The first stage that reads the artifact runs on it with one number
    # changed.  It succeeds with finite outputs, or exits 2 or 3 with one
    # stderr line that names the file; a numpy warning fails the test.
    bad_bytes = data.draw(one_number_changed((stages_dir / artifact).read_bytes()))
    stage = next(stage for stage in cli.STAGES
                 if any(cli._FLAGS[name].file == artifact for name in stage.inputs))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp, "in", artifact)
        bad.parent.mkdir()
        bad.write_bytes(bad_bytes)
        argv = [stage.name, "--out", str(Path(tmp, "out"))]
        for name in stage.inputs:
            file = cli._FLAGS[name].file
            argv += [name, str(bad if file == artifact else stages_dir / file)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + (TRACK_FLAGS if stage.name == "track" else []))
        if code:
            assert code in (2, 3), err.getvalue()
            assert err.getvalue().count("\n") == 1 and str(bad) in err.getvalue()
            return
        for file in stage.outputs.values():
            OUTPUT_READERS[file](Path(tmp, "out", file))
        manifest = Path(tmp, "out", f"manifest-{stage.name}.json").read_text()
        json.loads(manifest, parse_constant=lambda name: pytest.fail(f"{name} in manifest"))


class TestPhantomCommand:
    def test_writes_artifacts_and_manifest(self, tmp_path, spec_file):
        out = tmp_path / "ph"
        assert main([
            "phantom", "--spec", spec_file, "--out", str(out), "--rng-seed", "3"
        ]) == 0
        for name in ["mask.rvf", "peaks.rvf", "axis.tract", "descriptor.txt",
                     "endpoints.txt", "manifest-phantom.json"]:
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest-phantom.json").read_text())
        assert manifest["subcommand"] == "phantom"
        assert manifest["version"] == tractfield.__version__
        assert manifest["parameters"] == {"rng_seed": 3}
        assert manifest["inputs"] == {"spec": spec_file}
        assert sorted(manifest["outputs"]) == [
            "axis", "descriptor", "endpoints", "mask", "peaks",
        ]

    def test_endpoint_file_format(self, tmp_path, spec_file):
        out = tmp_path / "ph"
        main(["phantom", "--spec", spec_file, "--out", str(out)])
        lines = (out / "endpoints.txt").read_text().splitlines()
        assert len(lines) == 2
        assert re.match(r"^p1: \S+ \S+ \S+$", lines[0])
        assert re.match(r"^p2: \S+ \S+ \S+$", lines[1])

    def test_same_seed_reproduces_bytes(self, tmp_path, spec_file):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["phantom", "--spec", spec_file, "--out", str(a), "--rng-seed", "7"])
        main(["phantom", "--spec", spec_file, "--out", str(b), "--rng-seed", "7"])
        for name in ["mask.rvf", "peaks.rvf", "axis.tract"]:
            assert read_bytes(a / name) == read_bytes(b / name), name

    def test_different_seed_changes_peaks(self, tmp_path, spec_file):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["phantom", "--spec", spec_file, "--out", str(a), "--rng-seed", "7"])
        main(["phantom", "--spec", spec_file, "--out", str(b), "--rng-seed", "8"])
        assert read_bytes(a / "peaks.rvf") != read_bytes(b / "peaks.rvf")

    @pytest.mark.parametrize("kind", KINDS)
    def test_axis_completes_under_its_descriptor(self, tmp_path, kind):
        spec = tmp_path / "tube.spec"
        save_phantom_spec(PhantomSpec(kind=kind, radius=2.0), spec)
        out = tmp_path / "ph"
        assert main(["phantom", "--spec", str(spec), "--out", str(out)]) == 0
        axis = load_tract(out / "axis.tract")
        assert completion_rate(axis, load_descriptor(out / "descriptor.txt")) == 1.0
        # descriptor.txt is the spec the phantom was generated from
        assert (out / "descriptor.txt").read_bytes() == spec.read_bytes()


class TestStageArtifacts:
    def test_centerline_inside_mask(self, stages_dir):
        mask = load_mask(f"{stages_dir}/mask.rvf")
        cl = load_centerline(f"{stages_dir}/centerline.tract")
        assert inside_many(mask, cl.points).all()

    def test_prior_has_single_binary_slot(self, stages_dir):
        prior = load_peaks(f"{stages_dir}/prior.rvf")
        assert prior.peaks_per_voxel == 1
        assert set(np.unique(prior.amplitudes)) <= {0.0, 1.0}

    def test_fit_manifest_records_resolved_ridge(self, stages_dir):
        manifest = json.loads((stages_dir / "manifest-fit.json").read_text())
        prior = load_peaks(f"{stages_dir}/prior.rvf")
        mask = load_mask(f"{stages_dir}/mask.rvf")
        usable = int(
            ((prior.amplitudes[..., 0] > 0) & mask.foreground).sum()
        )
        assert manifest["parameters"]["order"] == 4
        assert manifest["parameters"]["ridge"] == pytest.approx(1e-8 * usable)

    def test_fit_uses_the_ridge_it_records(self, tmp_path, stages_dir, monkeypatch):
        used = []

        def fit(prior, mask, order, ridge):
            used.append(ridge)
            return fit_bundle_field(prior, mask, order, ridge)

        monkeypatch.setattr(cli, "fit_bundle_field", fit)
        assert main([
            "fit", "--prior", f"{stages_dir}/prior.rvf",
            "--mask", f"{stages_dir}/mask.rvf", "--out", str(tmp_path),
        ]) == 0
        manifest = json.loads((tmp_path / "manifest-fit.json").read_text())
        assert used == [manifest["parameters"]["ridge"]]
        assert (tmp_path / "field.txt").read_bytes() == (stages_dir / "field.txt").read_bytes()

    def test_explicit_zero_ridge_recorded(self, tmp_path, stages_dir):
        out = tmp_path / "fit0"
        assert main([
            "fit", "--prior", f"{stages_dir}/prior.rvf",
            "--mask", f"{stages_dir}/mask.rvf", "--ridge", "0",
            "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest-fit.json").read_text())
        assert manifest["parameters"]["ridge"] == 0.0

    def test_fitted_field_loads_at_order_four(self, stages_dir):
        field = load_field(f"{stages_dir}/field.txt")
        assert field.order == 4

    def test_tract_points_inside_mask(self, stages_dir):
        mask = load_mask(f"{stages_dir}/mask.rvf")
        tract = load_tract(f"{stages_dir}/streamlines.tract")
        assert tract.step == 0.3
        assert len(tract.streamlines) > 0
        assert inside_many(mask, tract.points).all()

    def test_baseline_tract_nonempty(self, stages_dir):
        tract = load_tract(f"{stages_dir}/baseline.tract")
        assert len(tract.streamlines) > 0

    def test_metrics_record_format(self, stages_dir):
        first = (stages_dir / "metrics.txt").read_text().splitlines()[0]
        assert RECORD_RE.match(first)

    def test_metrics_manifest_matches_record(self, stages_dir):
        first = (stages_dir / "metrics.txt").read_text().splitlines()[0]
        overlap, hd, ahd = (float(v) for v in RECORD_RE.match(first).groups())
        manifest = json.loads((stages_dir / "manifest-metrics.json").read_text())
        assert manifest["parameters"]["overlap"] == pytest.approx(overlap, abs=5e-5)
        assert manifest["parameters"]["hd"] == pytest.approx(hd, abs=5e-5)
        assert manifest["parameters"]["ahd"] == pytest.approx(ahd, abs=5e-5)

    def test_every_stage_writes_a_manifest(self, stages_dir):
        for name in STAGE_NAMES:
            path = stages_dir / f"manifest-{name}.json"
            assert path.exists(), name
            manifest = json.loads(path.read_text())
            assert manifest["subcommand"] == name
            assert set(manifest) == {
                "subcommand", "version", "parameters", "inputs", "outputs",
            }


class TestStageTable:
    def test_manifests_follow_the_table(self, stages_dir):
        for stage in cli.STAGES:
            manifest = json.loads((stages_dir / f"manifest-{stage.name}.json").read_text())
            assert set(manifest["inputs"]) == {cli._FLAGS[n].dest for n in stage.inputs}
            assert {cli._FLAGS[n].dest for n in stage.params} <= set(manifest["parameters"])
            assert manifest["outputs"] == {
                key: os.path.join(stages_dir, name) for key, name in stage.outputs.items()
            }, stage.name
            for path in manifest["outputs"].values():
                assert os.path.isfile(path), path

    def test_manifest_parameters_are_pinned(self, stages_dir):
        # Every stage's full parameters, compared as JSON text so that an int
        # turning into a float, or a float's last digit, shows too.
        s = stages_dir
        p1, p2 = cli._load_endpoints(s / "endpoints.txt")
        mask = load_mask(s / "mask.rvf")
        tract = load_tract(s / "streamlines.tract")
        hd, ahd = hausdorff(tract, load_tract(s / "axis.tract"))
        tracking = {"step": 0.3, "max_steps": 2000, "min_len": 3 * 0.3,
                    "seeding": "all foreground voxel centers"}
        expected = {
            "phantom": {"rng_seed": 0},
            "centerline": {"p1": p1.tolist(), "p2": p2.tolist(), "delta": 0.5},
            "prior": {"cutoff": 0.05},
            "fit": {"order": 4, "ridge": bundle_ridge(load_peaks(s / "prior.rvf"), mask)},
            "track": dict(tracking, sigma=0.1, seed_count=1, rng_seed=0),
            "baseline": dict(tracking, angle_max=40.0, cutoff=0.05),
            "metrics": {"overlap": spatial_overlap(voxelize(tract, mask), mask),
                        "hd": hd, "ahd": ahd},
        }
        for name, parameters in expected.items():
            manifest = json.loads((s / f"manifest-{name}.json").read_text())
            assert json.dumps(manifest["parameters"], sort_keys=True) == json.dumps(
                parameters, sort_keys=True), name

    def test_every_run_file_is_written_by_an_earlier_stage(self):
        written = set()
        for stage in cli.STAGES:
            for name in stage.inputs:
                file = cli._FLAGS[name].file
                assert file is None or file in written, (stage.name, name)
            written.update(stage.outputs.values())


class TestPipelineCommand:
    def test_writes_all_artifacts(self, pipeline_dir):
        for name in DATA_ARTIFACTS:
            assert (pipeline_dir / name).exists(), name
        for name in STAGE_NAMES:
            assert (pipeline_dir / f"manifest-{name}.json").exists(), name

    def test_matches_stagewise_run_byte_for_byte(self, pipeline_dir, stages_dir):
        for name in DATA_ARTIFACTS:
            assert read_bytes(pipeline_dir / name) == read_bytes(
                stages_dir / name
            ), name
        for name in STAGE_NAMES:
            assert manifest_text(pipeline_dir, name) == manifest_text(
                stages_dir, name
            ), name

    def test_rerun_is_byte_identical(self, tmp_path, spec_file, pipeline_dir):
        out = tmp_path / "again"
        assert main([
            "pipeline", "--spec", spec_file, "--out", str(out)
        ] + TRACK_FLAGS) == 0
        for name in DATA_ARTIFACTS:
            assert read_bytes(out / name) == read_bytes(pipeline_dir / name), name

    def test_metrics_prints_record(self, tmp_path, pipeline_dir, capsys):
        assert main([
            "metrics", "--tract", f"{pipeline_dir}/streamlines.tract",
            "--ref-tract", f"{pipeline_dir}/axis.tract",
            "--grid", f"{pipeline_dir}/mask.rvf",
            "--ref-mask", f"{pipeline_dir}/mask.rvf", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert RECORD_RE.match(out.splitlines()[0])

    def test_self_comparison_is_perfect(self, tmp_path, pipeline_dir, capsys):
        assert main([
            "metrics", "--tract", f"{pipeline_dir}/axis.tract",
            "--ref-tract", f"{pipeline_dir}/axis.tract",
            "--grid", f"{pipeline_dir}/mask.rvf", "--out", str(tmp_path),
        ]) == 0
        record = capsys.readouterr().out.splitlines()[0]
        assert record == "overlap=100.0000 hd=0.0000 ahd=0.0000"


# A fresh interpreter runs argv (a JSON list; empty means import only) and
# prints which scipy modules it loaded.  The test process cannot check this
# itself: conftest.py imports scipy.linalg.
COLD_START = """
import json, sys
import tractfield, tractfield.cli
argv = json.loads(sys.argv[1])
code = tractfield.cli.main(argv) if argv else 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


@pytest.fixture(scope="module")
def helix_spec_file(tmp_path_factory):
    # the README's quick-start spec
    path = tmp_path_factory.mktemp("spec") / "helix.spec"
    save_phantom_spec(PhantomSpec(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                                  noise_deg=10.0, distractor_amp=0.8), path)
    return str(path)


@pytest.mark.parametrize("argv, artifact", [
    ([], None),
    (["phantom", "--spec", "{helix}", "--out", "{out}"], None),
    (["centerline", "--mask", "{s}/mask.rvf", "--endpoints", "{s}/endpoints.txt",
      "--out", "{out}"], "centerline.tract"),
    (["prior", "--peaks", "{s}/peaks.rvf", "--centerline", "{s}/centerline.tract",
      "--mask", "{s}/mask.rvf", "--out", "{out}"], "prior.rvf"),
    (["fit", "--prior", "{s}/prior.rvf", "--mask", "{s}/mask.rvf", "--out", "{out}"],
     "field.txt"),
    (["track", "--field", "{s}/field.txt", "--mask", "{s}/mask.rvf", "--out", "{out}"]
     + TRACK_FLAGS, "streamlines.tract"),
    (["baseline", "--peaks", "{s}/peaks.rvf", "--mask", "{s}/mask.rvf", "--out", "{out}"],
     "baseline.tract"),
    # scored against the phantom's axis, which has fewer points than
    # hausdorff's k-d tree threshold
    (["metrics", "--tract", "{s}/streamlines.tract", "--ref-tract", "{s}/axis.tract",
      "--grid", "{s}/mask.rvf", "--ref-mask", "{s}/mask.rvf", "--out", "{out}"],
     "metrics.txt"),
    (["pipeline", "--spec", "{helix}", "--out", "{out}"] + TRACK_FLAGS, None),
], ids=["import", "phantom", "centerline", "prior", "fit", "track", "baseline", "metrics",
        "pipeline"])
def test_stage_starts_without_scipy(tmp_path, stages_dir, helix_spec_file, argv, artifact):
    src = str(Path(tractfield.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    argv = [a.format(s=stages_dir, out=tmp_path, helix=helix_spec_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    if artifact:
        assert read_bytes(tmp_path / artifact) == read_bytes(stages_dir / artifact)
