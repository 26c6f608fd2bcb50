"""Synthetic tube phantoms: geometry, peaks, analytic fields, reference paths."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.spatial import cKDTree

from tractfield import (
    DomainError,
    FormatError,
    PhantomSpec,
    analytic_streamline,
    completion_rate,
    generate,
    inside_many,
    load_descriptor,
    load_phantom_spec,
    save_phantom_spec,
)

from tractfield.phantom import KINDS, _GRID_MARGIN, _VOXEL_BUDGET, _grid_layout, _snap_endpoint

from conftest import small_specs, tract_from_lines

AXIS_SAMPLE_STEP = 0.02  # arc spacing of the sampled oracle's axis positions


def sampled_axis_params(desc, points) -> tuple:
    """Oracle projection onto axis samples at about AXIS_SAMPLE_STEP arc spacing.

    Returns the nearest sample's axis parameter and distance per point, and
    the parameter step between samples.
    """
    count = max(2, int(math.ceil(desc.axis_length / AXIS_SAMPLE_STEP)) + 1)
    ts = np.linspace(0.0, desc.span, count)
    dist, idx = cKDTree(desc.axis_point(ts)).query(points)
    return ts[idx], dist, desc.span / (count - 1)


# Each kind's descriptor parameters, as a caller writes them.
PARAMS = {
    "straight-tube": {"length": 17.0},
    "quarter-torus": {"major_radius": 10.0},
    "helix": {"helix_radius": 8.0, "pitch": 8.0, "turns": 1.0},
    "fanning": {"length": 20.0, "fan_rate": 0.04},
}


def closed_form_flow(kind, params, pts):
    """Each kind's flow field, written out per coordinate."""
    x, y, z = pts.T
    one, zero = np.ones_like(x), np.zeros_like(x)
    if kind == "straight-tube":
        return np.stack([one, zero, zero], axis=1)
    if kind == "fanning":
        rate = params["fan_rate"]
        return np.stack([one, rate * y, -rate * z], axis=1)
    if kind == "quarter-torus":
        return np.stack([-y, x, zero], axis=1) / params["major_radius"]
    rise = params["pitch"] / (2 * np.pi)
    speed = np.hypot(params["helix_radius"], rise)
    return np.stack([-y, x, rise * one], axis=1) / speed


# Finite, positive parameters whose derived affine field is not finite.
OVERFLOWING_PARAMS = [
    ("quarter-torus", {"major_radius": 5e-324}),
    ("helix", {"helix_radius": 1e-320, "pitch": 1e-320, "turns": 1.0}),
]


def torus_descriptor():
    ph = generate(PhantomSpec(kind="quarter-torus", radius=2.0, major_radius=10.0))
    return ph.field


def helix_descriptor():
    ph = generate(PhantomSpec(kind="helix", radius=2.0, helix_radius=8.0, pitch=8.0, turns=1.0))
    return ph.field


def straight_descriptor():
    return PhantomSpec(kind="straight-tube", **PARAMS["straight-tube"])


def fanning_descriptor():
    return PhantomSpec(kind="fanning", **PARAMS["fanning"])


class TestFieldDescriptor:
    def test_linear_part_is_traceless(self):
        assert sorted(PARAMS) == sorted(KINDS)
        for kind, params in PARAMS.items():
            assert np.trace(PhantomSpec(kind=kind, **params).linear) == 0.0, kind

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PhantomSpec(kind="moebius")

    def test_vectors_at_affine(self, rng):
        pts = rng.normal(scale=10.0, size=(20, 3))
        for kind, params in PARAMS.items():
            desc = PhantomSpec(kind=kind, **params)
            want = closed_form_flow(kind, params, pts)
            np.testing.assert_allclose(desc.vectors_at(pts), want, rtol=1e-15, atol=1e-15,
                                       err_msg=kind)

    @pytest.mark.parametrize("kind, params", OVERFLOWING_PARAMS,
                             ids=[kind for kind, _ in OVERFLOWING_PARAMS])
    def test_rejects_params_whose_field_overflows(self, kind, params):
        # 1 / radius overflows: the field would hold inf and inf * 0 = nan.
        with pytest.raises(ValueError) as exc:
            PhantomSpec(kind=kind, **params)
        assert str(exc.value) == f"{kind} parameters {params} give a non-finite field"

    @pytest.mark.parametrize(
        "maker", [torus_descriptor, helix_descriptor, straight_descriptor, fanning_descriptor])
    def test_flow_is_tangent_to_axis(self, maker):
        # The unit flow on the axis against the axis position's derivative.
        desc = maker()
        h = 1e-6
        for t in np.linspace(h, desc.span - h, 17):
            fd = (desc.axis_point(t + h) - desc.axis_point(t - h)) / (2 * h)
            fd /= np.linalg.norm(fd)
            v = desc.vectors_at([desc.axis_point(t)])[0]
            v /= np.linalg.norm(v)
            assert np.linalg.norm(v - fd) < 1e-8

    def test_axis_lengths(self):
        straight = generate(PhantomSpec(kind="straight-tube", radius=2.0, length=17.0)).field
        assert abs(straight.axis_length - 17.0) < 1e-12
        torus = torus_descriptor()
        assert abs(torus.axis_length - 0.5 * np.pi * 10.0) < 1e-12
        helix = helix_descriptor()
        rise = 8.0 / (2 * np.pi)
        want = 2 * np.pi * np.hypot(8.0, rise)
        assert abs(helix.axis_length - want) < 1e-12

    @pytest.mark.parametrize("maker", [torus_descriptor, helix_descriptor])
    def test_axis_params_invert_axis_points(self, maker):
        desc = maker()
        ts = np.linspace(0.0, desc.span, 23)
        pts = np.array([desc.axis_point(t) for t in ts])
        got = desc.axis_params(pts)
        assert np.abs(got - ts).max() < 1e-9

    @given(spec=small_specs(kinds=("helix",)))
    @settings(max_examples=60, deadline=None)
    def test_helix_projection_matches_sampled_oracle(self, spec):
        ph = generate(spec)
        desc = ph.field
        dims, origin = _grid_layout(spec)
        grid = np.asarray(origin) + np.indices(dims).reshape(3, -1).T * spec.spacing
        assert np.isfinite(desc.axis_params(grid)).all()
        centers = ph.mask.foreground_points()
        t = desc.axis_params(centers)
        dist = np.linalg.norm(centers - desc.axis_point(t), axis=1)
        want_t, want_dist, step = sampled_axis_params(desc, centers)
        # The distance is not symmetric about its minimum, so the nearest
        # sample may lie a little past half a step (by up to 2e-8 rad seen).
        assert np.abs(t - want_t).max() <= step / 2 + 1e-6
        assert (dist <= want_dist + 1e-12).all()

    def test_to_polyfield_embeds_exactly(self, rng):
        desc = helix_descriptor()
        field = desc.to_polyfield(offset=(1.0, -2.0, 3.0), scale=(2.5, 2.5, 2.5))
        pts = rng.uniform(-10, 10, size=(40, 3))
        assert np.abs(field.evaluate_many(pts) - desc.vectors_at(pts)).max() < 1e-12
        assert np.abs(field.divergence_many(pts)).max() < 1e-12


class TestGenerate:
    def test_straight_tube_construction(self):
        ph = generate(PhantomSpec(kind="straight-tube", radius=3.0, length=20.0))
        centers = ph.mask.foreground_points()
        rad = np.linalg.norm(centers[:, 1:], axis=1)
        assert rad.max() <= 3.0 + 1e-9
        assert centers[:, 0].min() >= -1e-9 and centers[:, 0].max() <= 20 + 1e-9
        dirs = ph.peaks.directions[ph.mask.foreground][:, 0]
        assert np.allclose(dirs, [1, 0, 0], atol=1e-12)
        dev = np.linalg.norm(ph.centerline.points[:, 1:], axis=1)
        assert dev.max() < 1e-9

    def test_endpoints_are_foreground_centers(self):
        for kind in ("straight-tube", "quarter-torus", "helix"):
            ph = generate(PhantomSpec(kind=kind, radius=2.5, major_radius=10.0,
                                      helix_radius=8.0, pitch=8.0))
            assert inside_many(ph.mask, [ph.p1, ph.p2]).all()
            origin = np.asarray(ph.mask.origin)
            spacing = np.asarray(ph.mask.spacing)
            for p in (ph.p1, ph.p2):
                idx = np.floor((p - origin) / spacing + 0.5)
                center = origin + idx * spacing
                assert np.linalg.norm(p - center) < 1e-9

    def test_jitter_angles_match_configured_std(self):
        ph = generate(PhantomSpec(kind="straight-tube", radius=3.0, length=40.0,
                                  noise_deg=10.0), rng_seed=5)
        dirs = ph.peaks.directions[ph.mask.foreground][:, 0]
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        angles = np.degrees(np.arccos(np.clip(dirs @ [1.0, 0, 0], -1, 1)))
        rms = np.sqrt((angles**2).mean())
        assert abs(rms - 10.0) < 1.0
        assert angles.max() < 50.0

    def test_distractors_orthogonal_in_band(self):
        spec = PhantomSpec(kind="straight-tube", radius=3.0, length=20.0,
                           distractor_amp=0.8)
        ph = generate(spec, rng_seed=2)
        amps = ph.peaks.amplitudes
        assert ph.peaks.peaks_per_voxel == 2
        two = ph.mask.foreground & (amps[..., 1] > 0)
        assert two.any()
        centers = np.asarray(ph.mask.origin) + np.argwhere(two) * np.asarray(
            ph.mask.spacing
        )
        frac = centers[:, 0] / 20.0
        assert frac.min() >= 0.4 - 1e-9 and frac.max() <= 0.6 + 1e-9
        prim = ph.peaks.directions[two][:, 0]
        dist = ph.peaks.directions[two][:, 1]
        assert np.abs(np.einsum("ij,ij->i", prim, dist)).max() < 1e-9
        assert np.allclose(amps[two][:, 0], 1.0)
        assert np.allclose(amps[two][:, 1], 0.8)
        assert np.all(np.diff(amps[ph.mask.foreground], axis=-1) <= 0)

    def test_generation_deterministic(self):
        spec = PhantomSpec(kind="straight-tube", radius=3.0, length=15.0,
                           noise_deg=8.0, distractor_amp=0.5)
        a = generate(spec, rng_seed=9)
        b = generate(spec, rng_seed=9)
        c = generate(spec, rng_seed=10)
        assert np.array_equal(a.peaks.directions, b.peaks.directions)
        assert np.array_equal(a.mask.data, b.mask.data)
        assert not np.array_equal(a.peaks.directions, c.peaks.directions)

    @pytest.mark.parametrize("spacing", [1.0, (0.7, 1.3, 0.9)])
    @pytest.mark.parametrize("length", [12.0, 30.0])
    @pytest.mark.parametrize("radius", [2.5, 3.0])
    @pytest.mark.parametrize("kind, fan_rate",
                             [("straight-tube", 0.04), ("fanning", 0.02), ("fanning", 0.04)])
    def test_grid_pads_every_face_by_the_margin(self, kind, fan_rate, radius, length,
                                                spacing):
        # The tube's bounds, rounded out to whole voxels, leave at most one
        # more background slice than the margin on each face.
        data = generate(PhantomSpec(kind=kind, radius=radius, length=length,
                                    spacing=spacing, fan_rate=fan_rate)).mask.data
        for axis in range(3):
            filled = np.flatnonzero(data.any(axis=tuple({0, 1, 2} - {axis})))
            for face, empty in (("-", filled[0]), ("+", data.shape[axis] - 1 - filled[-1])):
                assert _GRID_MARGIN <= empty <= _GRID_MARGIN + 1, (face, axis, empty)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="straight-tube", length=20.0),
        dict(kind="quarter-torus", major_radius=12.0),
        dict(kind="helix", helix_radius=8.0, pitch=8.0),
        dict(kind="fanning", length=20.0),
    ])
    def test_snapped_endpoint_is_the_nearest_foreground_center(self, kwargs):
        ph = generate(PhantomSpec(radius=2.5, spacing=(0.7, 1.3, 0.9), **kwargs))
        centers = ph.mask.foreground_points()
        tree = cKDTree(centers)
        snapped = 0
        for point in ph.centerline.points[[0, -1]]:
            got = _snap_endpoint(ph.mask, point)
            if not inside_many(ph.mask, [point])[0]:
                snapped += 1
                assert np.array_equal(got, centers[tree.query(point)[1]])
            else:
                assert np.array_equal(got, point)
        assert snapped or kwargs["kind"] == "quarter-torus"

    # Never allocated: each grid would take tens of GB.
    @pytest.mark.parametrize("kwargs, dims", [
        (dict(length=1e7), "10000005 x 11 x 11"),
        (dict(spacing=1e-3), None),
        # exp(fan_rate * length) overflows the float range
        (dict(kind="fanning", length=1e7), "10000005 x inf x 11"),
    ])
    def test_grid_over_the_voxel_budget_is_rejected(self, kwargs, dims):
        with pytest.raises(DomainError, match=f"budget of {_VOXEL_BUDGET} voxels") as info:
            _grid_layout(PhantomSpec(**kwargs))
        assert dims is None or dims in str(info.value)

    def test_quarter_torus_descriptor_metadata(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        assert abs(ph.field.axis_length - 0.5 * np.pi * 12.0) < 1e-12


class TestAnalyticStreamline:
    def test_constant_field_unit_length(self):
        desc = PhantomSpec(length=1.0)
        pts = analytic_streamline(desc, (0.0, 0, 0), 1.0, 1e-3)
        assert np.linalg.norm(pts[-1] - [1.0, 0, 0]) < 1e-12

    @pytest.mark.parametrize("arc_length, fine_step, message", [
        (1.0, np.nan, "fine_step"),
        (1.0, np.inf, "fine_step"),
        (1.0, 0.0, "fine_step"),
        (1.0, -1e-3, "fine_step"),
        (np.nan, 1e-3, "arc_length"),
        (np.inf, 1e-3, "arc_length"),
        (-1.0, 1e-3, "arc_length"),
    ])
    def test_rejects_bad_length_and_step(self, arc_length, fine_step, message):
        desc = PhantomSpec(length=1.0)
        with pytest.raises(ValueError, match=message):
            analytic_streamline(desc, (0.0, 0, 0), arc_length, fine_step)

    def test_partial_final_step(self):
        # Off the axis the fanning field is faster than unit speed; its
        # streamline through (0, y0, 0) is y = y0 exp(rate x) in z = 0.
        rate, y0 = 0.5, 2.0
        desc = PhantomSpec(kind="fanning", fan_rate=rate)
        assert np.linalg.norm(desc.vectors_at([(0.0, y0, 0)])[0]) > 1.4
        pts = analytic_streamline(desc, (0.0, y0, 0), 1.05, 0.1)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert len(gaps) == 11
        # Chords of the bending curve fall short of each step's arc by
        # about h^3 kappa^2 / 24, below 1e-4 here.
        assert np.abs(gaps[:-1] - 0.1).max() < 1e-4
        assert abs(gaps[-1] - 0.05) < 1e-4
        # RK4 at step 0.1 keeps the end on the curve to about 5e-9.
        x, y, z = pts[-1]
        assert abs(y - y0 * np.exp(rate * x)) < 1e-7 and z == 0.0
        # Arc length of the closed-form curve up to the final x.
        u = np.linspace(0.0, x, 200_001)
        speed = np.hypot(1.0, rate * y0 * np.exp(rate * u))
        arc = np.sum((speed[1:] + speed[:-1]) / 2 * np.diff(u))
        assert abs(arc - 1.05) < 1e-8

    def test_rotational_full_turn_returns(self):
        desc = torus_descriptor()
        start = desc.axis_point(0.0)
        pts = analytic_streamline(desc, start, 2 * np.pi * 10.0, 1e-3)
        assert np.linalg.norm(pts[-1] - start) < 1e-9

    def test_helix_matches_closed_form(self):
        desc = helix_descriptor()
        rise = 8.0 / (2 * np.pi)
        speed = np.hypot(8.0, rise)
        arc = 3.0
        pts = analytic_streamline(desc, desc.axis_point(0.0), arc, 1e-3)
        t = arc / speed
        want = np.array([8.0 * np.cos(t), 8.0 * np.sin(t), rise * t])
        assert np.linalg.norm(pts[-1] - want) < 1e-8


class TestCompletionRate:
    def test_full_and_half_spans(self):
        desc = generate(PhantomSpec(kind="straight-tube", radius=2.0, length=10.0)).field
        xs_full = np.linspace(-0.1, 10.1, 60)
        xs_half = np.linspace(0.0, 5.0, 30)
        full = np.stack([xs_full, np.zeros(60), np.zeros(60)], axis=1)
        half = np.stack([xs_half, np.zeros(30), np.zeros(30)], axis=1)
        tract = tract_from_lines([full, half], step=0.5)
        assert completion_rate(tract, desc) == 0.5
        assert completion_rate(tract_from_lines([full], step=0.5), desc) == 1.0
        assert completion_rate(tract_from_lines([], step=0.5), desc) == 0.0

    def test_helix_matches_per_line_oracle(self, rng):
        desc = helix_descriptor()
        t0, t1 = 0.0, desc.span
        pad = 0.05 * (t1 - t0)
        lines = []
        for _ in range(40):
            lo, hi = rng.uniform(t0 - 0.1, t0 + 0.6), rng.uniform(t1 - 0.6, t1 + 0.1)
            ts = np.arange(lo, hi, 0.02)
            lines.append(desc.axis_point(ts) + rng.normal(0.0, 0.2, (len(ts), 3)))
        rates = set()
        for count in (1, 2, 7, 40):
            tract = tract_from_lines(lines[:count], step=1.0)
            params = [desc.axis_params(line) for line in tract.streamlines]
            want = sum(t.min() <= t0 + pad and t.max() >= t1 - pad for t in params) / count
            assert completion_rate(tract, desc) == want
            rates.add(want)
        assert len(rates) > 1


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(radius=float("nan")), "radius"),
            (dict(length=float("nan")), "length"),
            (dict(fan_rate=float("inf")), "fan_rate"),
            (dict(noise_deg=float("nan")), "noise_deg"),
            (dict(noise_deg=-1.0), "noise_deg"),
            (dict(distractor_amp=float("nan")), "distractor_amp"),
            (dict(spacing=(1.0, float("nan"), 1.0)), "spacing"),
            # the finite check walks every numeric field
            (dict(major_radius=float("inf")), "major_radius must be finite"),
            (dict(helix_radius=float("nan")), "helix_radius must be finite"),
            (dict(pitch=float("-inf")), "pitch must be finite"),
            (dict(turns=float("inf")), "turns must be finite"),
            (dict(spacing=float("inf")), "spacing must be finite"),
            (dict(radius=float("inf")), "radius must be finite"),
            (dict(kind="helix", radius=4.0, pitch=8.0, turns=2.0), r"pitch - 2 \* radius"),
            # a shrinking y and growing z would leave the grid's z bounds
            (dict(kind="fanning", fan_rate=-0.04), "fan_rate must be positive"),
            (dict(fan_rate=0.0), "fan_rate must be positive"),
            (dict(radius=0.0), "radius must be positive"),
            (dict(spacing=0.0), "spacing must be positive"),
            (dict(distractor_amp=1.5), r"distractor_amp must be in \[0, 1\]"),
            (dict(spacing=(1.0, 1.0)), "spacing must be a scalar or three values"),
            # passes the coil rules at subnormal sizes, but 1 / major_radius overflows
            (dict(kind="quarter-torus", radius=1e-320, spacing=1e-320, major_radius=2e-320),
             "give a non-finite field"),
            (dict(kind="helix", pitch=0.0), "pitch must be positive"),
            (dict(kind="helix", turns=-1.0), "turns must be positive"),
        ],
    )
    def test_rejects_non_finite_fields(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PhantomSpec(**kwargs)

    # Each spec was accepted before these rules, and its extracted centerline
    # strays more than two voxels from the axis, or its peaks hold NaN.
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            # the quarter circle runs between 2 mm voxel centers
            (dict(kind="quarter-torus", radius=0.55, major_radius=7.1, spacing=2.0),
             "radius must be at least half the voxel diagonal"),
            # the tube covers the z axis, where the torus flow vanishes
            (dict(kind="quarter-torus", radius=3.0, major_radius=2.5), "major_radius"),
            # the voxels fill the helix core and the path cuts through it
            (dict(kind="helix", radius=3.71, helix_radius=4.79, pitch=14.16, turns=1.39,
                  spacing=1.5), "helix_radius"),
            # pitch - 2 * radius is one z spacing, but the tilted turns come
            # within 0.96 mm and a diagonal voxel step skips a turn
            (dict(kind="helix", radius=3.25, helix_radius=4.8, pitch=7.7, turns=1.8,
                  spacing=1.2), "helix turns touch"),
            # the ends of a near-full turn overlap
            (dict(kind="helix", radius=1.16, helix_radius=9.32, pitch=2.16, turns=0.996,
                  spacing=1.25), "helix turns touch"),
        ],
    )
    def test_rejects_tube_whose_voxels_shortcut_the_axis(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PhantomSpec(**kwargs)


class TestSpecIO:
    def test_round_trip(self, tmp_path):
        spec = PhantomSpec(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                           turns=1.0, noise_deg=10.0, distractor_amp=0.8,
                           spacing=(1.0, 1.0, 1.25))
        path = tmp_path / "h.spec"
        save_phantom_spec(spec, path)
        assert load_phantom_spec(path) == spec

    def test_comments_and_scalar_spacing(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("# tube for smoke tests\nkind: straight-tube\nspacing: 0.5\n")
        spec = load_phantom_spec(path)
        assert spec.kind == "straight-tube"
        assert spec.spacing == (0.5, 0.5, 0.5)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("kind: helix\nwobble: 3\n")
        with pytest.raises(FormatError, match="wobble"):
            load_phantom_spec(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "s.spec"
        path.write_text("kind: cube\n")
        with pytest.raises(FormatError):
            load_phantom_spec(path)

    @given(spec=small_specs())
    @settings(max_examples=40, deadline=None)
    def test_descriptor_round_trip(self, tmp_path_factory, spec):
        # spec -> descriptor.txt -> the generated phantom's field, bit for bit
        ph = generate(spec)
        desc = ph.field
        path = tmp_path_factory.getbasetemp() / "round-trip-descriptor.txt"
        save_phantom_spec(spec, path)
        back = load_descriptor(path)
        assert back == desc
        assert back.constant.tobytes() == desc.constant.tobytes()
        assert back.linear.tobytes() == desc.linear.tobytes()
        centers = ph.mask.foreground_points()
        assert back.vectors_at(centers).tobytes() == desc.vectors_at(centers).tobytes()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda text: text.replace("pitch: 8.0", "pitch: 0.0"), "pitch"),
            (lambda text: text.replace("turns: 1.0", "turns: -1.0"), "turns"),
            (lambda text: text.replace("turns: 1.0", "turns:"), "turns"),
            (lambda text: text + "length: 20.0\n", "length"),
        ],
        ids=["pitch 0", "turns -1", "missing turns", "extra length"],
    )
    def test_bad_descriptor_names_file_and_key(self, tmp_path, edit, key):
        path = tmp_path / "descriptor.txt"
        save_phantom_spec(PhantomSpec(kind="helix", radius=2.0), path)
        path.write_text(edit(path.read_text()))
        with pytest.raises(FormatError) as exc:
            load_descriptor(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert key in str(exc.value)

    @pytest.mark.parametrize("kind, params", OVERFLOWING_PARAMS,
                             ids=[kind for kind, _ in OVERFLOWING_PARAMS])
    def test_overflowing_descriptor_is_format_error(self, tmp_path, kind, params):
        path = tmp_path / "descriptor.txt"
        path.write_text(f"kind: {kind}\n" + "".join(
            f"{key}: {value!r}\n" for key, value in params.items()))
        with pytest.raises(FormatError) as exc:
            load_descriptor(path)
        assert str(exc.value).startswith(f"{path}: {kind} parameters ")
        assert all(key in str(exc.value) for key in params)
