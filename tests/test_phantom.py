"""Synthetic tube phantoms: geometry, peaks, analytic fields, reference paths."""

from __future__ import annotations

import numpy as np
import pytest

from tractfield import (
    FieldDescriptor,
    FormatError,
    PhantomSpec,
    analytic_streamline,
    completion_rate,
    generate,
    inside_many,
    load_descriptor,
    load_phantom_spec,
    save_descriptor,
    save_phantom_spec,
)

from tractfield.phantom import _GRID_MARGIN

from conftest import tract_from_lines


def torus_descriptor():
    ph = generate(PhantomSpec(kind="quarter-torus", radius=2.0, major_radius=10.0))
    return ph.field


def helix_descriptor():
    ph = generate(PhantomSpec(kind="helix", radius=2.0, helix_radius=8.0, pitch=8.0, turns=1.0))
    return ph.field


class TestFieldDescriptor:
    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError, match="divergence"):
            FieldDescriptor("straight-tube", (1, 0, 0), np.diag([0.1, 0.0, 0.0]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FieldDescriptor("moebius", (1, 0, 0), np.zeros((3, 3)))

    def test_vectors_at_affine(self, rng):
        lin = np.array([[0.0, -0.5, 0], [0.5, 0, 0], [0, 0, 0]])
        desc = FieldDescriptor("quarter-torus", (0.1, 0.2, 0.3), lin)
        pts = rng.normal(size=(20, 3))
        want = pts @ lin.T + np.array([0.1, 0.2, 0.3])
        assert np.allclose(desc.vectors_at(pts), want, atol=1e-15)

    @pytest.mark.parametrize("maker", [torus_descriptor, helix_descriptor])
    def test_flow_is_tangent_to_axis(self, maker):
        desc = maker()
        t0, t1 = desc.axis_range
        for t in np.linspace(t0, t1, 17):
            p = desc.axis_point(t)
            tan = desc.axis_tangent(t)
            v = desc.vectors_at([p])[0]
            v /= np.linalg.norm(v)
            assert np.linalg.norm(v - tan) < 1e-12

    @pytest.mark.parametrize("maker", [torus_descriptor, helix_descriptor])
    def test_tangent_matches_position_derivative(self, maker):
        desc = maker()
        t0, t1 = desc.axis_range
        h = 1e-6
        for t in np.linspace(t0 + h, t1 - h, 9):
            fd = (desc.axis_point(t + h) - desc.axis_point(t - h)) / (2 * h)
            fd /= np.linalg.norm(fd)
            assert np.linalg.norm(fd - desc.axis_tangent(t)) < 1e-8
            assert abs(np.linalg.norm(desc.axis_tangent(t)) - 1) < 1e-12

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
        t0, t1 = desc.axis_range
        ts = np.linspace(t0, t1, 23)
        pts = np.array([desc.axis_point(t) for t in ts])
        got = desc.axis_params(pts)
        assert np.abs(got - ts).max() < 0.03

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
            origin = np.asarray(ph.mask.grid.origin)
            spacing = np.asarray(ph.mask.grid.spacing)
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
        centers = np.asarray(ph.mask.grid.origin) + np.argwhere(two) * np.asarray(
            ph.mask.grid.spacing
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
        assert np.array_equal(a.mask.grid.data, b.mask.grid.data)
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
                                    spacing=spacing, fan_rate=fan_rate)).mask.grid.data
        for axis in range(3):
            filled = np.flatnonzero(data.any(axis=tuple({0, 1, 2} - {axis})))
            for face, empty in (("-", filled[0]), ("+", data.shape[axis] - 1 - filled[-1])):
                assert _GRID_MARGIN <= empty <= _GRID_MARGIN + 1, (face, axis, empty)

    def test_quarter_torus_descriptor_metadata(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        assert abs(ph.field.axis_length - 0.5 * np.pi * 12.0) < 1e-12


class TestAnalyticStreamline:
    def test_constant_field_unit_length(self):
        desc = FieldDescriptor("straight-tube", (1.0, 0, 0), np.zeros((3, 3)),
                               {"length": 1.0})
        pts = analytic_streamline(desc, (0.0, 0, 0), 1.0, 1e-3)
        assert np.linalg.norm(pts[-1] - [1.0, 0, 0]) < 1e-12

    def test_partial_final_step(self):
        desc = FieldDescriptor("straight-tube", (2.0, 0, 0), np.zeros((3, 3)),
                               {"length": 2.0})
        pts = analytic_streamline(desc, (0.0, 0, 0), 1.05, 0.1)
        assert abs(pts[-1][0] - 1.05) < 1e-12

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
        t0, t1 = desc.axis_range
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

    def test_descriptor_round_trip(self, tmp_path):
        desc = helix_descriptor()
        path = tmp_path / "d.txt"
        save_descriptor(desc, path)
        back = load_descriptor(path)
        assert back.kind == desc.kind
        assert np.array_equal(back.constant, desc.constant)
        assert np.array_equal(back.linear, desc.linear)
        assert back.params == desc.params
