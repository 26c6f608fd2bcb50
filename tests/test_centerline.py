"""Distance transform and minimal-path centerline."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import tractfield
from tractfield import (
    Centerline,
    ConnectivityError,
    DomainError,
    FormatError,
    PhantomSpec,
    cross_section_normals,
    distance_transform,
    extract_centerline,
    generate,
    inside_many,
    load_centerline,
    path_energy,
    save_centerline,
    save_tract,
)
from tractfield import centerline
from tractfield.centerline import (
    _POINT_BUDGET,
    _min_energy_path,
    _nearest_centerline_index,
    _resample,
    _unit_tangents,
)

from conftest import (
    brute_force_distance,
    brute_force_hausdorff,
    make_mask,
    random_mask,
    small_specs,
    tract_from_lines,
)

class TestDistanceTransform:
    def test_single_voxel(self):
        dt = distance_transform(make_mask(np.ones((1, 1, 1))))
        assert dt.data[0, 0, 0] == 1.0

    def test_solid_block_center(self):
        dt = distance_transform(make_mask(np.ones((3, 3, 3))))
        assert dt.data[1, 1, 1] == 2.0

    def test_boundary_counts_as_background(self):
        dt = distance_transform(make_mask(np.ones((4, 4, 4))))
        assert dt.data[0, 0, 0] == 1.0

    def test_empty_mask(self):
        with pytest.raises(DomainError):
            distance_transform(make_mask(np.zeros((2, 2, 2))))

    def test_zero_outside_foreground(self, rng):
        mask = random_mask(rng, (7, 6, 8))
        dt = distance_transform(mask)
        assert np.all(dt.data[~mask.foreground] == 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        dims = rng.integers(3, 11, size=3)
        mask = random_mask(rng, dims)
        got = distance_transform(mask).data
        assert np.array_equal(got, brute_force_distance(mask))

    def test_matches_brute_force_anisotropic(self, rng):
        # dyadic spacings keep both routes' float sums order-independent
        mask = random_mask(rng, (9, 6, 7), spacing=(0.5, 1.25, 2.0))
        got = distance_transform(mask).data
        assert np.array_equal(got, brute_force_distance(mask))

    def test_lipschitz_along_neighbors(self, rng):
        mask = random_mask(rng, (10, 9, 8))
        d = distance_transform(mask).data
        for axis in range(3):
            step = mask.grid.spacing[axis]
            diff = np.abs(np.diff(d, axis=axis))
            fg = mask.foreground
            pair = np.minimum(np.take(fg, range(0, fg.shape[axis] - 1), axis=axis),
                              np.take(fg, range(1, fg.shape[axis]), axis=axis))
            assert np.all(diff[pair] <= step + 1e-12)


def straight_tube(length=30):
    return generate(PhantomSpec(kind="straight-tube", radius=3.0, length=length))


class TestExtractCenterline:
    def test_straight_tube_tracks_axis(self):
        ph = straight_tube()
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        dev = np.linalg.norm(cl.points[:, 1:], axis=1)
        assert dev.max() <= 1.0
        assert abs(cl.length - 30.0) / 30.0 <= 0.05

    def test_axis_inside_the_mask_builds_no_kd_tree(self):
        # Only a point outside the mask needs the nearest-center search, so a
        # fresh process that extracts a straight tube's axis never imports
        # scipy.spatial.  The test process cannot check this itself:
        # conftest.py imports scipy.linalg.
        script = (
            "import json, sys\n"
            "from tractfield import PhantomSpec, extract_centerline, generate, inside_many\n"
            "ph = generate(PhantomSpec(kind='straight-tube', radius=3.0, length=30.0))\n"
            "cl = extract_centerline(ph.mask, ph.p1, ph.p2)\n"
            "print(json.dumps([bool(inside_many(ph.mask, cl.points).all()),\n"
            "                  sorted(m for m in sys.modules if m.startswith('scipy.'))]))\n"
        )
        src = str(Path(tractfield.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        inside, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert inside
        assert "scipy.ndimage" in loaded
        assert "scipy.spatial" not in loaded

    @pytest.mark.parametrize("part", ["points", "tangents"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, part, bad):
        arrays = {"points": np.zeros((3, 3)), "tangents": np.zeros((3, 3))}
        arrays[part][1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            Centerline(**arrays)

    def test_degenerate_endpoints(self):
        ph = straight_tube(10)
        cl = extract_centerline(ph.mask, ph.p1, ph.p1)
        assert len(cl.points) == 1
        assert cl.length == 0.0
        assert np.all(cl.tangents == 0)

    def test_torus_arc_length(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        analytic = 0.5 * np.pi * 12.0
        assert abs(cl.length - analytic) / analytic <= 0.05

    def test_points_inside_mask(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        assert inside_many(ph.mask, cl.points).all()

    def test_resampling_spacing_and_tangents(self):
        ph = straight_tube()
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        gaps = np.linalg.norm(np.diff(cl.points, axis=0), axis=1)
        assert np.all(np.abs(gaps - cl.delta) <= 0.1 * cl.delta)
        assert np.allclose(np.linalg.norm(cl.tangents, axis=1), 1.0, atol=1e-6)
        dots = np.einsum("ij,ij->i", cl.tangents[:-1], cl.tangents[1:])
        assert np.all(dots >= 0)

    @pytest.mark.parametrize("delta", [5e-324, 1e-300, 10 / (_POINT_BUDGET + 1)])
    def test_delta_over_the_point_budget_raises(self, delta):
        # Refused before any int conversion or allocation: at 5e-324 the
        # point count is inf.
        line = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        match = re.escape(f"delta {delta!r}") + f".* budget of {_POINT_BUDGET}"
        with pytest.raises(ValueError, match=match):
            _resample(line, delta)
        ph = straight_tube(10)
        with pytest.raises(ValueError, match=match):
            extract_centerline(ph.mask, ph.p1, ph.p2, delta)

    def test_delta_at_the_point_budget_resamples(self, monkeypatch):
        monkeypatch.setattr(centerline, "_POINT_BUDGET", 20)
        line = np.array([[0.0, 0, 0], [10.0, 0, 0]])
        assert len(_resample(line, 0.5)) == 21
        with pytest.raises(ValueError, match="budget of 20"):
            _resample(line, 10 / 21)

    def test_background_endpoint_raises(self):
        ph = straight_tube(10)
        with pytest.raises(DomainError, match="p2"):
            extract_centerline(ph.mask, ph.p1, ph.p1 + (0, 50, 0))

    def test_disconnected_endpoints_raise(self):
        data = np.zeros((9, 3, 3))
        data[:3] = 1
        data[6:] = 1
        mask = make_mask(data)
        with pytest.raises(ConnectivityError):
            extract_centerline(mask, (0, 1, 1), (8, 1, 1))

    def test_energy_not_worse_than_straight_chain(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        dt = distance_transform(ph.mask)
        origin = np.asarray(ph.mask.grid.origin)
        spacing = np.asarray(ph.mask.grid.spacing)
        a = np.rint((ph.p1 - origin) / spacing).astype(int)
        b = np.rint((ph.p2 - origin) / spacing).astype(int)
        path = _min_energy_path(dt, tuple(a), tuple(b))
        n = int(np.abs(b - a).max()) + 1
        chain = np.floor(np.linspace(a, b, n) + 0.5).astype(int)
        keep = np.ones(len(chain), dtype=bool)
        keep[1:] = np.any(np.diff(chain, axis=0) != 0, axis=1)
        assert path_energy(dt, path) <= path_energy(dt, chain[keep]) + 1e-9

    @given(spec=small_specs())
    @settings(max_examples=40, deadline=None)
    def test_recovers_analytic_axis(self, spec):
        ph = generate(spec)
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        hd, _ = brute_force_hausdorff(cl.points, ph.centerline.points)
        assert hd <= 2 * max(spec.spacing)


class TestCrossSectionNormal:
    def test_constant_tangent(self):
        pts = np.stack([np.linspace(0, 10, 21), np.zeros(21), np.zeros(21)], axis=1)
        tans = np.tile([1.0, 0, 0], (21, 1))
        cl = Centerline(pts, tans, delta=0.5)
        assert np.allclose(cross_section_normals(cl, [(3.7, 4.0, -2.0)])[0], [1, 0, 0])

    def test_tie_takes_earlier_point(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        tans = np.array([[1.0, 0, 0], [0.0, 1.0, 0]])
        cl = Centerline(pts, tans, delta=1.0)
        assert np.allclose(cross_section_normals(cl, [(0.5, 0, 0)])[0], [1, 0, 0])

    def test_helix_tangent(self):
        t = np.linspace(0, 4 * np.pi, 12000)
        r, c = 8.0, 1.2
        pts = np.stack([r * np.cos(t), r * np.sin(t), c * t], axis=1)
        vel = np.stack([-r * np.sin(t), r * np.cos(t), np.full_like(t, c)], axis=1)
        tans = vel / np.linalg.norm(vel, axis=1, keepdims=True)
        cl = Centerline(pts, tans, delta=float(np.linalg.norm(np.diff(pts, axis=0), axis=1).mean()))
        q = 2.123
        p = (r * np.cos(q), r * np.sin(q), c * q)
        want = np.array([-r * np.sin(q), r * np.cos(q), c])
        want /= np.linalg.norm(want)
        assert np.linalg.norm(cross_section_normals(cl, [p])[0] - want) < 1e-3


    def test_long_centerline_search_stays_small(self):
        # On a long centerline the search takes fewer query rows at a time,
        # which bounds its temporaries and changes no row's nearest point.
        rng = np.random.default_rng(5)
        pts = np.cumsum(rng.normal(size=(1500, 3)), axis=0)
        cl = Centerline(pts, _unit_tangents(pts), 1.0)
        query = np.vstack([rng.uniform(pts.min(axis=0), pts.max(axis=0), (2000, 3)),
                           pts[::50] + 0.5])
        tracemalloc.start()
        try:
            got = _nearest_centerline_index(cl, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [np.argmin(((pts - q) ** 2).sum(axis=1)) for q in query]
        assert got.tolist() == want
        # About 40 MiB here and at any longer centerline; 93 MiB in one
        # 2048-row chunk.
        assert peak < 64 * 2**20


class TestCenterlineIO:
    def test_round_trip(self, tmp_path):
        ph = straight_tube()
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        path = tmp_path / "cl.tract"
        save_centerline(cl, path)
        back = load_centerline(path)
        assert np.array_equal(back.points, cl.points)
        assert np.allclose(back.tangents, cl.tangents, atol=1e-9)

    # Points along +y; where neighbours coincide, a point's difference is zero.
    @pytest.mark.parametrize("ys, want", [
        # the first two points coincide: point 0 takes point 1's tangent
        ([0.0, 0.0, 0.5, 1.0], [(0, 1, 0)] * 4),
        ([0.0, 0.0, 0.0, 1.0], [(0, 1, 0)] * 4),
        # the last two coincide: the last point takes its predecessor's
        ([0.0, 0.5, 1.0, 1.0], [(0, 1, 0)] * 4),
        ([0.0, 0.0, 0.0], [(1, 0, 0)] * 3),
        ([0.0], [(0, 0, 0)]),
    ])
    def test_zero_tangent_takes_a_neighbours(self, tmp_path, ys, want):
        pts = np.array([[0.0, y, 0.0] for y in ys])
        path = tmp_path / "cl.tract"
        save_centerline(Centerline(pts, np.zeros_like(pts), 0.5), path)
        back = load_centerline(path)
        assert np.array_equal(back.tangents, np.array(want, dtype=float))
        # The start wins a distance tie, so its tangent is the normal there.
        assert np.array_equal(cross_section_normals(back, [(0.0, -1.0, 0.0)]), [want[0]])

    def test_rejects_multiple_polylines(self, tmp_path):
        path = tmp_path / "two.tract"
        line = np.array([[0.0, 0, 0], [0.5, 0, 0]])
        save_tract(tract_from_lines([line, line + 1], step=0.5), path)
        with pytest.raises(FormatError, match="exactly one polyline"):
            load_centerline(path)

    def test_rejects_empty_polyline(self, tmp_path):
        path = tmp_path / "empty.tract"
        # one line of zero points: the header, then one <i8 count of 0
        path.write_bytes(b"step: 0.5\nlines: 1\npoints: 0\ndtype: f64\nencoding: raw\n\n"
                         + np.zeros(1, "<i8").tobytes())
        with pytest.raises(FormatError, match="at least one point"):
            load_centerline(path)
