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
    _resample,
    _unit_tangents,
)
from tractfield.phantom import KINDS

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
            step = mask.spacing[axis]
            diff = np.abs(np.diff(d, axis=axis))
            fg = mask.foreground
            pair = np.minimum(np.take(fg, range(0, fg.shape[axis] - 1), axis=axis),
                              np.take(fg, range(1, fg.shape[axis]), axis=axis))
            assert np.all(diff[pair] <= step + 1e-12)


def straight_tube(length=30):
    return generate(PhantomSpec(kind="straight-tube", radius=3.0, length=length))


def polyline_length(points) -> float:
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


class TestExtractCenterline:
    def test_straight_tube_tracks_axis(self):
        ph = straight_tube()
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        dev = np.linalg.norm(cl.points[:, 1:], axis=1)
        assert dev.max() <= 1.0
        assert abs(polyline_length(cl.points) - 30.0) / 30.0 <= 0.05

    def test_axis_inside_the_mask_builds_no_kd_tree(self):
        # The distance transform, the minimal path and the nearest-center
        # search are numpy code, so a fresh process that extracts a straight
        # tube's axis loads no scipy module.  The test process cannot check
        # this itself: conftest.py imports scipy.linalg.
        script = (
            "import json, sys\n"
            "from tractfield import PhantomSpec, extract_centerline, generate, inside_many\n"
            "ph = generate(PhantomSpec(kind='straight-tube', radius=3.0, length=30.0))\n"
            "cl = extract_centerline(ph.mask, ph.p1, ph.p2)\n"
            "print(json.dumps([bool(inside_many(ph.mask, cl.points).all()),\n"
            "                  sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
        src = str(Path(tractfield.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        inside, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert inside
        assert loaded == []

    @pytest.mark.parametrize("values, match", [
        pytest.param((np.nan, 0.0), "points must be finite", id="nan-points"),
        pytest.param((np.inf, 0.0), "points must be finite", id="inf-points"),
        # finite points whose difference overflows
        pytest.param((1e308, -1e308), "tangents must be finite", id="overflowing-tangents"),
    ])
    def test_rejects_non_finite(self, values, match):
        points = np.zeros((3, 3))
        points[1:, 2] = values
        with pytest.raises(ValueError, match=match):
            Centerline(points)

    def test_degenerate_endpoints(self):
        ph = straight_tube(10)
        cl = extract_centerline(ph.mask, ph.p1, ph.p1)
        assert len(cl.points) == 1
        assert np.all(cl.tangents == 0)

    def test_torus_arc_length(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        analytic = 0.5 * np.pi * 12.0
        assert abs(polyline_length(cl.points) - analytic) / analytic <= 0.05

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
        with pytest.raises(DomainError, match="not connected"):
            extract_centerline(mask, (0, 1, 1), (8, 1, 1))

    def test_isolated_endpoints_raise(self):
        # No two foreground voxels touch, so the graph has no edge at all.
        data = np.zeros((5, 3, 3))
        data[0, 1, 1] = data[4, 1, 1] = 1
        with pytest.raises(DomainError, match="not connected"):
            extract_centerline(make_mask(data), (0, 1, 1), (4, 1, 1))

    def test_energy_not_worse_than_straight_chain(self):
        ph = generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))
        dt = distance_transform(ph.mask)
        origin = np.asarray(ph.mask.origin)
        spacing = np.asarray(ph.mask.spacing)
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
        cl = Centerline(pts, delta=0.5)
        assert np.allclose(cross_section_normals(cl, [(3.7, 4.0, -2.0)])[0], [1, 0, 0])

    def test_tie_takes_earlier_point(self):
        # A corner: the tangents are +x, the diagonal and +y.
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1.0, 0]])
        cl = Centerline(pts, delta=1.0)
        assert np.array_equal(cl.tangents[0], [1, 0, 0])
        assert not np.allclose(cl.tangents[1], [1, 0, 0])
        assert np.array_equal(cross_section_normals(cl, [(0.5, -1.0, 0)]), [[1, 0, 0]])

    def test_helix_tangent(self):
        t = np.linspace(0, 4 * np.pi, 12000)
        r, c = 8.0, 1.2
        pts = np.stack([r * np.cos(t), r * np.sin(t), c * t], axis=1)
        cl = Centerline(pts, delta=polyline_length(pts) / (len(pts) - 1))
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
        cl = Centerline(pts, 1.0)
        query = np.vstack([rng.uniform(pts.min(axis=0), pts.max(axis=0), (2000, 3)),
                           pts[::50] + 0.5])
        tracemalloc.start()
        try:
            got = cross_section_normals(cl, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = [np.argmin(((pts - q) ** 2).sum(axis=1)) for q in query]
        assert np.array_equal(got, cl.tangents[want])
        # About 40 MiB here and at any longer centerline; 93 MiB in one
        # 2048-row chunk.
        assert peak < 64 * 2**20


def loop_unit_tangents(pts: np.ndarray) -> np.ndarray:
    """``_unit_tangents`` with one Python step per filled or signed point:
    the bitwise oracle of its loop-free zero fill and sign alignment."""
    n = len(pts)
    if n == 1:
        return np.zeros((1, 3))
    t = np.empty((n, 3))
    t[0] = pts[1] - pts[0]
    t[-1] = pts[-1] - pts[-2]
    if n > 2:
        t[1:-1] = pts[2:] - pts[:-2]
    norms = np.linalg.norm(t, axis=1)
    safe = norms > 1e-12
    if not safe.any():
        return np.tile([1.0, 0.0, 0.0], (n, 1))
    t[safe] /= norms[safe, None]
    first = np.argmax(safe)
    for i in np.flatnonzero(~safe):
        t[i] = t[i - 1] if i > first else t[first]
    for i in range(1, n):
        if float(np.dot(t[i], t[i - 1])) < 0:
            t[i] = -t[i]
    return t


def tangent_cases(rng, n) -> tuple:
    """Three polylines of n points: a random walk; a lattice staircase, whose
    steps of -1, 0 or 1 along one axis give zero and axis-aligned tangents
    with exactly zero and negative dot products; and a walk with runs of
    coincident points."""
    walk = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    steps = np.zeros((n, 3))
    steps[np.arange(n), rng.integers(0, 3, n)] = rng.choice([-1.0, 0.0, 1.0], n)
    runs = np.repeat(walk, rng.integers(1, 4, n), axis=0)[:n]
    return walk, np.cumsum(steps, axis=0), runs


@pytest.mark.parametrize("seed", range(25))
def test_unit_tangents_match_loop_oracle_bitwise(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 41):
        for case, pts in enumerate(tangent_cases(rng, n)):
            got, want = _unit_tangents(pts), loop_unit_tangents(pts)
            assert got.tobytes() == want.tobytes(), (n, case)


class TestCenterlineIO:
    def test_round_trip(self, tmp_path):
        ph = straight_tube()
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        path = tmp_path / "cl.tract"
        save_centerline(cl, path)
        back = load_centerline(path)
        assert np.array_equal(back.points, cl.points)
        assert np.array_equal(back.tangents, cl.tangents)

    @pytest.mark.parametrize("kind", KINDS)
    def test_phantom_axis_keeps_its_tangents_on_load(self, tmp_path, kind):
        ph = generate(PhantomSpec(kind=kind))
        path = tmp_path / "axis.tract"
        save_centerline(ph.centerline, path)
        back = load_centerline(path)
        assert back.points.tobytes() == ph.centerline.points.tobytes()
        assert back.tangents.tobytes() == ph.centerline.tangents.tobytes()

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
        save_centerline(Centerline(pts, 0.5), path)
        back = load_centerline(path)
        assert np.array_equal(back.tangents, np.array(want, dtype=float))
        # The start wins a distance tie, so its tangent is the normal there.
        assert np.array_equal(cross_section_normals(back, [(0.0, -1.0, 0.0)]), [want[0]])

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_delta_no_file_can_hold(self, delta):
        # save_centerline writes delta as the file's step, which must be
        # positive and finite for load_centerline to read it back.
        with pytest.raises(ValueError, match="delta"):
            Centerline([[0.0, 0, 0], [0.5, 0, 0]], delta)

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
