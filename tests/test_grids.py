"""Grid containers, coordinate transforms, and file round-trips."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfield import (
    FormatError,
    Mask,
    PeaksField,
    Tract,
    VolumeGrid,
    inside_many,
    load_mask,
    load_peaks,
    load_tract,
    load_volume,
    nearest_indices,
    prior_from_peaks,
    save_peaks,
    save_tract,
    save_volume,
    voxel_centers,
)
from tractfield.grids import _dots, _line_deltas, _line_gaps

from conftest import make_grid, make_mask, tract_from_lines

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def single_voxel_mask():
    return make_mask(np.ones((1, 1, 1)))


class TestWorldFromIndex:
    """``voxel_centers``: world positions (mm) of integer voxel indices."""

    def test_identity_at_origin(self):
        grid = make_grid(np.zeros((3, 3, 3)))
        assert np.array_equal(voxel_centers(grid, [(0, 0, 0)]), [[0, 0, 0]])

    def test_anisotropic_spacing(self):
        grid = make_grid(np.zeros((3, 3, 3)), spacing=(1.25, 1.25, 1.25))
        assert np.allclose(voxel_centers(grid, [(2, 0, 0)]), [[2.5, 0, 0]])

    def test_negative_origin_cancels(self):
        grid = make_grid(np.zeros((3, 3, 3)), origin=(-1, -1, -1))
        assert np.array_equal(voxel_centers(grid, [(1, 1, 1)]), [[0, 0, 0]])

    def test_injective_over_grid(self):
        grid = make_grid(np.zeros((4, 3, 5)), spacing=(0.7, 1.1, 0.4))
        centers = voxel_centers(grid, list(np.ndindex(grid.dims)))
        assert len(set(map(tuple, centers))) == 4 * 3 * 5


def brute_force_inside(mask, pts):
    """Foreground flag of each point's nearest voxel center, found by
    distance over every center of the grid padded by one ring of
    background voxels."""
    padded = np.pad(mask.data, 1)
    idx = np.argwhere(np.ones(padded.shape, dtype=bool))
    centers = np.asarray(mask.origin) + (idx - 1) * np.asarray(mask.spacing)
    nearest = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    i, j, k = idx[nearest].T
    return padded[i, j, k] != 0


class TestInside:
    def test_rounds_to_foreground(self):
        assert inside_many(single_voxel_mask(), [(0.2, 0.1, -0.3)])[0]

    def test_rounds_to_background_neighbor(self):
        assert not inside_many(single_voxel_mask(), [(0.9, 0, 0)])[0]

    def test_far_outside(self):
        # The single voxel is foreground, so only the bounds test says no; the
        # non-finite and huge points have no representable voxel index, and
        # no numpy warning is raised for them.
        pts = [(50.0, 0, 0), (np.nan, 0, 0), (np.inf, 0, 0), (0, -np.inf, 0), (0, 0, 1e300),
               (-1e300, 0, 0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not inside_many(single_voxel_mask(), pts).any()

    def test_matches_mask_value_at_voxel_centers(self, rng):
        data = rng.integers(0, 2, size=(4, 5, 3)).astype(np.uint8)
        mask = make_mask(data, spacing=(0.9, 1.3, 1.0), origin=(-2, 0, 1))
        ijk = list(np.ndindex(mask.dims))
        got = inside_many(mask, voxel_centers(mask, ijk))
        assert got.tolist() == [bool(data[v]) for v in ijk]

    def test_inside_many_matches_brute_force(self, rng):
        data = rng.integers(0, 2, size=(4, 4, 4)).astype(np.uint8)
        mask = make_mask(data, spacing=(0.9, 1.3, 1.0), origin=(-2, 0, 1))
        lo = np.asarray(mask.origin) - 1.0
        hi = lo + 2.0 + 3 * np.asarray(mask.spacing)
        pts = rng.uniform(lo, hi, size=(500, 3))
        assert inside_many(mask, pts).tolist() == brute_force_inside(mask, pts).tolist()

    def test_halfway_rounds_up(self):
        grid = make_grid(np.zeros((4, 4, 4)))
        idx, inb = nearest_indices(grid, [(0.5, 1.5, 2.5)])
        assert inb[0]
        assert idx[0].tolist() == [1, 2, 3]


class TestTypeValidation:
    def test_mask_rejects_other_values(self):
        with pytest.raises(ValueError):
            make_mask(np.full((2, 2, 2), 3))
        for bad in (0.5, np.nan, -1.0):
            data = np.ones((2, 2, 2))
            data[1, 0, 1] = bad
            with pytest.raises(ValueError, match="0 or 1"):
                Mask((2, 2, 2), (1, 1, 1), (0, 0, 0), data)

    def test_mask_is_a_grid_of_uint8(self):
        data = np.zeros((2, 3, 4))
        data[1, 2, 3] = 1.0
        mask = Mask((2, 3, 4), (0.5, 1, 2), (1, 2, 3), data)
        assert isinstance(mask, VolumeGrid)
        assert mask.data.dtype == np.uint8
        assert np.array_equal(mask.data, data)
        assert (mask.dims, mask.spacing, mask.origin) == ((2, 3, 4), (0.5, 1.0, 2.0),
                                                          (1.0, 2.0, 3.0))
        assert mask.foreground_points().tolist() == [[1.5, 4.0, 9.0]]

    def test_grid_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            VolumeGrid((2, 2, 2), (1, 0, 1), (0, 0, 0), np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("grid", ["volume", "mask", "peaks", "prior"])
    @pytest.mark.parametrize("dims, spacing, origin, key", [
        ((2, 2, 0), (1, 1, 1), (0, 0, 0), "dims"),
        ((2, 2), (1, 1, 1), (0, 0, 0), "dims"),
        ((2, 2, 2), (math.nan, 1, 1), (0, 0, 0), "spacing"),
        ((2, 2, 2), (1, math.inf, 1), (0, 0, 0), "spacing"),
        ((2, 2, 2), (1, 1, 0), (0, 0, 0), "spacing"),
        ((2, 2, 2), (1, -1, 1), (0, 0, 0), "spacing"),
        ((2, 2, 2), (1, 1), (0, 0, 0), "spacing"),
        ((2, 2, 2), (1, 1, 1), (0, math.nan, 0), "origin"),
        ((2, 2, 2), (1, 1, 1), (-math.inf, 0, 0), "origin"),
        ((2, 2, 2), (1, 1, 1), (0, 0, 0, 0), "origin"),
    ])
    def test_grids_share_one_lattice_check(self, grid, dims, spacing, origin, key):
        shape = tuple(dims)
        with pytest.raises(ValueError, match=key):
            if grid in ("volume", "mask"):
                (VolumeGrid if grid == "volume" else Mask)(dims, spacing, origin,
                                                           np.zeros(shape))
            elif grid == "peaks":
                PeaksField(dims, spacing, origin, np.zeros(shape + (1, 3)),
                           np.zeros(shape + (1,)))
            else:
                # a prior is a one-slot field whose amplitude 1 marks a
                # selected direction; its lattice is checked before the slot rule
                directions = np.zeros(shape + (1, 3))
                directions[..., 0] = 1.0
                prior_from_peaks(PeaksField(dims, spacing, origin, directions,
                                            np.ones(shape + (1,))))

    def test_grid_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            VolumeGrid((2, 2, 2), (1, 1, 1), (0, 0, 0), np.zeros((2, 2, 3)))

    def test_streamline_needs_two_points(self):
        with pytest.raises(ValueError):
            tract_from_lines([np.zeros((1, 3))], step=0.3)

    def test_streamline_gap_capped_at_twice_step(self):
        line = [(0, 0, 0), (0.61, 0, 0)]
        with pytest.raises(ValueError):
            tract_from_lines([line], step=0.3)
        tract_from_lines([line], step=0.31)

    def test_gap_between_lines_is_free(self):
        # the step from one line's end to the next line's start is not checked
        first = np.array([(0, 0, 0), (0.3, 0, 0)], dtype=float)
        second = first + (5.0, 0, 0)
        tract = tract_from_lines([first, second], step=0.3)
        assert tract.counts.tolist() == [2, 2]
        with pytest.raises(ValueError, match="step"):
            tract_from_lines([np.vstack([first, second])], step=0.3)

    def test_streamline_rejects_non_finite_points_and_step(self):
        line = np.array([(0, 0, 0), (0.1, 0, 0), (0.2, 0, 0)], dtype=float)
        for bad in (np.nan, np.inf):
            broken = line.copy()
            broken[1, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                tract_from_lines([broken], step=0.3)
            with pytest.raises(ValueError, match="step"):
                tract_from_lines([line], step=bad)

    def test_peaks_validate_catches_non_unit(self):
        # An empty slot's direction takes part in prior's dot products, where
        # an infinite one once raised numpy's invalid-value warning.
        for x, amp in [(0.5, 1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0), (np.nan, 0.0)]:
            dirs = np.zeros((1, 1, 1, 1, 3))
            dirs[..., 0] = x
            amps = np.full((1, 1, 1, 1), amp)
            peaks = PeaksField((1, 1, 1), (1, 1, 1), (0, 0, 0), dirs, amps)
            with pytest.raises(ValueError):
                peaks.validate()

    def test_peaks_validate_catches_unsorted(self):
        dirs = np.zeros((1, 1, 1, 2, 3))
        dirs[..., 0] = 1.0
        amps = np.array([0.2, 0.9]).reshape(1, 1, 1, 2)
        peaks = PeaksField((1, 1, 1), (1, 1, 1), (0, 0, 0), dirs, amps)
        with pytest.raises(ValueError):
            peaks.validate()

    def test_peaks_at_strips_padding(self):
        dirs = np.zeros((1, 1, 1, 3, 3))
        dirs[0, 0, 0, 0] = (1, 0, 0)
        amps = np.zeros((1, 1, 1, 3))
        amps[0, 0, 0, 0] = 0.7
        peaks = PeaksField((1, 1, 1), (1, 1, 1), (0, 0, 0), dirs, amps)
        d, a = peaks.peaks_at((0, 0, 0))
        assert d.shape == (1, 3) and a.tolist() == [0.7]


class TestVolumeRoundTrip:
    def test_zero_volume(self, tmp_path):
        path = tmp_path / "zero.rvf"
        grid = make_grid(np.zeros((2, 2, 2), dtype=np.float32))
        save_volume(grid, path)
        back = load_volume(path)
        assert back.dims == (2, 2, 2)
        assert np.all(back.data == 0)

    def test_spacing_parsed_exactly(self, tmp_path):
        path = tmp_path / "aniso.rvf"
        grid = make_grid(np.zeros((2, 2, 2), dtype=np.float32), spacing=(1.25, 1.25, 1.25))
        save_volume(grid, path)
        assert load_volume(path).spacing == (1.25, 1.25, 1.25)

    def test_random_payload_bit_identical(self, tmp_path, rng):
        path = tmp_path / "rand.rvf"
        data = rng.normal(size=(5, 4, 3)).astype(np.float32)
        save_volume(make_grid(data, spacing=(0.5, 2, 1), origin=(-3, 0, 7)), path)
        back = load_volume(path)
        assert back.data.tobytes() == data.tobytes()
        assert back.spacing == (0.5, 2.0, 1.0)
        assert back.origin == (-3.0, 0.0, 7.0)

    def test_malformed_header_names_line(self, tmp_path):
        path = tmp_path / "bad.rvf"
        for header in [
            b"dims: 1 1 1\nspacing 1 1 1\n\n",
            b"dims: 1 1 1\nspacing: nan 1.0 1.0\norigin: 0 0 0\n"
            b"dtype: u8\nencoding: raw\n\n\x01",
            b"dims: 1 1 1\nspacing: 1.0 0.0 1.0\norigin: 0 0 0\n"
            b"dtype: u8\nencoding: raw\n\n\x01",
        ]:
            path.write_bytes(header)
            with pytest.raises(FormatError, match="spacing"):
                load_volume(path)

    @pytest.mark.parametrize("spacing, origin, axis", [
        ((5e-324, 1, 1), (0, 0, 0), "x"),  # half a spacing underflows to 0
        ((1, 1e308, 1), (0, 0, 0), "y"),  # the third centre overflows
        ((1, 1, 1), (0, 0, -1e308), "z"),  # every centre is -1e308
    ])
    def test_unrepresentable_voxel_centres(self, tmp_path, spacing, origin, axis):
        path = tmp_path / "bad.rvf"
        save_volume(make_grid(np.zeros((3, 3, 3), dtype=np.uint8), spacing, origin), path)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: the voxel centres along {axis} cannot be represented")):
            load_volume(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.rvf"
        grid = make_grid(np.zeros((2, 2, 2), dtype=np.float32))
        save_volume(grid, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="header implies"):
            load_volume(path)

    def test_mask_round_trip(self, tmp_path, rng):
        path = tmp_path / "mask.rvf"
        mask = make_mask(rng.integers(0, 2, size=(3, 6, 2)))
        save_volume(mask, path)
        back = load_mask(path)
        assert np.array_equal(back.data, mask.data)
        assert back.data.dtype == np.uint8

    def test_peaks_round_trip(self, tmp_path, rng):
        path = tmp_path / "peaks.rvf"
        dirs = rng.normal(size=(2, 3, 2, 2, 3))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        amps = np.sort(rng.uniform(0.1, 1, size=(2, 3, 2, 2)), axis=-1)[..., ::-1].copy()
        peaks = PeaksField((2, 3, 2), (1, 1, 1), (0, 0, 0), dirs, amps)
        save_peaks(peaks, path)
        back = load_peaks(path)
        assert back.peaks_per_voxel == 2
        assert np.array_equal(
            back.directions.astype(np.float32), dirs.astype(np.float32)
        )
        assert np.array_equal(
            back.amplitudes.astype(np.float32), amps.astype(np.float32)
        )


def out_of_place_nearest_indices(grid, pts):
    """``nearest_indices`` as written before it rounded in one array in
    place: the oracle for its indices."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    q = (pts - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    return np.floor(q + 0.5).astype(np.int64)


def test_nearest_indices_matches_out_of_place_oracle(rng):
    grid = make_grid(np.zeros((6, 4, 9)), spacing=(0.7, 1.3, 0.25), origin=(-1.1, 2.0, 0.0))
    spacing, origin = np.asarray(grid.spacing), np.asarray(grid.origin)
    random = rng.uniform(-4.0, 14.0, (3000, 3))
    # halfway between centers, with each coordinate shifted by a few ulps
    k = rng.integers(-2, 10, (3000, 3))
    halfway = origin + (k + 0.5) * spacing
    halfway += rng.integers(-2, 3, halfway.shape) * np.spacing(halfway)
    signed_zero = np.array([[-0.0, 2.0, -0.0], [0.0, -0.0, 0.0], [-1.1, 2.0, -0.0]])
    pts = np.vstack([random, halfway, signed_zero])
    idx, inb = nearest_indices(grid, pts)
    oracle = out_of_place_nearest_indices(grid, pts)
    assert inb.tolist() == np.all((oracle >= 0) & (oracle < grid.dims), axis=1).tolist()
    # In-grid rows carry the oracle's bits; off-grid rows name voxel (0, 0, 0).
    assert idx.dtype == oracle.dtype
    assert idx[inb].tobytes() == oracle[inb].tobytes()
    assert not idx[~inb].any() and (~inb).sum() > 100


def test_points_past_the_int64_range_are_off_the_grid():
    # Voxel indices past the int64 range, some of them infinite or NaN, are
    # decided before the cast, so numpy gives no warning.
    far = [(1e308, 0.0, 0.0), (0.0, -1e308, 0.0), (0.0, 0.0, 1e19), (np.nan, 0.0, 0.0),
           (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf), (1.0, 1.0, 1.0)]
    tiny = make_grid(np.zeros((4, 4, 4)), spacing=(5e-324,) * 3, origin=(-1e308,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, inb = nearest_indices(make_grid(np.zeros((4, 4, 4))), far)
        tiny_idx, tiny_inb = nearest_indices(tiny, far)
    assert inb.tolist() == [False] * 6 + [True]
    assert idx.tolist() == [[0, 0, 0]] * 6 + [[1, 1, 1]]
    assert not tiny_inb.any() and not tiny_idx.any()


@pytest.mark.parametrize("counts", [[], [1], [2, 1, 5], [3] * 400, [1000]])
def test_line_gaps_match_norm_bitwise(rng, counts):
    # Magnitudes from subnormal to 1e150 round differently when squared and
    # summed; the in-place squares must round as np.linalg.norm's do.
    n = sum(counts)
    points = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-160, 150, (n, 1))
    points[::7, 1] = -0.0
    want = np.linalg.norm(_line_deltas(points, np.asarray(counts, int)), axis=1)
    got = _line_gaps(points, np.asarray(counts, int))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dots_match_np_dot_bitwise(rng):
    # The tracker, the peak selection and the centerline tangent signs take
    # their dot products from _dots; each must round as np.dot's does.  Rows
    # near a right angle cancel, where another summation order shows.
    a = rng.normal(size=(600, 3)) * 10.0 ** rng.integers(-100, 100, (600, 1))
    b = rng.normal(size=(600, 3)) * 10.0 ** rng.integers(-100, 100, (600, 1))
    b[::2] = np.cross(a[::2], b[::2]) + 1e-9 * a[::2]
    want = np.array([np.dot(x, y) for x, y in zip(a, b)])
    assert _dots(a, b).tobytes() == want.tobytes()
    # (n, k, 3) slots against one (n, 1, 3) normal per row, as select_peak
    dirs = rng.normal(size=(300, 4, 3))
    normals = rng.normal(size=(300, 3))
    dirs[:, 1] = np.cross(dirs[:, 0], normals) + 1e-12 * normals
    want = np.array([[np.dot(d, n) for d in row] for row, n in zip(dirs, normals)])
    assert _dots(dirs, normals[:, None, :]).tobytes() == want.tobytes()


class TestTractRoundTrip:
    def test_round_trip_exact(self, tmp_path, rng):
        path = tmp_path / "t.tract"
        lines = []
        for n in (2, 5, 3):
            start = rng.normal(size=3)
            steps = rng.normal(size=(n - 1, 3)) * 0.1
            lines.append(np.vstack([start, start + np.cumsum(steps, axis=0)]))
        tract = tract_from_lines(lines, step=0.3)
        save_tract(tract, path)
        back = load_tract(path)
        assert back.step == 0.3
        assert len(back.streamlines) == 3
        for got, want in zip(back.streamlines, tract.streamlines):
            assert np.array_equal(got, want)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "t.tract"
        save_tract(tract_from_lines([[[0, 0, 0], [0.5, 0, 0]]], step=0.5), path)
        path.write_bytes(b"# extra note\n" + path.read_bytes())
        back = load_tract(path)
        assert back.step == 0.5
        assert len(back.streamlines) == 1

    def test_missing_step_header(self, tmp_path):
        path = tmp_path / "t.tract"
        save_tract(tract_from_lines([[[0, 0, 0], [0.5, 0, 0]]], step=0.5), path)
        raw = path.read_bytes()
        assert raw.startswith(b"step: 0.5\n")
        path.write_bytes(raw[len(b"step: 0.5\n"):])
        with pytest.raises(FormatError, match="missing key 'step'"):
            load_tract(path)

    def test_pooled_points_empty(self):
        tract = Tract(np.empty((0, 3)), [], step=0.3)
        assert tract.points.shape == (0, 3) and tract.streamlines == []

    @given(
        pts=st.lists(st.tuples(coord, coord, coord), min_size=2, max_size=6),
        step=st.floats(min_value=0.01, max_value=10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_point_serialization_is_lossless(self, tmp_path_factory, pts, step):
        arr = np.asarray(pts, dtype=float)
        gaps = np.linalg.norm(np.diff(arr, axis=0), axis=1)
        lam = max(step, float(gaps.max()) / 2 + 1e-9) if len(arr) > 1 else step
        path = tmp_path_factory.mktemp("hyp") / "t.tract"
        save_tract(tract_from_lines([arr], step=lam), path)
        assert np.array_equal(load_tract(path).streamlines[0], arr)
