"""Metric behaviour: rasterized overlap and pooled closest-point distances."""

import numpy as np
import pytest

from tractfield import (
    DomainError,
    VolumeGrid,
    hausdorff,
    metrics,
    nearest_indices,
    spatial_overlap,
    voxelize,
)

from conftest import brute_force_hausdorff, make_grid, make_mask, tract_from_lines


def two_point_tract(points, step=1.0):
    return tract_from_lines([np.asarray(points, dtype=float)], step)


def densify_line(points, max_gap):
    """One line's densified points, segment by segment: the oracle for
    ``voxelize``'s one pass over every line."""
    deltas = np.diff(points, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    counts = np.maximum(1, np.ceil(lengths / max_gap).astype(np.int64))
    total = int(counts.sum())
    seg = np.repeat(np.arange(len(lengths)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    frac = offsets / counts[seg]
    dense = points[seg] + frac[:, None] * deltas[seg]
    return np.vstack([dense, points[-1]])


def gathered_densify(tract, max_gap):
    """``_densify`` written with index gathers, as deltas[seg] * frac +
    points[seg]: its bitwise oracle, since ``_densify`` builds the same
    products and sums from np.repeat copies."""
    points = tract.points
    deltas = np.diff(points, axis=0, append=points[-1:])
    deltas[np.cumsum(tract.counts) - 1] = 0.0
    counts = np.maximum(1, np.ceil(np.linalg.norm(deltas, axis=1) / max_gap).astype(np.int64))
    seg = np.repeat(np.arange(len(points)), counts)
    frac = np.arange(len(seg), dtype=float)
    frac -= np.repeat(np.cumsum(counts) - counts, counts)
    frac /= counts[seg]
    return deltas[seg] * frac[:, None] + points[seg]


def voxelize_by_line(tract, grid):
    data = np.zeros(grid.dims, dtype=np.uint8)
    for line in tract.streamlines:
        idx, inb = nearest_indices(grid, densify_line(line, 0.5 * min(grid.spacing)))
        hits = idx[inb]
        data[hits[:, 0], hits[:, 1], hits[:, 2]] = 1
    return data


def random_lines(rng, step, low, high):
    """A few random walks, the first of two points, with steps up to 2*step
    (some of zero length), starting anywhere in [low, high)."""
    lines = []
    for count in [2, *rng.integers(2, 12, size=rng.integers(0, 5))]:
        start = rng.uniform(low, high)
        steps = rng.normal(size=(count - 1, 3))
        steps *= rng.uniform(0.0, 2.0 * step, (count - 1, 1)) / np.linalg.norm(
            steps, axis=1, keepdims=True)
        steps[rng.uniform(size=count - 1) < 0.1] = 0.0
        lines.append(np.vstack([start, start + np.cumsum(steps, axis=0)]))
    return lines


class TestVoxelize:
    def test_axis_line_marks_crossed_voxels(self):
        mask = make_mask(np.zeros((5, 3, 3), dtype=np.uint8))
        tract = two_point_tract([(0.0, 0, 0), (2.0, 0, 0)])
        out = voxelize(tract, mask)
        expected = np.zeros((5, 3, 3), dtype=bool)
        expected[0:3, 0, 0] = True
        assert np.array_equal(out.foreground, expected)

    def test_points_outside_grid_ignored(self):
        mask = make_mask(np.zeros((5, 3, 3), dtype=np.uint8))
        tract = two_point_tract([(0.0, 0, 0), (8.0, 0, 0)], step=4.0)
        out = voxelize(tract, mask)
        assert out.foreground[:, 0, 0].all()
        assert int(out.foreground.sum()) == 5

    def test_empty_tract_gives_empty_mask(self):
        mask = make_mask(np.zeros((4, 4, 4), dtype=np.uint8))
        out = voxelize(tract_from_lines([], 0.5), mask)
        assert int(out.foreground.sum()) == 0

    def test_far_away_tract_gives_empty_mask(self):
        mask = make_mask(np.zeros((4, 4, 4), dtype=np.uint8))
        out = voxelize(two_point_tract([(50.0, 50, 50), (51.0, 51, 51)], 2.0), mask)
        assert int(out.foreground.sum()) == 0

    def test_duplicate_streamlines_idempotent(self):
        mask = make_mask(np.zeros((6, 6, 6), dtype=np.uint8))
        line = np.array([[1.0, 1.0, 1.0], [4.0, 3.0, 2.0]])
        once = voxelize(tract_from_lines([line], 4.0), mask)
        twice = voxelize(tract_from_lines([line, line.copy()], 4.0), mask)
        assert np.array_equal(once.foreground, twice.foreground)

    def test_mask_and_grid_references_agree(self):
        mask = make_mask(np.zeros((5, 5, 5), dtype=np.uint8))
        tract = two_point_tract([(0.0, 0, 0), (4.0, 4.0, 4.0)], step=4.0)
        via_mask = voxelize(tract, mask)
        via_grid = voxelize(tract, make_grid(np.full((5, 5, 5), 0.25)))
        assert np.array_equal(via_mask.foreground, via_grid.foreground)

    def test_output_inherits_reference_geometry(self):
        grid = VolumeGrid(
            (4, 5, 6), (0.5, 1.0, 2.0), (-1.0, 3.0, 0.0), np.zeros((4, 5, 6), np.uint8)
        )
        out = voxelize(two_point_tract([(-1.0, 3.0, 0.0), (0.0, 3.0, 0.0)]), grid)
        assert out.dims == grid.dims
        assert out.spacing == grid.spacing
        assert out.origin == grid.origin

    def test_respects_spacing_and_origin(self):
        grid = VolumeGrid(
            (5, 3, 3), (0.5, 0.5, 0.5), (10.0, 0.0, 0.0), np.zeros((5, 3, 3), np.uint8)
        )
        out = voxelize(two_point_tract([(10.0, 0, 0), (11.0, 0, 0)]), grid)
        assert np.flatnonzero(out.foreground[:, 0, 0]).tolist() == [0, 1, 2]
        assert int(out.foreground.sum()) == 3

    def test_diagonal_matches_dense_sampling_oracle(self):
        # a corner-to-corner diagonal must not skip voxels; a 1e4-point
        # sampling of the same segment decides which voxels count
        mask = make_mask(np.zeros((10, 10, 10), dtype=np.uint8))
        p0 = np.zeros(3)
        p1 = np.full(3, 9.0)
        out = voxelize(tract_from_lines([np.stack([p0, p1])], 8.0), mask)
        t = np.linspace(0.0, 1.0, 10_000)[:, None]
        samples = p0 + t * (p1 - p0)
        oracle = len(np.unique(np.floor(samples + 0.5).astype(int), axis=0))
        assert abs(int(out.foreground.sum()) - oracle) <= 2


    def test_matches_per_line_oracle(self, rng):
        # Points range past every face of the grid, so some fall off it.
        grid = VolumeGrid((7, 6, 5), (0.5, 1.0, 0.75), (-1.0, 2.0, 0.5),
                          np.zeros((7, 6, 5), np.uint8))
        low = np.array(grid.origin) - 2.0
        high = low + np.array(grid.dims) * grid.spacing + 4.0
        for step in (0.2, 0.9, 1.5):
            for _ in range(20):
                tract = tract_from_lines(random_lines(rng, step, low, high), step)
                dense = np.vstack([densify_line(line, 0.25)
                                   for line in tract.streamlines])
                assert np.array_equal(metrics._densify(tract.points, tract.counts, 0.25), dense)
                assert np.array_equal(voxelize(tract, grid).data,
                                      voxelize_by_line(tract, grid))

    def test_chunks_of_lines_mark_the_one_pass_mask(self, rng, monkeypatch):
        grid = VolumeGrid((9, 8, 7), (0.5, 1.0, 0.75), (-1.0, 2.0, 0.5),
                          np.zeros((9, 8, 7), np.uint8))
        low = np.array(grid.origin) - 1.0
        high = low + np.array(grid.dims) * grid.spacing + 2.0
        # at least 8 lines, some of them off the grid
        lines = [line for _ in range(8) for line in random_lines(rng, 0.9, low, high)]
        tract = tract_from_lines(lines, 0.9)
        monkeypatch.setattr(metrics, "_VOXELIZE_LINES", len(lines))
        one_pass = voxelize(tract, grid).data.tobytes()
        for chunk in (1, 3, len(lines) - 1):
            monkeypatch.setattr(metrics, "_VOXELIZE_LINES", chunk)
            assert voxelize(tract, grid).data.tobytes() == one_pass, chunk


class TestDensify:
    @pytest.mark.parametrize("step, max_gap, splits", [(0.2, 0.5, False), (0.9, 0.1, True)],
                             ids=["no split segment", "some split segments"])
    def test_matches_gathered_formula_bit_for_bit(self, rng, step, max_gap, splits):
        # Steps run up to 2 * step: none is split at 0.2, most at 0.9, into
        # up to 18 pieces.
        grown = 0
        for _ in range(20):
            tract = tract_from_lines(random_lines(rng, step, np.full(3, -5.0),
                                                  np.full(3, 5.0)), step)
            got = metrics._densify(tract.points, tract.counts, max_gap)
            assert got.tobytes() == gathered_densify(tract, max_gap).tobytes()
            grown += len(got) > len(tract.points)
        assert bool(grown) == splits


class TestSpatialOverlap:
    def _mask_pair(self, build_a, build_b, dims=(10, 10, 10)):
        a = np.zeros(dims, dtype=np.uint8)
        b = np.zeros(dims, dtype=np.uint8)
        build_a(a)
        build_b(b)
        return make_mask(a), make_mask(b)

    def test_half_overlap_scores_fifty(self):
        def first_hundred(arr):
            arr.reshape(-1)[:100] = 1

        def shifted_hundred(arr):
            arr.reshape(-1)[50:150] = 1

        a, b = self._mask_pair(first_hundred, shifted_hundred)
        assert spatial_overlap(a, b) == 50.0

    def test_identical_masks_score_hundred(self, rng):
        data = (rng.random((8, 8, 8)) < 0.3).astype(np.uint8)
        a = make_mask(data)
        b = make_mask(data.copy())
        assert spatial_overlap(a, b) == 100.0

    def test_disjoint_masks_score_zero(self):
        def left(arr):
            arr[:3] = 1

        def right(arr):
            arr[7:] = 1

        a, b = self._mask_pair(left, right)
        assert spatial_overlap(a, b) == 0.0

    def test_both_empty_scores_zero(self):
        a, b = self._mask_pair(lambda arr: None, lambda arr: None)
        assert spatial_overlap(a, b) == 0.0

    def test_one_empty_scores_zero(self):
        def some(arr):
            arr[2:4, 2:4, 2:4] = 1

        a, b = self._mask_pair(some, lambda arr: None)
        assert spatial_overlap(a, b) == 0.0

    def test_exact_dice_ratio(self):
        def single(arr):
            arr[0, 0, 0] = 1

        def pair(arr):
            arr[0, 0, 0] = 1
            arr[1, 0, 0] = 1

        a, b = self._mask_pair(single, pair)
        assert spatial_overlap(a, b) == pytest.approx(200.0 / 3.0, abs=1e-12)

    def test_symmetric(self, rng):
        a = make_mask((rng.random((6, 6, 6)) < 0.4).astype(np.uint8))
        b = make_mask((rng.random((6, 6, 6)) < 0.4).astype(np.uint8))
        assert spatial_overlap(a, b) == spatial_overlap(b, a)

    def test_bounded_by_zero_and_hundred(self, rng):
        for _ in range(10):
            a = make_mask((rng.random((5, 5, 5)) < 0.5).astype(np.uint8))
            b = make_mask((rng.random((5, 5, 5)) < 0.5).astype(np.uint8))
            score = spatial_overlap(a, b)
            assert 0.0 <= score <= 100.0

    def test_mismatched_geometry_raises(self):
        a = make_mask(np.ones((4, 4, 4), dtype=np.uint8))
        b = make_mask(np.ones((4, 4, 4), dtype=np.uint8), origin=(1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="different grids"):
            spatial_overlap(a, b)
        c = make_mask(np.ones((4, 4, 5), dtype=np.uint8))
        with pytest.raises(DomainError, match="different grids"):
            spatial_overlap(a, c)


class TestHausdorff:
    def _random_tract(self, rng, n=200):
        points = rng.uniform(0.0, 10.0, (n, 3))
        return tract_from_lines([points], step=20.0)

    def test_single_point_pair(self):
        a = two_point_tract([(0.0, 0, 0), (0.0, 0, 0)])
        b = two_point_tract([(3.0, 4.0, 0), (3.0, 4.0, 0)])
        assert hausdorff(a, b) == (5.0, 5.0)

    def test_identical_tracts_zero(self, rng):
        a = self._random_tract(rng)
        hd, ahd = hausdorff(a, a)
        assert hd == 0.0 and ahd == 0.0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(5):
            a = self._random_tract(rng)
            b = self._random_tract(rng)
            expected = brute_force_hausdorff(a.points, b.points)
            assert hausdorff(a, b) == expected

    @pytest.mark.parametrize("case", ["all equal", "collinear", "duplicates", "one point"])
    def test_degenerate_sets_match_brute_force(self, rng, case):
        # Sliding-midpoint and balanced trees split these sets differently;
        # the nearest distances must not depend on it.
        if case == "all equal":
            a = np.full((40, 3), 2.5)
            b = np.vstack([np.full((30, 3), -1.25), rng.uniform(0.0, 10.0, (30, 3))])
        elif case == "collinear":
            axis = np.array([1.0, -2.0, 0.5])
            a = np.outer(rng.integers(0, 50, 80) * 0.25, axis) + 3.0
            b = np.outer(rng.uniform(0.0, 12.0, 60), axis) + 3.0
        elif case == "duplicates":
            a = np.repeat(rng.uniform(0.0, 10.0, (20, 3)), 5, axis=0)
            b = rng.uniform(0.0, 10.0, (15, 3))[rng.integers(0, 15, 90)]
        else:
            a = np.full((2, 3), 4.0)
            b = rng.uniform(0.0, 10.0, (300, 3))
        ta = tract_from_lines([rng.permutation(a)], step=100.0)
        tb = tract_from_lines([rng.permutation(b)], step=100.0)
        assert hausdorff(ta, tb) == brute_force_hausdorff(ta.points, tb.points)
        assert hausdorff(tb, ta) == brute_force_hausdorff(tb.points, ta.points)

    def test_pools_across_streamlines(self, rng):
        points = rng.uniform(0.0, 10.0, (40, 3))
        split = tract_from_lines([points[:25], points[25:]], step=20.0)
        joined = tract_from_lines([points], step=20.0)
        other = self._random_tract(rng, n=60)
        assert hausdorff(split, other) == hausdorff(joined, other)

    def test_symmetric(self, rng):
        a = self._random_tract(rng, n=80)
        b = self._random_tract(rng, n=120)
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_translation_invariant(self, rng):
        a = self._random_tract(rng, n=50)
        b = self._random_tract(rng, n=50)
        shift = np.array([12.5, -3.25, 7.75])
        a2 = tract_from_lines([line + shift for line in a.streamlines], a.step)
        b2 = tract_from_lines([line + shift for line in b.streamlines], b.step)
        before = hausdorff(a, b)
        after = hausdorff(a2, b2)
        assert abs(before[0] - after[0]) <= 1e-9
        assert abs(before[1] - after[1]) <= 1e-9

    @pytest.mark.parametrize("n", [40, 200], ids=["pairwise", "k-d trees"])
    def test_overflowing_distances_raise(self, rng, n):
        # Both search paths square the 1e200 mm offset to inf, without a warning.
        a = self._random_tract(rng, n=n)
        far = tract_from_lines([a.points + [1e200, 0.0, 0.0]], a.step)
        with pytest.raises(FloatingPointError, match="hausdorff distances overflow"):
            hausdorff(a, far)

    def test_max_dominates_average(self, rng):
        for _ in range(5):
            hd, ahd = hausdorff(self._random_tract(rng), self._random_tract(rng))
            assert hd >= ahd >= 0.0

    def test_empty_tract_raises(self):
        full = two_point_tract([(0.0, 0, 0), (1.0, 0, 0)])
        with pytest.raises(DomainError, match="nonempty"):
            hausdorff(tract_from_lines([], 1.0), full)
        with pytest.raises(DomainError, match="nonempty"):
            hausdorff(full, tract_from_lines([], 1.0))
