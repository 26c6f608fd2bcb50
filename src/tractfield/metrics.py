"""Tract comparison metrics: voxel overlap and closest-point distances.

Overlap rasterizes each tract onto a reference grid (marking every voxel a
densified streamline passes through) and scores the Dice coefficient as a
percentage.  Distances pool all streamline points of each tract and report
the symmetric Hausdorff maximum and the symmetric average of closest-point
distances, both in mm.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .grids import (_PAIR_BLOCK, Mask, Tract, VolumeGrid, _line_deltas, _line_gaps,
                    _sq_distance_blocks, nearest_indices, same_geometry)

# Lines that `voxelize` densifies at a time.  A mask is a union, so the chunks
# mark the one-pass mask, and the dense points stay bounded on a large tract.
_VOXELIZE_LINES = 256
# Above this many points in the smaller set, `hausdorff` builds two k-d trees
# (scipy's cKDTree, imported only then) instead of comparing point pairs;
# near here both take the same time on a tract against its 0.5 mm-step axis.
_BRUTE_FORCE_POINTS = 128
# Cells per side of the box by which that search sorts the larger set.
_CELLS = 8


def _reference_grid(ref) -> VolumeGrid:
    return ref.grid if isinstance(ref, Mask) else ref


def _densify(points, counts, max_gap: float) -> np.ndarray:
    """Every line's points with evenly spaced points inserted between them,
    so consecutive gaps along a line are <= max_gap; lines stay in order."""
    # a line's last point takes a zero step: nothing is inserted after it
    steps = _line_gaps(points, counts) / max_gap
    steps = np.maximum(1, np.ceil(steps).astype(np.int64))
    # Each dense point's offset in its segment over the segment's count;
    # these integers are exact in float64.
    frac = np.arange(steps.sum(), dtype=float)
    frac -= np.repeat(np.cumsum(steps) - steps, steps)
    frac /= np.repeat(steps, steps)
    # deltas * frac + points, built in place; np.repeat copies cost less
    # than index gathers, and at most two dense point arrays are alive.
    dense = np.repeat(_line_deltas(points, counts), steps, axis=0)
    dense *= frac[:, None]
    del frac
    dense += np.repeat(points, steps, axis=0)
    return dense


def voxelize(tract: Tract, ref) -> Mask:
    """Mask of reference-grid voxels visited by the tract.

    Streamline segments are densified to at most half the smallest voxel
    spacing before binning so thin diagonal runs cannot skip voxels; points
    outside the grid are ignored.  An empty tract gives an empty mask.
    """
    grid = _reference_grid(ref)
    data = np.zeros(grid.dims, dtype=np.uint8)
    ends = np.cumsum(tract.counts)
    for lo in range(0, len(ends), _VOXELIZE_LINES):
        hi = min(lo + _VOXELIZE_LINES, len(ends))
        start = ends[lo - 1] if lo else 0
        dense = _densify(tract.points[start:ends[hi - 1]], tract.counts[lo:hi],
                         0.5 * min(grid.spacing))
        idx, inb = nearest_indices(grid, dense)
        hits = idx[inb]
        data[hits[:, 0], hits[:, 1], hits[:, 2]] = 1
    return Mask(VolumeGrid(grid.dims, grid.spacing, grid.origin, data))


def spatial_overlap(a: Mask, b: Mask) -> float:
    """Dice coefficient of two masks as a percentage; 0 when both are empty."""
    if not same_geometry(a.grid, b.grid):
        raise DomainError("masks live on different grids")
    fa = a.foreground
    fb = b.foreground
    denom = int(fa.sum()) + int(fb.sum())
    if denom == 0:
        return 0.0
    return 200.0 * int((fa & fb).sum()) / denom


def hausdorff(a: Tract, b: Tract) -> tuple:
    """Symmetric Hausdorff and average closest-point distance in mm.

    Distances run between the pooled point sets of the two tracts: HD is
    the larger of the two directed maxima, AHD the mean of the two directed
    averages.
    """
    if not len(a.points) or not len(b.points):
        raise DomainError("hausdorff needs two nonempty tracts")
    if min(len(a.points), len(b.points)) > _BRUTE_FORCE_POINTS:
        from scipy.spatial import cKDTree

        # Unbalanced, uncompacted trees build faster and find the same distances.
        d_ab = cKDTree(b.points, balanced_tree=False, compact_nodes=False).query(a.points)[0]
        d_ba = cKDTree(a.points, balanced_tree=False, compact_nodes=False).query(b.points)[0]
    else:
        d_ab, d_ba = _closest_distances(a.points, b.points)
    hd = max(float(d_ab.max()), float(d_ba.max()))
    ahd = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    return hd, ahd


def _closest_distances(a, b) -> tuple:
    """Each point of ``a``'s distance to the closest point of ``b``, and each
    of ``b``'s to ``a``: cKDTree's values, bit for bit.

    The larger set is sorted by coarse cell into blocks of nearby points.
    The box around a block bounds each of its pairs' squared distances, in
    the pairs' own rounded arithmetic, from below and from above.  One pass
    over the pairs that a bound cannot rule out gives both directions.
    """
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    corner = big.min(axis=0)
    side = float((big.max(axis=0) - corner).max()) / _CELLS or 1.0
    cells = ((big - corner) / side).astype(np.uint16)  # a 16-bit key sorts by radix
    order = np.argsort((cells[:, 0] * (_CELLS + 1) + cells[:, 1]) * (_CELLS + 1) + cells[:, 2],
                       kind="stable")
    pts = big[order]
    rows = max(1, _PAIR_BLOCK // len(small))  # a block's pairs fill one pair block at most
    starts = np.arange(0, len(pts), rows)
    low = np.minimum.reduceat(pts, starts)[:, None] - small  # (blocks, small, 3)
    high = np.maximum.reduceat(pts, starts)[:, None] - small
    near = _sum_squares(np.maximum(np.maximum(low, -high), 0.0))
    far = _sum_squares(np.maximum(-low, high))
    # A block's points are each within its least `far` of some small point,
    # and a small point within its least `far` of some block's point.
    need = (near <= far.min(axis=1, keepdims=True)) | (near <= far.min(axis=0))
    to_small = np.empty(len(pts))
    to_big = np.full(len(small), np.inf)
    for block, start in enumerate(starts):
        cols = np.flatnonzero(need[block])
        for lo, d2 in _sq_distance_blocks(pts[start:start + rows], small[cols]):
            d2.min(axis=1, out=to_small[start + lo:start + lo + len(d2)])
            to_big[cols] = np.minimum(to_big[cols], d2.min(axis=0))
    to_small[order] = to_small.copy()
    np.sqrt(to_small, out=to_small)
    np.sqrt(to_big, out=to_big)
    return (to_small, to_big) if big is a else (to_big, to_small)


def _sum_squares(d: np.ndarray) -> np.ndarray:
    """x^2 + y^2 + z^2 over the last axis, summed in that order."""
    d = d * d
    return (d[..., 0] + d[..., 1]) + d[..., 2]
