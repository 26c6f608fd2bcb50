"""Tract comparison metrics: voxel overlap and closest-point distances.

Overlap rasterizes each tract onto a reference grid (marking every voxel a
densified streamline passes through) and scores the Dice coefficient as a
percentage.  Distances pool all streamline points of each tract and report
the symmetric Hausdorff maximum and the symmetric average of closest-point
distances, both in mm.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .grids import (Lattice, Mask, Tract, _line_deltas, _line_gaps, closest_points,
                    nearest_indices, same_geometry)

# Lines that `voxelize` densifies at a time.  A mask is a union, so the chunks
# mark the one-pass mask, and the dense points stay bounded on a large tract.
_VOXELIZE_LINES = 256
# Above this many points in the smaller set, `hausdorff` builds two k-d trees
# (scipy's cKDTree, imported only then) instead of comparing point pairs;
# near here both take the same time on a tract against its 0.5 mm-step axis.
_BRUTE_FORCE_POINTS = 128


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


def voxelize(tract: Tract, ref: Lattice) -> Mask:
    """Mask of the voxels of grid ``ref`` that the tract visits.

    Only ``ref``'s geometry is read, so any grid serves: a volume, a mask or
    a peaks field.  Streamline segments are densified to at most half the
    smallest voxel spacing before binning so thin diagonal runs cannot skip
    voxels; points outside the grid are ignored.  An empty tract gives an
    empty mask.
    """
    data = np.zeros(ref.dims, dtype=np.uint8)
    ends = np.cumsum(tract.counts)
    for lo in range(0, len(ends), _VOXELIZE_LINES):
        hi = min(lo + _VOXELIZE_LINES, len(ends))
        start = ends[lo - 1] if lo else 0
        dense = _densify(tract.points[start:ends[hi - 1]], tract.counts[lo:hi],
                         0.5 * min(ref.spacing))
        idx, inb = nearest_indices(ref, dense)
        hits = idx[inb]
        data[hits[:, 0], hits[:, 1], hits[:, 2]] = 1
    return Mask(ref.dims, ref.spacing, ref.origin, data)


def spatial_overlap(a: Mask, b: Mask) -> float:
    """Dice coefficient of two masks as a percentage; 0 when both are empty."""
    if not same_geometry(a, b):
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
    averages.  Points too far apart for a squared distance in float64 raise
    FloatingPointError.
    """
    if not len(a.points) or not len(b.points):
        raise DomainError("hausdorff needs two nonempty tracts")
    # An overflowing squared distance is inf, which the check below rejects.
    with np.errstate(over="ignore"):
        if min(len(a.points), len(b.points)) > _BRUTE_FORCE_POINTS:
            from scipy.spatial import cKDTree

            # Unbalanced, uncompacted trees build faster and find the same distances.
            d_ab = cKDTree(b.points, balanced_tree=False, compact_nodes=False).query(a.points)[0]
            d_ba = cKDTree(a.points, balanced_tree=False, compact_nodes=False).query(b.points)[0]
        else:
            # The larger set first: its nearest indices cost nothing extra.
            big, small = sorted((a.points, b.points), key=len, reverse=True)
            d_ab, d_ba = (np.sqrt(d2, out=d2) for d2 in closest_points(big, small)[1:])
        hd = max(float(d_ab.max()), float(d_ba.max()))
        ahd = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    if not (math.isfinite(hd) and math.isfinite(ahd)):
        raise FloatingPointError("hausdorff distances overflow: the tracts' points lie "
                                 "too far apart for float64")
    return hd, ahd
