"""Tract comparison metrics: voxel overlap and closest-point distances.

Overlap rasterizes each tract onto a reference grid (marking every voxel a
densified streamline passes through) and scores the Dice coefficient as a
percentage.  Distances pool all streamline points of each tract and report
the symmetric Hausdorff maximum and the symmetric average of closest-point
distances, both in mm.
"""

from __future__ import annotations

import numpy as np

# scipy is imported inside the functions that call it: its first import
# costs ~0.5 s, and `import tractfield` and most stages never call it.

from .errors import DomainError
from .grids import Mask, Tract, VolumeGrid, _line_deltas, nearest_indices, same_geometry


def _reference_grid(ref) -> VolumeGrid:
    return ref.grid if isinstance(ref, Mask) else ref


def _densify(tract: Tract, max_gap: float) -> np.ndarray:
    """Every line's points with evenly spaced points inserted between them,
    so consecutive gaps along a line are <= max_gap; lines stay in order."""
    points = tract.points
    # a line's last point takes a zero step: nothing is inserted after it
    deltas = _line_deltas(points, tract.counts)
    counts = np.linalg.norm(deltas, axis=1) / max_gap
    counts = np.maximum(1, np.ceil(counts).astype(np.int64))
    seg = np.repeat(np.arange(len(points)), counts)
    # Each dense point's offset in its segment over the segment's count;
    # these integers are exact in float64.
    frac = np.arange(len(seg), dtype=float)
    frac -= np.repeat(np.cumsum(counts) - counts, counts)
    frac /= counts[seg]
    # points[seg] + frac * deltas[seg], built in place; deltas is let go
    # first, so at most two point-sized arrays besides ``points`` are alive.
    dense = deltas[seg]
    del deltas
    dense *= frac[:, None]
    dense += points[seg]
    return dense


def voxelize(tract: Tract, ref) -> Mask:
    """Mask of reference-grid voxels visited by the tract.

    Streamline segments are densified to at most half the smallest voxel
    spacing before binning so thin diagonal runs cannot skip voxels; points
    outside the grid are ignored.  An empty tract gives an empty mask.
    """
    grid = _reference_grid(ref)
    data = np.zeros(grid.dims, dtype=np.uint8)
    idx, inb = nearest_indices(grid, _densify(tract, 0.5 * min(grid.spacing)))
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
    from scipy.spatial import cKDTree

    if not len(a.points) or not len(b.points):
        raise DomainError("hausdorff needs two nonempty tracts")
    d_ab = cKDTree(b.points).query(a.points)[0]
    d_ba = cKDTree(a.points).query(b.points)[0]
    hd = max(float(d_ab.max()), float(d_ba.max()))
    ahd = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    return hd, ahd
