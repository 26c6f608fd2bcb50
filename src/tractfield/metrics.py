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
from .grids import Mask, Tract, VolumeGrid, nearest_indices, pooled_points, same_geometry


def _reference_grid(ref) -> VolumeGrid:
    return ref.grid if isinstance(ref, Mask) else ref


def _densify(points: np.ndarray, max_gap: float) -> np.ndarray:
    """Insert evenly spaced points so consecutive gaps are <= max_gap."""
    deltas = np.diff(points, axis=0)
    lengths = np.linalg.norm(deltas, axis=1)
    counts = np.maximum(1, np.ceil(lengths / max_gap).astype(np.int64))
    total = int(counts.sum())
    seg = np.repeat(np.arange(len(lengths)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    frac = offsets / counts[seg]
    dense = points[seg] + frac[:, None] * deltas[seg]
    return np.vstack([dense, points[-1]])


def voxelize(tract: Tract, ref) -> Mask:
    """Mask of reference-grid voxels visited by the tract.

    Streamline segments are densified to at most half the smallest voxel
    spacing before binning so thin diagonal runs cannot skip voxels; points
    outside the grid are ignored.  An empty tract gives an empty mask.
    """
    grid = _reference_grid(ref)
    data = np.zeros(grid.dims, dtype=np.uint8)
    max_gap = 0.5 * min(grid.spacing)
    for line in tract.streamlines:
        dense = _densify(np.asarray(line, dtype=float), max_gap)
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
    from scipy.spatial import cKDTree

    pa = pooled_points(a)
    pb = pooled_points(b)
    if not len(pa) or not len(pb):
        raise DomainError("hausdorff needs two nonempty tracts")
    d_ab = cKDTree(pb).query(pa)[0]
    d_ba = cKDTree(pa).query(pb)[0]
    hd = max(float(d_ab.max()), float(d_ba.max()))
    ahd = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    return hd, ahd
