"""Distance transform and minimal-path centerline extraction.

The centerline between two endpoints is the shortest path on the
26-connected foreground voxel graph under the trapezoidal discretization of
the line integral of 1/(distance transform), smoothed and resampled at a
uniform arc-length step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# scipy is imported inside the functions that call it: its first import
# costs ~0.5 s, and `import tractfield` and most stages never call it.

from .errors import ConnectivityError, DomainError, FormatError
from .grids import (
    Mask,
    VolumeGrid,
    _load_lines,
    _save_lines,
    inside_many,
    nearest_indices,
    voxel_centers,
)

DT_EPS = 1e-6  # regularizes 1/DT edge weights at boundary voxels
RESAMPLE_STEP = 0.5  # default arc-length spacing of centerline points, mm
# Most points `_resample` writes: a tiny delta is refused before anything is
# allocated, instead of overflowing or exhausting memory.
_POINT_BUDGET = 1_000_000
_SMOOTH_PASSES = 2

# The 13 undirected directions of the 26-neighborhood (one per +/- pair).
_OFFSETS_13 = tuple(
    off for off in product((-1, 0, 1), repeat=3) if off > (0, 0, 0)
)


@dataclass(frozen=True, eq=False)
class Centerline:
    """Ordered world-space polyline with per-point unit tangents.

    A degenerate single-point centerline (coincident endpoints) carries a
    zero tangent; every multi-point centerline has unit tangents.
    """

    points: np.ndarray
    tangents: np.ndarray
    delta: float = RESAMPLE_STEP

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        tan = np.atleast_2d(np.asarray(self.tangents, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 1:
            raise ValueError("points must be an (n, 3) array with n >= 1")
        if tan.shape != pts.shape:
            raise ValueError("tangents must match points in shape")
        if not (np.isfinite(pts).all() and np.isfinite(tan).all()):
            raise ValueError("points and tangents must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tangents", tan)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def length(self) -> float:
        if len(self.points) < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())


def distance_transform(mask: Mask) -> VolumeGrid:
    """Exact Euclidean distance (mm) from each foreground voxel center to the
    nearest background voxel center; zero outside the foreground, and
    out-of-bounds counts as background.
    """
    from scipy.ndimage import distance_transform_edt

    fg = mask.foreground
    if not fg.any():
        raise DomainError("mask has no foreground voxels")
    padded = np.zeros(tuple(d + 2 for d in mask.grid.dims), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = fg
    # One padding layer suffices: any deeper out-of-bounds voxel lies farther
    # along the same ray than the shell voxel it passes through.
    dist = distance_transform_edt(padded, sampling=mask.grid.spacing)
    data = np.where(fg, dist[1:-1, 1:-1, 1:-1], 0.0)
    g = mask.grid
    return VolumeGrid(g.dims, g.spacing, g.origin, data)


def _shift_slices(off):
    sa, sb = [], []
    for o in off:
        if o == 1:
            sa.append(slice(None, -1))
            sb.append(slice(1, None))
        elif o == -1:
            sa.append(slice(1, None))
            sb.append(slice(None, -1))
        else:
            sa.append(slice(None))
            sb.append(slice(None))
    return tuple(sa), tuple(sb)


def path_energy(dt: VolumeGrid, voxels) -> float:
    """Trapezoidal 1/(DT + eps) line energy of a voxel index chain."""
    idx = np.atleast_2d(np.asarray(voxels))
    if len(idx) < 2:
        return 0.0
    h = 1.0 / (dt.data[idx[:, 0], idx[:, 1], idx[:, 2]] + DT_EPS)
    steps = np.diff(idx, axis=0) * np.asarray(dt.spacing)
    lengths = np.linalg.norm(steps, axis=1)
    return float(np.sum(lengths * 0.5 * (h[:-1] + h[1:])))


def _min_energy_path(dt: VolumeGrid, start, goal) -> np.ndarray:
    from scipy.sparse import csgraph, csr_matrix

    d = dt.data
    fg = d > 0
    fg_idx = np.argwhere(fg)
    n = len(fg_idx)
    ids = np.full(d.shape, -1, dtype=np.int64)
    ids[fg] = np.arange(n)
    h = np.where(fg, 1.0 / (d + DT_EPS), 0.0)
    spacing = np.asarray(dt.spacing)
    rows, cols, weights = [], [], []
    for off in _OFFSETS_13:
        sa, sb = _shift_slices(off)
        both = fg[sa] & fg[sb]
        if not both.any():
            continue
        length = float(np.linalg.norm(np.asarray(off) * spacing))
        rows.append(ids[sa][both])
        cols.append(ids[sb][both])
        weights.append(length * 0.5 * (h[sa][both] + h[sb][both]))
    graph = csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    src = int(ids[start])
    dst = int(ids[goal])
    dist, preds = csgraph.dijkstra(
        graph, directed=False, indices=src, return_predecessors=True
    )
    if not np.isfinite(dist[dst]):
        raise ConnectivityError("endpoints are not connected inside the mask")
    chain = [dst]
    while chain[-1] != src:
        chain.append(int(preds[chain[-1]]))
    return fg_idx[np.array(chain[::-1])]


def _smooth(pts: np.ndarray) -> np.ndarray:
    out = np.array(pts, dtype=float)
    for _ in range(_SMOOTH_PASSES):
        if len(out) < 3:
            break
        out[1:-1] = (out[:-2] + out[1:-1] + out[2:]) / 3.0
    return out


def _pull_inside(pts: np.ndarray, mask: Mask) -> np.ndarray:
    """Replace any point outside the mask by the nearest foreground center."""
    ok = inside_many(mask, pts)
    if ok.all():
        return pts
    from scipy.spatial import cKDTree

    centers = mask.foreground_points()
    _, nn = cKDTree(centers).query(pts[~ok])
    out = pts.copy()
    out[~ok] = centers[nn]
    return out


def _resample(pts: np.ndarray, delta: float) -> np.ndarray:
    segs = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(segs.sum())
    if total <= 0:
        return pts[:1].copy()
    if total / delta > _POINT_BUDGET:
        raise ValueError(f"delta {delta!r} would resample the {total:.4g} mm path into "
                         f"{total / delta:.4g} points, over the budget of {_POINT_BUDGET}")
    cum = np.concatenate([[0.0], np.cumsum(segs)])
    count = max(1, int(round(total / delta)))
    targets = np.linspace(0.0, total, count + 1)
    return np.column_stack([np.interp(targets, cum, pts[:, a]) for a in range(3)])


def _unit_tangents(pts: np.ndarray) -> np.ndarray:
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
    # A zero tangent takes its nearest nonzero predecessor's, or else the
    # first nonzero one after it.
    first = np.argmax(safe)
    for i in np.flatnonzero(~safe):
        t[i] = t[i - 1] if i > first else t[first]
    for i in range(1, n):
        if float(np.dot(t[i], t[i - 1])) < 0:
            t[i] = -t[i]
    return t


def _endpoint_voxel(mask: Mask, p, name: str) -> tuple:
    idx, inb = nearest_indices(mask.grid, [p])
    if not inb[0] or not mask.grid.data[tuple(idx[0])]:
        coords = tuple(float(c) for c in np.asarray(p, dtype=float))
        raise DomainError(f"{name} at {coords} is not inside the mask foreground")
    return tuple(int(v) for v in idx[0])


def extract_centerline(mask: Mask, p1, p2, delta=RESAMPLE_STEP) -> Centerline:
    """Energy-minimal centerline between two world points inside the mask.

    The discrete minimal path is smoothed with a 3-point moving average
    (two passes, endpoints fixed), points pushed outside by smoothing are
    projected back to the nearest foreground voxel center, and the result is
    resampled at arc-length step ``delta`` with central-difference tangents.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    start = _endpoint_voxel(mask, p1, "p1")
    goal = _endpoint_voxel(mask, p2, "p2")
    if start == goal:
        center = voxel_centers(mask.grid, [start])
        return Centerline(center, np.zeros((1, 3)), delta)
    dt = distance_transform(mask)
    chain = _min_energy_path(dt, start, goal)
    pts = voxel_centers(mask.grid, chain)
    pts = _smooth(pts)
    pts = _pull_inside(pts, mask)
    pts = _resample(pts, delta)
    pts = _pull_inside(pts, mask)
    return Centerline(pts, _unit_tangents(pts), delta)


def _nearest_centerline_index(cl: Centerline, pts) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    out = np.empty(len(pts), dtype=np.int64)
    # Chunks of up to 2**20 point pairs (one row at least) bound the
    # temporaries on a long centerline; no row's argmin depends on its chunk.
    rows = max(1, min(2048, 2**20 // len(cl.points)))
    # argmin returns the first minimum, which is the lower-arc-length point
    for lo in range(0, len(pts), rows):
        chunk = pts[lo:lo + rows]
        d2 = ((chunk[:, None, :] - cl.points[None, :, :]) ** 2).sum(axis=2)
        out[lo:lo + len(chunk)] = np.argmin(d2, axis=1)
    return out


def cross_section_normals(cl: Centerline, pts) -> np.ndarray:
    """Tangent of the centerline at its point nearest to each of ``pts``.

    The cross-section plane's normal is the local centerline tangent; when
    two centerline points are equidistant the earlier one wins.
    """
    return cl.tangents[_nearest_centerline_index(cl, pts)]


def save_centerline(cl: Centerline, path):
    """Write a centerline as a one-line tract file with ``step`` = delta."""
    _save_lines(path, cl.delta, cl.points, [len(cl.points)])


def load_centerline(path) -> Centerline:
    """Read a centerline file; tangents are recomputed from the points."""
    delta, pts, counts = _load_lines(path)
    if len(counts) != 1 or not len(pts):
        raise FormatError(f"{path}: centerline file must hold exactly one "
                          "polyline with at least one point")
    return Centerline(pts, _unit_tangents(pts), delta)
