"""Distance transform and minimal-path centerline extraction.

The centerline between two endpoints is the shortest path on the
26-connected foreground voxel graph under the trapezoidal discretization of
the line integral of 1/(distance transform), smoothed and resampled at a
uniform arc-length step.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DomainError, FormatError
from .grids import (
    Mask,
    VolumeGrid,
    _checked,
    _dots,
    _load_lines,
    _save_lines,
    closest_points,
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

# The 26-neighborhood's offsets.
_OFFSETS_26 = tuple(off for off in product((-1, 0, 1), repeat=3) if any(off))


@dataclass(frozen=True, eq=False)
class Centerline:
    """Ordered world-space polyline and its arc-length step ``delta``.

    The per-point unit ``tangents`` follow from the points alone, by one rule
    (``_unit_tangents``), so a centerline built in memory and the same points
    loaded from a file carry the same tangents bit for bit.  A single-point
    centerline (coincident endpoints) carries a zero tangent.
    """

    points: np.ndarray
    delta: float = RESAMPLE_STEP
    tangents: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 1:
            raise ValueError("points must be an (n, 3) array with n >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        delta = float(self.delta)
        if not 0 < delta < math.inf:
            raise ValueError("delta must be positive and finite")
        # Neighbours at opposite ends of the float range overflow their difference.
        with np.errstate(over="ignore", invalid="ignore"):
            tangents = _unit_tangents(pts)
        if not np.isfinite(tangents).all():
            raise ValueError("tangents must be finite: neighbouring points differ by "
                             "more than the float range")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "tangents", tangents)


def distance_transform(mask: Mask) -> VolumeGrid:
    """Exact Euclidean distance (mm) from each foreground voxel center to the
    nearest background voxel center; zero outside the foreground, and
    out-of-bounds counts as background.

    The squared distance is the least, over background voxels, of
    (fl(sx dx)**2 + fl(sy dy)**2) + fl(sz dz)**2, found one axis at a time:
    rounding is monotone, so each axis's minimum carries into the next
    exactly.  scipy.ndimage.distance_transform_edt sums the same way but
    reports one voxel's distance, which at offsets that tie only before
    rounding, such as (1, 1, 2) and (2, 1, 1), can be the larger.
    """
    fg = mask.foreground
    if not fg.any():
        raise DomainError("mask has no foreground voxels")
    # The foreground's bounding box and one background shell around it: a
    # background voxel farther out is never nearer than its clamp onto the
    # shell, which is no farther along any axis.
    nonzero = [np.flatnonzero(fg.any(axis=other)) for other in ((1, 2), (0, 2), (0, 1))]
    box = tuple(slice(ix[0], ix[-1] + 1) for ix in nonzero)
    inner = fg[box]
    sub = np.zeros(tuple(n + 2 for n in inner.shape), dtype=bool)
    sub[1:-1, 1:-1, 1:-1] = inner
    squares = [np.square(np.arange(n) * s) for n, s in zip(sub.shape, mask.spacing)]
    d2 = squares[0][_steps_to_background(sub)]
    d2 = _add_min_along(d2, squares[1], axis=1)
    # The z pass runs only on the z lines that hold foreground.
    lines = sub.any(axis=2)
    d2 = _add_min_along(d2[lines], squares[2], axis=1)
    data = np.zeros(mask.dims)
    data[box][inner] = np.sqrt(d2[sub[lines]])  # data[box] is a view
    return VolumeGrid(mask.dims, mask.spacing, mask.origin, data)


def _steps_to_background(sub: np.ndarray) -> np.ndarray:
    """Index steps from each voxel to the nearest False voxel along axis 0,
    whose first and last layers are all False."""
    n = len(sub)
    pos = np.arange(n).reshape(n, 1, 1)
    before = np.maximum.accumulate(np.where(sub, -n, pos), axis=0)
    after = np.minimum.accumulate(np.where(sub, 2 * n, pos)[::-1], axis=0)[::-1]
    return np.minimum(pos - before, after - pos)


def _add_min_along(d2: np.ndarray, squares: np.ndarray, axis: int) -> np.ndarray:
    """``out[.., j, ..] = min over j' of d2[.., j', ..] + squares[|j - j'|]``
    along ``axis``.  An offset whose square reaches the largest entry cannot
    lower any entry, so the scan stops there."""
    out = d2.copy()
    src = np.moveaxis(d2, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    top = out.max()
    for step in range(1, len(src)):
        sq = squares[step]
        if sq >= top:
            break
        np.minimum(dst[step:], src[:-step] + sq, out=dst[step:])
        np.minimum(dst[:-step], src[step:] + sq, out=dst[:-step])
    return out


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
    fg = dt.data > 0
    fg_idx = np.argwhere(fg)
    # Flat indices into the grid padded by one background layer, where no
    # neighbor offset wraps around a face; -1 marks background.
    dims = np.asarray(fg.shape) + 2
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    flat = (fg_idx + 1) @ strides
    ids = np.full(dims.prod(), -1, dtype=np.int64)
    ids[flat] = np.arange(len(fg_idx))
    nbrs = ids[flat[:, None] + np.array(_OFFSETS_26) @ strides]
    # An edge costs its length times the mean of its ends' 1/(DT + eps).
    h = 1.0 / (dt.data[fg] + DT_EPS)
    spacing = np.asarray(dt.spacing)
    half = np.array([float(np.linalg.norm(np.asarray(off) * spacing)) for off in _OFFSETS_26])
    half *= 0.5
    costs = half * (h[:, None] + h[nbrs])  # background neighbors are dropped next
    edge = nbrs >= 0
    ends = np.concatenate([[0], np.cumsum(edge.sum(axis=1))]).tolist()
    src, dst = (int(ids[(np.asarray(v) + 1) @ strides]) for v in (start, goal))
    # array slices copy raw memory: an edge's numbers become Python objects
    # only when the search reads them.
    chain = _dijkstra_chain(array("q", nbrs[edge].tobytes()), array("d", costs[edge].tobytes()),
                            ends, src, dst)
    return fg_idx[chain]


def _dijkstra_chain(nbrs, costs, ends, src, dst) -> list:
    """Node chain from ``src`` to ``dst`` of least summed cost, where node u's
    edges lead to ``nbrs[ends[u]:ends[u + 1]]`` at ``costs`` in that range.

    A node's distance is lowered only by a strictly smaller sum, and nodes of
    equal distance leave the heap highest index first.  Equal-cost paths
    then resolve as scipy.sparse.csgraph.dijkstra's Fibonacci heap resolves
    them on these graphs (the tests compare the two on tie-heavy masks).
    The search stops at ``dst``.
    """
    n = len(ends) - 1
    dist = [math.inf] * n
    pred = [-1] * n
    dist[src] = 0.0
    heap = [(0.0, -src)]
    while heap:
        du, u = heapq.heappop(heap)
        u = -u
        if du > dist[u]:  # a stale entry: u was pushed again, nearer
            continue
        if u == dst:
            break
        lo, hi = ends[u], ends[u + 1]
        for v, cost in zip(nbrs[lo:hi], costs[lo:hi]):
            alt = du + cost
            if alt < dist[v]:
                dist[v] = alt
                pred[v] = u
                heapq.heappush(heap, (alt, -v))
    else:
        raise DomainError("endpoints are not connected inside the mask")
    chain = [dst]
    while chain[-1] != src:
        chain.append(pred[chain[-1]])
    return chain[::-1]


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
    centers = mask.foreground_points()
    out = pts.copy()
    out[~ok] = centers[closest_points(pts[~ok], centers)[0]]
    return out


def _resample(pts: np.ndarray, delta: float) -> np.ndarray:
    segs = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(segs.sum())
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
    t = t[np.maximum.accumulate(np.where(safe, np.arange(n), np.argmax(safe)))]
    # Each tangent takes the sign that agrees with its predecessor's final
    # one.  Against the unsigned predecessor, a negative dot product toggles
    # the sign and a positive one keeps it; a zero one agrees with neither
    # sign, which leaves the tangent as it is and restarts the count.
    dots = _dots(t[1:], t[:-1])
    toggles = np.concatenate([[0], np.cumsum(dots < 0)])
    restart = np.concatenate([[True], dots == 0])
    last = np.maximum.accumulate(np.where(restart, np.arange(n), 0))
    odd = (toggles - toggles[last]) % 2 == 1
    t[odd] = -t[odd]
    return t


def _endpoint_voxel(mask: Mask, p, name: str) -> tuple:
    idx, inb = nearest_indices(mask, [p])
    if inb[0] and mask.data[tuple(idx[0])]:
        return tuple(int(v) for v in idx[0])
    coords = tuple(float(c) for c in np.asarray(p, dtype=float))
    raise DomainError(f"{name} at {coords} is not inside the mask foreground")


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
        center = voxel_centers(mask, [start])
        return Centerline(center, delta)
    dt = distance_transform(mask)
    chain = _min_energy_path(dt, start, goal)
    pts = voxel_centers(mask, chain)
    pts = _smooth(pts)
    pts = _pull_inside(pts, mask)
    pts = _resample(pts, delta)
    pts = _pull_inside(pts, mask)
    return Centerline(pts, delta)


def cross_section_normals(cl: Centerline, pts) -> np.ndarray:
    """Tangent of the centerline at its point nearest to each of ``pts``.

    The cross-section plane's normal is the local centerline tangent; when
    two centerline points are equidistant the earlier one wins.
    """
    return cl.tangents[closest_points(pts, cl.points)[0]]


def save_centerline(cl: Centerline, path):
    """Write a centerline as a one-line tract file with ``step`` = delta."""
    _save_lines(path, cl.delta, cl.points, [len(cl.points)])


def load_centerline(path) -> Centerline:
    """Read a centerline file; its tangents follow from the points."""
    delta, pts, counts = _load_lines(path)
    if len(counts) != 1 or not len(pts):
        raise FormatError(f"{path}: centerline file must hold exactly one "
                          "polyline with at least one point")
    return _checked(path, Centerline, pts, delta)
