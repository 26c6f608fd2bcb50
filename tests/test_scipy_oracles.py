"""The numpy distance transform, minimal path and nearest-point searches
against the scipy routines they replaced, bit for bit.

The package runs these steps without scipy; only these tests import the
scipy routines, as oracles.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.ndimage import distance_transform_edt
from scipy.sparse import csgraph, csr_matrix
from scipy.spatial import cKDTree

from tractfield import (DomainError, PhantomSpec, distance_transform,
                        extract_centerline, generate)
from tractfield import centerline, grids, metrics
from tractfield.centerline import DT_EPS, _min_energy_path, _pull_inside
from tractfield.grids import nearest_indices, nearest_point_indices
from tractfield.metrics import hausdorff

from conftest import make_mask, random_mask, small_specs, tract_from_lines

pytestmark = pytest.mark.oldest_numpy

# 0.75 and 1.25 are not powers of two, so their products and sums round
# differently from unit spacing's.
SPACINGS = [(1.0, 1.0, 1.0), (0.75, 0.75, 0.75), (1.25, 1.25, 1.25), (0.75, 1.25, 1.0),
            (0.5, 2.0, 1.25)]


def oracle_mask(seed: int):
    """Odd seeds: a union of balls.  Even seeds: independent random voxels,
    whose many equal distances make equal-cost paths common."""
    rng = np.random.default_rng(seed)
    spacing = SPACINGS[seed % len(SPACINGS)]
    if seed % 2:
        return random_mask(rng, rng.integers(4, 13, size=3), spacing), rng
    fg = rng.uniform(size=rng.integers(3, 12, size=3)) < rng.uniform(0.4, 0.95)
    fg.flat[0] = True
    return make_mask(fg, spacing), rng


def scipy_distance(mask) -> np.ndarray:
    padded = np.zeros(tuple(d + 2 for d in mask.dims), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = mask.foreground
    dist = distance_transform_edt(padded, sampling=mask.spacing)
    return np.where(mask.foreground, dist[1:-1, 1:-1, 1:-1], 0.0)


def exact_distance(mask) -> np.ndarray:
    """``distance_transform``'s documented arithmetic by exhaustive search:
    the least (fl(sx dx)**2 + fl(sy dy)**2) + fl(sz dz)**2 over background
    voxels, out-of-bounds ones included, then its square root.

    Offsets are tried in increasing order of that sum, and each foreground
    voxel takes the first one that lands on background.  Offsets reach the
    grid's size along each axis, past its edge from every voxel.
    """
    fg = mask.foreground
    dims = np.array(fg.shape)
    padded = np.zeros(tuple(3 * dims), dtype=bool)
    padded[tuple(slice(n, 2 * n) for n in dims)] = fg
    offsets = np.indices(tuple(2 * dims + 1)).reshape(3, -1).T - dims
    sq = np.square(np.abs(offsets) * np.asarray(mask.spacing))
    d2 = (sq[:, 0] + sq[:, 1]) + sq[:, 2]
    strides = np.array(padded.strides) // padded.itemsize
    steps = offsets @ strides
    flat = padded.ravel()
    voxels = np.argwhere(fg)
    pos = (voxels + dims) @ strides
    best = np.empty(len(pos))
    left = np.arange(len(pos))
    for i in np.argsort(d2):
        hit = ~flat[pos[left] + steps[i]]
        best[left[hit]] = d2[i]
        left = left[~hit]
        if not len(left):
            break
    out = np.zeros(fg.shape)
    out[tuple(voxels.T)] = np.sqrt(best)
    return out


def scipy_path(dt, start, goal):
    """The voxel chain scipy's Dijkstra finds on the 26-neighbor graph, each
    edge once, weighted as ``_min_energy_path`` weighs it; None when the
    endpoints are not connected."""
    d = dt.data
    fg = d > 0
    fg_idx = np.argwhere(fg)
    ids = np.full(d.shape, -1, dtype=np.int64)
    ids[fg] = np.arange(len(fg_idx))
    h = np.where(fg, 1.0 / (d + DT_EPS), 0.0)
    rows, cols, weights = [], [], []
    for off in product((-1, 0, 1), repeat=3):
        if off <= (0, 0, 0):
            continue
        sa = tuple(slice(1, None) if o < 0 else slice(None, -1) if o else slice(None)
                   for o in off)
        sb = tuple(slice(None, -1) if o < 0 else slice(1, None) if o else slice(None)
                   for o in off)
        both = fg[sa] & fg[sb]
        length = float(np.linalg.norm(np.asarray(off) * np.asarray(dt.spacing)))
        rows.append(ids[sa][both])
        cols.append(ids[sb][both])
        weights.append(length * 0.5 * (h[sa][both] + h[sb][both]))
    n = len(fg_idx)
    graph = csr_matrix(
        (np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    src, dst = int(ids[start]), int(ids[goal])
    dist, preds = csgraph.dijkstra(graph, directed=False, indices=src,
                                   return_predecessors=True)
    if not np.isfinite(dist[dst]):
        return None
    chain = [dst]
    while chain[-1] != src:
        chain.append(int(preds[chain[-1]]))
    return fg_idx[chain[::-1]]


def assert_same_path(dt, start, goal):
    want = scipy_path(dt, start, goal)
    if want is None:
        with pytest.raises(DomainError, match="not connected"):
            _min_energy_path(dt, start, goal)
    else:
        assert _min_energy_path(dt, start, goal).tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(60))
def test_distance_transform_matches_scipy_bytes(seed):
    mask, _ = oracle_mask(seed)
    assert distance_transform(mask).data.tobytes() == scipy_distance(mask).tobytes()


@pytest.mark.parametrize("seed", range(60))
def test_min_energy_path_matches_scipy_on_random_masks(seed):
    mask, rng = oracle_mask(seed)
    dt = distance_transform(mask)
    voxels = mask.foreground_indices()
    for a, b in voxels[rng.integers(len(voxels), size=(4, 2))]:
        assert_same_path(dt, tuple(a), tuple(b))


# Offsets (1, 1, 2), (1, 2, 1) and (2, 1, 1) tie in exact arithmetic but not
# after rounding; at three voxels scipy reports the one that rounds up.
@example(spec=PhantomSpec(kind="helix", radius=2.0, spacing=(0.7478366422535947,) * 3,
                          helix_radius=3.5, pitch=6.0, turns=1.0))
@given(spec=small_specs())
@settings(max_examples=40, deadline=None)
def test_min_energy_path_matches_scipy_on_phantoms(spec):
    ph = generate(spec)
    dt = distance_transform(ph.mask)
    assert dt.data.tobytes() == exact_distance(ph.mask).tobytes()
    # scipy reports the distance to one background voxel, in the same
    # arithmetic, so it is never below the least one.
    assert (dt.data <= scipy_distance(ph.mask)).all()
    start, goal = (tuple(nearest_indices(ph.mask, [p])[0][0]) for p in (ph.p1, ph.p2))
    assert_same_path(dt, start, goal)


def kd_hausdorff(a, b) -> tuple:
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    return max(float(d_ab.max()), float(d_ba.max())), 0.5 * (d_ab.mean() + d_ba.mean())


def rounded_tract(rng, count):
    """``count`` points on a 0.5 mm lattice (many equal distances), as lines
    of two or three points."""
    pts = np.round(rng.uniform(-4.0, 4.0, (count, 3)) * 2) / 2
    counts = [2] * (count // 2 - count % 2) + [3] * (count % 2)
    return tract_from_lines(np.split(pts, np.cumsum(counts)[:-1]), 10.0)


@pytest.mark.parametrize("path", ["as set", "brute force", "k-d trees"])
def test_hausdorff_matches_kd_trees(monkeypatch, path):
    limit = metrics._BRUTE_FORCE_POINTS
    if path != "as set":
        monkeypatch.setattr(metrics, "_BRUTE_FORCE_POINTS",
                            10**9 if path == "brute force" else 0)
    # few pairs per block, so that blocks end mid-set
    monkeypatch.setattr(metrics, "_PAIR_BLOCK", 4096)
    rng = np.random.default_rng(17)
    for small in (2, 3, 7, limit, limit + 1, 2 * limit + 1):
        for big in (small, small + 1, 900):
            a, b = rounded_tract(rng, small), rounded_tract(rng, big)
            want = kd_hausdorff(a.points, b.points)
            assert hausdorff(a, b) == want
            assert hausdorff(b, a) == want


def test_hausdorff_skips_pairs_exactly(monkeypatch):
    # A tract-like cloud around a helix axis, and the axis plus points far
    # off it: small blocks of the cloud rule out most axis points, and an
    # outlier's nearest cloud point lies in a block no axis point needs.
    monkeypatch.setattr(metrics, "_PAIR_BLOCK", 2048)
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 2 * np.pi, 100)
    axis = np.column_stack([8 * np.cos(t), 8 * np.sin(t), 8 * t / (2 * np.pi)])
    cloud = axis[rng.integers(0, 100, 3000)] + rng.normal(0.0, 1.0, (3000, 3))
    far = rng.uniform(-30.0, 30.0, (5, 3)) + [0.0, 0.0, 40.0]
    a = tract_from_lines(np.split(np.round(cloud, 1), 1500), 100.0)
    b = tract_from_lines([np.vstack([axis, far])], 100.0)
    want = kd_hausdorff(a.points, b.points)
    assert hausdorff(a, b) == want
    assert hausdorff(b, a) == want


def test_nearest_point_takes_the_lowest_index_on_a_tie(monkeypatch):
    monkeypatch.setattr(grids, "_PAIR_BLOCK", 64)
    rng = np.random.default_rng(3)
    refs = np.round(rng.uniform(-3, 3, (40, 3)))
    refs = np.vstack([refs, refs[::-1]])
    queries = np.round(rng.uniform(-4, 4, (300, 3)) * 2) / 2
    want = [int(np.argmin(((refs - q) ** 2).sum(axis=1))) for q in queries]
    assert nearest_point_indices(queries, refs).tolist() == want


@pytest.mark.parametrize("seed", range(20))
def test_pulled_points_match_kd_tree(seed):
    mask, rng = oracle_mask(seed)
    lo = np.asarray(mask.origin) - 1.0
    hi = lo + np.asarray(mask.dims) * np.asarray(mask.spacing) + 1.0
    pts = rng.uniform(lo, hi, (200, 3))
    centers = mask.foreground_points()
    got = _pull_inside(pts, mask)
    want = pts.copy()
    outside = ~grids.inside_many(mask, pts)
    want[outside] = centers[cKDTree(centers).query(pts[outside])[1]]
    assert outside.any()
    assert got.tobytes() == want.tobytes()


# Two foreground centers lie at the same rounded distance from a pulled
# point; cKDTree returns the higher index of the two.
@example(spec=PhantomSpec(kind="helix", radius=0.921875, spacing=(0.93359375,) * 3,
                          length=2.0, major_radius=2.0, helix_radius=4.75, pitch=10.0,
                          turns=2.0, fan_rate=0.0625))
@given(spec=small_specs(kinds=("quarter-torus", "helix")))
@settings(max_examples=30, deadline=None)
def test_centerline_pulls_match_kd_tree(spec):
    # Every point that smoothing or resampling moves out of the mask goes to
    # its nearest foreground center, at cKDTree's distance; of equally near
    # centers, to the lowest index.
    ph = generate(spec)
    calls = []
    pull = centerline._pull_inside

    def spy(pts, mask):
        calls.append((pts, pull(pts, mask)))
        return calls[-1][1]

    centerline._pull_inside = spy
    try:
        extract_centerline(ph.mask, ph.p1, ph.p2)
    finally:
        centerline._pull_inside = pull
    centers = ph.mask.foreground_points()
    tree = cKDTree(centers)
    for pts, got in calls:
        outside = ~grids.inside_many(ph.mask, pts)
        want = pts.copy()
        want[outside] = centers[[int(np.argmin(((centers - p) ** 2).sum(axis=1)))
                                 for p in pts[outside]]]
        assert got.tobytes() == want.tobytes()
        gaps = np.sqrt(((want[outside] - pts[outside]) ** 2).sum(axis=1))
        assert gaps.tobytes() == tree.query(pts[outside])[0].tobytes()
