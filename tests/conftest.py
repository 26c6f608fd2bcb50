"""Shared fixtures and independent oracles.

The oracles here are deliberately naive (all-pairs loops, dense distance
matrices, direct formula transcriptions) so the fast implementations in the
package have something independent to be checked against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from scipy.linalg import null_space

from tractfield import (
    Mask,
    PhantomSpec,
    PolyField,
    Tract,
    VolumeGrid,
    divergence_constraints,
    term_count,
)
from tractfield.phantom import KINDS


def make_grid(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> VolumeGrid:
    data = np.asarray(data)
    return VolumeGrid(data.shape, spacing, origin, data)


def make_mask(data, spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> Mask:
    return Mask(make_grid(np.asarray(data, dtype=np.uint8), spacing, origin))


def tract_from_lines(lines, step) -> Tract:
    """A Tract holding each of ``lines``, an (m, 3) point sequence, in order."""
    lines = [np.asarray(line, dtype=float) for line in lines]
    points = np.concatenate([np.empty((0, 3)), *lines])
    return Tract(points, [len(line) for line in lines], step)


def brute_force_distance(mask: Mask) -> np.ndarray:
    """All-pairs Euclidean distance to the nearest background voxel center.

    Out-of-bounds voxels count as background; one shell around the grid is
    enough because the nearest outside voxel to any inside point differs
    from it in each coordinate by at most one step.
    """
    fg = mask.foreground
    spacing = np.asarray(mask.grid.spacing, dtype=float)
    padded = np.zeros(tuple(d + 2 for d in mask.grid.dims), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = fg
    bg = (np.argwhere(~padded) - 1) * spacing
    out = np.zeros(mask.grid.dims)
    for idx in np.argwhere(fg):
        delta = bg - idx * spacing
        out[tuple(idx)] = np.sqrt((delta * delta).sum(axis=1)).min()
    return out


def brute_force_hausdorff(a: np.ndarray, b: np.ndarray) -> tuple:
    """O(n*m) HD and AHD over two point sets."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    a_to_b = d.min(axis=1)
    b_to_a = d.min(axis=0)
    hd = max(float(a_to_b.max()), float(b_to_a.max()))
    ahd = 0.5 * (float(a_to_b.mean()) + float(b_to_a.mean()))
    return hd, ahd


def random_divfree_field(
    order: int,
    rng: np.random.Generator,
    offset=(0.0, 0.0, 0.0),
    scale=(1.0, 1.0, 1.0),
) -> PolyField:
    """Random polynomial field drawn inside the divergence-free subspace."""
    m = term_count(order)
    basis = null_space(divergence_constraints(order))
    vec = basis @ rng.normal(size=basis.shape[1])
    coeffs = np.vstack([vec[:m], vec[m : 2 * m], vec[2 * m :]])
    return PolyField(order, coeffs, offset, scale)


def random_mask(rng: np.random.Generator, dims, spacing=(1.0, 1.0, 1.0)) -> Mask:
    """Random nonempty blob mask: union of a few solid balls."""
    dims = tuple(int(d) for d in dims)
    idx = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), axis=-1)
    centers = rng.uniform(0, np.asarray(dims) - 1, size=(3, 3))
    radii = rng.uniform(1.5, max(dims) / 2.5, size=3)
    fg = np.zeros(dims, dtype=bool)
    for c, r in zip(centers, radii):
        fg |= ((idx - c) ** 2).sum(axis=-1) <= r * r
    if not fg.any():
        fg[tuple(int(v) // 2 for v in dims)] = True
    return make_mask(fg, spacing)


@pytest.fixture
def rng():
    return np.random.default_rng(90125)


@st.composite
def small_specs(draw, kinds=KINDS):
    """Small phantom specs of the given kinds that PhantomSpec accepts."""
    size = st.floats(0.5, 2.0)
    spacing = (draw(size),) * 3 if draw(st.booleans()) else tuple(draw(size) for _ in "xyz")
    kwargs = dict(
        kind=draw(st.sampled_from(kinds)), radius=draw(st.floats(0.5, 4.0)),
        spacing=spacing, length=draw(st.floats(2.0, 20.0)),
        major_radius=draw(st.floats(1.0, 15.0)), helix_radius=draw(st.floats(1.0, 8.0)),
        pitch=draw(st.floats(1.0, 16.0)), turns=draw(st.floats(0.2, 2.0)),
        fan_rate=draw(st.floats(0.0, 0.1, exclude_min=True)),
    )
    try:
        return PhantomSpec(**kwargs)
    except ValueError:
        assume(False)
