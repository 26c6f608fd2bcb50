"""Shared fixtures and independent oracles.

The oracles here are deliberately naive (all-pairs loops, dense distance
matrices, direct formula transcriptions) so the fast implementations in the
package have something independent to be checked against.
"""

from __future__ import annotations

import math

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
    data = np.asarray(data, dtype=np.uint8)
    return Mask(data.shape, spacing, origin, data)


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
    spacing = np.asarray(mask.spacing, dtype=float)
    padded = np.zeros(tuple(d + 2 for d in mask.dims), dtype=bool)
    padded[1:-1, 1:-1, 1:-1] = fg
    bg = (np.argwhere(~padded) - 1) * spacing
    out = np.zeros(mask.dims)
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


def helix_pitch_floor(radius, helix_radius, diag):
    """A pitch from which on ``PhantomSpec``'s turn-gap rule holds.

    Two axis points an angle 2*pi + u apart, with -pi <= u <= 0, lie
    hypot(2 R sin(u/2), rise (2 pi + u)) apart.  As sin(|u|/2) >= |u|/pi
    there, that is at least hypot(a u, rise (2 pi + u)) with a = 2 R / pi,
    whose least value over u is a p / hypot(a, rise) for pitch p = 2 pi rise.
    The floor solves a p / hypot(a, p / (2 pi)) = 2 radius + diag for p.
    """
    gap = 2 * radius + diag
    a = 2 * helix_radius / math.pi
    return gap * a / math.sqrt(a * a - (gap / (2 * math.pi)) ** 2)


@st.composite
def small_specs(draw, kinds=KINDS):
    """Small phantom specs of the given kinds that PhantomSpec accepts.

    Curved kinds draw their radii and pitch inside the tube-geometry rules,
    so that almost no draw is rejected.
    """
    size = st.floats(0.5, 2.0)
    spacing = (draw(size),) * 3 if draw(st.booleans()) else tuple(draw(size) for _ in "xyz")
    kind = draw(st.sampled_from(kinds))
    diag = math.hypot(*spacing)
    curved = kind in ("quarter-torus", "helix")
    radius = draw(st.floats(diag / 2 if curved else 0.5, 4.0))
    around = radius + diag if curved else 1.0
    helix_radius = draw(st.floats(around, 8.0))
    pitch_floor = helix_pitch_floor(radius, helix_radius, diag) if curved else 1.0
    kwargs = dict(
        kind=kind, radius=radius, spacing=spacing, length=draw(st.floats(2.0, 20.0)),
        major_radius=draw(st.floats(around, 15.0)), helix_radius=helix_radius,
        pitch=draw(st.floats(pitch_floor * (1 + 1e-9), 16.0)),
        turns=draw(st.floats(0.2, 2.0)),
        fan_rate=draw(st.floats(0.0, 0.1, exclude_min=True)),
    )
    try:
        return PhantomSpec(**kwargs)
    except ValueError:
        assume(False)
