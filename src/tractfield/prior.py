"""Anatomically informed peak selection: one direction per foreground voxel.

At each foreground voxel the candidate peak closest in axial angle to the
local cross-section normal of the centerline is selected and sign-aligned
with that normal, yielding the sparse direction field the polynomial fit
consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centerline import Centerline, cross_section_normals
from .errors import DomainError
from .grids import Mask, PeaksField, nearest_indices, same_geometry, voxel_centers

MIN_AMP_DEFAULT = 0.05


@dataclass(frozen=True, eq=False)
class PriorField:
    """Per-voxel selected direction with a validity flag.

    ``directions`` is (nx, ny, nz, 3); rows where ``valid`` is False are
    zero.  Directions produced by ``build_prior`` are unit length, but raw
    magnitudes are accepted so synthetic priors can carry field samples.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    directions: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        directions = np.asarray(self.directions, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        if directions.shape != self.dims + (3,):
            raise ValueError(
                f"directions shape {directions.shape} does not match dims {self.dims}"
            )
        if valid.shape != self.dims:
            raise ValueError(
                f"valid shape {valid.shape} does not match dims {self.dims}"
            )
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "valid", valid)

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """World points and directions of the valid voxels, fit-ready."""
        idx = np.argwhere(self.valid)
        return voxel_centers(self, idx), self.directions[idx[:, 0], idx[:, 1], idx[:, 2]]


def select_peak(peaks: PeaksField, pts, normals, min_amp=MIN_AMP_DEFAULT):
    """At each point's nearest voxel, the admissible peak closest in axial
    angle to that point's normal.

    Peaks are sign-ambiguous, so the angle is arccos(|d.n|); each winner is
    flipped if needed so its dot product with the normal is nonnegative.  A
    winner at a right angle to the normal takes the sign that makes its
    first nonzero component positive, so the stored sign never shows.
    Ties on angle go to the larger amplitude, then to storage order.  A slot
    is admissible when its amplitude is positive (not padding) and reaches
    ``min_amp``.  Returns ``(directions (n, 3), ok (n,))``; rows without an
    admissible peak are zero with ok False.
    """
    idx, _ = nearest_indices(peaks, pts)
    i, j, k = idx.T
    dirs = peaks.directions[i, j, k]
    amps = peaks.amplitudes[i, j, k]
    normals = np.asarray(normals, dtype=float)
    # One (1, 3) @ (3, 1) product per slot is bitwise equal to np.dot; a
    # (k, 3) @ (3, 1) product per row is not, and that can flip near-ties.
    dots = (dirs[:, :, None, :] @ normals[:, None, :, None])[..., 0, 0]
    admissible = (amps > 0) & (amps >= min_amp)
    score = np.where(admissible, np.abs(dots), -1.0)
    best = admissible & (score == score.max(axis=1, keepdims=True))
    slot = np.argmax(np.where(best, amps, -1.0), axis=1)[:, None]
    d = np.take_along_axis(dirs, slot[..., None], axis=1)[:, 0]
    dot = np.take_along_axis(dots, slot, axis=1)
    d = np.where(dot >= 0, d, -d)
    tie = np.flatnonzero(dot[:, 0] == 0)
    if len(tie):
        lead = d[tie, np.argmax(d[tie] != 0, axis=1)]
        d[tie[lead < 0]] *= -1
    ok = admissible.any(axis=1)
    return np.where(ok[:, None], d, 0.0), ok


def build_prior(
    peaks: PeaksField, cl: Centerline, mask: Mask, min_amp=MIN_AMP_DEFAULT
) -> PriorField:
    """Select one direction per foreground voxel using centerline normals.

    Each foreground voxel center takes the tangent of the nearest
    centerline point as its cross-section normal and keeps the peak closest
    in axial angle.
    """
    if not math.isfinite(min_amp):
        raise ValueError("min_amp must be finite")
    if not same_geometry(peaks, mask.grid):
        raise DomainError("peaks grid does not match the mask grid")
    dims = mask.grid.dims
    i, j, k = mask.foreground_indices().T
    pts = mask.foreground_points()
    directions = np.zeros(dims + (3,))
    valid = np.zeros(dims, dtype=bool)
    directions[i, j, k], valid[i, j, k] = select_peak(
        peaks, pts, cross_section_normals(cl, pts), min_amp
    )
    return PriorField(dims, mask.grid.spacing, mask.grid.origin, directions, valid)


def synthetic_prior(mask: Mask, vectors_at) -> PriorField:
    """Prior holding ``vectors_at(points)`` at every foreground voxel.

    Entries keep their raw magnitudes; use for fitting against analytically
    known fields.
    """
    dims = mask.grid.dims
    idx = mask.foreground_indices()
    vecs = np.atleast_2d(np.asarray(vectors_at(mask.foreground_points()), float))
    directions = np.zeros(dims + (3,))
    valid = np.zeros(dims, dtype=bool)
    directions[idx[:, 0], idx[:, 1], idx[:, 2]] = vecs
    valid[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return PriorField(dims, mask.grid.spacing, mask.grid.origin, directions, valid)


def prior_to_peaks(prior: PriorField) -> PeaksField:
    """Encode a prior as a one-peak field; amplitude 1 marks valid voxels."""
    amps = prior.valid.astype(float)[..., None]
    return PeaksField(
        prior.dims,
        prior.spacing,
        prior.origin,
        prior.directions[..., None, :].copy(),
        amps,
    )


def prior_from_peaks(peaks: PeaksField) -> PriorField:
    """Decode a one-peak field written by ``prior_to_peaks``."""
    if peaks.peaks_per_voxel != 1:
        raise DomainError(
            f"prior files carry one peak per voxel, found {peaks.peaks_per_voxel}"
        )
    valid = peaks.amplitudes[..., 0] > 0
    directions = np.where(valid[..., None], peaks.directions[..., 0, :], 0.0)
    return PriorField(peaks.dims, peaks.spacing, peaks.origin, directions, valid)
