"""Anatomically informed peak selection: one direction per foreground voxel.

At each foreground voxel the candidate peak closest in axial angle to the
local cross-section normal of the centerline is selected and sign-aligned
with that normal, yielding the sparse direction field the polynomial fit
consumes.
"""

from __future__ import annotations

import math

import numpy as np

from .centerline import Centerline, cross_section_normals
from .errors import DomainError
from .grids import Mask, PeaksField, _dots, nearest_indices, same_geometry

MIN_AMP_DEFAULT = 0.05


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
    admissible peak, among them points off the grid, are zero with ok False.
    """
    idx, inb = nearest_indices(peaks, pts)
    i, j, k = idx.T
    dirs = peaks.directions[i, j, k]
    amps = peaks.amplitudes[i, j, k]
    normals = np.asarray(normals, dtype=float)
    # One np.dot per slot: a (k, 3) @ (3, 1) product per row rounds
    # otherwise, and that can flip near-ties.
    dots = _dots(dirs, normals[:, None, :])
    admissible = (amps > 0) & (amps >= min_amp) & inb[:, None]
    score = np.where(admissible, np.abs(dots), -1.0)
    best = admissible & (score == score.max(axis=1, keepdims=True))
    win = (np.arange(len(dirs)), np.argmax(np.where(best, amps, -1.0), axis=1))
    d = dirs[win]
    dot = dots[win][:, None]
    d = np.where(dot >= 0, d, -d)
    tie = np.flatnonzero(dot[:, 0] == 0)
    if len(tie):
        lead = d[tie, np.argmax(d[tie] != 0, axis=1)]
        d[tie[lead < 0]] *= -1
    ok = admissible.any(axis=1)
    return np.where(ok[:, None], d, 0.0), ok


def build_prior(
    peaks: PeaksField, cl: Centerline, mask: Mask, min_amp=MIN_AMP_DEFAULT
) -> PeaksField:
    """Select one direction per foreground voxel using centerline normals.

    Each foreground voxel center takes the tangent of the nearest
    centerline point as its cross-section normal and keeps the peak closest
    in axial angle.  Returns a one-slot field whose amplitude is 1 where a
    peak was selected and 0 elsewhere.  Every centerline point's nearest
    voxel must lie on the mask's grid, as on an extracted centerline.
    """
    if not math.isfinite(min_amp):
        raise ValueError("min_amp must be finite")
    if not same_geometry(peaks, mask):
        raise DomainError("peaks grid does not match the mask grid")
    off = np.flatnonzero(~nearest_indices(mask, cl.points)[1])
    if len(off):
        coords = tuple(float(c) for c in cl.points[off[0]])
        raise DomainError(f"centerline point {off[0]} at {coords} lies off the mask's grid")
    pts = mask.foreground_points()
    return _one_slot(mask, *select_peak(peaks, pts, cross_section_normals(cl, pts), min_amp))


def synthetic_prior(mask: Mask, vectors_at) -> PeaksField:
    """Prior holding ``vectors_at(points)`` at every foreground voxel.

    Entries keep their raw magnitudes; use for fitting against analytically
    known fields.
    """
    return _one_slot(mask, vectors_at(mask.foreground_points()), 1.0)


def _one_slot(mask: Mask, vectors, used) -> PeaksField:
    """One-slot field on the mask's grid: ``vectors`` and amplitude ``used``
    (1 or 0) at the foreground voxels, zero elsewhere."""
    i, j, k = mask.foreground_indices().T
    directions = np.zeros(mask.dims + (1, 3))
    amplitudes = np.zeros(mask.dims + (1,))
    directions[i, j, k, 0] = vectors
    amplitudes[i, j, k, 0] = used
    return PeaksField(mask.dims, mask.spacing, mask.origin, directions, amplitudes)


def prior_from_peaks(peaks: PeaksField) -> PeaksField:
    """``peaks`` itself once it passes as a prior: one slot per voxel."""
    if peaks.peaks_per_voxel != 1:
        raise DomainError(
            f"prior files carry one peak per voxel, found {peaks.peaks_per_voxel}"
        )
    return peaks
