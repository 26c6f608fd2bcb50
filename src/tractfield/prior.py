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
from .grids import Mask, PeaksField, nearest_indices, same_geometry

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

    @property
    def valid_count(self) -> int:
        return int(self.valid.sum())

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """World points and directions of the valid voxels, fit-ready."""
        idx = np.argwhere(self.valid)
        pts = np.asarray(self.origin) + idx * np.asarray(self.spacing)
        return pts, self.directions[idx[:, 0], idx[:, 1], idx[:, 2]]


def select_peak(directions, amplitudes, normal, min_amp=MIN_AMP_DEFAULT):
    """Pick the admissible peak with the smallest axial angle to ``normal``.

    Peaks are sign-ambiguous, so the angle is arccos(|d.n|); the winner is
    flipped if needed so its dot product with the normal is nonnegative.
    Ties on angle go to the larger amplitude, then to storage order.
    Returns None when no peak reaches ``min_amp``.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    n = np.asarray(normal, dtype=float)
    best = None
    for d, a in zip(dirs, amps):
        if a < min_amp:
            continue
        score = abs(float(np.dot(d, n)))
        if best is None or score > best[0] or (score == best[0] and a > best[1]):
            best = (score, a, d)
    if best is None:
        return None
    d = best[2]
    return d if float(np.dot(d, n)) >= 0 else -d


def build_prior(
    peaks: PeaksField,
    cl: Centerline,
    mask: Mask,
    min_amp=MIN_AMP_DEFAULT,
    centerline_only=False,
) -> PriorField:
    """Select one direction per foreground voxel using centerline normals.

    Each foreground voxel center takes the tangent of the nearest
    centerline point as its cross-section normal and keeps the peak closest
    in axial angle.  With ``centerline_only`` the selection runs only at the
    voxels the centerline itself passes through (first visit wins).
    """
    if not math.isfinite(min_amp):
        raise ValueError("min_amp must be finite")
    if not same_geometry(peaks, mask.grid):
        raise DomainError("peaks grid does not match the mask grid")
    dims = mask.grid.dims
    directions = np.zeros(dims + (3,))
    valid = np.zeros(dims, dtype=bool)
    if centerline_only:
        idx, inb = nearest_indices(mask.grid, cl.points)
        seen = set()
        for row, ok, tangent in zip(idx, inb, cl.tangents):
            voxel = tuple(int(v) for v in row)
            if not ok or voxel in seen or not mask.grid.data[voxel]:
                continue
            seen.add(voxel)
            d = select_peak(*peaks.peaks_at(voxel), tangent, min_amp)
            if d is not None:
                directions[voxel] = d
                valid[voxel] = True
        return PriorField(dims, mask.grid.spacing, mask.grid.origin, directions, valid)
    fg = mask.foreground_indices()
    normals = cross_section_normals(cl, mask.foreground_points())
    for row, n in zip(fg, normals):
        voxel = tuple(int(v) for v in row)
        d = select_peak(*peaks.peaks_at(voxel), n, min_amp)
        if d is not None:
            directions[voxel] = d
            valid[voxel] = True
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
