"""Streamline generation through a fitted field, plus a peak-following baseline.

Each streamline samples a Gaussian-perturbed unit direction from the field,
advances with a classic fourth-order Runge-Kutta step whose remaining stages
use the deterministic field, and runs bidirectionally from its seed until it
leaves the mask, the field vanishes, or the step budget runs out.  Every
streamline owns an independent random substream derived from the run seed,
the seed coordinates, and the repetition index, so results are reproducible
and do not depend on seed ordering or batch composition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTractError
from .grids import Mask, PeaksField, Tract, inside_many, nearest_indices
from .polyfield import PolyField
from .prior import MIN_AMP_DEFAULT, select_peak

ZERO_FIELD_TOL = 1e-12
ANGLE_MAX_DEFAULT = 40.0


@dataclass(frozen=True)
class TrackParams:
    """Integration controls shared by the field tracker and the baseline."""

    step: float = 0.3
    sigma: float = 0.1
    max_steps: int = 2000
    seed_count: int = 10
    rng_seed: int = 0
    min_len: float = None
    bidirectional: bool = True

    def __post_init__(self):
        # Written as "not (ok)" so that NaN, which fails every comparison,
        # is rejected too.
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        if self.min_len is None:
            object.__setattr__(self, "min_len", 3.0 * self.step)
        elif not self.min_len >= 0:
            raise ValueError("min_len must be >= 0")
        object.__setattr__(self, "min_len", float(self.min_len))


def sample_direction(v, prev, sigma, rng):
    """Unit direction from the field vector with Gaussian perturbation.

    Normalizes v, adds independent zero-mean Gaussian noise of std sigma to
    each component, renormalizes, and flips the sign to keep a nonnegative
    dot product with ``prev`` when given.  Returns None when the field
    vector is numerically zero; sigma=0 draws nothing from ``rng``.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm < ZERO_FIELD_TOL:
        return None
    d = v / norm
    if sigma > 0:
        d = d + rng.normal(0.0, sigma, 3)
        norm = float(np.linalg.norm(d))
        while norm < ZERO_FIELD_TOL:
            d = v / float(np.linalg.norm(v)) + rng.normal(0.0, sigma, 3)
            norm = float(np.linalg.norm(d))
        d = d / norm
    if prev is not None and float(np.dot(d, np.asarray(prev, float))) < 0:
        d = -d
    return d


def _rk4_many(field: PolyField, eta: np.ndarray, d0: np.ndarray, step: float):
    """Vectorized RK4 update; row i fails when the field vanishes mid-step.

    The slope at stages 2..4 is the normalized field vector sign-aligned to
    each row's d0; stage 1 is d0 itself.  Failed rows carry a zero slope so
    later stages stay finite, and are reported through the ok flags.
    """

    def slope(p):
        v = field.evaluate_many(p)
        norm = np.linalg.norm(v, axis=1)
        ok = norm > ZERO_FIELD_TOL
        u = np.zeros_like(v)
        u[ok] = v[ok] / norm[ok, None]
        flip = np.einsum("sc,sc->s", u, d0, optimize=False) < 0
        u[flip] = -u[flip]
        return u, ok

    k1 = d0
    k2, ok2 = slope(eta + (0.5 * step) * k1)
    k3, ok3 = slope(eta + (0.5 * step) * k2)
    k4, ok4 = slope(eta + step * k3)
    new = eta + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return new, ok2 & ok3 & ok4


def rk4_step(field: PolyField, eta, d0, step: float):
    """One Runge-Kutta step from eta along initial slope d0.

    Returns the new point, or None when the field vanishes at any stage.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    new, ok = _rk4_many(
        field,
        np.asarray([eta], dtype=float),
        np.asarray([d0], dtype=float),
        float(step),
    )
    return new[0] if ok[0] else None


def _substream(rng_seed: int, seed_point: np.ndarray, rep: int):
    """Random generator owned by one streamline.

    Keyed by the seed's coordinate bits rather than its list position, so
    permuting the seed list permutes but never changes the streamlines.
    """
    bits = np.asarray(seed_point, dtype="<f8").view(np.uint64)
    entropy = (
        int(rng_seed) & 0xFFFFFFFFFFFFFFFF,
        int(bits[0]),
        int(bits[1]),
        int(bits[2]),
        int(rep),
    )
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _integrate_half(field, mask, start, d0, alive0, rngs, params):
    """Advance all live streamlines in lockstep; returns per-stream points."""
    n = len(start)
    points = [[] for _ in range(n)]
    eta = np.array(start, dtype=float)
    d = np.array(d0, dtype=float)
    alive = np.array(alive0, dtype=bool)
    for _ in range(params.max_steps):
        act = np.flatnonzero(alive)
        if not len(act):
            break
        new, ok = _rk4_many(field, eta[act], d[act], params.step)
        good = ok & inside_many(mask, new)
        alive[act[~good]] = False
        keep = act[good]
        if not len(keep):
            break
        accepted = new[good]
        eta[keep] = accepted
        v = field.evaluate_many(accepted)
        for row, i in enumerate(keep):
            points[i].append(accepted[row])
            nd = sample_direction(v[row], d[i], params.sigma, rngs[i])
            if nd is None:
                alive[i] = False
            else:
                d[i] = nd
    return points


def _filter_streamlines(raw, min_len):
    kept = []
    for pts in raw:
        if len(pts) < 2:
            continue
        arr = np.asarray(pts, dtype=float)
        length = float(np.linalg.norm(np.diff(arr, axis=0), axis=1).sum())
        if length >= min_len:
            kept.append(arr)
    return kept


def _valid_seeds(mask: Mask, seeds) -> np.ndarray:
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    ok = inside_many(mask, seeds)
    for i in np.flatnonzero(~ok):
        coords = tuple(float(c) for c in seeds[i])
        warnings.warn(f"seed {coords} is outside the mask, skipped", stacklevel=3)
    if not ok.any():
        raise EmptyTractError("no seeds fall inside the mask")
    return seeds[ok]


def track(field: PolyField, mask: Mask, seeds, params: TrackParams) -> Tract:
    """Bidirectional perturbed streamlines from each seed through the field.

    Runs ``params.seed_count`` repetitions per seed; each repetition draws
    its directions from its own substream.  Streamlines stop at the mask
    boundary (the exiting point is discarded, so every emitted point lies
    inside the mask), at ``params.max_steps`` per direction, or where the
    field vanishes; results shorter than ``params.min_len`` are dropped.
    """
    kept_seeds = _valid_seeds(mask, seeds)
    reps = params.seed_count
    starts = np.repeat(kept_seeds, reps, axis=0)
    rngs = [
        _substream(params.rng_seed, seed, rep)
        for seed in kept_seeds
        for rep in range(reps)
    ]
    n = len(starts)
    v0 = field.evaluate_many(starts)
    d0 = np.zeros((n, 3))
    alive = np.zeros(n, dtype=bool)
    for i in range(n):
        d = sample_direction(v0[i], None, params.sigma, rngs[i])
        if d is not None:
            d0[i] = d
            alive[i] = True
    forward = _integrate_half(field, mask, starts, d0, alive, rngs, params)
    if params.bidirectional:
        backward = _integrate_half(field, mask, starts, -d0, alive, rngs, params)
    else:
        backward = [[] for _ in range(n)]
    raw = [
        backward[i][::-1] + [starts[i]] + forward[i]
        for i in range(n)
    ]
    streamlines = _filter_streamlines(raw, params.min_len)
    if not streamlines:
        raise EmptyTractError(
            "every streamline was shorter than min_len; nothing to keep"
        )
    return Tract(streamlines, params.step)


def _peak_at(peaks: PeaksField, mask: Mask, point, min_amp):
    idx, inb = nearest_indices(mask.grid, [point])
    if not inb[0]:
        return None, None
    voxel = tuple(int(v) for v in idx[0])
    dirs, amps = peaks.peaks_at(voxel)
    keep = amps >= min_amp
    return dirs[keep], amps[keep]


def _follow_peaks(peaks, mask, seed, d0, params, cos_stop, min_amp):
    points = []
    eta = np.asarray(seed, dtype=float)
    d = np.asarray(d0, dtype=float)
    for _ in range(params.max_steps):
        eta = eta + params.step * d
        if not inside_many(mask, [eta])[0]:
            break
        points.append(eta.copy())
        dirs, amps = _peak_at(peaks, mask, eta, min_amp)
        if dirs is None or not len(dirs):
            break
        nd = select_peak(dirs, amps, d, min_amp)
        if nd is None or float(np.dot(nd, d)) < cos_stop:
            break
        d = nd
    return points


def baseline_peak_track(
    peaks: PeaksField,
    mask: Mask,
    seeds,
    params: TrackParams,
    angle_max: float = ANGLE_MAX_DEFAULT,
    min_amp: float = MIN_AMP_DEFAULT,
) -> Tract:
    """Deterministic nearest-voxel peak following with a turning-angle stop.

    At each Euler step of length ``params.step`` the admissible peak
    closest in axial angle to the previous direction continues the line;
    the streamline stops when that turn exceeds ``angle_max`` degrees, when
    no peak passes ``min_amp``, or on the tracker's shared stopping rules.
    One streamline per direction per seed; repetitions would be identical.
    """
    kept_seeds = _valid_seeds(mask, seeds)
    cos_stop = math.cos(math.radians(angle_max)) - 1e-9
    raw = []
    for seed in kept_seeds:
        dirs, amps = _peak_at(peaks, mask, seed, min_amp)
        if dirs is None or not len(dirs):
            raw.append([np.asarray(seed, dtype=float)])
            continue
        d0 = dirs[0]
        forward = _follow_peaks(peaks, mask, seed, d0, params, cos_stop, min_amp)
        if params.bidirectional:
            backward = _follow_peaks(
                peaks, mask, seed, -d0, params, cos_stop, min_amp
            )
        else:
            backward = []
        raw.append(backward[::-1] + [np.asarray(seed, dtype=float)] + forward)
    streamlines = _filter_streamlines(raw, params.min_len)
    if not streamlines:
        raise EmptyTractError(
            "every streamline was shorter than min_len; nothing to keep"
        )
    return Tract(streamlines, params.step)
