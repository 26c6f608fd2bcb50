"""Streamline generation through a fitted field, plus a peak-following baseline.

One lockstep loop runs both trackers: all streamlines advance together from
their seeds, forward then backward, until they leave the mask, their
direction rule stops them, or the step budget runs out; the halves are
spliced at the seed and lines shorter than ``min_len`` are dropped.  Two
direction rules plug into it:

- ``track``: a Runge-Kutta step whose first slope is a Gaussian-perturbed
  unit field direction and whose later stages use the deterministic field;
  it stops where the field vanishes.  Each streamline draws from its own
  random substream keyed by the run seed, the seed coordinates and the
  repetition index, so results do not depend on seed order or batching.
- ``baseline_peak_track``: an Euler step, then a turn to the nearest
  voxel's admissible peak closest in axial angle; it stops when no peak is
  admissible or the turn exceeds ``angle_max``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyTractError
from .grids import Mask, PeaksField, Tract, inside_many, nearest_indices, same_geometry
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
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        if self.min_len is None:
            object.__setattr__(self, "min_len", 3.0 * self.step)
        elif not 0 <= self.min_len < math.inf:
            raise ValueError("min_len must be finite and >= 0")
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


def _integrate_half(mask, start, d0, alive0, advance, turn, params):
    """Advance all live streamlines in lockstep; returns per-stream points.

    ``advance(eta, d)`` gives the rows' next points and ok flags; a row
    stops when it fails or leaves the mask, and the exiting point is
    dropped.  ``turn(rows, pts, prev)`` gives the accepted rows' next
    directions and ok flags; a row whose flag is False stops there.
    """
    n = len(start)
    points = [[] for _ in range(n)]
    eta = np.array(start, dtype=float)
    d = np.array(d0, dtype=float)
    alive = np.array(alive0, dtype=bool)
    for _ in range(params.max_steps):
        act = np.flatnonzero(alive)
        if not len(act):
            break
        new, ok = advance(eta[act], d[act])
        good = ok & inside_many(mask, new)
        alive[act[~good]] = False
        keep = act[good]
        if not len(keep):
            break
        accepted = new[good]
        eta[keep] = accepted
        for i, p in zip(keep, accepted):
            points[i].append(p)
        nd, turned = turn(keep, accepted, d[keep])
        d[keep[turned]] = nd[turned]
        alive[keep[~turned]] = False
    return points


def _trace(mask, starts, first, alive, advance, turn, params) -> Tract:
    """Both halves from each start, spliced at it, kept when >= min_len.

    ``first`` holds each start's initial direction; a start whose ``alive``
    flag is False has the start alone as its line.
    """
    forward = _integrate_half(mask, starts, first, alive, advance, turn, params)
    if params.bidirectional:
        backward = _integrate_half(mask, starts, -first, alive, advance, turn, params)
    else:
        backward = [[] for _ in starts]
    streamlines = []
    for b, s, f in zip(backward, starts, forward):
        if not b and not f:
            continue
        line = np.asarray(b[::-1] + [s] + f, dtype=float)
        if np.linalg.norm(np.diff(line, axis=0), axis=1).sum() >= params.min_len:
            streamlines.append(line)
    if not streamlines:
        raise EmptyTractError(
            "every streamline was shorter than min_len; nothing to keep"
        )
    return Tract(streamlines, params.step)


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

    def advance(eta, d):
        return _rk4_many(field, eta, d, params.step)

    def turn(rows, pts, prev):
        directions = np.zeros((len(rows), 3))
        ok = np.zeros(len(rows), dtype=bool)
        for r, (v, p, i) in enumerate(zip(field.evaluate_many(pts), prev, rows)):
            d = sample_direction(v, p, params.sigma, rngs[i])
            if d is not None:
                directions[r], ok[r] = d, True
        return directions, ok

    first, alive = turn(range(len(starts)), starts, [None] * len(starts))
    return _trace(mask, starts, first, alive, advance, turn, params)


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
    # The range test is written as "not (ok)" so that NaN fails it too.
    if not math.isfinite(min_amp):
        raise ValueError("min_amp must be finite")
    if not 0 <= angle_max <= 180:
        raise ValueError("angle_max must be in [0, 180] degrees")
    if not same_geometry(peaks, mask.grid):
        raise DomainError("peaks grid does not match the mask grid")
    kept_seeds = _valid_seeds(mask, seeds)
    cos_stop = math.cos(math.radians(angle_max)) - 1e-9

    def advance(eta, d):
        return eta + params.step * d, np.ones(len(eta), dtype=bool)

    def turn(rows, pts, prev):
        nd, ok = select_peak(peaks, pts, prev, min_amp)
        return nd, ok & ((nd[:, None, :] @ prev[:, :, None])[:, 0, 0] >= cos_stop)

    # Each seed starts along its first admissible peak in storage order.
    i, j, k = nearest_indices(peaks, kept_seeds)[0].T
    amps = peaks.amplitudes[i, j, k]
    admissible = (amps > 0) & (amps >= min_amp)
    first = peaks.directions[i, j, k, np.argmax(admissible, axis=1)]
    alive = admissible.any(axis=1)
    return _trace(mask, kept_seeds, first, alive, advance, turn, params)
