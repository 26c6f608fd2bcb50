"""Streamline generation through a fitted field, plus a peak-following baseline.

One lockstep loop runs both trackers.  Every streamline's forward half
advances from its seed, and its backward half starts from the seed once the
forward half stops; a half runs until it leaves the mask, its direction rule
stops it, or its step budget runs out.  The halves are spliced at the seed
and lines shorter than ``min_len`` are dropped.  Two direction rules plug
into it:

- ``track``: a Runge-Kutta step whose first slope is a Gaussian-perturbed
  unit field direction and whose later stages use the deterministic field;
  it stops where the field vanishes.  One ``sample_direction`` call per
  step perturbs every live row, but each streamline still draws, in step
  order, from its own random substream keyed by the run seed, the seed
  coordinates and the repetition index, so results do not depend on seed
  order or batching.
- ``baseline_peak_track``: an Euler step, then a turn to the nearest
  voxel's admissible peak closest in axial angle; it stops when no peak is
  admissible or the turn exceeds ``angle_max``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyTractError
from .grids import (Mask, PeaksField, Tract, _line_deltas, inside_many, nearest_indices,
                    same_geometry)
from .polyfield import PolyField
from .prior import MIN_AMP_DEFAULT, select_peak

ZERO_FIELD_TOL = 1e-12
# Triples each streamline draws from its substream at a time.
DRAW_BLOCK = 64
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

    def __post_init__(self):
        # Written as "not (ok)" so that NaN, which fails every comparison,
        # is rejected too.
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        for name in ("max_steps", "seed_count", "rng_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        if self.min_len is None:
            object.__setattr__(self, "min_len", 3.0 * self.step)
        elif not 0 <= self.min_len < math.inf:
            raise ValueError("min_len must be finite and >= 0")
        object.__setattr__(self, "min_len", float(self.min_len))


def _dots(a, b):
    """Row-wise dot products; bitwise equal to ``np.dot`` on each row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def sample_direction(v, prev, sigma, draw):
    """Unit directions from field vectors with Gaussian perturbation.

    Normalizes each row of v, adds the row's next ``draw`` triple (zero-mean
    Gaussian noise of std sigma), renormalizes, and flips the sign to keep a
    nonnegative dot product with the row of ``prev`` when given.  A row
    whose perturbed vector is numerically zero draws again.  ``draw(rows)``
    returns the next triple of each listed row.  Returns the directions and
    ok flags; a row whose field vector is numerically zero is not ok, gets a
    zero direction and draws nothing, and sigma=0 never calls ``draw``.
    """
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(_dots(v, v))
    # Written as "not (bad)" so that a NaN vector passes on, as NaN, to the
    # caller's stopping rules.
    ok = ~(norm < ZERO_FIELD_TOL)
    d = np.divide(v, norm[:, None], out=np.zeros_like(v), where=ok[:, None])
    if sigma > 0 and ok.any():
        rows = np.flatnonzero(ok)
        unit = d[rows]
        p = unit + draw(rows)
        pnorm = np.sqrt(_dots(p, p))
        redo = np.flatnonzero(pnorm < ZERO_FIELD_TOL)
        while len(redo):
            p[redo] = unit[redo] + draw(rows[redo])
            pnorm[redo] = np.sqrt(_dots(p[redo], p[redo]))
            redo = redo[pnorm[redo] < ZERO_FIELD_TOL]
        d[rows] = p / pnorm[:, None]
    if prev is not None:
        flip = _dots(d, np.asarray(prev, dtype=float)) < 0
        np.negative(d, out=d, where=flip[:, None])
    return d, ok


def _rk4_many(field: PolyField, eta: np.ndarray, d0: np.ndarray, step: float):
    """Vectorized RK4 update; row i fails when the field vanishes mid-step.

    The slope at stages 2..4 is the normalized field vector sign-aligned to
    each row's d0; stage 1 is d0 itself.  Failed rows carry a zero slope so
    later stages stay finite, and are reported through the ok flags.
    """

    def slope(p):
        v = field.evaluate_many(p)
        # the arithmetic of np.linalg.norm(v, axis=1), without its dispatch
        norm = np.sqrt(np.add.reduce(v * v, axis=1))
        ok = norm > ZERO_FIELD_TOL
        u = np.divide(v, norm[:, None], out=np.zeros_like(v), where=ok[:, None])
        flip = np.einsum("sc,sc->s", u, d0, optimize=False) < 0
        np.negative(u, out=u, where=flip[:, None])
        return u, ok

    k1 = d0
    k2, ok2 = slope(eta + (0.5 * step) * k1)
    k3, ok3 = slope(eta + (0.5 * step) * k2)
    k4, ok4 = slope(eta + step * k3)
    new = eta + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return new, ok2 & ok3 & ok4


def _substream(rng_seed: int, seed_point: np.ndarray, rep: int):
    """Random generator owned by one streamline.

    Keyed by the seed's coordinate bits rather than its list position, so
    permuting the seed list permutes but never changes the streamlines.
    """
    bits = np.asarray(seed_point, dtype="<f8").view(np.uint64).tolist()
    entropy = [int(rng_seed) & 0xFFFFFFFFFFFFFFFF, *bits, int(rep)]
    # what np.random.default_rng builds from a SeedSequence, without its dispatch
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _trace(mask, starts, first, alive, advance, turn, params) -> Tract:
    """Both halves from each start, spliced at it, kept when >= min_len.

    One lockstep loop advances 2n half-rows: row h < n is start h's forward
    half, along ``first[h]``, and row h + n its backward half, along
    ``-first[h]``.  A backward half goes live in the iteration after its
    forward half stops, so each start's turns still come in step order, and
    each half has its own budget of ``params.max_steps`` steps.  A start
    whose ``alive`` flag is False has the start alone as its line.

    ``advance(eta, d)`` gives the rows' next points and ok flags; a row
    stops when it fails or leaves the mask, and the exiting point is
    dropped.  ``turn(starts, pts, prev)`` gives the accepted rows' next
    directions and ok flags, given the start each row belongs to; a row
    whose flag is False stops there.

    The starts are stored first, then the accepted points in step order,
    and one sort pools the lines as ``Tract`` holds them.  A start alone
    is never a line, even at ``min_len`` 0.
    """
    n = len(starts)
    eta = np.concatenate([starts, starts], dtype=float)
    d = np.concatenate([first, -first], dtype=float)
    live = np.concatenate([alive, np.zeros(n, dtype=bool)])
    steps = np.zeros(2 * n, dtype=np.int64)
    rows = [np.arange(n)]
    points = [starts]
    act = np.flatnonzero(live)
    while len(act):
        new, ok = advance(eta[act], d[act])
        good = ok & inside_many(mask, new)
        live[act[~good]] = False
        keep = act[good]
        if len(keep):
            accepted = new[good]
            eta[keep] = accepted
            rows.append(keep)
            points.append(accepted)
            nd, turned = turn(keep % n, accepted, d[keep])
            d[keep[turned]] = nd[turned]
            live[keep[~turned]] = False
        steps[act] += 1
        live[act[steps[act] == params.max_steps]] = False
        # a forward half that stopped hands its start to the backward half
        ended = act[(act < n) & ~live[act]]
        live[ended + n] = True
        act = np.flatnonzero(live)
    rows = np.concatenate(rows)
    points = np.concatenate(points)
    # each line as its backward half reversed (negated positions), start, forward half
    pos = np.arange(len(rows))
    points = points[np.lexsort((np.where(rows < n, pos, -pos), rows % n))]
    counts = np.bincount(rows % n, minlength=n)
    gaps = np.linalg.norm(_line_deltas(points, counts), axis=1)
    lengths = np.add.reduceat(gaps, np.cumsum(counts) - counts)
    kept = (counts > 1) & (lengths >= params.min_len)
    if not kept.any():
        raise EmptyTractError("every streamline was shorter than min_len; nothing to keep")
    return Tract(points[np.repeat(kept, counts)], counts[kept], params.step)


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

    # Each row draws from its own substream in blocks of DRAW_BLOCK triples,
    # the same values as one triple at a time; a block is refilled when the
    # row has used it up, and the two halves share it.
    blocks = np.empty((len(starts), DRAW_BLOCK, 3))
    used = np.full(len(starts), DRAW_BLOCK)

    def draw(rows):
        for i in rows[used[rows] == DRAW_BLOCK]:
            blocks[i] = rngs[i].normal(0.0, params.sigma, (DRAW_BLOCK, 3))
            used[i] = 0
        triples = blocks[rows, used[rows]]
        used[rows] += 1
        return triples

    def turn(rows, pts, prev):
        return sample_direction(
            field.evaluate_many(pts), prev, params.sigma, lambda r: draw(rows[r])
        )

    first, alive = turn(np.arange(len(starts)), starts, None)
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
        return nd, ok & (_dots(nd, prev) >= cos_stop)

    # Each seed starts along its first admissible peak in storage order.
    i, j, k = nearest_indices(peaks, kept_seeds)[0].T
    amps = peaks.amplitudes[i, j, k]
    admissible = (amps > 0) & (amps >= min_amp)
    first = peaks.directions[i, j, k, np.argmax(admissible, axis=1)]
    alive = admissible.any(axis=1)
    return _trace(mask, kept_seeds, first, alive, advance, turn, params)
