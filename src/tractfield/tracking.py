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
from functools import cache

import numpy as np

from .errors import DomainError
from .grids import (Mask, PeaksField, Tract, _dots, _line_gaps, inside_many, nearest_indices,
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


def sample_direction(v, prev, sigma, draw):
    """Unit directions from field vectors with Gaussian perturbation.

    Normalizes each row of v, adds the row's next ``draw`` triple (zero-mean
    Gaussian noise of std sigma), renormalizes, and flips the sign to keep a
    nonnegative dot product with the row of ``prev`` when given.  A row
    whose perturbed vector is numerically zero draws again.  ``draw(rows)``
    returns the next triple of each listed row.  Returns the directions and
    ok flags; a row whose field vector is numerically zero is not ok, gets a
    zero direction and draws nothing, and sigma=0 never calls ``draw``.  A
    row whose squared norm overflows raises FloatingPointError.
    """
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(_dots(v, v))
    _check_norms(norm)
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
    later stages stay finite, and are reported through the ok flags.  A
    field vector whose squared norm overflows raises FloatingPointError.
    """

    def slope(p):
        v = field.evaluate_many(p)
        # the arithmetic of np.linalg.norm(v, axis=1), without its dispatch
        norm = np.sqrt(np.add.reduce(v * v, axis=1))
        _check_norms(norm)
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


def _check_norms(norm):
    """Raise FloatingPointError when a field vector's norm is infinite: its
    unit vector would read as zero, not as a stop.  NaN rows pass on to the
    stopping rules; ``fmax`` skips them."""
    if np.fmax.reduce(norm, initial=0.0) == math.inf:
        raise FloatingPointError("field vectors overflow: their squared norm exceeds "
                                 "the float range")


# SeedSequence's hash constants, from numpy/random/bit_generator.pyx.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _key_states(rng_seed: int, seeds: np.ndarray, reps: int) -> np.ndarray:
    """PCG64 seed words of each streamline, seed-major then repetition.

    Row (seed, rep) is
    ``SeedSequence([rng_seed mod 2**64, *bits(seed), rep]).generate_state(4, np.uint64)``,
    with SeedSequence's mixing (pool size 4) run on every line at once.
    """
    bits = np.asarray(seeds, dtype="<f8").view(np.uint64)
    keys = np.empty((len(bits) * reps, 5), dtype=np.uint64)
    keys[:, 0] = int(rng_seed) & 0xFFFFFFFFFFFFFFFF
    keys[:, 1:4] = np.repeat(bits, reps, axis=0)
    keys[:, 4] = np.tile(np.arange(reps, dtype=np.uint64), len(bits))
    # SeedSequence coerces each key to its little-endian uint32 words,
    # one word for a key below 2**32 (zero included), else two.
    words = np.stack([keys & _MASK32, keys >> 32], axis=2).reshape(len(keys), 10)
    words = words.astype(np.uint32)
    present = words.astype(bool)
    present[:, 0::2] = True
    order = np.argsort(~present, axis=1, kind="stable")
    entropy = np.take_along_axis(words, order, axis=1)
    count = present.sum(axis=1)

    def hashmix(values, start, mult, k):
        """SeedSequence's hashmix under k successive hash constants: each
        row of values is xored with one constant, multiplied by the next
        and has its high half folded into its low half."""
        consts = [start]
        for _ in range(k):
            consts.append(consts[-1] * mult & _MASK32)
        c = np.array(consts, dtype=np.uint32)[:, None]
        values = (values ^ c[:-1]) * c[1:]
        return values ^ (values >> 16), consts[-1]

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    # mix_entropy: the first 4 words seed the pool, the pool mixes within
    # itself, then each later word mixes into every pool word
    pool, const = hashmix(entropy[:, :4].T, _INIT_A, _MULT_A, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed, const = hashmix(pool[src], const, _MULT_A, 3)
        pool[dst] = mix(pool[dst], hashed)
    # every key has at least 5 words; a later word mixes into the lines that have it
    for i in range(4, int(count.max(initial=4))):
        hashed, const = hashmix(entropy[:, i], const, _MULT_A, 4)
        pool = np.where(i < count, mix(pool, hashed), pool)
    # generate_state(4, np.uint64): 8 words drawn cyclically from the pool
    state, _ = hashmix(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 8)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _substreams(rng_seed: int, seeds: np.ndarray, reps: int) -> list:
    """The random generator of each streamline, seed-major then repetition.

    Line (seed, rep) draws from ``Generator(PCG64(SeedSequence(key)))``
    with the key of ``_key_states``: the seed's coordinate bits rather than
    its list position, so permuting the seed list permutes but never
    changes the streamlines.  Only the PCG64 and Generator objects are
    built per line.
    """
    precomputed = _precomputed_seed_sequence()
    states = _key_states(rng_seed, seeds, reps)
    return [np.random.Generator(np.random.PCG64(precomputed(w))) for w in states]


@cache
def _precomputed_seed_sequence() -> type:
    """A seed sequence whose ``generate_state`` returns the words it holds.

    Built on first use, not at import: loading numpy.random takes longer
    than the rest of a CLI stage's start-up.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _lockstep(mask, starts, first, alive, advance, turn, params) -> tuple:
    """Both halves from each start, advanced in one lockstep loop.

    The loop advances 2n half-rows: row h < n is start h's forward half,
    along ``first[h]``, and row h + n its backward half, along ``-first[h]``.
    A backward half goes live in the iteration after its forward half stops,
    so each start's turns still come in step order, and each half has its
    own budget of ``params.max_steps`` steps.  A start whose ``alive`` flag
    is False moves in neither direction.

    ``advance(eta, d)`` gives the rows' next points and ok flags; a row
    stops when it fails or leaves the mask, and the exiting point is
    dropped.  ``turn(starts, pts, prev)`` gives the accepted rows' next
    directions and ok flags, given the start each row belongs to; a row
    whose flag is False stops there.

    Returns ``(parts, handoff)``.  Each part is ``(t, rows, points)``: the
    rows that accepted a point in iteration t, ascending, and those points.
    A half accepts its points in consecutive iterations, from iteration 0
    for a forward half and from ``handoff[h]``, the iteration its forward
    half stopped in plus one, for start h's backward half.
    """
    n = len(starts)
    eta = np.concatenate([starts, starts], dtype=float)
    d = np.concatenate([first, -first], dtype=float)
    live = np.concatenate([alive, np.zeros(n, dtype=bool)])
    steps = np.zeros(2 * n, dtype=np.int64)
    parts = []
    act = np.flatnonzero(live)
    t = 0
    while len(act):
        new, ok = advance(eta[act], d[act])
        good = ok & inside_many(mask, new)
        live[act[~good]] = False
        keep = act[good]
        if len(keep):
            accepted = new[good]
            eta[keep] = accepted
            parts.append((t, keep, accepted))
            nd, turned = turn(keep % n, accepted, d[keep])
            d[keep[turned]] = nd[turned]
            live[keep[~turned]] = False
        steps[act] += 1
        live[act[steps[act] == params.max_steps]] = False
        # a forward half that stopped hands its start to the backward half
        ended = act[(act < n) & ~live[act]]
        live[ended + n] = True
        act = np.flatnonzero(live)
        t += 1
    return parts, steps[:n]


def _assemble(starts, parts, handoff, params) -> Tract:
    """The lines of ``_lockstep``'s parts, kept when >= ``params.min_len``.

    Each line is its backward half reversed, then its start, then its
    forward half.  The output is allocated once, and each part's points are
    written to their final places and the part released; lines are copied
    again only when some are dropped.  A start alone is never a line, even
    at ``min_len`` 0.
    """
    n = len(starts)
    rows = np.concatenate([np.empty(0, np.intp)] + [keep for _, keep, _ in parts])
    halves = np.bincount(rows, minlength=2 * n)
    del rows
    fwd, bwd = halves[:n], halves[n:]
    moved = fwd + bwd > 0
    counts = np.where(moved, fwd + bwd + 1, 0)
    at_start = np.cumsum(counts) - counts + bwd
    points = np.empty((counts.sum(), 3))
    points[at_start[moved]] = starts[moved]
    # half h's point accepted in iteration t goes to base[h] + sign[h] * t
    base = np.concatenate([at_start + 1, at_start - 1 + handoff])
    sign = np.repeat(np.array([1, -1]), n)
    while parts:
        t, keep, accepted = parts.pop()
        points[base[keep] + t * sign[keep]] = accepted
    counts = counts[moved]
    lengths = np.add.reduceat(_line_gaps(points, counts), np.cumsum(counts) - counts)
    kept = lengths >= params.min_len
    if not kept.any():
        raise DomainError("every streamline was shorter than min_len; nothing to keep")
    if not kept.all():
        points = points[np.repeat(kept, counts)]
        counts = counts[kept]
    return Tract(points, counts, params.step)


def _valid_seeds(mask: Mask, seeds) -> np.ndarray:
    """The seeds inside the mask, as an (n, 3) array; one (x, y, z) point is
    a list of one.  Warns for each seed outside the mask."""
    given = np.asarray(seeds, dtype=float)
    if given.shape == (0,):
        raise DomainError("no seeds given")
    seeds = given.reshape(1, 3) if given.shape == (3,) else given
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"seeds must be (x, y, z) points, got an array of shape {given.shape}")
    ok = inside_many(mask, seeds)
    for i in np.flatnonzero(~ok):
        coords = tuple(float(c) for c in seeds[i])
        warnings.warn(f"seed {coords} is outside the mask, skipped", stacklevel=3)
    if not ok.any():
        raise DomainError("no seeds fall inside the mask")
    return seeds[ok]


def track(field: PolyField, mask: Mask, seeds, params: TrackParams) -> Tract:
    """Bidirectional perturbed streamlines from each seed through the field.

    Runs ``params.seed_count`` repetitions per seed; each repetition draws
    its directions from its own substream.  Streamlines stop at the mask
    boundary (the exiting point is discarded, so every emitted point lies
    inside the mask), at ``params.max_steps`` per direction, or where the
    field vanishes; results shorter than ``params.min_len`` are dropped.
    A field that vanishes at every seed raises DomainError.  A field vector
    that is not finite at a seed, or whose squared norm overflows, raises
    FloatingPointError.
    """
    kept_seeds = _valid_seeds(mask, seeds)
    reps = params.seed_count
    starts = np.repeat(kept_seeds, reps, axis=0)
    # sigma=0 never draws, so it builds no generator
    rngs = _substreams(params.rng_seed, kept_seeds, reps) if params.sigma > 0 else []

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

    # A field whose squared norms overflow stops the run with _check_norms's
    # error instead of numpy's warnings.  Seeds lie inside the mask and the
    # coefficients are finite, so a vector that is not finite at a seed can
    # only come from overflow in the field's normalization or monomials.
    with np.errstate(over="ignore", invalid="ignore"):
        first, alive = turn(np.arange(len(starts)), starts, None)
        if not np.isfinite(first).all():
            raise FloatingPointError("field vectors are not finite at the seeds; check "
                                     "the field's offset and scale")
        if not alive.any():
            raise DomainError("the field vanishes at every seed; nothing to track")
        parts, handoff = _lockstep(mask, starts, first, alive, advance, turn, params)
    # ~2.6 KB per line that the assembly does not need
    del rngs, blocks
    return _assemble(starts, parts, handoff, params)


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
    if not same_geometry(peaks, mask):
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
    if not alive.any():
        raise DomainError(f"no seed's voxel has a peak at or above min_amp "
                          f"(--cutoff) {min_amp!r}; nothing to track")
    parts, handoff = _lockstep(mask, kept_seeds, first, alive, advance, turn, params)
    return _assemble(kept_seeds, parts, handoff, params)
