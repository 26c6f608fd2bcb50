"""Synthetic tube phantoms with known masks, peaks, axes, and flow fields.

Every phantom is a tube around an analytic axis curve, together with a
closed-form divergence-free affine field whose integral curves follow the
tube.  The generator emits the mask, a peaks field (optionally jittered and
contaminated with crossing-fiber distractors) and the analytic centerline.
The ``PhantomSpec`` it generates from is the one phantom object: it derives
the affine field, the ground truth for fits and tracking, from its kind's
axis keys, and ``descriptor.txt`` is the spec itself (``load_descriptor``).

The four kinds fall into two axis families, and the field and the axis
are written once per family:

- an axis along x: the fanning tube, whose cross-section widens in y and
  narrows in z at ``fan_rate``, and the straight tube, a fanning tube at
  rate 0;
- a coiled axis (R cos t, R sin t, rise t): the helix, and the quarter-torus,
  a flat quarter turn (rise 0, t in [0, pi / 2]).  The quarter-torus keeps
  its own projection, the point's angle, and its own grid bounds and mask,
  which hold only the first quadrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from .centerline import RESAMPLE_STEP, Centerline
from .errors import DomainError, FormatError
from .grids import (
    Mask,
    PeaksField,
    Tract,
    _checked,
    _line,
    _numbers,
    _read_fields,
    _write_text,
    closest_points,
    nearest_indices,
)
from .polyfield import PolyField, _term_index, term_count

# The spec keys each kind's axis and flow field are derived from.
_AXIS_KEYS = {
    "straight-tube": ("length",),
    "quarter-torus": ("major_radius",),
    "helix": ("helix_radius", "pitch", "turns"),
    "fanning": ("length", "fan_rate"),
}
KINDS = tuple(_AXIS_KEYS)
_AXIS_NEWTON_STEPS = 5  # converge the helix projection near the tube to rounding
_COMPLETION_MARGIN = 0.05  # axis-end margin of completion_rate, share of the range
_GRID_MARGIN = 2  # all-background voxel slices padding the tube's bounds
# Largest grid `generate` builds: at up to ~450 B per voxel, under 1 GB.
_VOXEL_BUDGET = 2_000_000
_DISTRACTOR_BAND = (0.4, 0.6)  # axis-range share holding the distractor peaks
# A number derived from the spec keys is no key: not in equality, hash or repr.
_DERIVED = dict(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class PhantomSpec:
    """Shape, spacing and corruption of a synthetic tube, and its flow
    field; its grid is the tube's bounds padded by ``_GRID_MARGIN`` voxels.

    The init fields are the spec keys.  Construction checks them and derives
    the numbers of the kind's axis family, which the methods read: ``rate``
    (``fan_rate`` on a fanning tube, else 0) on an axis (t, 0, 0) along x,
    whose ``coil_radius`` is None, or ``coil_radius`` R and ``rise`` on a
    coil (R cos t, R sin t, rise t).  Either axis runs over t in [0, span] at
    ``speed`` mm per unit of t.  The affine flow field v(p) = constant +
    linear @ p, divergence-free, follows from these numbers, as do axis
    positions and per-point axis parameters in closed form.
    """

    kind: str = "straight-tube"
    radius: float = 3.0
    spacing: tuple = (1.0, 1.0, 1.0)
    length: float = 20.0
    major_radius: float = 12.0
    helix_radius: float = 8.0
    pitch: float = 8.0
    turns: float = 1.0
    fan_rate: float = 0.04
    noise_deg: float = 0.0
    distractor_amp: float = 0.0
    rate: float = dc_field(**_DERIVED)
    coil_radius: float | None = dc_field(**_DERIVED)
    rise: float = dc_field(**_DERIVED)
    span: float = dc_field(**_DERIVED)
    speed: float = dc_field(**_DERIVED)
    constant: np.ndarray = dc_field(**_DERIVED)
    linear: np.ndarray = dc_field(**_DERIVED)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        spacing = self.spacing
        if np.isscalar(spacing):
            spacing = (float(spacing),) * 3
        object.__setattr__(self, "spacing", tuple(float(v) for v in spacing))
        if len(self.spacing) != 3:
            raise ValueError("spacing must be a scalar or three values")
        for name in _SPEC_KEYS[1:]:  # every key but kind holds numbers
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        # Written as "not (ok)" so that NaN fails every check too.
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not min(self.spacing) > 0:
            raise ValueError("spacing must be positive")
        for name in dict.fromkeys(k for keys in _AXIS_KEYS.values() for k in keys):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.kind == "quarter-torus":
            radius, rise, span = self.major_radius, 0.0, math.pi / 2
        elif self.kind == "helix":
            radius, rise = self.helix_radius, self.pitch / (2 * math.pi)
            span = 2 * math.pi * self.turns
        else:
            radius, rise, span = None, 0.0, self.length
        rate = self.fan_rate if self.kind == "fanning" else 0.0
        # Every linear part is traceless, so every field is divergence-free.
        if radius is None:
            speed = 1.0
            constant, linear = np.array([1.0, 0.0, 0.0]), np.diag([0.0, rate, -rate])
        else:
            # A rotation about z at angular speed omega, lifted along z.
            speed = math.hypot(radius, rise)
            omega = 1.0 / speed
            constant = np.array([0.0, 0.0, omega * rise])
            linear = np.array([[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]])
        # A finite but tiny parameter can overflow 1 / radius.
        if not (np.isfinite(constant).all() and np.isfinite(linear).all()):
            params = {k: getattr(self, k) for k in _AXIS_KEYS[self.kind]}
            raise ValueError(f"{self.kind} parameters {params} give a non-finite field")
        derived = dict(rate=rate, coil_radius=radius, rise=rise, span=span, speed=speed,
                       constant=constant, linear=linear)
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        self._check_tube_geometry()
        if not self.noise_deg >= 0:
            raise ValueError("noise_deg must be >= 0")
        if not 0 <= self.distractor_amp <= 1:
            raise ValueError("distractor_amp must be in [0, 1]")

    def _check_tube_geometry(self):
        """Reject a coiled tube whose voxels need not form one chain along
        its axis.

        An axis along x runs along a row of the default grid's voxel centers.
        A coiled tube at least one voxel diagonal wide holds the voxel nearest
        every axis point, and those voxels are 26-connected.  Two 26-neighbours lie at
        most one diagonal apart, so the tube widened by half a diagonal must
        not touch another turn, or the minimal path steps across to it.  The
        tube widened by a whole diagonal must leave the axis it winds around
        free: with half a diagonal, the minimal path could still cut the
        coil's inner side by more than two voxels.
        """
        if self.coil_radius is None:
            return
        diag = math.hypot(*self.spacing)
        if not 2 * self.radius >= diag:
            raise ValueError(f"radius must be at least half the voxel diagonal "
                             f"({diag / 2:.4g} mm)")
        if not self.radius + diag <= self.coil_radius:
            around = _AXIS_KEYS[self.kind][0]  # the key holding the coil radius
            raise ValueError(
                f"radius + the voxel diagonal must not exceed {around}: the "
                "tube's voxels would fill the axis it winds around")
        # Axis points an angle s apart lie d(s) apart; d grows until the next
        # turn draws near, and the least d past that first maximum is the
        # closest approach of two turns (or of the ends of a near-full turn).
        # It lies within one turn, because later minima of d are farther.  On
        # a quarter turn d only grows.
        span = min(self.span, 2 * math.pi)
        s = np.append(np.arange(0.0, span, 0.01), span)
        d = np.hypot(2 * self.coil_radius * np.sin(s / 2), self.rise * s)
        falls = np.flatnonzero(np.diff(d) < 0)
        gap = d[falls[0]:].min() - 2 * self.radius if len(falls) else math.inf
        if not gap >= diag:
            raise ValueError(
                f"helix turns touch: pitch - 2 * radius, measured between the "
                f"tilted turns, is {gap:.4g} mm, less than the voxel diagonal "
                f"({diag:.4g} mm)")

    def vectors_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.linear.T + self.constant

    @property
    def axis_length(self) -> float:
        return self.span * self.speed

    def axis_point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.coil_radius is None:
            return np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=-1)
        radius = self.coil_radius
        return np.stack([radius * np.cos(t), radius * np.sin(t), self.rise * t], axis=-1)

    def axis_params(self, points) -> np.ndarray:
        """Axis parameter of the closest axis position, per point.

        On the helix, split the axis into turns centred on p's angle.  The
        turn nearest p in z holds the closest point of the unbounded helix,
        and ``_helix_newton`` finds it.  If that point lies past an end of
        the axis range, the closest point of the range is an end or a local
        minimum of the turn holding p's height clipped to the range, or of a
        turn next to it: minima grow on turns farther from the nearest one.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.coil_radius is None:
            return pts[:, 0]
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        if self.kind == "quarter-torus":
            return theta  # on the flat coil; ``_helix_newton`` divides by the rise
        rise, span = self.rise, self.span
        turn = np.round((pts[:, 2] / rise - theta) / (2 * math.pi))
        t = self._helix_newton(pts, theta, turn)
        past = (t < 0) | (t > span)
        if past.any():
            p, theta = pts[past], theta[past]
            turn = np.round((np.clip(p[:, 2] / rise, 0.0, span) - theta) / (2 * math.pi))
            near = self._helix_newton(p, theta, turn + [[-1], [0], [1]])
            ends = np.broadcast_to([[0.0], [span]], (2, len(p)))
            near = np.vstack([np.clip(near, 0.0, span), ends])
            gap = ((self.axis_point(near) - p) ** 2).sum(axis=-1)
            t[past] = np.take_along_axis(near, gap.argmin(axis=0)[None], axis=0)[0]
        return t

    def _helix_newton(self, points, theta, turn) -> np.ndarray:
        """Newton steps on f(t) = |axis_point(t) - p|^2 / 2, starting on the
        given turn at p's angle ``theta``.

        Within a quarter turn of that start f'' exceeds rise^2, f' is
        concave on the side of the minimum and the steps approach it without
        overshooting.  Elsewhere dividing by at least rise^2 keeps them
        finite.
        """
        rise = self.rise
        pull = self.coil_radius * np.hypot(points[:, 0], points[:, 1])
        centre = theta + 2 * math.pi * turn
        lift = rise * (rise * centre - points[:, 2])
        u = np.zeros_like(centre)  # angle past the centre
        for _ in range(_AXIS_NEWTON_STEPS):
            slope = pull * np.sin(u) + rise * rise * u + lift
            curve = pull * np.cos(u) + rise * rise
            u -= slope / np.maximum(curve, rise * rise)
        return centre + u

    def to_polyfield(self, order=1, offset=None, scale=None) -> PolyField:
        """Exact polynomial representation of this affine field.

        With the default identity normalization the result is divergence
        free in normalized coordinates; anisotropic scales preserve that
        only when the linear part has a zero diagonal, which holds for all
        built-in kinds except fanning.
        """
        if order < 1:
            raise ValueError("order must be >= 1 to represent an affine field")
        offset = np.zeros(3) if offset is None else np.asarray(offset, float)
        scale = np.ones(3) if scale is None else np.broadcast_to(
            np.asarray(scale, float), (3,)
        )
        slot = _term_index(order)
        coeffs = np.zeros((3, term_count(order)))
        coeffs[:, slot[(0, 0, 0)]] = self.constant + self.linear @ offset
        coeffs[:, slot[(1, 0, 0)]] = self.linear[:, 0] * scale[0]
        coeffs[:, slot[(0, 1, 0)]] = self.linear[:, 1] * scale[1]
        coeffs[:, slot[(0, 0, 1)]] = self.linear[:, 2] * scale[2]
        return PolyField(order, coeffs, offset, scale)


# The spec keys, in file order: every field but the derived ones.
_SPEC_KEYS = tuple(f.name for f in fields(PhantomSpec) if f.init)
# The name of the field class the spec replaced: the benchmark's layer tracer
# (perfbench/layers.py) patches ``phantom.FieldDescriptor.axis_params``.
FieldDescriptor = PhantomSpec


@dataclass(frozen=True, eq=False)
class Phantom:
    """Generated phantom bundle: mask, peaks, analytic axis, and as ``field``
    the spec it was generated from, which holds the flow field.

    ``centerline`` holds axis points at an arc-length step near
    ``RESAMPLE_STEP``.  Like every centerline, its tangents follow from its
    points, so they equal those of the ``axis.tract`` written from it.
    """

    mask: Mask
    peaks: PeaksField
    centerline: Centerline
    field: PhantomSpec
    p1: np.ndarray
    p2: np.ndarray


def _tube_bounds(spec: PhantomSpec) -> tuple:
    r = spec.radius
    if spec.coil_radius is None:
        # Along x the y half-width grows from r to spread and the z one shrinks.
        spread = r * np.exp(spec.rate * spec.span)
        return np.array([0.0, -spread, -r]), np.array([spec.span, spread, r])
    reach = spec.coil_radius + r
    if spec.kind == "quarter-torus":
        return np.array([0.0, 0.0, -r]), np.array([reach, reach, r])
    top = spec.pitch * spec.turns + r
    return np.array([-reach, -reach, -r]), np.array([reach, reach, top])


def _grid_layout(spec: PhantomSpec) -> tuple:
    s = np.asarray(spec.spacing)
    # A bound or voxel count past the float range becomes inf, which the
    # budget check rejects.
    with np.errstate(over="ignore"):
        lo, hi = _tube_bounds(spec)
        i0 = np.floor(lo / s) - _GRID_MARGIN
        i1 = np.ceil(hi / s) + _GRID_MARGIN
    counts = i1 - i0 + 1
    if math.prod(counts.tolist()) > _VOXEL_BUDGET:
        raise DomainError(
            f"phantom grid of {' x '.join(f'{v:.0f}' for v in counts)} voxels "
            f"exceeds the budget of {_VOXEL_BUDGET} voxels")
    dims = tuple(int(v) for v in counts)
    origin = tuple(float(v) for v in i0 * s)
    return dims, origin


def _foreground(spec: PhantomSpec, centers: np.ndarray):
    x, y, z = centers[:, 0], centers[:, 1], centers[:, 2]
    r = spec.radius
    if spec.coil_radius is None:
        span_y = y * np.exp(-spec.rate * x)
        span_z = z * np.exp(spec.rate * x)
        return (x >= 0) & (x <= spec.span) & (span_y ** 2 + span_z ** 2 <= r * r)
    if spec.kind == "quarter-torus":
        ring = np.hypot(x, y) - spec.coil_radius
        return (x >= 0) & (y >= 0) & (ring * ring + z * z <= r * r)
    dist = np.linalg.norm(centers - spec.axis_point(spec.axis_params(centers)), axis=1)
    # Flat end caps: cut the half-ball overhangs past each axis endpoint,
    # across the coil's unit tangent there.  The cap half-space applies only
    # near its endpoint, because for a full turn the plane would otherwise
    # slice the tube mid-helix.
    t, radius = np.array([0.0, spec.span]), spec.coil_radius
    ends = spec.axis_point(t)
    tans = np.stack(
        [-radius * np.sin(t), radius * np.cos(t), np.full_like(t, spec.rise)], axis=-1
    ) / spec.speed
    lo_cut = ((centers - ends[0]) @ tans[0] < 0) & (
        np.linalg.norm(centers - ends[0], axis=1) <= 1.5 * r
    )
    hi_cut = ((centers - ends[1]) @ tans[1] > 0) & (
        np.linalg.norm(centers - ends[1], axis=1) <= 1.5 * r
    )
    return (dist <= r) & ~lo_cut & ~hi_cut


def _orthonormal_frame(tangents: np.ndarray) -> tuple:
    """Deterministic unit vectors e1, e2 spanning each tangent's normal plane."""
    t = np.asarray(tangents, dtype=float)
    helper = np.zeros_like(t)
    helper[np.arange(len(t)), np.argmin(np.abs(t), axis=1)] = 1.0
    e1 = np.cross(t, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(t, e1)
    return e1, e2


def _analytic_centerline(spec: PhantomSpec) -> Centerline:
    count = max(1, int(round(spec.axis_length / RESAMPLE_STEP)))
    ts = np.linspace(0.0, spec.span, count + 1)
    return Centerline(spec.axis_point(ts), spec.axis_length / count)


def _snap_endpoint(mask: Mask, point: np.ndarray) -> np.ndarray:
    idx, inb = nearest_indices(mask, [point])
    if inb[0] and mask.data[tuple(idx[0])]:
        return np.asarray(point, dtype=float)
    centers = mask.foreground_points()
    return centers[closest_points([point], centers)[0][0]]


def generate(spec: PhantomSpec, rng_seed: int = 0) -> Phantom:
    """Build the mask, peaks and analytic centerline of ``spec``.

    Primary peaks are unit flow vectors at each foreground voxel center,
    optionally rotated by a Gaussian angular jitter; distractor peaks are
    random directions orthogonal to the unjittered flow, one per voxel in
    the ``_DISTRACTOR_BAND`` share of the axis range, at ``distractor_amp``.
    """
    dims, origin = _grid_layout(spec)
    s = np.asarray(spec.spacing)
    idx = np.indices(dims).reshape(3, -1).T
    centers = np.asarray(origin) + idx * s
    keep = _foreground(spec, centers)
    if not keep.any():
        raise DomainError("phantom tube covers no voxel centers")
    mask = Mask(dims, spec.spacing, origin, keep.reshape(dims))

    fg_idx = idx[keep]
    fg_centers = centers[keep]
    flow = spec.vectors_at(fg_centers)
    flow /= np.linalg.norm(flow, axis=1, keepdims=True)
    rng = np.random.default_rng(np.random.SeedSequence((int(rng_seed), 0x70AD)))
    n = len(fg_centers)
    primary = flow
    e1, e2 = _orthonormal_frame(flow)
    if spec.noise_deg > 0:
        phi = rng.uniform(0.0, 2 * math.pi, size=n)
        alpha = rng.normal(0.0, math.radians(spec.noise_deg), size=n)
        axis = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
        primary = (
            np.cos(alpha)[:, None] * flow
            + np.sin(alpha)[:, None] * np.cross(axis, flow)
        )
        primary /= np.linalg.norm(primary, axis=1, keepdims=True)

    k = 2 if spec.distractor_amp > 0 else 1
    directions = np.zeros(dims + (k, 3), dtype=float)
    amplitudes = np.zeros(dims + (k,), dtype=float)
    directions[fg_idx[:, 0], fg_idx[:, 1], fg_idx[:, 2], 0] = primary
    amplitudes[fg_idx[:, 0], fg_idx[:, 1], fg_idx[:, 2], 0] = 1.0
    if k == 2:
        frac = spec.axis_params(fg_centers) / spec.span
        band = (frac >= _DISTRACTOR_BAND[0]) & (frac <= _DISTRACTOR_BAND[1])
        psi = rng.uniform(0.0, 2 * math.pi, size=n)
        ortho = np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2
        sel = fg_idx[band]
        directions[sel[:, 0], sel[:, 1], sel[:, 2], 1] = ortho[band]
        amplitudes[sel[:, 0], sel[:, 1], sel[:, 2], 1] = spec.distractor_amp
    peaks = PeaksField(dims, tuple(spec.spacing), origin, directions, amplitudes)

    cl = _analytic_centerline(spec)
    p1 = _snap_endpoint(mask, cl.points[0])
    p2 = _snap_endpoint(mask, cl.points[-1])
    return Phantom(mask, peaks, cl, spec, p1, p2)


def analytic_streamline(
    spec: PhantomSpec, seed, arc_length: float, fine_step: float
) -> np.ndarray:
    """Reference unit-speed trajectory by classic RK4 at a fine step.

    Integrates dp/ds = v(p)/|v(p)| from the seed for the requested arc
    length; the final step is shortened so the total is exact.
    """
    if not 0 < fine_step < math.inf:
        raise ValueError("fine_step must be positive and finite")
    if not 0 <= arc_length < math.inf:
        raise ValueError("arc_length must be finite and >= 0")

    def g(p):
        v = spec.vectors_at(p[None, :])[0]
        return v / np.linalg.norm(v)

    p = np.asarray(seed, dtype=float).copy()
    points = [p.copy()]
    remaining = float(arc_length)
    while remaining > 1e-12:
        h = min(fine_step, remaining)
        k1 = g(p)
        k2 = g(p + 0.5 * h * k1)
        k3 = g(p + 0.5 * h * k2)
        k4 = g(p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        points.append(p.copy())
        remaining -= h
    return np.array(points)


def completion_rate(tract: Tract, spec: PhantomSpec) -> float:
    """Fraction of streamlines whose axis-parameter span reaches both caps.

    A streamline completes when its points cover the axis range up to a
    ``_COMPLETION_MARGIN`` relative margin on each end.  Empty tracts rate 0.
    """
    if not len(tract.counts):
        return 0.0
    pad = _COMPLETION_MARGIN * spec.span
    t = spec.axis_params(tract.points)
    starts = np.cumsum(tract.counts) - tract.counts
    lo, hi = np.minimum.reduceat(t, starts), np.maximum.reduceat(t, starts)
    return float(np.mean((lo <= pad) & (hi >= spec.span - pad)))


def save_phantom_spec(spec: PhantomSpec, path):
    """Write a phantom spec as a key: value text file, one line per field."""
    _write_text(path, [_line(name, getattr(spec, name)) for name in _SPEC_KEYS])


def load_phantom_spec(path) -> PhantomSpec:
    """Read a phantom spec text file; omitted keys keep their defaults."""
    kwargs = {}
    for key, text in _read_fields(path).items():
        if key not in _SPEC_KEYS:
            raise FormatError(f"{path}: unknown spec key {key!r}")
        if key == "kind":
            kwargs[key] = text
            continue
        # Every key but kind holds one number; spacing may hold three.
        count = 3 if key == "spacing" and len(text.split()) != 1 else 1
        values = _numbers(text, key, path, count)
        kwargs[key] = values[0] if count == 1 else tuple(values)
    return _checked(path, PhantomSpec, **kwargs)


def load_descriptor(path) -> PhantomSpec:
    """The phantom spec in ``path``, such as the ``descriptor.txt`` that
    ``tractfield phantom`` writes, with the flow field derived from it."""
    return load_phantom_spec(path)
