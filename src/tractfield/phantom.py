"""Synthetic tube phantoms with known masks, peaks, axes, and flow fields.

Every phantom is a tube around an analytic axis curve, together with a
closed-form divergence-free affine field whose integral curves follow the
tube.  The generator emits the mask, a peaks field (optionally jittered and
contaminated with crossing-fiber distractors), the analytic centerline, and
a field descriptor that doubles as ground truth for fits and tracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

# scipy is imported inside the functions that call it: its first import
# costs ~0.5 s, and `import tractfield` and most stages never call it.

from .centerline import RESAMPLE_STEP, Centerline
from .errors import FormatError, GeometryError
from .grids import (
    Mask,
    PeaksField,
    Tract,
    VolumeGrid,
    _line,
    _numbers,
    _parse_fields,
    _read_text,
    _require_keys,
    _write_text,
    nearest_indices,
)
from .polyfield import PolyField, _term_index, term_count

KINDS = ("straight-tube", "quarter-torus", "helix", "fanning")
_AXIS_SAMPLE_STEP = 0.02  # arc spacing of helix axis samples for the mask
_COMPLETION_MARGIN = 0.05  # axis-end margin of completion_rate, share of the range
_GRID_MARGIN = 2  # all-background voxel slices padding the tube's bounds
_DISTRACTOR_BAND = (0.4, 0.6)  # axis-range share holding the distractor peaks


@dataclass(frozen=True, eq=False)
class FieldDescriptor:
    """Affine flow field v(p) = constant + linear @ p with zero divergence.

    Carries the axis-curve parameters of the generating phantom so callers
    can evaluate axis positions, tangents, and per-point axis parameters in
    closed form.
    """

    kind: str
    constant: np.ndarray
    linear: np.ndarray
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        constant = np.asarray(self.constant, dtype=float).reshape(3)
        linear = np.asarray(self.linear, dtype=float).reshape(3, 3)
        if abs(np.trace(linear)) > 1e-12:
            raise ValueError("field descriptor must be divergence-free")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "params", dict(self.params))

    def vectors_at(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.linear.T + self.constant

    @property
    def axis_range(self) -> tuple:
        if self.kind == "quarter-torus":
            return 0.0, math.pi / 2
        if self.kind == "helix":
            return 0.0, 2 * math.pi * self.params["turns"]
        return 0.0, self.params["length"]

    @property
    def axis_length(self) -> float:
        t0, t1 = self.axis_range
        if self.kind == "quarter-torus":
            return (t1 - t0) * self.params["major_radius"]
        if self.kind == "helix":
            radius = self.params["helix_radius"]
            rise = self.params["pitch"] / (2 * math.pi)
            return (t1 - t0) * math.hypot(radius, rise)
        return t1 - t0

    def axis_point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "quarter-torus":
            radius = self.params["major_radius"]
            return np.stack(
                [radius * np.cos(t), radius * np.sin(t), np.zeros_like(t)], axis=-1
            )
        if self.kind == "helix":
            radius = self.params["helix_radius"]
            rise = self.params["pitch"] / (2 * math.pi)
            return np.stack(
                [radius * np.cos(t), radius * np.sin(t), rise * t], axis=-1
            )
        return np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=-1)

    def axis_tangent(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "quarter-torus":
            return np.stack([-np.sin(t), np.cos(t), np.zeros_like(t)], axis=-1)
        if self.kind == "helix":
            radius = self.params["helix_radius"]
            rise = self.params["pitch"] / (2 * math.pi)
            speed = math.hypot(radius, rise)
            return np.stack(
                [-radius * np.sin(t), radius * np.cos(t), np.full_like(t, rise)],
                axis=-1,
            ) / speed
        ones = np.ones_like(t)
        return np.stack([ones, np.zeros_like(t), np.zeros_like(t)], axis=-1)

    def axis_samples(self) -> tuple:
        """Axis parameters and positions at about ``_AXIS_SAMPLE_STEP`` arc spacing."""
        t0, t1 = self.axis_range
        count = max(2, int(math.ceil(self.axis_length / _AXIS_SAMPLE_STEP)) + 1)
        ts = np.linspace(t0, t1, count)
        return ts, self.axis_point(ts)

    def axis_params(self, points) -> np.ndarray:
        """Axis parameter of the closest axis position, per point.

        Closed form except for the helix, where the closest sampled axis
        position decides (a z or angle read-out would smear the tilted end
        cross-sections across a wide parameter range).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "quarter-torus":
            return np.arctan2(pts[:, 1], pts[:, 0])
        if self.kind == "helix":
            from scipy.spatial import cKDTree

            ts, samples = self.axis_samples()
            _, idx = cKDTree(samples).query(pts)
            return ts[idx]
        return pts[:, 0]

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


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry, spacing and corruption of a synthetic tube; its grid is the
    tube's bounds padded by ``_GRID_MARGIN`` voxels."""

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        spacing = self.spacing
        if np.isscalar(spacing):
            spacing = (float(spacing),) * 3
        object.__setattr__(self, "spacing", tuple(float(v) for v in spacing))
        if len(self.spacing) != 3:
            raise ValueError("spacing must be a scalar or three values")
        for f in fields(self):
            if f.name != "kind" and not np.all(np.isfinite(getattr(self, f.name))):
                raise ValueError(f"{f.name} must be finite")
        # Written as "not (ok)" so that NaN fails every check too.
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if not min(self.spacing) > 0:
            raise ValueError("spacing must be positive")
        for name in ("length", "major_radius", "helix_radius", "pitch", "turns"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        self._check_tube_geometry()
        if not self.noise_deg >= 0:
            raise ValueError("noise_deg must be >= 0")
        if not 0 <= self.distractor_amp <= 1:
            raise ValueError("distractor_amp must be in [0, 1]")

    def _check_tube_geometry(self):
        """Reject a curved tube whose voxels need not form one chain along
        its axis.

        A straight axis runs along a row of the default grid's voxel centers.
        A curved tube at least one voxel diagonal wide holds the voxel nearest
        every axis point, and those voxels are 26-connected.  Two 26-neighbours lie at
        most one diagonal apart, so the tube widened by half a diagonal must
        still leave the axis it winds around free and must not touch another
        turn; otherwise the minimal path cuts through the filled core or
        steps across to the next turn.
        """
        if self.kind not in ("quarter-torus", "helix"):
            return
        diag = math.hypot(*self.spacing)
        if not 2 * self.radius >= diag:
            raise ValueError(f"radius must be at least half the voxel diagonal "
                             f"({diag / 2:.4g} mm)")
        around = "major_radius" if self.kind == "quarter-torus" else "helix_radius"
        if not self.radius + diag / 2 <= getattr(self, around):
            raise ValueError(
                f"radius + half the voxel diagonal must not exceed {around}: the "
                "tube's voxels would fill the axis it winds around")
        if self.kind != "helix":
            return
        rise = self.pitch / (2 * math.pi)
        # Axis points an angle s apart lie d(s) apart; d grows until the next
        # turn draws near, and the least d past that first maximum is the
        # closest approach of two turns (or of the ends of a near-full turn).
        # It lies within one turn, because later minima of d are farther.
        span = 2 * math.pi * min(self.turns, 1.0)
        s = np.append(np.arange(0.0, span, 0.01), span)
        d = np.hypot(2 * self.helix_radius * np.sin(s / 2), rise * s)
        falls = np.flatnonzero(np.diff(d) < 0)
        gap = d[falls[0]:].min() - 2 * self.radius if len(falls) else math.inf
        if not gap >= diag:
            raise ValueError(
                f"helix turns touch: pitch - 2 * radius, measured between the "
                f"tilted turns, is {gap:.4g} mm, less than the voxel diagonal "
                f"({diag:.4g} mm)")


@dataclass(frozen=True, eq=False)
class Phantom:
    """Generated phantom bundle: mask, peaks, analytic axis, flow field."""

    mask: Mask
    peaks: PeaksField
    centerline: Centerline
    field: FieldDescriptor
    p1: np.ndarray
    p2: np.ndarray


def _descriptor(spec: PhantomSpec) -> FieldDescriptor:
    if spec.kind == "straight-tube":
        return FieldDescriptor(
            spec.kind, (1.0, 0.0, 0.0), np.zeros((3, 3)), {"length": spec.length}
        )
    if spec.kind == "quarter-torus":
        omega = 1.0 / spec.major_radius
        linear = np.array([[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]])
        return FieldDescriptor(
            spec.kind, np.zeros(3), linear, {"major_radius": spec.major_radius}
        )
    if spec.kind == "helix":
        rise = spec.pitch / (2 * math.pi)
        speed = math.hypot(spec.helix_radius, rise)
        k = 1.0 / speed
        linear = np.array([[0.0, -k, 0.0], [k, 0.0, 0.0], [0.0, 0.0, 0.0]])
        return FieldDescriptor(
            spec.kind,
            (0.0, 0.0, k * rise),
            linear,
            {
                "helix_radius": spec.helix_radius,
                "pitch": spec.pitch,
                "turns": spec.turns,
            },
        )
    rate = spec.fan_rate
    return FieldDescriptor(
        spec.kind,
        (1.0, 0.0, 0.0),
        np.diag([0.0, rate, -rate]),
        {"length": spec.length, "fan_rate": rate},
    )


def _tube_bounds(spec: PhantomSpec) -> tuple:
    r = spec.radius
    if spec.kind == "straight-tube":
        return np.array([0.0, -r, -r]), np.array([spec.length, r, r])
    if spec.kind == "quarter-torus":
        reach = spec.major_radius + r
        return np.array([0.0, 0.0, -r]), np.array([reach, reach, r])
    if spec.kind == "helix":
        reach = spec.helix_radius + r
        top = spec.pitch * spec.turns + r
        return np.array([-reach, -reach, -r]), np.array([reach, reach, top])
    # Along x the y half-width grows from r to spread and the z one shrinks.
    spread = r * math.exp(spec.fan_rate * spec.length)
    return np.array([0.0, -spread, -r]), np.array([spec.length, spread, r])


def _grid_layout(spec: PhantomSpec) -> tuple:
    lo, hi = _tube_bounds(spec)
    s = np.asarray(spec.spacing)
    i0 = np.floor(lo / s).astype(int) - _GRID_MARGIN
    i1 = np.ceil(hi / s).astype(int) + _GRID_MARGIN
    dims = tuple(int(v) for v in (i1 - i0 + 1))
    origin = tuple(float(v) for v in i0 * s)
    return dims, origin


def _foreground(spec: PhantomSpec, desc: FieldDescriptor, centers: np.ndarray):
    x, y, z = centers[:, 0], centers[:, 1], centers[:, 2]
    r = spec.radius
    if spec.kind == "straight-tube":
        return (x >= 0) & (x <= spec.length) & (y * y + z * z <= r * r)
    if spec.kind == "quarter-torus":
        ring = np.hypot(x, y) - spec.major_radius
        return (x >= 0) & (y >= 0) & (ring * ring + z * z <= r * r)
    if spec.kind == "helix":
        from scipy.spatial import cKDTree

        t0, t1 = desc.axis_range
        _, samples = desc.axis_samples()
        dist, _ = cKDTree(samples).query(centers)
        # Flat end caps: cut the half-ball overhangs past each axis endpoint.
        # The cap half-space applies only near its endpoint, because for a
        # full turn the plane would otherwise slice the tube mid-helix.
        ends = desc.axis_point(np.array([t0, t1]))
        tans = desc.axis_tangent(np.array([t0, t1]))
        lo_cut = ((centers - ends[0]) @ tans[0] < 0) & (
            np.linalg.norm(centers - ends[0], axis=1) <= 1.5 * r
        )
        hi_cut = ((centers - ends[1]) @ tans[1] > 0) & (
            np.linalg.norm(centers - ends[1], axis=1) <= 1.5 * r
        )
        return (dist <= r) & ~lo_cut & ~hi_cut
    span_y = y * np.exp(-spec.fan_rate * x)
    span_z = z * np.exp(spec.fan_rate * x)
    return (
        (x >= 0) & (x <= spec.length) & (span_y ** 2 + span_z ** 2 <= r * r)
    )


def _orthonormal_frame(tangents: np.ndarray) -> tuple:
    """Deterministic unit vectors e1, e2 spanning each tangent's normal plane."""
    t = np.asarray(tangents, dtype=float)
    helper = np.zeros_like(t)
    helper[np.arange(len(t)), np.argmin(np.abs(t), axis=1)] = 1.0
    e1 = np.cross(t, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(t, e1)
    return e1, e2


def _analytic_centerline(desc: FieldDescriptor) -> Centerline:
    t0, t1 = desc.axis_range
    count = max(1, int(round(desc.axis_length / RESAMPLE_STEP)))
    ts = np.linspace(t0, t1, count + 1)
    return Centerline(
        desc.axis_point(ts), desc.axis_tangent(ts), desc.axis_length / count
    )


def _snap_endpoint(mask: Mask, point: np.ndarray) -> np.ndarray:
    idx, inb = nearest_indices(mask.grid, [point])
    if inb[0] and mask.grid.data[tuple(idx[0])]:
        return np.asarray(point, dtype=float)
    from scipy.spatial import cKDTree

    centers = mask.foreground_points()
    _, nn = cKDTree(centers).query(np.asarray(point, float))
    return centers[int(nn)]


def generate(spec: PhantomSpec, rng_seed: int = 0) -> Phantom:
    """Build the mask, peaks, analytic centerline, and flow descriptor.

    Primary peaks are unit flow vectors at each foreground voxel center,
    optionally rotated by a Gaussian angular jitter; distractor peaks are
    random directions orthogonal to the unjittered flow, one per voxel in
    the ``_DISTRACTOR_BAND`` share of the axis range, at ``distractor_amp``.
    """
    desc = _descriptor(spec)
    dims, origin = _grid_layout(spec)
    s = np.asarray(spec.spacing)
    idx = np.indices(dims).reshape(3, -1).T
    centers = np.asarray(origin) + idx * s
    keep = _foreground(spec, desc, centers)
    if not keep.any():
        raise GeometryError("phantom tube covers no voxel centers")
    data = np.zeros(dims, dtype=np.uint8)
    data[idx[keep, 0], idx[keep, 1], idx[keep, 2]] = 1
    mask = Mask(VolumeGrid(dims, tuple(spec.spacing), origin, data))

    fg_idx = idx[keep]
    fg_centers = centers[keep]
    flow = desc.vectors_at(fg_centers)
    flow /= np.linalg.norm(flow, axis=1, keepdims=True)
    rng = np.random.default_rng(np.random.SeedSequence((int(rng_seed), 0x70AD)))
    n = len(fg_centers)
    primary = flow
    if spec.noise_deg > 0:
        e1, e2 = _orthonormal_frame(flow)
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
        t0, t1 = desc.axis_range
        frac = (desc.axis_params(fg_centers) - t0) / (t1 - t0)
        band = (frac >= _DISTRACTOR_BAND[0]) & (frac <= _DISTRACTOR_BAND[1])
        e1, e2 = _orthonormal_frame(flow)
        psi = rng.uniform(0.0, 2 * math.pi, size=n)
        ortho = np.cos(psi)[:, None] * e1 + np.sin(psi)[:, None] * e2
        sel = fg_idx[band]
        directions[sel[:, 0], sel[:, 1], sel[:, 2], 1] = ortho[band]
        amplitudes[sel[:, 0], sel[:, 1], sel[:, 2], 1] = spec.distractor_amp
    peaks = PeaksField(dims, tuple(spec.spacing), origin, directions, amplitudes)

    cl = _analytic_centerline(desc)
    p1 = _snap_endpoint(mask, cl.points[0])
    p2 = _snap_endpoint(mask, cl.points[-1])
    return Phantom(mask, peaks, cl, desc, p1, p2)


def analytic_streamline(
    desc: FieldDescriptor, seed, arc_length: float, fine_step: float
) -> np.ndarray:
    """Reference unit-speed trajectory by classic RK4 at a fine step.

    Integrates dp/ds = v(p)/|v(p)| from the seed for the requested arc
    length; the final step is shortened so the total is exact.
    """
    if fine_step <= 0:
        raise ValueError("fine_step must be positive")

    def g(p):
        v = desc.vectors_at(p[None, :])[0]
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


def completion_rate(tract: Tract, desc: FieldDescriptor) -> float:
    """Fraction of streamlines whose axis-parameter span reaches both caps.

    A streamline completes when its points cover the axis range up to a
    ``_COMPLETION_MARGIN`` relative margin on each end.  Empty tracts rate 0.
    """
    if not len(tract.counts):
        return 0.0
    t0, t1 = desc.axis_range
    pad = _COMPLETION_MARGIN * (t1 - t0)
    t = desc.axis_params(tract.points)
    starts = np.cumsum(tract.counts) - tract.counts
    lo, hi = np.minimum.reduceat(t, starts), np.maximum.reduceat(t, starts)
    return float(np.mean((lo <= t0 + pad) & (hi >= t1 - pad)))


def save_phantom_spec(spec: PhantomSpec, path):
    """Write a phantom spec as a key: value text file, one line per field."""
    _write_text(path, [_line(f.name, getattr(spec, f.name)) for f in fields(spec)])


def load_phantom_spec(path) -> PhantomSpec:
    """Read a phantom spec text file; omitted keys keep their defaults."""
    keys = {f.name for f in fields(PhantomSpec)}
    kwargs = {}
    for key, text in _parse_fields(_read_text(path).splitlines(), path).items():
        if key not in keys:
            raise FormatError(f"{path}: unknown spec key {key!r}")
        if key == "kind":
            kwargs[key] = text
            continue
        # Every key but kind holds one number; spacing may hold three.
        count = 3 if key == "spacing" and len(text.split()) != 1 else 1
        values = _numbers(text, key, path, count)
        kwargs[key] = values[0] if count == 1 else tuple(values)
    try:
        return PhantomSpec(**kwargs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_descriptor(desc: FieldDescriptor, path):
    """Write a field descriptor as a small key: value text file."""
    lines = [
        _line("kind", desc.kind),
        _line("constant", desc.constant),
        _line("linear", desc.linear),
    ]
    lines += [_line(f"param.{name}", desc.params[name]) for name in sorted(desc.params)]
    _write_text(path, lines)


def load_descriptor(path) -> FieldDescriptor:
    """Read a field descriptor written by ``save_descriptor``."""
    fields = _parse_fields(_read_text(path).splitlines(), path)
    kind = fields.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{path}: kind must be one of {KINDS}, got {kind!r}")
    # The param.* keys are exactly the ones the generator writes for the kind.
    params = [f"param.{name}" for name in _descriptor(PhantomSpec(kind)).params]
    _require_keys(fields, ["kind", "constant", "linear"] + params, path)
    constant = _numbers(fields["constant"], "constant", path, 3)
    linear = _numbers(fields["linear"], "linear", path, 9)
    values = {key[len("param."):]: _numbers(fields[key], key, path, 1)[0] for key in params}
    try:
        return FieldDescriptor(kind, constant, linear, values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
