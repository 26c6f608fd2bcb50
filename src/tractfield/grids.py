"""Voxel-grid containers, coordinate transforms, and file I/O.

Every grid is a ``Lattice``: a ``VolumeGrid`` holds one scalar per voxel, a
``Mask`` is a ``VolumeGrid`` of 0s and 1s, and a ``PeaksField`` holds
candidate directions per voxel.  Grids are axis aligned: world = origin +
index * spacing componentwise, with no rotation.  In-memory arrays are
indexed ``[i, j, k]`` along the x, y, z axes; file payloads are little
endian with x varying fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

UNIT_TOL = 1e-6

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
_VOLUME_KEYS = ("dims", "spacing", "origin", "dtype", "encoding")
_PEAKS_KEYS = _VOLUME_KEYS + ("peaks_per_voxel",)
_LINES_KEYS = ("step", "lines", "points", "dtype", "encoding")


@dataclass(frozen=True, eq=False)
class Lattice:
    """Shape and placement of a regular 3-D grid: three positive ``dims``, three finite
    positive ``spacing`` values (mm) and a finite ``origin``."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]

    def __post_init__(self):
        dims = tuple(int(v) for v in self.dims)
        spacing = tuple(float(v) for v in self.spacing)
        origin = tuple(float(v) for v in self.origin)
        if len(dims) != 3 or min(dims) < 1:
            raise ValueError(f"dims must be three positive integers, got {dims}")
        if len(spacing) != 3 or not all(0 < v < math.inf for v in spacing):
            raise ValueError(f"spacing must be three finite positive reals, got {spacing}")
        if len(origin) != 3 or not all(map(math.isfinite, origin)):
            raise ValueError(f"origin must be three finite reals, got {origin}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)


@dataclass(frozen=True, eq=False)
class VolumeGrid(Lattice):
    """Regular 3-D lattice of per-voxel scalars."""

    data: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.data.shape != self.dims:
            raise ValueError(f"data shape {self.data.shape} does not match dims {self.dims}")


@dataclass(frozen=True, eq=False)
class Mask(VolumeGrid):
    """VolumeGrid whose data holds only 0 and 1, stored as uint8: the bundle
    pathway region."""

    def __post_init__(self):
        super().__post_init__()
        if np.any((self.data != 0) & (self.data != 1)):
            raise ValueError("mask values must be 0 or 1")
        object.__setattr__(self, "data", np.asarray(self.data, np.uint8))

    @property
    def grid(self) -> Mask:
        """The mask itself.  ``perfbench/harness.py`` reads a mask's geometry
        and data through ``mask.grid``, from when a mask wrapped its grid."""
        return self

    @property
    def foreground(self) -> np.ndarray:
        return self.data != 0

    def foreground_indices(self) -> np.ndarray:
        return np.argwhere(self.data != 0)

    def foreground_points(self) -> np.ndarray:
        return voxel_centers(self, self.foreground_indices())


@dataclass(frozen=True, eq=False)
class PeaksField(Lattice):
    """Per-voxel candidate fiber directions with amplitudes.

    Entries are zero-padded up to a fixed number of slots per voxel; a zero
    amplitude marks an unused slot, and amplitudes are sorted descending
    within each voxel.  ``load_peaks`` enforces unit directions in the used
    slots; an in-memory synthetic prior may hold raw field vectors there.  A
    prior is a one-slot field whose amplitude 1 marks a selected direction.
    """

    directions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        k = self.peaks_per_voxel
        if self.directions.shape != self.dims + (k, 3):
            raise ValueError(
                f"directions shape {self.directions.shape} does not match dims {self.dims}"
            )
        if self.amplitudes.shape != self.dims + (k,):
            raise ValueError(
                f"amplitudes shape {self.amplitudes.shape} does not match dims {self.dims}"
            )

    @property
    def peaks_per_voxel(self) -> int:
        return self.amplitudes.shape[-1] if self.amplitudes.ndim == 4 else 0

    def peaks_at(self, ijk) -> tuple[np.ndarray, np.ndarray]:
        """Directions and amplitudes stored at one voxel, padding removed."""
        i, j, k = ijk
        amps = self.amplitudes[i, j, k]
        keep = amps > 0
        return self.directions[i, j, k][keep], amps[keep]

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """World points and slot-0 directions of the voxels whose slot 0 is
        used: a prior's fit samples."""
        idx = np.argwhere(self.amplitudes[..., 0] > 0)
        return voxel_centers(self, idx), self.directions[idx[:, 0], idx[:, 1], idx[:, 2], 0]

    def validate(self):
        """Raise ValueError when the stored peaks break the format invariants."""
        # Each check asks that all values pass, so a NaN fails it.
        if not np.all(self.amplitudes >= 0):
            raise ValueError("peak amplitudes must be nonnegative")
        if not np.all(np.diff(self.amplitudes, axis=-1) <= 0):
            raise ValueError("peak amplitudes must be sorted descending per voxel")
        if not np.isfinite(self.directions).all():
            raise ValueError("peak directions must be finite, in every slot")
        norms = np.linalg.norm(self.directions, axis=-1)
        active = self.amplitudes > 0
        if not np.all(np.abs(norms[active] - 1.0) <= UNIT_TOL):
            raise ValueError("peak directions with positive amplitude must be unit length")


@dataclass(eq=False)
class Tract:
    """Streamlines as the ``.tract`` payload holds them: (n, 3) ``points``, line
    after line, and each line's point ``counts``.  Each line has >= 2 finite points,
    each within twice ``step`` (the tracing step length) of the next."""

    points: np.ndarray
    counts: np.ndarray
    step: float

    def __post_init__(self):
        self.step = float(self.step)
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        self.points = np.asarray(self.points, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.points.shape[1:] != (3,) or self.counts.ndim != 1
                or np.any(self.counts < 2) or self.counts.sum() != len(self.points)):
            raise ValueError("each streamline needs at least two 3-D points, "
                             "and the counts must sum to the points")
        if not np.isfinite(self.points).all():
            raise ValueError("streamline points must be finite")
        # Points far apart overflow to an infinite gap, which fails the check.
        with np.errstate(over="ignore"):
            gaps = _line_gaps(self.points, self.counts)
        if not (gaps.max(initial=0.0) <= 2.0 * self.step + 1e-9):
            raise ValueError("consecutive streamline points exceed twice the step length")

    @property
    def streamlines(self) -> list:
        """Each line's points, as views into ``points``."""
        return np.split(self.points, np.cumsum(self.counts))[:-1]


def _line_deltas(points, counts) -> np.ndarray:
    """Each point's step to the next point of its line, 0 at a line's last point."""
    deltas = np.empty_like(points)
    np.subtract(points[1:], points[:-1], out=deltas[:-1])
    deltas[np.cumsum(counts) - 1] = 0.0
    return deltas


def _line_gaps(points, counts) -> np.ndarray:
    """Each point's distance to the next point of its line, 0 at a line's last
    point: ``np.linalg.norm(_line_deltas(points, counts), axis=1)`` bit for
    bit, with the deltas squared in place instead of in two temporaries."""
    deltas = _line_deltas(points, counts)
    np.multiply(deltas, deltas, out=deltas)
    return np.sqrt(np.add.reduce(deltas, axis=1))


def _dots(a, b):
    """Dot products over the last axis, broadcast; ``np.dot``'s bits per pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def voxel_centers(grid, indices) -> np.ndarray:
    """World positions (mm) of integer voxel indices, shape (n, 3). No bounds check."""
    idx = np.atleast_2d(np.asarray(indices))
    return np.asarray(grid.origin) + idx * np.asarray(grid.spacing)


def nearest_indices(grid, pts) -> tuple[np.ndarray, np.ndarray]:
    """Round world points to their nearest voxel indices.

    Returns ``(indices, inbounds)`` with shapes (n, 3) and (n,). Halfway
    coordinates round toward the higher index.  A point off the grid, NaN or
    infinite too, gets index (0, 0, 0) before the int64 cast, so the cast
    never sees a value past the int64 range, where numpy warns.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    with np.errstate(over="ignore"):  # an infinite q is off the grid
        q = pts - np.asarray(grid.origin)
        q /= np.asarray(grid.spacing)
        q += 0.5
        np.floor(q, out=q)
    # A NaN fails both comparisons, so it is off the grid too.
    inb = ((q >= 0) & (q < np.asarray(grid.dims))).all(axis=1)
    q[~inb] = 0.0
    return q.astype(np.int64), inb


# Most query-reference pairs one block of `_sq_distance_blocks` holds: two
# float temporaries of 256 KiB each, whatever the point counts.  On tracts
# against their axis, 2**14 to 2**17 ran within 15% of each other.
_PAIR_BLOCK = 2**15


def _sq_distance_blocks(queries, refs):
    """Yield ``(lo, d2)`` over runs of the (n, 3) ``queries``: ``d2[i, j]`` is
    the squared distance from query ``lo + i`` to reference ``j``.

    The squared coordinate differences are summed x, then y, then z, as
    scipy's cKDTree and the tests' brute-force oracles sum them, so a
    minimum and its square root are theirs bit for bit.  A block holds at
    most ``_PAIR_BLOCK`` pairs, or one query row.  ``d2`` is overwritten by
    the next block.
    """
    refs = np.ascontiguousarray(np.asarray(refs, dtype=float).T)
    rows = max(1, _PAIR_BLOCK // refs.shape[1])
    d2 = np.empty((min(rows, len(queries)), refs.shape[1]))
    tmp = np.empty_like(d2)
    for lo in range(0, len(queries), rows):
        q = queries[lo:lo + rows]
        out, t = d2[:len(q)], tmp[:len(q)]
        np.subtract(q[:, :1], refs[0], out=out)
        out *= out
        for axis in (1, 2):
            np.subtract(q[:, axis:axis + 1], refs[axis], out=t)
            t *= t
            out += t
        yield lo, out


def nearest_point_indices(queries, refs) -> np.ndarray:
    """Index of each query's nearest reference point; the lowest index wins a
    tie.  Exact, with bounded temporaries (see ``_sq_distance_blocks``)."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    out = np.empty(len(queries), dtype=np.int64)
    for lo, d2 in _sq_distance_blocks(queries, refs):
        np.argmin(d2, axis=1, out=out[lo:lo + len(d2)])
    return out


def inside_many(mask: Mask, pts) -> np.ndarray:
    """Per point of an (n, 3) array: True when its nearest voxel center is
    in bounds and foreground."""
    idx, inb = nearest_indices(mask, pts)
    return inb & (mask.data[idx[:, 0], idx[:, 1], idx[:, 2]] != 0)


def same_geometry(a, b) -> bool:
    """True when two grid-like objects share dims, spacing, and origin exactly."""
    return a.dims == b.dims and a.spacing == b.spacing and a.origin == b.origin


def _ascii(raw: bytes, path) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not ASCII text") from None


def _checked(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError, the rejection of a value
    read from ``path``, raised as a FormatError that names the file."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_fields(lines, path, expected=None) -> dict:
    """The ``key: value`` lines of every text format, as a dict.

    Each line splits at its first colon and both sides are stripped; blank
    lines and ``#`` comments are skipped, and a repeated key is an error.
    When ``expected`` is given, the keys must be exactly those.
    """
    fields = {}
    for line in lines:
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, value = s.partition(":")
        key = key.strip()
        if not sep or not key:
            raise FormatError(f"{path}: malformed line {line!r}")
        if key in fields:
            raise FormatError(f"{path}: duplicate key in line {line!r}")
        fields[key] = value.strip()
    if expected is not None:
        for key in expected:
            if key not in fields:
                raise FormatError(f"{path}: missing key {key!r}")
        for key, value in fields.items():
            if key not in expected:
                raise FormatError(f"{path}: unexpected line {f'{key}: {value}'!r}")
    return fields


def _read_fields(path, expected=None) -> dict:
    """The fields of an ASCII ``key: value`` text file (see ``_parse_fields``)."""
    with open(path, "rb") as fh:
        return _parse_fields(_ascii(fh.read(), path).splitlines(), path, expected)


def _numbers(text: str, what: str, path, count: int, conv=float) -> list:
    """The ``count`` finite numbers in ``text``, the value of key ``what``.

    A FormatError names the file and quotes the line.
    """
    parts = text.split()
    line = f"{what}: {text}"
    if len(parts) != count:
        raise FormatError(f"{path}: expected {count} values in line {line!r}")
    try:
        out = [conv(p) for p in parts]
        finite = all(map(math.isfinite, out))
    except (ValueError, OverflowError):
        raise FormatError(f"{path}: bad number in line {line!r}") from None
    if not finite:
        raise FormatError(f"{path}: values must be finite in line {line!r}")
    return out


def _line(key: str, values) -> str:
    """One ``key: value`` line: a string as it is, or numbers by ``repr``, so
    ints stay ints and each float is the shortest text that reads back to
    the same float64."""
    if isinstance(values, str):
        return f"{key}: {values}"
    return f"{key}: " + " ".join(map(repr, np.ravel(values).tolist()))


def _write_text(path, lines):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_raw(path, expected_keys, dtypes) -> tuple[dict, bytes]:
    """Header fields and payload bytes of a raw file: ``key: value`` ASCII
    lines ending in one blank line, then the payload, which every raw file
    declares with ``encoding: raw`` and a ``dtype`` from ``dtypes``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n\n")
    if end < 0:
        raise FormatError(f"{path}: header not terminated by a blank line")
    # Split at "\n" only: splitlines() would also split at "\x0c" and the like.
    fields = _parse_fields(_ascii(raw[:end], path).split("\n"), path, expected_keys)
    for key, allowed in (("encoding", ("raw",)), ("dtype", dtypes)):
        if fields[key] not in allowed:
            raise FormatError(f"{path}: unsupported line {_line(key, fields[key])!r}")
    return fields, raw[end + 2:]


def _check_size(payload: bytes, expected: int, path):
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )


def _save_raw(path, lines, *payloads):
    """Write the header lines, one blank line, then each payload's bytes."""
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("ascii"))
        for payload in payloads:
            fh.write(payload.tobytes())


def _load_raw_grid(path, expected_keys, dtypes):
    fields, payload = _load_raw(path, expected_keys, dtypes)
    values = [_numbers(fields[key], key, path, 3, conv)
              for key, conv in (("dims", int), ("spacing", float), ("origin", float))]
    lattice = _checked(path, Lattice, *values)
    for a, (axis, n, s, o) in enumerate(zip("xyz", lattice.dims, lattice.spacing, lattice.origin)):
        # Points map to voxels only if each centre maps back to its own voxel,
        # and half a spacing is not 0.  A valid payload holds a byte or more
        # per voxel, so no more centres than its bytes are built.
        idx = np.zeros((min(n, len(payload)), 3), np.int64)
        idx[:, a] = np.arange(len(idx))
        with np.errstate(over="ignore"):
            back, inb = nearest_indices(lattice, voxel_centers(lattice, idx))
        if not (0.5 * s > 0 and inb.all() and np.array_equal(back, idx)):
            raise FormatError(f"{path}: the voxel centres along {axis} cannot be represented "
                              f"(dims {n}, spacing {s!r}, origin {o!r})")
    return fields, payload, lattice.dims, lattice.spacing, lattice.origin


def _save_raw_grid(grid, path, dtype: str, payload: np.ndarray, *extra):
    """Write the ``.rvf`` header, one blank line, then the payload bytes."""
    _save_raw(path, [
        _line("dims", grid.dims),
        _line("spacing", grid.spacing),
        _line("origin", grid.origin),
        _line("dtype", dtype),
        _line("encoding", "raw"),
        *extra,
    ], payload)


def load_volume(path) -> VolumeGrid:
    """Read a volume file: text header, then a raw little-endian payload.

    Header lines are ``key: value`` pairs terminated by one blank line; the
    required keys are dims, spacing, origin, dtype (f32 or u8), and
    ``encoding: raw``. The payload stores one value per voxel, x fastest.
    """
    fields, payload, dims, spacing, origin = _load_raw_grid(path, _VOLUME_KEYS, _DTYPES)
    dtype = _DTYPES[fields["dtype"]]
    _check_size(payload, dims[0] * dims[1] * dims[2] * dtype.itemsize, path)
    data = np.frombuffer(payload, dtype=dtype).reshape(dims, order="F")
    return VolumeGrid(dims, spacing, origin, data)


def save_volume(grid: VolumeGrid, path):
    """Write a volume file; uint8 data is stored as u8, anything else as f32."""
    key = "u8" if grid.data.dtype == np.uint8 else "f32"
    arr = np.asarray(grid.data, dtype=_DTYPES[key])
    _save_raw_grid(grid, path, key, arr.ravel(order="F"))


def load_mask(path) -> Mask:
    """Read a mask volume (dtype u8, values restricted to 0 and 1)."""
    grid = load_volume(path)
    if grid.data.dtype != np.uint8:
        raise FormatError(f"{path}: mask files require dtype u8")
    return _checked(path, Mask, grid.dims, grid.spacing, grid.origin, grid.data)


def load_peaks(path) -> PeaksField:
    """Read a peaks file: volume header plus ``peaks_per_voxel``, payload of
    (dir_x, dir_y, dir_z, amplitude) float32 quadruples per slot."""
    fields, payload, dims, spacing, origin = _load_raw_grid(path, _PEAKS_KEYS, ("f32",))
    (k,) = _numbers(fields["peaks_per_voxel"], "peaks_per_voxel", path, 1, int)
    if k < 1:
        raise FormatError(f"{path}: values must be positive in line "
                          f"{_line('peaks_per_voxel', k)!r}")
    _check_size(payload, dims[0] * dims[1] * dims[2] * k * 4 * 4, path)
    arr = np.frombuffer(payload, dtype="<f4")
    arr = arr.reshape((dims[2], dims[1], dims[0], k, 4)).transpose(2, 1, 0, 3, 4)
    directions = np.ascontiguousarray(arr[..., :3], dtype=float)
    amplitudes = np.ascontiguousarray(arr[..., 3], dtype=float)
    peaks = PeaksField(dims, spacing, origin, directions, amplitudes)
    _checked(path, peaks.validate)
    return peaks


def save_peaks(peaks: PeaksField, path):
    stacked = np.concatenate(
        [peaks.directions, peaks.amplitudes[..., None]], axis=-1
    )
    payload = np.ascontiguousarray(stacked.transpose(2, 1, 0, 3, 4), dtype="<f4")
    _save_raw_grid(peaks, path, "f32", payload,
                   _line("peaks_per_voxel", peaks.peaks_per_voxel))


def _save_lines(path, step: float, points, counts):
    """Write polylines in the raw layout: the header, then each line's point
    count as ``<i8``, then every point as three ``<f8`` values."""
    _save_raw(path, [
        _line("step", float(step)),
        _line("lines", len(counts)),
        _line("points", len(points)),
        _line("dtype", "f64"),
        _line("encoding", "raw"),
    ], np.asarray(counts, "<i8"), np.asarray(points, "<f8"))


def _load_lines(path) -> tuple[float, np.ndarray, np.ndarray]:
    """Read polylines written by ``_save_lines``: (step, points, counts)."""
    fields, payload = _load_raw(path, _LINES_KEYS, ("f64",))
    (step,) = _numbers(fields["step"], "step", path, 1)
    (n_lines,) = _numbers(fields["lines"], "lines", path, 1, int)
    (n_points,) = _numbers(fields["points"], "points", path, 1, int)
    if step <= 0:
        raise FormatError(f"{path}: values must be positive in line "
                          f"{_line('step', fields['step'])!r}")
    if min(n_lines, n_points) < 0:
        raise FormatError(f"{path}: lines and points must be nonnegative")
    _check_size(payload, 8 * n_lines + 24 * n_points, path)
    counts = np.frombuffer(payload, "<i8", n_lines)
    # Counts in [0, points] cannot wrap around int64 when summed.
    if np.any((counts < 0) | (counts > n_points)) or counts.sum() != n_points:
        raise FormatError(f"{path}: point counts must be nonnegative and sum to "
                          f"points ({n_points})")
    points = np.frombuffer(payload, "<f8", offset=8 * n_lines).reshape(n_points, 3)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise FormatError(f"{path}: point {bad[0]} is not finite")
    return step, points, counts


def load_tract(path) -> Tract:
    """Read a tract file (see ``save_tract``)."""
    step, points, counts = _load_lines(path)
    return _checked(path, Tract, points, counts, step)


def save_tract(tract: Tract, path):
    """Write a tract file: ``step``, ``lines`` and ``points`` header keys,
    then the raw point counts and points (see ``_save_lines``)."""
    _save_lines(path, tract.step, tract.points, tract.counts)
