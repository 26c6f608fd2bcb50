"""Voxel-grid containers, coordinate transforms, and file I/O.

Grids are axis aligned: world = origin + index * spacing componentwise, with
no rotation. In-memory arrays are indexed ``[i, j, k]`` along the x, y, z
axes; file payloads are little endian with x varying fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, TruncationError

UNIT_TOL = 1e-6

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
_VOLUME_KEYS = ("dims", "spacing", "origin", "dtype", "encoding")
_PEAKS_KEYS = _VOLUME_KEYS + ("peaks_per_voxel",)


def _fmt(x: float) -> str:
    # 17 significant digits round-trip float64 exactly through text.
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class VolumeGrid:
    """Regular 3-D lattice of per-voxel scalars."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if len(self.spacing) != 3 or min(self.spacing) <= 0:
            raise ValueError(f"spacing must be three positive reals, got {self.spacing}")
        if len(self.origin) != 3:
            raise ValueError(f"origin must have three components, got {self.origin}")
        if self.data.shape != self.dims:
            raise ValueError(f"data shape {self.data.shape} does not match dims {self.dims}")


@dataclass(frozen=True, eq=False)
class Mask:
    """VolumeGrid restricted to {0, 1}: the bundle pathway region."""

    grid: VolumeGrid

    def __post_init__(self):
        data = self.grid.data
        if np.any((data != 0) & (data != 1)):
            raise ValueError("mask values must be 0 or 1")
        if data.dtype != np.uint8:
            g = self.grid
            grid = VolumeGrid(g.dims, g.spacing, g.origin, np.asarray(data, np.uint8))
            object.__setattr__(self, "grid", grid)

    @property
    def foreground(self) -> np.ndarray:
        return self.grid.data != 0

    def foreground_indices(self) -> np.ndarray:
        return np.argwhere(self.grid.data != 0)

    def foreground_points(self) -> np.ndarray:
        return voxel_centers(self.grid, self.foreground_indices())


@dataclass(frozen=True, eq=False)
class PeaksField:
    """Per-voxel candidate fiber directions with amplitudes.

    Entries are zero-padded up to a fixed number of slots per voxel; a zero
    amplitude marks an unused slot. Stored directions with positive amplitude
    are unit length and amplitudes are sorted descending within each voxel.
    """

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    directions: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
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

    def validate(self):
        """Raise ValueError when the stored peaks break the format invariants."""
        # Each check asks that all values pass, so a NaN fails it.
        if not np.all(self.amplitudes >= 0):
            raise ValueError("peak amplitudes must be nonnegative")
        if not np.all(np.diff(self.amplitudes, axis=-1) <= 0):
            raise ValueError("peak amplitudes must be sorted descending per voxel")
        norms = np.linalg.norm(self.directions, axis=-1)
        active = self.amplitudes > 0
        if not np.all(np.abs(norms[active] - 1.0) <= UNIT_TOL):
            raise ValueError("peak directions with positive amplitude must be unit length")


@dataclass(eq=False)
class Tract:
    """A set of streamlines plus the step length they were generated with."""

    streamlines: list = field(default_factory=list)
    step: float = 0.3

    def __post_init__(self):
        self.step = float(self.step)
        if self.step <= 0:
            raise ValueError("step must be positive")
        cleaned = []
        for sl in self.streamlines:
            arr = np.asarray(sl, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 3 or len(arr) < 2:
                raise ValueError("each streamline needs at least two 3-D points")
            gaps = np.linalg.norm(np.diff(arr, axis=0), axis=1)
            if gaps.max() > 2.0 * self.step + 1e-9:
                raise ValueError("consecutive streamline points exceed twice the step length")
            cleaned.append(arr)
        self.streamlines = cleaned


def pooled_points(tract: Tract) -> np.ndarray:
    """All streamline points of a tract stacked into one (n, 3) array."""
    if not tract.streamlines:
        return np.empty((0, 3))
    return np.vstack(tract.streamlines)


def world_from_index(grid, ijk) -> np.ndarray:
    """World position (mm) of the voxel center at integer index ijk."""
    idx = np.asarray(ijk)
    if idx.shape != (3,):
        raise IndexError(f"index must have three components, got {ijk!r}")
    if np.any(idx < 0) or np.any(idx >= np.asarray(grid.dims)):
        raise IndexError(f"index {tuple(int(v) for v in idx)} outside grid dims {grid.dims}")
    return np.asarray(grid.origin) + idx * np.asarray(grid.spacing)


def voxel_centers(grid, indices) -> np.ndarray:
    """World positions (mm) of integer voxel indices, shape (n, 3). No bounds check."""
    idx = np.atleast_2d(np.asarray(indices))
    return np.asarray(grid.origin) + idx * np.asarray(grid.spacing)


def nearest_indices(grid, pts) -> tuple[np.ndarray, np.ndarray]:
    """Round world points to their nearest voxel indices.

    Returns ``(indices, inbounds)`` with shapes (n, 3) and (n,). Halfway
    coordinates round toward the higher index.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    q = (pts - np.asarray(grid.origin)) / np.asarray(grid.spacing)
    idx = np.floor(q + 0.5).astype(np.int64)
    inb = np.all((idx >= 0) & (idx < np.asarray(grid.dims)), axis=1)
    return idx, inb


def inside(mask: Mask, p) -> bool:
    """True when the nearest voxel center to p is in bounds and foreground."""
    idx, inb = nearest_indices(mask.grid, [p])
    if not inb[0]:
        return False
    return bool(mask.grid.data[tuple(idx[0])])


def inside_many(mask: Mask, pts) -> np.ndarray:
    """Vectorized ``inside`` over an (n, 3) point array."""
    idx, inb = nearest_indices(mask.grid, pts)
    out = np.zeros(len(idx), bool)
    sel = idx[inb]
    out[inb] = mask.grid.data[sel[:, 0], sel[:, 1], sel[:, 2]] != 0
    return out


def same_geometry(a, b) -> bool:
    """True when two grid-like objects share dims, spacing, and origin exactly."""
    return a.dims == b.dims and a.spacing == b.spacing and a.origin == b.origin


def _split_header(raw: bytes, path) -> tuple[dict, bytes]:
    end = raw.find(b"\n\n")
    if end < 0:
        raise FormatError(f"{path}: header not terminated by a blank line")
    try:
        text = raw[:end].decode("ascii")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: header is not ASCII text") from None
    fields = {}
    for line in text.split("\n"):
        if ":" not in line:
            raise FormatError(f"{path}: malformed header line {line!r}")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        if key in fields:
            raise FormatError(f"{path}: duplicate header line {line!r}")
        fields[key] = value
    return fields, raw[end + 2:]


def _require_keys(fields: dict, expected: tuple, path):
    for key in expected:
        if key not in fields:
            raise FormatError(f"{path}: missing header key {key!r}")
    for key, value in fields.items():
        if key not in expected:
            raise FormatError(f"{path}: unexpected header line {f'{key}: {value}'!r}")


def _parse_triple(fields: dict, key: str, conv, path, positive=False) -> tuple:
    value = fields[key]
    parts = value.split()
    line = f"{key}: {value}"
    if len(parts) != 3:
        raise FormatError(f"{path}: expected three values in header line {line!r}")
    try:
        out = tuple(conv(p) for p in parts)
    except ValueError:
        raise FormatError(f"{path}: bad number in header line {line!r}") from None
    if not all(np.isfinite(out)):
        raise FormatError(f"{path}: values must be finite in header line {line!r}")
    if positive and min(out) <= 0:
        raise FormatError(f"{path}: values must be positive in header line {line!r}")
    return out


def _load_raw_grid(path, expected_keys):
    with open(path, "rb") as fh:
        raw = fh.read()
    fields, payload = _split_header(raw, path)
    _require_keys(fields, expected_keys, path)
    dims = _parse_triple(fields, "dims", int, path, positive=True)
    spacing = _parse_triple(fields, "spacing", float, path, positive=True)
    origin = _parse_triple(fields, "origin", float, path)
    if fields["encoding"] != "raw":
        line = "encoding: " + fields["encoding"]
        raise FormatError(f"{path}: unsupported header line {line!r}")
    if fields["dtype"] not in _DTYPES:
        line = "dtype: " + fields["dtype"]
        raise FormatError(f"{path}: unsupported header line {line!r}")
    return fields, payload, dims, spacing, origin


def load_volume(path) -> VolumeGrid:
    """Read a volume file: text header, then a raw little-endian payload.

    Header lines are ``key: value`` pairs terminated by one blank line; the
    required keys are dims, spacing, origin, dtype (f32 or u8), and
    ``encoding: raw``. The payload stores one value per voxel, x fastest.
    """
    fields, payload, dims, spacing, origin = _load_raw_grid(path, _VOLUME_KEYS)
    dtype = _DTYPES[fields["dtype"]]
    expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
    if len(payload) != expected:
        raise TruncationError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(dims, order="F")
    return VolumeGrid(dims, spacing, origin, data)


def save_volume(grid: VolumeGrid, path):
    """Write a volume file; uint8 data is stored as u8, anything else as f32."""
    key = "u8" if grid.data.dtype == np.uint8 else "f32"
    arr = np.asarray(grid.data, dtype=_DTYPES[key])
    header = (
        ("dims", " ".join(str(d) for d in grid.dims)),
        ("spacing", " ".join(repr(s) for s in grid.spacing)),
        ("origin", " ".join(repr(o) for o in grid.origin)),
        ("dtype", key),
        ("encoding", "raw"),
    )
    with open(path, "wb") as fh:
        for k, v in header:
            fh.write(f"{k}: {v}\n".encode("ascii"))
        fh.write(b"\n")
        fh.write(arr.ravel(order="F").tobytes())


def load_mask(path) -> Mask:
    """Read a mask volume (dtype u8, values restricted to 0 and 1)."""
    grid = load_volume(path)
    if grid.data.dtype != np.uint8:
        raise FormatError(f"{path}: mask files require dtype u8")
    try:
        return Mask(grid)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_mask(mask: Mask, path):
    save_volume(mask.grid, path)


def load_peaks(path) -> PeaksField:
    """Read a peaks file: volume header plus ``peaks_per_voxel``, payload of
    (dir_x, dir_y, dir_z, amplitude) float32 quadruples per slot."""
    fields, payload, dims, spacing, origin = _load_raw_grid(path, _PEAKS_KEYS)
    if fields["dtype"] != "f32":
        raise FormatError(f"{path}: peaks files require dtype f32")
    line = "peaks_per_voxel: " + fields["peaks_per_voxel"]
    try:
        k = int(fields["peaks_per_voxel"])
    except ValueError:
        raise FormatError(f"{path}: bad number in header line {line!r}") from None
    if k < 1:
        raise FormatError(f"{path}: values must be positive in header line {line!r}")
    expected = dims[0] * dims[1] * dims[2] * k * 4 * 4
    if len(payload) != expected:
        raise TruncationError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    arr = np.frombuffer(payload, dtype="<f4")
    arr = arr.reshape((dims[2], dims[1], dims[0], k, 4)).transpose(2, 1, 0, 3, 4)
    directions = np.ascontiguousarray(arr[..., :3], dtype=float)
    amplitudes = np.ascontiguousarray(arr[..., 3], dtype=float)
    peaks = PeaksField(dims, spacing, origin, directions, amplitudes)
    try:
        peaks.validate()
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return peaks


def save_peaks(peaks: PeaksField, path):
    k = peaks.peaks_per_voxel
    stacked = np.concatenate(
        [peaks.directions, peaks.amplitudes[..., None]], axis=-1
    )
    payload = np.ascontiguousarray(stacked.transpose(2, 1, 0, 3, 4), dtype="<f4")
    header = (
        ("dims", " ".join(str(d) for d in peaks.dims)),
        ("spacing", " ".join(repr(s) for s in peaks.spacing)),
        ("origin", " ".join(repr(o) for o in peaks.origin)),
        ("dtype", "f32"),
        ("encoding", "raw"),
        ("peaks_per_voxel", str(k)),
    )
    with open(path, "wb") as fh:
        for key, value in header:
            fh.write(f"{key}: {value}\n".encode("ascii"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def _write_points_text(path, groups, header_items):
    """Shared writer for the streamline text format."""
    lines = [f"# {h}" for h in header_items]
    for gi, pts in enumerate(groups):
        if gi:
            lines.append("")
        lines.extend(" ".join(_fmt(c) for c in p) for p in np.asarray(pts, float))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_points_text(path) -> tuple[list, list]:
    """Shared reader for the streamline text format.

    Returns (header items, list of (n, 3) point arrays).
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    headers, groups, current = [], [], []
    for ln, line in enumerate(text.split("\n"), 1):
        s = line.strip()
        if s.startswith("#"):
            headers.append(s[1:].strip())
            continue
        if not s:
            if current:
                groups.append(np.array(current, dtype=float))
                current = []
            continue
        parts = s.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{ln}: expected 'x y z', got {line!r}")
        try:
            current.append([float(p) for p in parts])
        except ValueError:
            raise FormatError(f"{path}:{ln}: bad number in {line!r}") from None
    if current:
        groups.append(np.array(current, dtype=float))
    return headers, groups


def _step_from_headers(headers, path) -> float:
    for h in headers:
        if h.startswith("step"):
            parts = h.split()
            try:
                return float(parts[1])
            except (IndexError, ValueError):
                raise FormatError(f"{path}: bad step header {h!r}") from None
    raise FormatError(f"{path}: missing '# step' header")


def load_tract(path) -> Tract:
    """Read a tract text file: '# step' header, one point per line,
    streamlines separated by single blank lines."""
    headers, groups = _read_points_text(path)
    step = _step_from_headers(headers, path)
    try:
        return Tract(groups, step)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_tract(tract: Tract, path):
    """Write a tract text file with a '# step' header."""
    _write_points_text(path, tract.streamlines, [f"step {_fmt(tract.step)}"])
