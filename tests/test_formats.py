"""Every loader under one key-value rule: fuzzed malformed files.

Each case writes a valid artifact with its real writer, breaks one line of
it (drops a value or a required line, repeats a key, or puts a non-finite
or garbled number in a value) and asserts that the loader raises
FormatError, never another exception and never a result.  Raw files
(volumes, masks, peaks, tracts, centerlines) are fuzzed in their text
header; the payload faults of tracts and centerlines, and the value faults
that only one kind of file checks, have cases of their own.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfield import (
    Centerline,
    FormatError,
    PeaksField,
    PhantomSpec,
    PolyField,
    VolumeGrid,
    load_centerline,
    load_descriptor,
    load_field,
    load_mask,
    load_peaks,
    load_phantom_spec,
    load_tract,
    load_volume,
    save_centerline,
    save_field,
    save_peaks,
    save_phantom_spec,
    save_tract,
    save_volume,
)
from tractfield import cli, term_count
from tractfield.grids import _line, _numbers

from conftest import tract_from_lines

BAD_NUMBERS = [
    "nan", "NaN", "-nan", "inf", "-inf", "1e999", "1x", "abc", "1.2.3", "--1", "1\u00b5",
]


def _write_spec(path):
    save_phantom_spec(
        PhantomSpec(kind="fanning", noise_deg=5.0, distractor_amp=0.3), path)


def _write_descriptor(path):
    # descriptor.txt is the phantom spec that ``tractfield phantom`` read
    save_phantom_spec(PhantomSpec(kind="helix", radius=2.0), path)


def _write_field(path):
    coeffs = np.arange(12, dtype=float).reshape(3, 4) / 7
    save_field(PolyField(1, coeffs, (0.5, 0, -1), (2, 2, 3)), path)


def _write_endpoints(path):
    cli._save_endpoints(path, np.array([0.0, 1.5, -2.0]), np.array([9.0, 0.0, 0.25]))


def _write_tract(path):
    line = np.array([[0.0, 0, 0], [0.2, 0.1, 0], [0.4, 0.1, 0.1]])
    save_tract(tract_from_lines([line, line + 1], step=0.3), path)


def _write_centerline(path):
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0.1, 0]])
    save_centerline(Centerline(pts, 0.5), path)


def _write_volume(path):
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    save_volume(VolumeGrid((2, 3, 4), (1.0, 0.5, 2.0), (-1.0, 0.0, 3.5), data), path)


def _write_mask(path):
    data = np.zeros((2, 3, 4), dtype=np.uint8)
    data[1, 1:, 2:] = 1
    save_volume(VolumeGrid((2, 3, 4), (1.0, 0.5, 2.0), (-1.0, 0.0, 3.5), data), path)


def _write_peaks(path):
    dirs = np.zeros((2, 2, 1, 2, 3))
    dirs[..., 0] = 1.0
    amps = np.zeros((2, 2, 1, 2))
    amps[..., 0] = 1.0
    save_peaks(PeaksField((2, 2, 1), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), dirs, amps), path)


# name: (writer, loader, whether every key line is required)
LOADERS = {
    "spec": (_write_spec, load_phantom_spec, False),
    "descriptor": (_write_descriptor, load_descriptor, False),
    "field": (_write_field, load_field, True),
    "endpoints": (_write_endpoints, cli._load_endpoints, True),
    "tract": (_write_tract, load_tract, True),
    "centerline": (_write_centerline, load_centerline, True),
    "volume": (_write_volume, load_volume, True),
    "mask": (_write_mask, load_mask, True),
    "peaks": (_write_peaks, load_peaks, True),
}


RAW = ("volume", "mask", "peaks", "tract", "centerline")


def _split(line):
    """(prefix, value words) of a ``key: value`` line, or None for other lines."""
    if not line.strip() or line.startswith("#"):
        return None
    key, _, value = line.partition(":")
    return key + ": ", value.split()


def _break_one_line(data, lines, required):
    values = [i for i, line in enumerate(lines) if _split(line)]
    i = data.draw(st.sampled_from(values), label="line")
    prefix, words = _split(lines[i])
    actions = ["drop value", "bad number", "duplicate line"] + ["drop line"] * required
    action = data.draw(st.sampled_from(actions), label="action")
    if action == "drop line":
        return lines[:i] + lines[i + 1:]
    if action == "duplicate line":
        return lines[:i + 1] + lines[i:]
    j = data.draw(st.integers(0, len(words) - 1), label="word")
    if action == "drop value":
        words = words[:j] + words[j + 1:]
    else:
        words = words[:j] + [data.draw(st.sampled_from(BAD_NUMBERS))] + words[j + 1:]
    return lines[:i] + [prefix + " ".join(words)] + lines[i + 1:]


@pytest.mark.parametrize("name", list(LOADERS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_broken_line_is_format_error(tmp_path_factory, name, data):
    write, load, required = LOADERS[name]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{name}"
    write(path)
    load(path)
    raw = path.read_bytes()
    # Raw files: only the text header is fuzzed; the payload stays intact.
    head, sep, payload = raw.partition(b"\n\n") if name in RAW else (raw, b"", b"")
    lines = _break_one_line(data, head.decode("ascii").split("\n"), required)
    path.write_bytes("\n".join(lines).encode("utf-8") + sep + payload)
    with pytest.raises(FormatError):
        load(path)


# Edge values of float64 output: signed zero, the smallest subnormal, a
# value near the top of the range, and two fractions with no short decimal.
EDGE = [-0.0, 5e-324, 1e308, 0.1, 1 / 3]
EDGE_A = np.array([[-0.0, 5e-324, 1e308], [0.1, 1 / 3, 1e308]])
EDGE_B = np.array([[1 / 3, 0.1, -0.0], [5e-324, 0.1, -0.0]])


def _rows(block):
    """Rows of numbers as the earlier text layout wrote them."""
    return [" ".join(format(float(x), ".17g") for x in row) for row in block]


def _packed(step, lines):
    """A tract or centerline file as the raw layout describes it, packed one
    number at a time."""
    header = (f"step: {step!r}\nlines: {len(lines)}\npoints: {sum(map(len, lines))}\n"
              "dtype: f64\nencoding: raw\n\n")
    counts = b"".join(struct.pack("<q", len(line)) for line in lines)
    coords = b"".join(struct.pack("<d", x) for line in lines for x in np.ravel(line))
    return header.encode("ascii") + counts + coords


def _edge_file(name):
    """(object to save, expected file bytes) holding every EDGE value."""
    if name == "tract":
        lines = [EDGE_A, EDGE_B]
        return tract_from_lines(lines, step=1 / 3), _packed(1 / 3, lines)
    if name == "centerline":
        return Centerline(EDGE_A, 0.1), _packed(0.1, [EDGE_A])
    coeffs = np.array([EDGE[:4], EDGE[1:], EDGE[::-1][:4]])
    offset, scale = (0.1, -0.0, 1 / 3), (1 / 3, 0.1, 1e308)
    keyed = [("offset", offset), ("scale", scale),
             *zip(("coeffs.x", "coeffs.y", "coeffs.z"), coeffs)]
    lines = ["order: 1", "terms: 4",
             *(f"{key}: " + " ".join(repr(float(x)) for x in row) for key, row in keyed)]
    return PolyField(1, coeffs, offset, scale), ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("name", ["tract", "centerline", "field"])
def test_block_writer_matches_per_coordinate_format(tmp_path, name):
    save = {"tract": save_tract, "centerline": save_centerline, "field": save_field}[name]
    obj, expected = _edge_file(name)
    path = tmp_path / name
    save(obj, path)
    assert path.read_bytes() == expected


# Every finite float64, with the edge values drawn often.
FLOATS = st.one_of(st.sampled_from(EDGE + [-5e-324, -1e308, 2.2250738585072014e-308]),
                   st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@given(floats=st.lists(FLOATS, min_size=1, max_size=8),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_line_numbers_round_trip_bitwise(floats, ints):
    key, _, text = _line("k", floats).partition(": ")
    assert _bits(_numbers(text, key, "f", len(floats))) == _bits(floats)
    # int() reads no float spelling, so ints must be written as ints
    key, _, text = _line("k", ints).partition(": ")
    assert _numbers(text, key, "f", len(ints), int) == ints


@given(data=st.data(), order=st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_text_artifacts_round_trip_bitwise(tmp_path_factory, data, order):
    path = tmp_path_factory.getbasetemp() / "round-trip.txt"

    def floats(n, values=FLOATS):
        return data.draw(st.lists(values, min_size=n, max_size=n))

    field = PolyField(order, np.array(floats(3 * term_count(order))).reshape(3, -1),
                      floats(3), floats(3, POSITIVE))
    save_field(field, path)
    back = load_field(path)
    assert back.order == order
    for name in ("coeffs", "offset", "scale"):
        assert _bits(getattr(back, name)) == _bits(getattr(field, name))

    # A straight tube takes any positive sizes, so every value of its spec,
    # the descriptor's format, can be drawn.
    radius, sx, sy, sz, *sizes = floats(10, POSITIVE)
    spec = PhantomSpec("straight-tube", radius, (sx, sy, sz), *sizes,
                       noise_deg=data.draw(POSITIVE),
                       distractor_amp=data.draw(st.floats(0.0, 1.0)))
    save_phantom_spec(spec, path)
    back = load_phantom_spec(path)
    assert back.kind == spec.kind
    for f in dataclasses.fields(spec)[1:]:
        assert _bits(getattr(back, f.name)) == _bits(getattr(spec, f.name)), f.name
    assert _bits(load_descriptor(path).params["length"]) == _bits(spec.length)

    p1, p2 = np.array(floats(3)), np.array(floats(3))
    cli._save_endpoints(path, p1, p2)
    assert list(map(_bits, cli._load_endpoints(path))) == [_bits(p1), _bits(p2)]


def test_old_field_layout_is_format_error(tmp_path):
    """The earlier ``field.txt`` layout, a header, a blank line and three
    unkeyed coefficient rows, fails at its first row."""
    path = tmp_path / "field.txt"
    path.write_text("order: 0\nterms: 1\noffset: 0 0 0\nscale: 1 1 1\n\n1\n0\n0\n")
    with pytest.raises(FormatError) as exc:
        load_field(path)
    assert str(exc.value) == f"{path}: malformed line '1'"


def test_raw_round_trip_is_bitwise(tmp_path):
    tract, _ = _edge_file("tract")
    save_tract(tract, tmp_path / "t")
    back = load_tract(tmp_path / "t")
    assert back.step == tract.step
    assert [line.tobytes() for line in back.streamlines] == [
        EDGE_A.tobytes(), EDGE_B.tobytes()]
    cl, _ = _edge_file("centerline")
    save_centerline(cl, tmp_path / "c")
    back = load_centerline(tmp_path / "c")
    assert back.delta == cl.delta and back.points.tobytes() == EDGE_A.tobytes()


def _raw_file(path):
    """(header fields, point counts, points) of a raw tract or centerline file,
    the arrays writable."""
    head, _, payload = path.read_bytes().partition(b"\n\n")
    fields = dict(line.split(": ") for line in head.decode("ascii").split("\n"))
    n = int(fields["lines"])
    counts = np.frombuffer(payload, "<i8", n).copy()
    points = np.frombuffer(payload, "<f8", offset=8 * n).reshape(-1, 3).copy()
    return fields, counts, points


def _write_raw_file(path, fields, payload: bytes):
    head = "".join(f"{key}: {value}\n" for key, value in fields.items()) + "\n"
    path.write_bytes(head.encode("ascii") + payload)


# A bad value replaces the last number of the first or last row: a word of
# a text row, or the eight bytes of a raw point row's last coordinate.
RAW_BAD = {"nan": struct.pack("<d", math.nan), "1x": b"1x", None: b""}


@pytest.mark.parametrize("name", ["tract", "centerline", "field"])
@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("bad", ["nan", "1x", None])
def test_bad_row_names_file_and_line(tmp_path, name, row, bad):
    """Every loader names the file; the field loader also quotes the
    ``coeffs.*`` line, and a raw loader names a non-finite point's index."""
    write, load, _ = LOADERS[name]
    path = tmp_path / name
    write(path)
    if name in RAW:
        fields, counts, points = _raw_file(path)
        i = range(len(points))[row]
        values = points.tobytes()
        end = 24 * (i + 1)
        _write_raw_file(path, fields, counts.tobytes() + values[:end - 8] + RAW_BAD[bad]
                        + values[end:])
        with pytest.raises(FormatError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: ")
        if bad == "nan":
            assert f"point {i} is not finite" in str(exc.value)
        return
    lines = path.read_text().split("\n")
    i = [i for i, line in enumerate(lines) if line.startswith("coeffs.")][row]
    words = lines[i].split()
    lines[i] = " ".join(words[:-1] + ([] if bad is None else [bad]))
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError) as exc:
        load(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert repr(lines[i]) in str(exc.value)


def _text_layout(path, step, lines, centerline):
    """The earlier text layout: a '# step' header (and a '# centerline'
    marker), then one point per row, streamlines separated by blank lines."""
    rows = [f"# step {format(step, '.17g')}"] + ["# centerline"] * centerline
    for i, line in enumerate(lines):
        rows += [""] * bool(i) + _rows(line)
    path.write_text("\n".join(rows) + "\n")


# Faults in one value that only one kind of file checks: the edit each
# makes to the file's bytes.
VALUE_EDITS = {
    "voxel 2": lambda raw: raw[:-1] + b"\x02",
    "peaks_per_voxel 0": lambda raw: raw.replace(b"peaks_per_voxel: 2", b"peaks_per_voxel: 0"),
    # the slot-1 amplitude of the last voxel, still sorted below slot 0
    "negative amplitude": lambda raw: raw[:-4] + struct.pack("<f", -0.5),
    "scale 0": lambda raw: raw.replace(b"scale: 2.0 ", b"scale: 0.0 "),
}


def _corrupt(fault, path, name):
    """Rewrite a valid file with one fault."""
    raw = path.read_bytes()
    if fault in VALUE_EDITS:
        return path.write_bytes(VALUE_EDITS[fault](raw))
    if fault == "dtype f32" and name == "mask":
        grid = load_volume(path)
        return save_volume(VolumeGrid(grid.dims, grid.spacing, grid.origin,
                                      grid.data.astype(np.float32)), path)
    if fault == "one byte short":
        return path.write_bytes(raw[:-1])
    if fault == "one byte extra":
        return path.write_bytes(raw + b"\0")
    fields, counts, points = _raw_file(path)
    if fault == "text layout":
        lines = np.split(points, np.cumsum(counts)[:-1])
        return _text_layout(path, float(fields["step"]), lines, name == "centerline")
    if fault == "negative count":
        # A tract's counts still sum to points, and on these close points the
        # lines they would cut out are valid, so only the sign gives it away.
        counts[-1] += counts[0] + 2
        counts[0] = -2
        points = np.arange(points.size).reshape(-1, 3) * 0.01
    elif fault == "counts sum to points + 1":
        counts[-1] += 1
    elif fault == "counts sum to points - 1":
        counts[-1] -= 1
    elif fault == "nan point":
        points[1, 2] = math.nan
    elif fault == "inf point":
        points[1, 0] = -math.inf
    elif fault == "dtype f32":
        fields["dtype"] = "f32"
    elif fault == "step 0":
        fields["step"] = "0"
    elif fault == "gap over twice step":
        points[1, 0] += 3 * float(fields["step"])
    elif fault == "counts wrap to 0":
        # 4 * 2**62 wraps around int64 to 0, the header's points
        fields.update(lines="4", points="0")
        counts, points = np.full(4, 2**62, "<i8"), np.empty((0, 3))
    elif fault == "counts wrap to 2":
        # 2 * (2**63 - 1) + 4 wraps around int64 to 2, the header's points
        fields.update(lines="3", points="2")
        counts, points = np.array([2**63 - 1, 2**63 - 1, 4], "<i8"), points[:2]
    elif fault == "lines -1":
        # a payload of the size such a header implies: 8 * -1 + 24 * 1 bytes
        fields.update(lines="-1", points="1")
        counts, points = np.array([0, 1], "<i8"), np.empty((0, 3))
    _write_raw_file(path, fields, counts.tobytes() + points.tobytes())


PAYLOAD_FAULTS = [
    "one byte short", "one byte extra", "negative count", "counts sum to points + 1",
    "counts sum to points - 1", "nan point", "inf point", "dtype f32", "step 0",
    "lines -1", "text layout", "counts wrap to 0", "counts wrap to 2",
]


# Each fault on every tract and centerline file, then the faults only one
# kind of file checks.
FILE_FAULTS = [(name, fault) for fault in PAYLOAD_FAULTS for name in ("tract", "centerline")] + [
    ("tract", "gap over twice step"), ("mask", "voxel 2"), ("mask", "dtype f32"),
    ("peaks", "peaks_per_voxel 0"), ("peaks", "negative amplitude"), ("field", "scale 0"),
]


@pytest.mark.parametrize("name, fault", FILE_FAULTS,
                         ids=[f"{fault}-{name}" for name, fault in FILE_FAULTS])
def test_bad_payload_names_file(tmp_path, name, fault):
    write, load, _ = LOADERS[name]
    path = tmp_path / name
    write(path)
    _corrupt(fault, path, name)
    with pytest.raises(FormatError) as exc:
        load(path)
    assert str(exc.value).startswith(f"{path}: ")
