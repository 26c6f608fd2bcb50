"""Every text loader under one key-value rule: fuzzed malformed files.

Each case writes a valid artifact with its real writer, breaks one line of
it (drops a value or a required line, repeats a key, or puts a non-finite
or garbled number in a value) and asserts that the loader raises
FormatError, never another exception and never a result.
"""

from __future__ import annotations

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
    Tract,
    VolumeGrid,
    load_centerline,
    load_descriptor,
    load_field,
    load_peaks,
    load_phantom_spec,
    load_tract,
    load_volume,
    save_centerline,
    save_descriptor,
    save_field,
    save_peaks,
    save_phantom_spec,
    save_tract,
    save_volume,
)
from tractfield import cli
from tractfield.phantom import _descriptor

BAD_NUMBERS = [
    "nan", "NaN", "-nan", "inf", "-inf", "1e999", "1x", "abc", "1.2.3", "--1", "1\u00b5",
]


def _write_spec(path):
    save_phantom_spec(
        PhantomSpec(kind="fanning", noise_deg=5.0, distractor_amp=0.3,
                    dims=(40, 20, 20), origin=(-3.0, -9.0, -9.0)),
        path,
    )


def _write_descriptor(path):
    save_descriptor(_descriptor(PhantomSpec(kind="helix")), path)


def _write_field(path):
    coeffs = np.arange(12, dtype=float).reshape(3, 4) / 7
    save_field(PolyField(1, coeffs, (0.5, 0, -1), (2, 2, 3)), path)


def _write_endpoints(path):
    cli._save_endpoints(path, np.array([0.0, 1.5, -2.0]), np.array([9.0, 0.0, 0.25]))


def _write_tract(path):
    line = np.array([[0.0, 0, 0], [0.2, 0.1, 0], [0.4, 0.1, 0.1]])
    save_tract(Tract([line, line + 1], step=0.3), path)


def _write_centerline(path):
    pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0.1, 0]])
    save_centerline(Centerline(pts, np.zeros_like(pts), 0.5), path)


def _write_volume(path):
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
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
    "descriptor": (_write_descriptor, load_descriptor, True),
    "field": (_write_field, load_field, True),
    "endpoints": (_write_endpoints, cli._load_endpoints, True),
    "tract": (_write_tract, load_tract, True),
    "centerline": (_write_centerline, load_centerline, True),
    "volume": (_write_volume, load_volume, True),
    "peaks": (_write_peaks, load_peaks, True),
}


def _split(line):
    """(prefix, value words, keyed) of a value line, or None for other lines.

    Key lines and the ``# step`` header are keyed: one per key and file.
    Point and coefficient rows are not.
    """
    if line.startswith("# step"):
        return "# step ", line[len("# step"):].split(), True
    if not line.strip() or line.startswith("#"):
        return None
    key, sep, value = line.partition(":")
    if sep:
        return key + ": ", value.split(), True
    return "", line.split(), False


def _break_one_line(data, lines, required):
    values = [i for i, line in enumerate(lines) if _split(line)]
    i = data.draw(st.sampled_from(values), label="line")
    prefix, words, keyed = _split(lines[i])
    actions = ["drop value", "bad number"]
    if keyed:
        actions.append("duplicate line")
        if required:
            actions.append("drop line")
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
    # .rvf files: only the text header is fuzzed; the payload stays intact.
    head, sep, payload = raw.partition(b"\n\n") if name in ("volume", "peaks") else (
        raw, b"", b"")
    lines = _break_one_line(data, head.decode("ascii").split("\n"), required)
    path.write_bytes("\n".join(lines).encode("utf-8") + sep + payload)
    with pytest.raises(FormatError):
        load(path)
