"""Anatomical peak selection and the per-voxel orientation prior."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfield import (
    Centerline,
    DomainError,
    PeaksField,
    PhantomSpec,
    build_prior,
    cross_section_normals,
    extract_centerline,
    generate,
    load_peaks,
    prior_from_peaks,
    save_peaks,
    select_peak,
    synthetic_prior,
)

from conftest import make_mask

unit3 = st.tuples(*[st.floats(-1, 1, allow_nan=False)] * 3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)


def normed(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def scalar_select_peak(directions, amplitudes, normal, min_amp):
    """One voxel's selection, peak by peak: the oracle for ``select_peak``.

    Takes the padding-free peaks of ``PeaksField.peaks_at``; returns the
    sign-aligned winner, or None when no peak reaches ``min_amp``.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    n = np.asarray(normal, dtype=float)
    best = None
    for d, a in zip(dirs, amps):
        if a < min_amp:
            continue
        score = abs(float(np.dot(d, n)))
        if best is None or score > best[0] or (score == best[0] and a > best[1]):
            best = (score, a, d)
    if best is None:
        return None
    d = best[2]
    dot = float(np.dot(d, n))
    if dot == 0:
        lead = d[np.flatnonzero(d)[0]] if d.any() else 0.0
        return d if lead >= 0 else -d
    return d if dot >= 0 else -d


def row_peaks(directions, amplitudes):
    """A (n, 1, 1) peaks field holding row r's slots at voxel (r, 0, 0)."""
    dirs = np.asarray(directions, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    n, k = amps.shape
    return PeaksField((n, 1, 1), (1, 1, 1), (0, 0, 0),
                      dirs.reshape(n, 1, 1, k, 3), amps.reshape(n, 1, 1, k))


def pick(directions, amplitudes, normal, min_amp=0.05):
    """The batched selection at one voxel, None when nothing is admissible."""
    peaks = row_peaks([directions], [amplitudes])
    d, ok = select_peak(peaks, [(0.0, 0.0, 0.0)], [normal], min_amp)
    return d[0] if ok[0] else None


def matches_oracle(peaks, normals, min_amp):
    """True when ``select_peak`` equals the oracle at every voxel of a row field."""
    pts = np.zeros((peaks.dims[0], 3))
    pts[:, 0] = np.arange(peaks.dims[0])
    got, ok = select_peak(peaks, pts, normals, min_amp)
    for r, n in enumerate(normals):
        want = scalar_select_peak(*peaks.peaks_at((r, 0, 0)), n, min_amp)
        if ok[r] != (want is not None):
            return False
        if not np.array_equal(got[r], np.zeros(3) if want is None else want):
            return False
    return True


class TestSelectPeak:
    def test_smaller_axial_angle_wins(self):
        dirs = np.array([[1.0, 0, 0], [0.0, 1.0, 0]])
        amps = np.array([1.0, 0.9])
        got = pick(dirs, amps, normed((0.98, 0.2, 0)))
        assert np.allclose(got, [1, 0, 0])

    def test_sign_aligned_to_normal(self):
        got = pick(np.array([[-1.0, 0, 0]]), np.array([1.0]), (1.0, 0, 0))
        assert np.allclose(got, [1, 0, 0])

    def test_below_cutoff_returns_none(self):
        got = pick(np.array([[1.0, 0, 0]]), np.array([0.03]), (1.0, 0, 0))
        assert got is None

    def test_empty_list_returns_none(self):
        # A voxel holding only padding, even under a cutoff that admits 0.
        assert pick(np.array([[1.0, 0, 0]]), np.array([0.0]), (1.0, 0, 0), -1.0) is None

    def test_tie_broken_by_amplitude(self):
        d = normed((1, 1, 0))
        dirs = np.array([d, -d])
        amps = np.array([0.4, 0.9])
        got = pick(dirs, amps, (1.0, 0, 0))
        # the larger-amplitude peak wins and is sign-flipped toward n
        assert np.allclose(got, d)

    def test_double_tie_takes_storage_order(self):
        d = normed((1, 1, 0))
        e = normed((1, -1, 0))
        dirs = np.array([d, e])
        amps = np.array([0.7, 0.7])
        got = pick(dirs, amps, (1.0, 0, 0))
        assert np.allclose(got, d)

    @given(d=unit3, n=unit3)
    @settings(max_examples=100, deadline=None)
    def test_output_has_nonnegative_dot_with_normal(self, d, n):
        dirs = np.array([normed(d)])
        got = pick(dirs, np.array([1.0]), normed(n))
        assert got is not None
        assert float(np.dot(got, normed(n))) >= 0

    def test_right_angle_winner_takes_canonical_sign(self):
        for stored in ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)):
            got = pick(np.array([stored]), np.array([1.0]), (0.0, 1.0, 0.0))
            assert np.array_equal(got, (0.0, 0.0, 1.0))

    @given(d=unit3, n=unit3)
    @settings(max_examples=100, deadline=None)
    def test_antipodal_input_invariance(self, d, n):
        amps = np.array([1.0])
        a = pick(np.array([normed(d)]), amps, normed(n))
        b = pick(np.array([-normed(d)]), amps, normed(n))
        assert np.allclose(a, b)

    @given(data=st.data(), k=st.integers(1, 4), rows=st.integers(1, 6),
           min_amp=st.sampled_from([-1.0, 0.0, 0.05, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_batched_equals_oracle_bit_for_bit(self, data, k, rows, min_amp):
        # A small pool makes repeated and antipodal directions, equal
        # amplitudes (ties), zero padding and zero normals common.
        pool = [normed(v) for v in [(1, 0, 0), (1, 1, 0), (1, -1, 0), (0.3, 0.4, 1.2)]]
        direction = st.one_of(st.sampled_from(pool + [-v for v in pool]),
                              unit3.map(normed))
        amplitude = st.one_of(st.sampled_from([0.0, 0.03, 0.5, 1.0]),
                              st.floats(0, 1, allow_nan=False))
        normal = st.one_of(st.sampled_from(pool + [np.zeros(3)]), unit3.map(normed))
        dirs = [[data.draw(direction) for _ in range(k)] for _ in range(rows)]
        amps = [[data.draw(amplitude) for _ in range(k)] for _ in range(rows)]
        normals = np.array([data.draw(normal) for _ in range(rows)])
        assert matches_oracle(row_peaks(dirs, amps), normals, min_amp)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_points_off_the_grid_are_not_ok(self, axis):
        # Every voxel holds a peak, so only the bounds can refuse a point:
        # one voxel below the grid would wrap to the opposite face through a
        # negative index, and one past the top face would index out of range.
        peaks = PeaksField((3, 3, 3), (1, 1, 1), (0, 0, 0),
                           np.tile([1.0, 0, 0], (3, 3, 3, 1, 1)), np.ones((3, 3, 3, 1)))
        pts = np.ones((3, 3))
        pts[0, axis], pts[2, axis] = -1.0, 3.0
        d, ok = select_peak(peaks, pts, np.tile([1.0, 0, 0], (3, 1)))
        assert ok.tolist() == [False, True, False]
        assert np.array_equal(d, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])


def used(prior):
    """Where the one-slot prior holds a selected direction."""
    return prior.amplitudes[..., 0] > 0


def straight_phantom(length=20):
    return generate(PhantomSpec(kind="straight-tube", radius=3.0, length=length))


def straight_prior_inputs():
    ph = straight_phantom()
    cl = extract_centerline(ph.mask, ph.p1, ph.p2)
    return ph, cl


class TestBuildPrior:
    def test_straight_tube_all_axis_aligned(self):
        ph, cl = straight_prior_inputs()
        prior = build_prior(ph.peaks, cl, ph.mask)
        fg = ph.mask.foreground
        assert prior.peaks_per_voxel == 1
        assert used(prior)[fg].all()
        assert not used(prior)[~fg].any()
        dirs = prior.directions[fg, 0]
        assert np.allclose(dirs, [1, 0, 0], atol=1e-9)

    def test_axial_optimality_at_every_voxel(self):
        ph = generate(
            PhantomSpec(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                        turns=1.0, noise_deg=10.0, distractor_amp=0.8),
            rng_seed=3,
        )
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        prior = build_prior(ph.peaks, cl, ph.mask)
        from tractfield import cross_section_normals

        idx = np.argwhere(used(prior))
        pts = np.asarray(ph.mask.origin) + idx * np.asarray(ph.mask.spacing)
        normals = cross_section_normals(cl, pts)
        for voxel, n in zip(idx, normals):
            dirs, amps = ph.peaks.peaks_at(tuple(voxel))
            keep = amps >= 0.05
            chosen = prior.directions[tuple(voxel)][0]
            best = np.abs(dirs[keep] @ n).max()
            assert abs(float(np.abs(np.dot(chosen, n))) - best) < 1e-9

    def test_antipodal_storage_invariance(self):
        ph, cl = straight_prior_inputs()
        flipped = PeaksField(
            ph.peaks.dims,
            ph.peaks.spacing,
            ph.peaks.origin,
            -ph.peaks.directions,
            ph.peaks.amplitudes,
        )
        a = build_prior(ph.peaks, cl, ph.mask)
        b = build_prior(flipped, cl, ph.mask)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.allclose(a.directions, b.directions)

    def test_translation_invariance(self):
        ph, cl = straight_prior_inputs()
        shift = np.array([11.0, -4.0, 2.5])

        def moved(obj):
            return tuple(np.asarray(obj.origin) + shift)

        mask2 = make_mask(ph.mask.data, ph.mask.spacing, moved(ph.mask))
        peaks2 = PeaksField(
            ph.peaks.dims, ph.peaks.spacing, moved(ph.peaks),
            ph.peaks.directions, ph.peaks.amplitudes,
        )
        cl2 = Centerline(cl.points + shift, cl.delta)
        a = build_prior(ph.peaks, cl, ph.mask)
        b = build_prior(peaks2, cl2, mask2)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.allclose(a.directions, b.directions)

    def test_helix_distractors_rejected(self):
        ph = generate(
            PhantomSpec(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                        turns=1.0, distractor_amp=0.8),
            rng_seed=1,
        )
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        prior = build_prior(ph.peaks, cl, ph.mask)
        pts, dirs = prior.samples()
        flow = ph.field.vectors_at(pts)
        flow /= np.linalg.norm(flow, axis=1, keepdims=True)
        agree = np.einsum("ij,ij->i", dirs, flow)
        assert (agree >= 0.999).mean() >= 0.99

    def test_voxel_without_admissible_peak_invalid(self):
        ph, cl = straight_prior_inputs()
        amps = ph.peaks.amplitudes.copy()
        fg_idx = np.argwhere(ph.mask.foreground)
        dead = tuple(fg_idx[0])
        amps[dead] = 0.01
        weak = PeaksField(
            ph.peaks.dims, ph.peaks.spacing, ph.peaks.origin,
            ph.peaks.directions, amps,
        )
        prior = build_prior(weak, cl, ph.mask)
        assert not used(prior)[dead]
        assert used(prior).sum() == int(ph.mask.foreground.sum()) - 1
        pts, _ = prior.samples()
        dead_center = np.asarray(ph.mask.origin) + np.asarray(dead)
        assert not (pts == dead_center).all(axis=1).any()

    def test_grid_mismatch_raises(self):
        ph, cl = straight_prior_inputs()
        peaks2 = PeaksField(
            ph.peaks.dims, ph.peaks.spacing, (50.0, 0.0, 0.0),
            ph.peaks.directions, ph.peaks.amplitudes,
        )
        with pytest.raises(DomainError):
            build_prior(peaks2, cl, ph.mask)

    @pytest.mark.parametrize("min_amp", [0.05, 0.9, -1.0])
    def test_readme_helix_equals_per_voxel_oracle(self, min_amp):
        ph = generate(
            PhantomSpec(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                        turns=1.0, noise_deg=10.0, distractor_amp=0.8),
            rng_seed=42,
        )
        cl = extract_centerline(ph.mask, ph.p1, ph.p2)
        prior = build_prior(ph.peaks, cl, ph.mask, min_amp)
        directions = np.zeros(ph.mask.dims + (3,))
        valid = np.zeros(ph.mask.dims, dtype=bool)
        fg = ph.mask.foreground_indices()
        normals = cross_section_normals(cl, ph.mask.foreground_points())
        for voxel, n in zip(map(tuple, fg), normals):
            d = scalar_select_peak(*ph.peaks.peaks_at(voxel), n, min_amp)
            if d is not None:
                directions[voxel], valid[voxel] = d, True
        assert np.array_equal(prior.amplitudes[..., 0], valid)
        assert np.array_equal(prior.directions[..., 0, :], directions)


class TestPriorPeaksRoundTrip:
    def test_amplitude_one_marks_a_selected_direction(self):
        ph, cl = straight_prior_inputs()
        prior = build_prior(ph.peaks, cl, ph.mask)
        assert set(np.unique(prior.amplitudes)) == {0.0, 1.0}
        assert not prior.directions[~used(prior)].any()

    def test_round_trip(self, tmp_path):
        ph, cl = straight_prior_inputs()
        prior = build_prior(ph.peaks, cl, ph.mask)
        save_peaks(prior, tmp_path / "prior.rvf")
        back = prior_from_peaks(load_peaks(tmp_path / "prior.rvf"))
        assert np.array_equal(back.amplitudes, prior.amplitudes)
        assert np.allclose(back.directions, prior.directions)
        for got, want in zip(back.samples(), prior.samples()):
            assert np.allclose(got, want)

    def test_from_peaks_requires_single_slot(self):
        dirs = np.zeros((1, 1, 1, 2, 3))
        dirs[..., 0] = 1.0
        amps = np.array([1.0, 0.5]).reshape(1, 1, 1, 2)
        two_slot = PeaksField((1, 1, 1), (1, 1, 1), (0, 0, 0), dirs, amps)
        with pytest.raises(DomainError, match="one peak per voxel, found 2"):
            prior_from_peaks(two_slot)


class TestSyntheticPrior:
    def test_keeps_raw_magnitudes(self):
        mask = make_mask(np.ones((3, 3, 3)))
        prior = synthetic_prior(mask, lambda pts: np.tile([2.0, 0, 0], (len(pts), 1)))
        assert used(prior).all()
        pts, dirs = prior.samples()
        assert np.allclose(dirs, [2.0, 0, 0])
        assert len(pts) == 27
