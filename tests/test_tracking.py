"""Tracker behaviour: direction sampling, RK4 accuracy, stop rules, determinism."""

import math

import numpy as np
import pytest

from tractfield import (
    EmptyTractError,
    PeaksField,
    PhantomSpec,
    PolyField,
    TrackParams,
    baseline_peak_track,
    generate,
    inside_many,
    pooled_points,
    rk4_step,
    sample_direction,
    track,
)


def rotational_field():
    """v(p) = (-y, x, 0); its normalized flow moves on circles at unit speed."""
    coeffs = np.zeros((3, 4))
    coeffs[0, 2] = -1.0
    coeffs[1, 3] = 1.0
    return PolyField(1, coeffs)


def constant_field(v=(1.0, 0.0, 0.0)):
    return PolyField(0, np.asarray(v, dtype=float).reshape(3, 1))


def arc_length(points):
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


@pytest.fixture(scope="module")
def straight():
    return generate(PhantomSpec(kind="straight-tube", radius=3.0, length=60.0))


@pytest.fixture(scope="module")
def torus():
    return generate(PhantomSpec(kind="quarter-torus", radius=3.0, major_radius=12.0))


class TestTrackParams:
    def test_defaults(self):
        params = TrackParams()
        assert params.step == 0.3
        assert params.sigma == 0.1
        assert params.max_steps == 2000
        assert params.seed_count == 10
        assert params.rng_seed == 0
        assert params.bidirectional is True

    def test_min_len_defaults_to_three_steps(self):
        assert TrackParams().min_len == pytest.approx(0.9)
        assert TrackParams(step=0.5).min_len == pytest.approx(1.5)

    def test_explicit_min_len_kept(self):
        assert TrackParams(min_len=0.0).min_len == 0.0
        assert TrackParams(min_len=5.0).min_len == 5.0

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"step": 0.0}, "step"),
            ({"step": -0.1}, "step"),
            ({"sigma": -0.1}, "sigma"),
            ({"max_steps": 0}, "max_steps"),
            ({"seed_count": 0}, "seed_count"),
            ({"min_len": -1.0}, "min_len"),
            ({"step": float("nan")}, "step"),
            ({"sigma": float("nan")}, "sigma"),
            ({"min_len": float("nan")}, "min_len"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrackParams(**kwargs)


class TestSampleDirection:
    def test_normalizes_field_vector(self):
        d = sample_direction((2.0, 0.0, 0.0), None, 0.0, None)
        assert np.array_equal(d, [1.0, 0.0, 0.0])

    def test_sign_aligned_to_previous(self):
        d = sample_direction((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0, None)
        assert np.array_equal(d, [1.0, 0.0, 0.0])

    def test_no_flip_without_previous(self):
        d = sample_direction((-1.0, 0.0, 0.0), None, 0.0, None)
        assert np.array_equal(d, [-1.0, 0.0, 0.0])

    def test_zero_field_returns_none(self):
        assert sample_direction((0.0, 0.0, 0.0), None, 0.1, np.random.default_rng(0)) is None

    def test_sigma_zero_draws_nothing(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        sample_direction((0.0, 3.0, 0.0), (0.0, 1.0, 0.0), 0.0, rng)
        assert rng.bit_generator.state == state

    def test_result_is_unit_length(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = sample_direction((1.0, 2.0, -0.5), None, 0.5, rng)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)

    def test_perturbation_statistics(self):
        # 1e5 draws at sigma=0.1 around +x: mean direction within 1 degree
        # of the field axis, transverse spread within 5% of sigma.
        rng = np.random.default_rng(1234)
        draws = np.array(
            [sample_direction((1.0, 0.0, 0.0), None, 0.1, rng) for _ in range(100_000)]
        )
        mean = draws.mean(axis=0)
        mean /= np.linalg.norm(mean)
        angle = math.degrees(math.acos(min(1.0, float(mean[0]))))
        assert angle < 1.0
        assert abs(draws[:, 1].std() - 0.1) < 0.005


class TestRk4Step:
    def test_rejects_nonpositive_step(self):
        field = constant_field()
        with pytest.raises(ValueError, match="step"):
            rk4_step(field, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="step"):
            rk4_step(field, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), -0.3)

    def test_constant_field_moves_one_step(self):
        out = rk4_step(constant_field(), (1.0, 2.0, 3.0), (1.0, 0.0, 0.0), 0.3)
        assert np.allclose(out, [1.3, 2.0, 3.0], atol=1e-15)

    def test_vanishing_field_returns_none(self):
        dead = PolyField(0, np.zeros((3, 1)))
        assert rk4_step(dead, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.3) is None

    def _circle_error(self, n):
        field = rotational_field()
        lam = 2.0 * math.pi / n
        p = np.array([1.0, 0.0, 0.0])
        d = sample_direction(field.evaluate(p), None, 0.0, None)
        for _ in range(n):
            p = rk4_step(field, p, d, lam)
            d = sample_direction(field.evaluate(p), d, 0.0, None)
        return float(np.linalg.norm(p - [1.0, 0.0, 0.0]))

    def test_unit_circle_closes_to_1e5(self):
        assert self._circle_error(126) < 1e-5

    def test_halving_step_shrinks_error_sixteenfold(self):
        ratio = self._circle_error(126) / self._circle_error(252)
        assert 13.0 < ratio < 19.0


class TestTrack:
    def test_straight_tube_length_within_two_percent(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        tract = track(
            field, straight.mask, [(10.0, 0, 0), (30.0, 0, 0), (50.0, 0, 0)], params
        )
        assert len(tract.streamlines) == 3
        for line in tract.streamlines:
            assert abs(arc_length(line) - 60.0) <= 0.02 * 60.0

    def test_all_points_inside_mask(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=3)
        tract = track(field, straight.mask, [(20.0, 0, 0), (40.0, 1.0, 0)], params)
        assert inside_many(straight.mask, pooled_points(tract)).all()

    def test_tract_records_step(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.4, sigma=0.0, seed_count=1)
        tract = track(field, straight.mask, [(30.0, 0, 0)], params)
        assert tract.step == 0.4

    def test_outside_seed_warned_and_skipped(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=2)
        with pytest.warns(UserWarning, match="outside the mask"):
            tract = track(
                field, straight.mask, [(30.0, 0, 0), (30.0, 10.0, 0)], params
            )
        assert len(tract.streamlines) == 2

    def test_all_seeds_outside_raises(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=1)
        with pytest.warns(UserWarning, match="outside the mask"):
            with pytest.raises(EmptyTractError, match="no seeds"):
                track(field, straight.mask, [(30.0, 10.0, 0)], params)

    def test_short_streamlines_filtered(self, straight):
        # one step per direction caps the arc at 0.6, under the default 0.9
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, max_steps=1)
        with pytest.raises(EmptyTractError, match="shorter than min_len"):
            track(field, straight.mask, [(30.0, 0, 0)], params)

    def test_min_len_zero_keeps_stubs(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(
            step=0.3, sigma=0.0, seed_count=1, max_steps=1, min_len=0.0
        )
        tract = track(field, straight.mask, [(30.0, 0, 0)], params)
        assert len(tract.streamlines) == 1
        assert len(tract.streamlines[0]) == 3

    def test_vanishing_field_yields_no_streamlines(self, straight):
        dead = PolyField(0, np.zeros((3, 1)))
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        with pytest.raises(EmptyTractError, match="shorter than min_len"):
            track(dead, straight.mask, [(30.0, 0, 0)], params)

    def test_unidirectional_starts_at_seed(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(
            step=0.3, sigma=0.0, seed_count=1, bidirectional=False
        )
        tract = track(field, straight.mask, [(30.0, 0, 0)], params)
        assert np.array_equal(tract.streamlines[0][0], [30.0, 0.0, 0.0])

    def test_bidirectional_contains_seed_mid_line(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        line = track(field, straight.mask, [(30.0, 0, 0)], params).streamlines[0]
        hits = np.flatnonzero((line == [30.0, 0.0, 0.0]).all(axis=1))
        assert len(hits) == 1 and 0 < hits[0] < len(line) - 1

    def _line_bytes(self, tract):
        return sorted(line.tobytes() for line in tract.streamlines)

    def test_rerun_is_bit_identical(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=4)
        seeds = [(15.0, 0, 0), (30.0, 0.5, 0)]
        a = track(field, straight.mask, seeds, params)
        b = track(field, straight.mask, seeds, params)
        assert self._line_bytes(a) == self._line_bytes(b)

    def test_rng_seed_changes_streamlines(self, straight):
        field = straight.field.to_polyfield()
        seeds = [(30.0, 0, 0)]
        a = track(field, straight.mask, seeds, TrackParams(sigma=0.1, seed_count=2))
        b = track(
            field, straight.mask, seeds, TrackParams(sigma=0.1, seed_count=2, rng_seed=1)
        )
        assert self._line_bytes(a) != self._line_bytes(b)

    def test_seed_order_does_not_change_results(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=3)
        seeds = [(15.0, 0, 0), (30.0, 0, 0), (45.0, 0, 0)]
        a = track(field, straight.mask, seeds, params)
        b = track(field, straight.mask, seeds[::-1], params)
        assert self._line_bytes(a) == self._line_bytes(b)

    def test_single_seed_run_embedded_in_batch(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=3)
        alone = track(field, straight.mask, [(30.0, 0, 0)], params)
        batch = track(
            field, straight.mask, [(15.0, 0, 0), (30.0, 0, 0), (45.0, 0, 0)], params
        )
        batch_bytes = self._line_bytes(batch)
        for line in self._line_bytes(alone):
            assert line in batch_bytes

    def test_sigma_zero_collapses_repetitions(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.0, seed_count=4)
        tract = track(field, straight.mask, [(30.0, 0, 0)], params)
        assert len(tract.streamlines) == 4
        first = tract.streamlines[0]
        assert all(np.array_equal(line, first) for line in tract.streamlines[1:])


class TestBaselinePeakTrack:
    def test_straight_tube_traversed_end_to_end(self, straight):
        params = TrackParams(step=0.3, sigma=0.0, seed_count=5)
        tract = baseline_peak_track(straight.peaks, straight.mask, [(30.0, 0, 0)], params)
        # one deterministic streamline per seed regardless of seed_count
        assert len(tract.streamlines) == 1
        assert abs(arc_length(tract.streamlines[0]) - 60.0) <= 0.02 * 60.0

    def test_zero_turning_budget_stops_on_curvature(self, torus):
        seed = torus.field.axis_point(math.pi / 4)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, min_len=0.0)
        stub = baseline_peak_track(
            torus.peaks, torus.mask, [seed], params, angle_max=0.0
        )
        full = baseline_peak_track(
            torus.peaks, torus.mask, [seed], params, angle_max=40.0
        )
        assert arc_length(stub.streamlines[0]) <= 3.0
        assert arc_length(full.streamlines[0]) >= 15.0

    def test_min_amp_gates_peaks(self, straight):
        weak = PeaksField(
            straight.peaks.dims,
            straight.peaks.spacing,
            straight.peaks.origin,
            straight.peaks.directions,
            straight.peaks.amplitudes * 0.04,
        )
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        with pytest.raises(EmptyTractError, match="shorter than min_len"):
            baseline_peak_track(weak, straight.mask, [(30.0, 0, 0)], params)
        tract = baseline_peak_track(
            weak, straight.mask, [(30.0, 0, 0)], params, min_amp=0.03
        )
        assert abs(arc_length(tract.streamlines[0]) - 60.0) <= 0.02 * 60.0

    def test_rerun_is_bit_identical(self, torus):
        seed = torus.field.axis_point(math.pi / 3)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        a = baseline_peak_track(torus.peaks, torus.mask, [seed], params)
        b = baseline_peak_track(torus.peaks, torus.mask, [seed], params)
        assert [l.tobytes() for l in a.streamlines] == [
            l.tobytes() for l in b.streamlines
        ]

    def test_points_stay_inside_mask(self, torus):
        seed = torus.field.axis_point(math.pi / 4)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        tract = baseline_peak_track(torus.peaks, torus.mask, [seed], params)
        assert inside_many(torus.mask, pooled_points(tract)).all()
