"""Tracker behaviour: direction sampling, RK4 accuracy, stop rules, determinism."""

import hashlib
import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractfield import (
    DomainError,
    Mask,
    PeaksField,
    PhantomSpec,
    PolyField,
    TrackParams,
    baseline_peak_track,
    domain_from_mask,
    generate,
    inside_many,
    nearest_indices,
    polyfield,
    sample_direction,
    save_tract,
    track,
    tracking,
)
from tractfield.grids import Tract, _line_deltas
from tractfield.tracking import DRAW_BLOCK, ZERO_FIELD_TOL

from conftest import make_mask, random_divfree_field
from test_polyfield import direct_basis_matrix


def scalar_sample_direction(v, prev, sigma, rng):
    """One row's sampling, draw by draw: the oracle for ``sample_direction``.

    Returns the unit direction, or None when the field vector is
    numerically zero; sigma=0 draws nothing from ``rng``.
    """
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm < ZERO_FIELD_TOL:
        return None
    d = v / norm
    if sigma > 0:
        d = d + rng.normal(0.0, sigma, 3)
        norm = float(np.linalg.norm(d))
        while norm < ZERO_FIELD_TOL:
            d = v / float(np.linalg.norm(v)) + rng.normal(0.0, sigma, 3)
            norm = float(np.linalg.norm(d))
        d = d / norm
    if prev is not None and float(np.dot(d, np.asarray(prev, float))) < 0:
        d = -d
    return d


class Triples:
    """Fixed per-row noise triples, served to both samplers in row order."""

    def __init__(self, triples, sigma):
        self.triples = [[np.asarray(t, dtype=float) for t in row] for row in triples]
        self.sigma = sigma
        self.used = [0] * len(triples)
        self.calls = []

    def next(self, r):
        self.used[r] += 1
        return self.triples[r][self.used[r] - 1]

    def draw(self, rows):
        """The batched sampler's ``draw``."""
        self.calls.append([int(r) for r in rows])
        return np.array([self.next(r) for r in rows]).reshape(len(rows), 3)

    def rng(self, r):
        """Row r's stream as the generator the oracle calls."""

        def normal(loc, scale, size):
            assert (loc, scale, size) == (0.0, self.sigma, 3)
            return self.next(r)

        return SimpleNamespace(normal=normal)


def oracle_rows(v, prev, sigma, triples):
    """The oracle's directions (None where not ok) and triples used per row."""
    stream = Triples(triples, sigma)
    out = [
        scalar_sample_direction(v[r], None if prev is None else prev[r], sigma,
                                stream.rng(r))
        for r in range(len(v))
    ]
    return out, stream.used


def batched_rows(v, prev, sigma, triples):
    stream = Triples(triples, sigma)
    d, ok = sample_direction(v, prev, sigma, stream.draw)
    return d, ok, stream


def matches(d, ok, want):
    return len(d) == len(want) and all(
        bool(k) == (w is not None) and np.array_equal(row, np.zeros(3) if w is None else w)
        for row, k, w in zip(d, ok, want)
    )


def no_draw(rows):
    raise AssertionError("draw called")


def one_row(v, prev=None, sigma=0.0, draw=no_draw):
    """``sample_direction`` on one row; None where the row is not ok."""
    d, ok = sample_direction(
        np.array([v], dtype=float),
        None if prev is None else np.array([prev], dtype=float),
        sigma,
        draw,
    )
    return d[0] if ok[0] else None


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
def tube40():
    return generate(PhantomSpec(kind="straight-tube", radius=3.0, length=40.0))


def tract_digest(tract, tmp_path):
    path = tmp_path / "digest.tract"
    save_tract(tract, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN_PARAMS = TrackParams(step=0.3, sigma=0.1, seed_count=2, rng_seed=3)


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

    def test_min_len_defaults_to_three_steps(self):
        assert TrackParams().min_len == pytest.approx(0.9)
        assert TrackParams(step=0.5).min_len == pytest.approx(1.5)

    def test_numpy_integer_counts_accepted(self):
        params = TrackParams(max_steps=np.int64(5), seed_count=np.int32(2),
                             rng_seed=np.uint64(7))
        assert (params.max_steps, params.seed_count, params.rng_seed) == (5, 2, 7)

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
            ({"step": math.inf}, "step"),
            ({"max_steps": float("nan")}, "max_steps"),
            ({"max_steps": 2.5}, "max_steps"),
            ({"seed_count": 2.5}, "seed_count"),
            ({"rng_seed": 1.5}, "rng_seed"),
            ({"rng_seed": float("nan")}, "rng_seed"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrackParams(**kwargs)


class TestSampleDirection:
    def test_normalizes_field_vector(self):
        assert np.array_equal(one_row((2.0, 0.0, 0.0)), [1.0, 0.0, 0.0])

    def test_sign_aligned_to_previous(self):
        d = one_row((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert np.array_equal(d, [1.0, 0.0, 0.0])

    def test_no_flip_without_previous(self):
        assert np.array_equal(one_row((-1.0, 0.0, 0.0)), [-1.0, 0.0, 0.0])

    def test_zero_field_is_not_ok_and_draws_nothing(self):
        d, ok = sample_direction(np.zeros((1, 3)), None, 0.1, no_draw)
        assert not ok[0] and np.array_equal(d, np.zeros((1, 3)))

    def test_sigma_zero_draws_nothing(self):
        d = one_row((0.0, 3.0, 0.0), (0.0, 1.0, 0.0), 0.0, no_draw)
        assert np.array_equal(d, [0.0, 1.0, 0.0])

    def test_result_is_unit_length(self):
        rng = np.random.default_rng(11)
        d, ok = sample_direction(np.tile([1.0, 2.0, -0.5], (50, 1)), None, 0.5,
                                 lambda rows: rng.normal(0.0, 0.5, (len(rows), 3)))
        assert ok.all()
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_perturbation_statistics(self):
        # 1e5 draws at sigma=0.1 around +x: mean direction within 1 degree
        # of the field axis, transverse spread within 5% of sigma.
        rng = np.random.default_rng(1234)
        draws, ok = sample_direction(
            np.tile([1.0, 0.0, 0.0], (100_000, 1)), None, 0.1,
            lambda rows: rng.normal(0.0, 0.1, (len(rows), 3)),
        )
        assert ok.all()
        mean = draws.mean(axis=0)
        mean /= np.linalg.norm(mean)
        angle = math.degrees(math.acos(min(1.0, float(mean[0]))))
        assert angle < 1.0
        assert abs(draws[:, 1].std() - 0.1) < 0.005

    def test_zero_perturbed_vector_redraws_from_its_own_stream(self):
        v = np.array([[1.0, 2.0, -0.5], [0.0, 3.0, 4.0], [-2.0, 0.5, 1.0]])
        rng = np.random.default_rng(5)
        triples = [list(rng.normal(0.0, 0.1, (3, 3))) for _ in v]
        triples[1][0] = -(v[1] / np.linalg.norm(v[1]))
        d, ok, stream = batched_rows(v, None, 0.1, triples)
        want, used = oracle_rows(v, None, 0.1, triples)
        assert np.linalg.norm(triples[1][0] + v[1] / np.linalg.norm(v[1])) == 0
        assert matches(d, ok, want)
        assert stream.used == used == [1, 2, 1]
        assert stream.calls == [[0, 1, 2], [1]]

    @given(data=st.data(), rows=st.integers(1, 6),
           sigma=st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
           prev_mode=st.sampled_from(["none", "rows"]))
    @settings(max_examples=300, deadline=None)
    def test_batched_equals_oracle_bit_for_bit(self, data, rows, sigma, prev_mode):
        coord = st.floats(-10, 10, allow_nan=False)
        direction = st.one_of(
            st.sampled_from([(1.0, 0, 0), (0, -1.0, 0), (0.6, 0, 0.8)]),
            st.tuples(coord, coord, coord).filter(lambda u: np.linalg.norm(u) > 1e-3),
        )
        # Field norms at, just under and just over the zero-field tolerance.
        near_tol = st.sampled_from([0.5, np.nextafter(1.0, 0.0), 1.0,
                                    np.nextafter(1.0, 2.0), 2.0])
        v, prev, triples = [], [], []
        for _ in range(rows):
            u = np.array(data.draw(direction), dtype=float)
            p = data.draw(st.sampled_from(["parallel", "antiparallel", "orthogonal", "any"]))
            if p == "orthogonal":
                # A zero component in v and in every triple, and prev along
                # that axis: the dot is exactly 0 and the row must not flip.
                axis = data.draw(st.integers(0, 2))
                u[axis] = 0.0
            kind = data.draw(st.sampled_from(["zero", "near_tol", "any"]))
            norm = np.linalg.norm(u)
            if kind == "zero" or norm == 0:
                u = np.zeros(3)
            elif kind == "near_tol":
                u = u / norm * ZERO_FIELD_TOL * data.draw(near_tol)
            noise = [np.array(data.draw(st.tuples(coord, coord, coord)), dtype=float)
                     for _ in range(2)]
            if u.any():
                # Leading triples that cancel the unit vector force redraws.
                cancel = -(u / np.linalg.norm(u))
                noise = [cancel] * data.draw(st.integers(0, 2)) + noise
            if p == "orthogonal":
                for t in noise:
                    t[axis] = 0.0
                q = np.zeros(3)
                q[axis] = data.draw(st.sampled_from([1.0, -1.0]))
            elif p == "any":
                q = np.array(data.draw(st.tuples(coord, coord, coord)), dtype=float)
            else:
                q = u if p == "parallel" else -u
            v.append(u)
            prev.append(q)
            triples.append(noise)
        v = np.array(v)
        prev = None if prev_mode == "none" else np.array(prev)
        d, ok, stream = batched_rows(v, prev, sigma, triples)
        want, used = oracle_rows(v, prev, sigma, triples)
        assert matches(d, ok, want)
        assert stream.used == used
        if sigma == 0:
            assert not stream.calls
        if prev is not None:
            unflipped, _ = oracle_rows(v, None, sigma, triples)
            for r in np.flatnonzero(ok):
                if prev[r] @ d[r] == 0:
                    assert np.array_equal(d[r], unflipped[r])


def masked_sample_direction(v, prev, sigma, draw):
    """``sample_direction`` with boolean gathers and scatters, as it was
    written before ``np.divide(..., where=)``: its bitwise oracle."""
    dots = tracking._dots
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(dots(v, v))
    ok = ~(norm < ZERO_FIELD_TOL)
    d = np.zeros_like(v)
    d[ok] = v[ok] / norm[ok, None]
    if sigma > 0 and ok.any():
        rows = np.flatnonzero(ok)
        unit = d[rows]
        p = unit + draw(rows)
        pnorm = np.sqrt(dots(p, p))
        redo = np.flatnonzero(pnorm < ZERO_FIELD_TOL)
        while len(redo):
            p[redo] = unit[redo] + draw(rows[redo])
            pnorm[redo] = np.sqrt(dots(p[redo], p[redo]))
            redo = redo[pnorm[redo] < ZERO_FIELD_TOL]
        d[rows] = p / pnorm[:, None]
    if prev is not None:
        flip = dots(d, np.asarray(prev, dtype=float)) < 0
        d[flip] = -d[flip]
    return d, ok


def masked_rk4_many(field, eta, d0, step):
    """``_rk4_many`` with ``np.linalg.norm`` and boolean gathers and
    scatters, as it was written before: its bitwise oracle."""

    def slope(p):
        v = field.evaluate_many(p)
        norm = np.linalg.norm(v, axis=1)
        ok = norm > ZERO_FIELD_TOL
        u = np.zeros_like(v)
        u[ok] = v[ok] / norm[ok, None]
        flip = np.einsum("sc,sc->s", u, d0, optimize=False) < 0
        u[flip] = -u[flip]
        return u, ok

    k1 = d0
    k2, ok2 = slope(eta + (0.5 * step) * k1)
    k3, ok3 = slope(eta + (0.5 * step) * k2)
    k4, ok4 = slope(eta + step * k3)
    new = eta + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return new, ok2 & ok3 & ok4


def kernel_rows(rng, n, all_ok):
    """n field vectors, from 1e-10 to 100 long, and previous directions,
    a sixth of them exactly reversed.  Unless ``all_ok``, some vectors are
    zero, NaN (whole or in one component) or a hair under, at or over the
    zero-field tolerance."""
    v = rng.normal(size=(n, 3))
    v *= 10.0 ** rng.uniform(-10, 2, (n, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    prev = rng.normal(size=(n, 3))
    prev[::6] = -v[::6]
    if not all_ok:
        v[1::7] = 0.0
        v[2::7] = np.nan
        v[3::7, 1] = np.nan
        for r, scale in zip((4, 11, 18), (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))):
            v[r] *= ZERO_FIELD_TOL * scale / np.linalg.norm(v[r])
    return v, prev


class TestKernelsMatchMaskedFormulas:
    """The ``where=`` kernels give the masked formulas' bits."""

    @pytest.mark.parametrize("all_ok", [True, False], ids=["all ok", "some not ok"])
    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("with_prev", [True, False], ids=["prev", "no prev"])
    def test_sample_direction(self, rng, all_ok, sigma, with_prev):
        v, prev = kernel_rows(rng, 60, all_ok)
        prev = prev if with_prev else None
        triples = [list(rng.normal(0.0, sigma, (3, 3))) for _ in v]
        for r in range(0, len(v), 7):
            # a first triple that cancels the unit vector forces a redraw
            triples[r][0] = -(v[r] / np.linalg.norm(v[r]))
        got, got_ok, stream = batched_rows(v, prev, sigma, triples)
        want_stream = Triples(triples, sigma)
        want, want_ok = masked_sample_direction(v, prev, sigma, want_stream.draw)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_ok, want_ok)
        assert got_ok.all() == all_ok
        assert stream.calls == want_stream.calls
        if sigma == 0:
            assert not stream.calls
        else:
            assert len(stream.calls) > 1

    @pytest.mark.parametrize("all_ok", [True, False], ids=["all ok", "some not ok"])
    def test_rk4_many(self, rng, all_ok):
        field = random_divfree_field(4, rng, offset=(1.0, -2.0, 0.5), scale=(4.0, 3.0, 5.0))
        if not all_ok:
            real = field

            def evaluate_many(points):
                # The field vanishes or turns NaN in bands across x, so rows
                # fail at every stage.
                v = real.evaluate_many(points)
                band = np.floor(points[:, 0] * 3.0) % 7
                v[band == 0] = 0.0
                v[band == 1] = np.nan
                v[band == 2] *= 1e-13
                return v

            field = SimpleNamespace(evaluate_many=evaluate_many)
        eta = rng.uniform(-5.0, 5.0, (200, 3))
        if not all_ok:
            eta[::17] = np.nan
        d0 = rng.normal(size=(200, 3))
        d0 /= np.linalg.norm(d0, axis=1, keepdims=True)
        for step in (0.3, 1.7):
            got, got_ok = tracking._rk4_many(field, eta, d0, step)
            want, want_ok = masked_rk4_many(field, eta, d0, step)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got_ok, want_ok)
            assert got_ok.all() == all_ok


def test_overflowing_norms_raise():
    # A huge but finite field vector: v / |v| would be zero, not a stop.
    v = np.array([[0.0, 1.0, 0.0], [1e200, 0.0, 0.0]])
    field = SimpleNamespace(evaluate_many=lambda points: v)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="overflow"):
            sample_direction(v, None, 0.0, None)
        with pytest.raises(FloatingPointError, match="overflow"):
            tracking._rk4_many(field, np.zeros((2, 3)), np.eye(3)[:2], 0.3)


def box_mask(lo, hi):
    """All-foreground unit-spacing mask whose voxel centers span lo..hi."""
    lo = np.asarray(lo, dtype=float)
    dims = tuple(int(v) for v in np.asarray(hi, dtype=float) - lo + 1)
    return make_mask(np.ones(dims), origin=tuple(lo))


def forward_end(field, mask, seed, step, n):
    """Last point of the forward half of one noise-free line of n steps."""
    params = TrackParams(step=step, sigma=0.0, max_steps=n, seed_count=1, min_len=0.0)
    return track(field, mask, [seed], params).streamlines[0][-1]


class TestRk4Step:
    """The field tracker's Runge-Kutta step, read off the forward half."""

    def test_constant_field_moves_one_step(self):
        end = forward_end(constant_field(), box_mask((0, 1, 2), (2, 3, 4)),
                          (1.0, 2.0, 3.0), 0.3, 1)
        assert np.allclose(end, [1.3, 2.0, 3.0], atol=1e-15)

    def test_field_vanishing_mid_step_ends_the_half(self):
        # v = (-x, 0, 0) from x = -0.25: RK4 stage 2 lands on x = 0, where
        # the field vanishes, so the forward half is empty.
        coeffs = np.zeros((3, 4))
        coeffs[0, 3] = -1.0
        end = forward_end(PolyField(1, coeffs), box_mask((-3, -1, -1), (3, 1, 1)),
                          (-0.25, 0.0, 0.0), 0.5, 2000)
        assert np.array_equal(end, [-0.25, 0.0, 0.0])

    def _circle_error(self, n):
        end = forward_end(rotational_field(), box_mask((-2, -2, -1), (2, 2, 1)),
                          (1.0, 0.0, 0.0), 2.0 * math.pi / n, n)
        return float(np.linalg.norm(end - [1.0, 0.0, 0.0]))

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
        assert inside_many(straight.mask, tract.points).all()

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

    def test_seeds_off_the_int64_range_warn_only_outside(self, straight):
        # Huge and non-finite seeds have no voxel index; each draws the
        # documented warning and nothing else, no numpy cast warning.
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=1)
        far = [(1e300, 0.0, 0.0), (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tract = track(field, straight.mask, far + [(30.0, 0.0, 0.0)], params)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"seed {p} is outside the mask, skipped") for p in far
        ]
        assert len(tract.streamlines) == 1

    def test_all_seeds_outside_raises(self, straight):
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.1, seed_count=1)
        with pytest.warns(UserWarning, match="outside the mask"):
            with pytest.raises(DomainError, match="no seeds"):
                track(field, straight.mask, [(30.0, 10.0, 0)], params)

    def test_short_streamlines_filtered(self, straight):
        # one step per direction caps the arc at 0.6, under the default 0.9
        field = straight.field.to_polyfield()
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, max_steps=1)
        with pytest.raises(DomainError, match="shorter than min_len"):
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
        with pytest.raises(DomainError, match="the field vanishes at every seed"):
            track(dead, straight.mask, [(30.0, 0, 0)], params)

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

    def test_sigma_zero_leaves_substreams_untouched(self, straight, monkeypatch):
        # sigma 0 builds no generator, so it has none to draw from either
        made = []

        def recorded(*args):
            rngs = substreams(*args)
            made.append(len(rngs))
            return rngs

        substreams = tracking._substreams
        monkeypatch.setattr(tracking, "_substreams", recorded)
        field = straight.field.to_polyfield()
        seeds = [(15.0, 0, 0), (30.0, 1.0, 0)]
        track(field, straight.mask, seeds, TrackParams(step=0.3, sigma=0.0, seed_count=3))
        assert made == []
        track(field, straight.mask, seeds, TrackParams(step=0.3, sigma=0.1, seed_count=3))
        assert made == [6]

    def test_golden_digest(self, tube40, tmp_path):
        # sha256 of the tract written by the one-row-at-a-time sampler.
        # Every voxel of a 40 mm tube is seeded, so the lines seeded near an
        # end take more than DRAW_BLOCK turns in one half: the digest covers
        # a block refill and the forward-to-backward handoff of a substream.
        tract = track(tube40.field.to_polyfield(), tube40.mask,
                      tube40.mask.foreground_points(), GOLDEN_PARAMS)
        assert max(len(line) for line in tract.streamlines) > 2 * DRAW_BLOCK + 1
        assert tract_digest(tract, tmp_path) == (
            "01c3542eefd5013260fb16d062f1c5b1b6597e6ba31813ab154037f70e8e4aa5"
        )

    def test_field_calls_on_golden_tube(self, tube40, monkeypatch):
        # The benchmark's per-layer call and point counters read these.
        sizes = []
        evaluate_many = PolyField.evaluate_many

        def counting(self, points):
            sizes.append(len(points))
            return evaluate_many(self, points)

        monkeypatch.setattr(PolyField, "evaluate_many", counting)
        track(tube40.field.to_polyfield(), tube40.mask,
              tube40.mask.foreground_points(), GOLDEN_PARAMS)
        assert (len(sizes), sum(sizes)) == (552, 1310278)

    def test_order_eight_tract_matches_direct_basis(self, tube40, tmp_path,
                                                     monkeypatch):
        # The golden digest's order-1 field never builds a power above 1;
        # perturbing every coefficient makes each power up to 8 count.
        offset, scale = domain_from_mask(tube40.mask)
        exact = tube40.field.to_polyfield(order=8, offset=offset, scale=scale)
        noise = 1e-3 * np.random.default_rng(8).normal(size=exact.coeffs.shape)
        field = PolyField(8, exact.coeffs + noise, offset, scale)
        seeds = tube40.mask.foreground_points()[::7]
        fast = tract_digest(track(field, tube40.mask, seeds, GOLDEN_PARAMS), tmp_path)
        monkeypatch.setattr(polyfield, "basis_matrix", direct_basis_matrix)
        direct = track(field, tube40.mask, seeds, GOLDEN_PARAMS)
        assert fast == tract_digest(direct, tmp_path)


def run_tracker(name, phantom, seeds, params, mask=None):
    mask = phantom.mask if mask is None else mask
    if name == "track":
        return track(phantom.field.to_polyfield(), mask, seeds, params)
    return baseline_peak_track(phantom.peaks, mask, seeds, params)


@pytest.mark.parametrize("tracker", ["track", "baseline"])
class TestLockstepHalves:
    def test_loop_runs_as_long_as_the_longest_line(self, straight, tracker,
                                                   monkeypatch):
        # Each seed has one long and one short half, on opposite sides, so
        # running every forward half before any backward half would take
        # about twice as many iterations.
        calls = []

        def counting(mask, pts):
            calls.append(len(pts))
            return inside_many(mask, pts)

        monkeypatch.setattr(tracking, "inside_many", counting)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        tract = run_tracker(tracker, straight, [(1.0, 0, 0), (59.0, 0, 0)], params)
        loop_calls = len(calls) - 1  # the first call checks the seeds
        assert loop_calls <= max(len(line) for line in tract.streamlines) + 1

    def test_backward_half_gets_its_own_step_budget(self, straight, tracker):
        # The forward half leaves the tube within a few steps; the backward
        # half starts after it and still takes all max_steps steps.
        seed = (59.0, 0.0, 0.0)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, max_steps=20)
        line = run_tracker(tracker, straight, [seed], params).streamlines[0]
        backward = int(np.flatnonzero((line == seed).all(axis=1))[0])
        forward = len(line) - 1 - backward
        assert forward < 10
        assert backward == 20


def lexsort_assemble(starts, parts, handoff, params):
    """The lines of ``tracking._lockstep``'s parts as the trackers pooled
    them before they filled one array: every start and accepted point in
    one concatenation, sorted into lines, with the kept lines copied out.
    The byte-for-byte oracle of ``tracking._assemble``."""
    n = len(starts)
    rows = np.concatenate([np.arange(n)] + [keep for _, keep, _ in parts])
    points = np.concatenate([starts] + [pts for _, _, pts in parts])
    # each line as its backward half reversed (negated positions), start, forward half
    pos = np.arange(len(rows))
    points = points[np.lexsort((np.where(rows < n, pos, -pos), rows % n))]
    counts = np.bincount(rows % n, minlength=n)
    gaps = np.linalg.norm(_line_deltas(points, counts), axis=1)
    lengths = np.add.reduceat(gaps, np.cumsum(counts) - counts)
    kept = (counts > 1) & (lengths >= params.min_len)
    if not kept.any():
        raise DomainError("every streamline was shorter than min_len; nothing to keep")
    return Tract(points[np.repeat(kept, counts)], counts[kept], params.step)


def with_island(mask):
    """The mask plus its grid's corner voxel, away from the tube, and that
    voxel's center; a step of more than half a voxel leaves it either way."""
    data = mask.data.copy()
    assert data[0, 0, 0] == 0
    data[0, 0, 0] = 1
    return Mask(mask.dims, mask.spacing, mask.origin, data), mask.origin


def halves_of(parts, n):
    """Points each start's forward and backward half accepted."""
    rows = np.concatenate([np.empty(0, np.intp)] + [keep for _, keep, _ in parts])
    halves = np.bincount(rows, minlength=2 * n)
    return halves[:n], halves[n:]


# name: (seeds on the 60 mm straight tube, island added, params, what the
# case must contain, given each start's forward and backward point counts,
# the number of lines kept and the params)
ASSEMBLY_CASES = {
    "lone-start": (
        [(30.0, 0.0, 0.0)], True,
        TrackParams(step=0.6, sigma=0.1, seed_count=2, min_len=0.0),
        lambda fwd, bwd, kept, p: ((fwd + bwd) == 0).any(),
    ),
    "short-lines-dropped": (
        [(30.0, 0.0, 0.0), (-0.4, 0.0, 0.0), (15.0, 1.0, 0.0), (60.4, 0.0, 0.0)], False,
        TrackParams(step=0.3, sigma=0.1, seed_count=2, max_steps=3, min_len=1.5),
        lambda fwd, bwd, kept, p: 0 < kept < ((fwd + bwd) > 0).sum(),
    ),
    "max-steps": (
        [(30.0, 0.0, 0.0), (10.0, -1.0, 1.0), (58.0, 0.0, 0.0)], False,
        TrackParams(step=0.3, sigma=0.1, seed_count=2, max_steps=40),
        lambda fwd, bwd, kept, p: ((fwd == p.max_steps) | (bwd == p.max_steps)).any(),
    ),
    "backward-never-moves": (
        [(-0.45, 0.0, 0.0), (20.0, 0.0, 0.0), (60.45, 0.0, 0.0)], False,
        TrackParams(step=0.3, sigma=0.1, seed_count=2),
        lambda fwd, bwd, kept, p: ((fwd > 0) & (bwd == 0)).any(),
    ),
    "all-kept": (
        [(30.0, 0.0, 0.0), (20.0, 1.0, 1.0), (40.0, -1.0, 0.0)], False,
        TrackParams(step=0.3, sigma=0.1, seed_count=3),
        lambda fwd, bwd, kept, p: kept == len(fwd) and (bwd > 0).all(),
    ),
}


@pytest.mark.oldest_numpy
@pytest.mark.parametrize("tracker", ["track", "baseline"])
class TestAssemblyMatchesLexsortOracle:
    @pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
    def test_case(self, straight, tracker, case, monkeypatch):
        seeds, island, params, holds = ASSEMBLY_CASES[case]
        mask = straight.mask
        if island:
            mask, corner = with_island(mask)
            seeds = [corner, *seeds]
        seen = []
        assemble = tracking._assemble

        def recorded(starts, parts, handoff, params):
            seen.append(halves_of(parts, len(starts)))
            return assemble(starts, parts, handoff, params)

        monkeypatch.setattr(tracking, "_assemble", recorded)
        got = run_tracker(tracker, straight, seeds, params, mask)
        monkeypatch.setattr(tracking, "_assemble", lexsort_assemble)
        want = run_tracker(tracker, straight, seeds, params, mask)
        assert holds(*seen[0], len(got.counts), params)
        assert got.counts.tolist() == want.counts.tolist()
        assert got.points.tobytes() == want.points.tobytes()
        assert got.step == want.step

    def test_torus_every_third_voxel(self, torus, tracker, monkeypatch):
        seeds = torus.mask.foreground_points()[::3]
        params = TrackParams(step=0.3, sigma=0.1, seed_count=2)
        got = run_tracker(tracker, torus, seeds, params)
        monkeypatch.setattr(tracking, "_assemble", lexsort_assemble)
        want = run_tracker(tracker, torus, seeds, params)
        assert got.counts.tolist() == want.counts.tolist()
        assert got.points.tobytes() == want.points.tobytes()

    def test_only_lone_starts_raise(self, straight, tracker):
        mask, corner = with_island(straight.mask)
        params = TrackParams(step=0.6, sigma=0.1, seed_count=2, min_len=0.0)
        # the island holds no peak, which the baseline names before it tracks
        cause = "shorter than min_len" if tracker == "track" else "at or above min_amp"
        with pytest.raises(DomainError, match=cause):
            run_tracker(tracker, straight, [corner], params, mask)



@pytest.mark.parametrize("tracker", ["track", "baseline"])
class TestSeedShapes:
    @pytest.mark.parametrize("seeds", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_no_seeds_raise_empty(self, straight, tracker, seeds):
        with pytest.raises(DomainError, match="no seeds"):
            run_tracker(tracker, straight, seeds, TrackParams(seed_count=1))

    @pytest.mark.parametrize("shape", [(5, 2), (2, 4), (2,), (1, 1, 3), (0, 2)], ids=str)
    def test_seeds_of_the_wrong_shape_raise(self, straight, tracker, shape):
        seeds = np.full(shape, 30.0)
        with pytest.raises(ValueError, match=f"shape {re.escape(str(shape))}"):
            run_tracker(tracker, straight, seeds, TrackParams(seed_count=1))

    def test_one_point_is_one_seed(self, straight, tracker):
        params = TrackParams(sigma=0.1, seed_count=2)
        one = run_tracker(tracker, straight, (30.0, 0.0, 0.0), params)
        listed = run_tracker(tracker, straight, [(30.0, 0.0, 0.0)], params)
        assert one.points.tobytes() == listed.points.tobytes()


def test_track_peak_memory_stays_near_its_output():
    # The README helix, every voxel seeded: the loop's parts and the one
    # output array they fill peak near 2.7x the points; pooling, sorting and
    # copying the lines peaked at 6.6x.
    helix = generate(PhantomSpec(kind="helix", radius=2.5, helix_radius=8.0, pitch=8.0,
                                 noise_deg=10.0, distractor_amp=0.8))
    field = helix.field.to_polyfield()
    seeds = helix.mask.foreground_points()
    tracemalloc.start()
    try:
        tract = track(field, helix.mask, seeds, TrackParams(seed_count=2, rng_seed=42))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * tract.points.nbytes


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
        with pytest.raises(DomainError, match=r"at or above min_amp \(--cutoff\) 0.05;"):
            baseline_peak_track(weak, straight.mask, [(30.0, 0, 0)], params)
        tract = baseline_peak_track(
            weak, straight.mask, [(30.0, 0, 0)], params, min_amp=0.03
        )
        assert abs(arc_length(tract.streamlines[0]) - 60.0) <= 0.02 * 60.0

    def test_seed_without_peak_gives_no_line_at_min_len_zero(self, straight):
        # The dead seed's voxel has no admissible peak, so its line would be
        # the seed alone; it is dropped even though its length 0 >= min_len.
        dead, live = (30.0, 2.0, 0.0), (30.0, 0.0, 0.0)
        amps = straight.peaks.amplitudes.copy()
        amps[tuple(nearest_indices(straight.peaks, [dead])[0][0])] = 0.0
        peaks = PeaksField(straight.peaks.dims, straight.peaks.spacing,
                           straight.peaks.origin, straight.peaks.directions, amps)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, min_len=0.0)
        both = baseline_peak_track(peaks, straight.mask, [dead, live], params)
        alone = baseline_peak_track(peaks, straight.mask, [live], params)
        assert both.counts.tolist() == alone.counts.tolist() and len(both.counts) == 1
        assert both.points.tobytes() == alone.points.tobytes()
        with pytest.raises(DomainError, match="at or above min_amp"):
            baseline_peak_track(peaks, straight.mask, [dead], params)

    @pytest.mark.parametrize("min_amp", [0.0, -1.0])
    def test_padding_slots_never_followed(self, straight, min_amp):
        # The far half of the tube keeps its directions but every amplitude
        # there is zero, so only padding slots remain to follow.
        amps = straight.peaks.amplitudes.copy()
        amps[straight.peaks.dims[0] // 2:] = 0.0
        padded = PeaksField(straight.peaks.dims, straight.peaks.spacing,
                            straight.peaks.origin, straight.peaks.directions, amps)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, min_len=0.0)
        tract = baseline_peak_track(padded, straight.mask,
                                    straight.mask.foreground_points(), params,
                                    min_amp=min_amp)
        assert tract.streamlines
        # Every point a line turned at, so all but its two ends, needs a peak.
        for line in tract.streamlines:
            i, j, k = nearest_indices(padded, line[1:-1])[0].T
            assert (padded.amplitudes[i, j, k] > 0).any(axis=1).all()

    def test_rerun_is_bit_identical(self, torus):
        seed = torus.field.axis_point(math.pi / 3)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        a = baseline_peak_track(torus.peaks, torus.mask, [seed], params)
        b = baseline_peak_track(torus.peaks, torus.mask, [seed], params)
        assert [l.tobytes() for l in a.streamlines] == [
            l.tobytes() for l in b.streamlines
        ]

    def test_single_seed_run_embedded_in_batch(self, torus):
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1, min_len=0.0)
        seeds = [torus.field.axis_point(t) for t in np.linspace(0.1, 1.4, 5)]
        seeds.append(seeds[2] + np.array([0.0, 0.0, 1.5]))
        alone = [
            line.tobytes()
            for seed in seeds
            for line in baseline_peak_track(
                torus.peaks, torus.mask, [seed], params
            ).streamlines
        ]
        batch = baseline_peak_track(torus.peaks, torus.mask, seeds, params)
        assert alone == [line.tobytes() for line in batch.streamlines]

    def test_golden_digest(self, tube40, tmp_path):
        # Every voxel of the 40 mm tube is seeded, so the digest covers the
        # point buffers and the splice that both trackers share.
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        tract = baseline_peak_track(tube40.peaks, tube40.mask,
                                    tube40.mask.foreground_points(), params)
        assert tract_digest(tract, tmp_path) == (
            "6d1a4294913394fd4e5b3d2b878e3b39d69d7bdef75a001d41f8126e38397f83"
        )

    def test_points_stay_inside_mask(self, torus):
        seed = torus.field.axis_point(math.pi / 4)
        params = TrackParams(step=0.3, sigma=0.0, seed_count=1)
        tract = baseline_peak_track(torus.peaks, torus.mask, [seed], params)
        assert inside_many(torus.mask, tract.points).all()
