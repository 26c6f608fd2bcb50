"""Polynomial field basis, divergence constraints, and constrained fitting."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import null_space

from tractfield import (
    ConditioningError,
    DomainError,
    PeaksField,
    PhantomSpec,
    PolyField,
    basis_matrix,
    build_prior,
    divergence_constraints,
    domain_from_mask,
    fit_bundle_field,
    fit_field,
    fit_objective,
    fit_objective_gradient,
    generate,
    load_field,
    monomial_exponents,
    save_field,
    synthetic_prior,
    term_count,
)
from tractfield import polyfield
from tractfield.polyfield import _divergence_free_basis, _exponent_columns, _null_space

from conftest import make_mask, random_divfree_field

_XYZ = sp.symbols("x y z")

# Coordinates whose powers zero, flip sign, underflow or grow large.
_EDGE_COORDS = [0.0, -0.0, 1.0, -1.0, 5e-324, -2.2e-308, 1e3, -1e3]


def direct_basis_matrix(points, order):
    """Design matrix gathered column-wise from (n, order + 1) power tables.

    The reference ``basis_matrix`` must equal bit for bit: the same powers
    by repeated multiplication and the same products, built in the other
    memory layout.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    exps = monomial_exponents(order)
    tables = []
    for vals in pts.T:
        table = np.ones((len(vals), order + 1))
        for p in range(1, order + 1):
            table[:, p] = table[:, p - 1] * vals
        tables.append(table)
    px, py, pz = tables
    return np.ascontiguousarray(
        px[:, exps[:, 0]] * py[:, exps[:, 1]] * pz[:, exps[:, 2]]
    )


def sympy_divergence(order: int, coeffs: np.ndarray):
    """div(v) as a polynomial in x, y, z, by symbolic differentiation."""
    x, y, z = _XYZ
    exps = monomial_exponents(order)
    comps = []
    for row in coeffs:
        comps.append(
            sum(
                sp.Float(row[t], 30) * x**i * y**j * z**k
                for t, (i, j, k) in enumerate(exps)
            )
        )
    return sp.expand(sp.diff(comps[0], x) + sp.diff(comps[1], y) + sp.diff(comps[2], z))


def sympy_divergence_coeffs(order: int, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of div(v) in canonical degree-(order-1) monomial order."""
    x, y, z = _XYZ
    div = sympy_divergence(order, coeffs)
    out = []
    for i, j, k in monomial_exponents(order - 1):
        out.append(float(div.coeff(x, i).coeff(y, j).coeff(z, k)) if div != 0 else 0.0)
    return np.asarray(out)


class TestBasis:
    @pytest.mark.parametrize("order,count", [(1, 4), (2, 10), (3, 20), (4, 35)])
    def test_term_count(self, order, count):
        assert term_count(order) == count
        assert len(monomial_exponents(order)) == count

    def test_linear_basis_ordering(self):
        row = basis_matrix(np.array([[2.0, 0.0, 0.0]]), 1)[0]
        assert row.tolist() == [1.0, 0.0, 0.0, 2.0]

    def test_all_ones_point(self):
        row = basis_matrix(np.array([[1.0, 1.0, 1.0]]), 2)[0]
        assert row.shape == (10,)
        assert np.all(row == 1.0)

    def test_order_four_length(self):
        row = basis_matrix(np.array([[0.3, -0.2, 0.9]]), 4)[0]
        assert row.shape == (35,)

    def test_exponent_degree_bound(self):
        exps = monomial_exponents(4)
        assert all(i + j + k <= 4 for i, j, k in exps)

    @given(
        pt=st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 3),
        order=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_basis_matches_direct_products(self, pt, order):
        row = basis_matrix(np.array([pt]), order)[0]
        x, y, z = pt
        want = [x**i * y**j * z**k for i, j, k in monomial_exponents(order)]
        assert np.allclose(row, want, rtol=1e-12, atol=1e-12)

    @given(
        data=st.data(),
        order=st.integers(0, 8),
        rows=st.integers(1, 700),
    )
    @settings(max_examples=60, deadline=None)
    def test_basis_equals_direct_oracle_bit_for_bit(self, data, order, rows):
        coords = st.one_of(st.sampled_from(_EDGE_COORDS), st.floats(-2, 2))
        pts = data.draw(hnp.arrays(float, (rows, 3), elements=coords))
        got = basis_matrix(pts, order)
        want = direct_basis_matrix(pts, order)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)
        # bitwise, so the sign of every zero matches too
        assert got.tobytes() == want.tobytes()

    def test_exponent_columns_cached_read_only(self):
        pts = np.random.default_rng(4).uniform(-1, 1, (5, 3))
        before = basis_matrix(pts, 4)
        exps = monomial_exponents(4)
        exps[:] = 0
        assert basis_matrix(pts, 4).tobytes() == before.tobytes()
        assert not np.array_equal(monomial_exponents(4), exps)
        for col in _exponent_columns(4):
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1


class TestDivergenceConstraints:
    def test_linear_single_row(self):
        cons = divergence_constraints(1)
        assert cons.shape == (1, 12)
        exps = [tuple(e) for e in monomial_exponents(1)]
        want = np.zeros(12)
        want[exps.index((1, 0, 0))] = 1.0
        want[4 + exps.index((0, 1, 0))] = 1.0
        want[8 + exps.index((0, 0, 1))] = 1.0
        assert np.array_equal(cons[0], want)

    def test_order_four_row_count(self):
        assert divergence_constraints(4).shape == (20, 105)

    def test_rotational_field_feasible(self):
        m = term_count(1)
        exps = [tuple(e) for e in monomial_exponents(1)]
        coeffs = np.zeros((3, m))
        coeffs[0, exps.index((0, 1, 0))] = -1.0
        coeffs[1, exps.index((1, 0, 0))] = 1.0
        coeffs[2, exps.index((0, 0, 0))] = 0.8
        vec = coeffs.reshape(-1)
        assert np.array_equal(divergence_constraints(1) @ vec, np.zeros(1))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_symbolic_differentiation(self, order, rng):
        coeffs = rng.normal(size=(3, term_count(order)))
        got = divergence_constraints(order) @ coeffs.reshape(-1)
        want = sympy_divergence_coeffs(order, coeffs)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_null_space_fields_have_zero_divergence(self, order, rng):
        field = random_divfree_field(order, rng)
        pts = rng.uniform(-1, 1, size=(200, 3))
        assert np.abs(field.divergence_many(pts)).max() < 1e-12

    def test_divergence_free_basis_cached_read_only(self):
        basis = _divergence_free_basis(4)
        fresh = _null_space(divergence_constraints(4))
        assert _divergence_free_basis(4) is basis
        assert basis.tobytes() == fresh.tobytes() and basis.strides == fresh.strides
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1


class TestEvaluate:
    def test_zero_coefficients(self):
        field = PolyField(2, np.zeros((3, 10)))
        assert np.array_equal(field.evaluate_many([(3.0, -1.0, 2.0)]), [[0, 0, 0]])

    def test_rotational_substitution(self):
        exps = [tuple(e) for e in monomial_exponents(1)]
        coeffs = np.zeros((3, 4))
        coeffs[0, exps.index((0, 1, 0))] = -1.0
        coeffs[1, exps.index((1, 0, 0))] = 1.0
        field = PolyField(1, coeffs)
        assert np.allclose(field.evaluate_many([(0.5, 0.0, 0.0)]), [[0, 0.5, 0]])

    def test_evaluate_many_matches_scalar(self, rng):
        field = random_divfree_field(3, rng, offset=(1, -2, 0.5), scale=(4, 3, 2))
        pts = rng.uniform(-3, 3, size=(50, 3))
        many = field.evaluate_many(pts)
        # One-point calls, as the trackers make when one row is live.
        for p, row in zip(pts, many):
            assert np.array_equal(field.evaluate_many([p])[0], row)

    @pytest.mark.parametrize("order", [4, 8])
    def test_evaluate_many_invariant_under_uneven_batches(self, order, rng):
        # The trackers evaluate whichever rows are live in a step, so their
        # output is byte-stable only if a row's value ignores its batch.
        coeffs = rng.normal(size=(3, term_count(order)))
        field = PolyField(order, coeffs, offset=(1, -2, 0.5), scale=(4, 3, 2))
        pts = rng.uniform(-5, 5, size=(700, 3))
        parts = np.split(pts, [1, 2, 5, 64, 65, 300, 699])
        batched = np.concatenate([field.evaluate_many(part) for part in parts])
        assert batched.tobytes() == field.evaluate_many(pts).tobytes()

    def test_domain_normalization_applied(self, rng):
        coeffs = rng.normal(size=(3, 4))
        plain = PolyField(1, coeffs)
        shifted = PolyField(1, coeffs, offset=(5.0, 5.0, 5.0), scale=(2.0, 2.0, 2.0))
        p = np.array([6.0, 7.0, 5.0])
        assert np.allclose(shifted.evaluate_many([p]), plain.evaluate_many([(p - 5.0) / 2.0]))


class TestDivergence:
    def test_hand_built_unit_divergence(self):
        exps = [tuple(e) for e in monomial_exponents(1)]
        coeffs = np.zeros((3, 4))
        coeffs[0, exps.index((1, 0, 0))] = 1.0
        field = PolyField(1, coeffs)
        pts = np.array([[0.0, 0, 0], [0.3, -0.7, 0.2], [1, 1, 1]])
        assert np.allclose(field.divergence_many(pts), 1.0)

    def test_matches_finite_differences(self, rng):
        field = PolyField(3, rng.normal(size=(3, 20)))
        pts = rng.uniform(-0.8, 0.8, size=(30, 3))
        h = 1e-4
        for p in pts:
            fd = 0.0
            for c in range(3):
                e = np.zeros(3)
                e[c] = h
                ends = field.evaluate_many([p + e, p - e])
                fd += (ends[0, c] - ends[1, c]) / (2 * h)
            got = field.divergence_many([p])[0]
            assert abs(got - fd) < 1e-5

    def test_divergence_matches_symbolic_oracle(self, rng):
        coeffs = rng.normal(size=(3, term_count(3)))
        field = PolyField(3, coeffs)
        pts = rng.uniform(-1, 1, size=(20, 3))
        div = sympy_divergence(3, coeffs)
        want = [float(div.subs(dict(zip(_XYZ, map(float, p))))) for p in pts]
        assert np.allclose(field.divergence_many(pts), want, atol=1e-12)


class TestFitField:
    def test_constant_field_any_order(self, rng):
        pts = rng.uniform(-1, 1, size=(60, 3))
        targets = np.tile([1.0, 0.0, 0.0], (60, 1))
        for order in (1, 2, 4):
            field = fit_field(pts, targets, order, (0, 0, 0), (1, 1, 1), 0.0)
            assert np.abs(field.evaluate_many(pts) - targets).max() < 1e-10

    def test_divfree_linear_recovery(self, rng):
        pts = rng.uniform(-1, 1, size=(40, 3))
        targets = np.stack([pts[:, 0], -pts[:, 1], np.zeros(40)], axis=1)
        field = fit_field(pts, targets, 1, (0, 0, 0), (1, 1, 1), 0.0)
        assert np.abs(field.evaluate_many(pts) - targets).max() < 1e-9

    def test_divergent_target_projected(self):
        grid = np.array([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)], dtype=float)
        targets = np.stack([grid[:, 0], np.zeros(27), np.zeros(27)], axis=1)
        field = fit_field(grid, targets, 1, (0, 0, 0), (1, 1, 1), 0.0)
        got = field.evaluate_many(grid)
        residual = np.abs(got - targets).max()
        assert residual > 0.1
        assert np.abs(field.divergence_many(grid)).max() < 1e-12
        # symmetric samples admit a closed-form Lagrange solution
        want = np.stack([2 * grid[:, 0] / 3, -grid[:, 1] / 3, -grid[:, 2] / 3], axis=1)
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_random_divfree_recovery(self, order, rng):
        field = random_divfree_field(order, rng)
        pts = rng.uniform(-1, 1, size=(4 * term_count(order), 3))
        targets = field.evaluate_many(pts)
        fitted = fit_field(pts, targets, order, (0, 0, 0), (1, 1, 1), 0.0)
        assert np.abs(fitted.evaluate_many(pts) - targets).max() < 1e-8

    def test_lower_order_target_inside_higher_order_fit(self, rng):
        field = random_divfree_field(2, rng)
        pts = rng.uniform(-1, 1, size=(150, 3))
        targets = field.evaluate_many(pts)
        fitted = fit_field(pts, targets, 4, (0, 0, 0), (1, 1, 1), 0.0)
        assert np.abs(fitted.evaluate_many(pts) - targets).max() < 1e-8

    def test_perturbation_never_improves(self, rng):
        pts = rng.uniform(-1, 1, size=(80, 3))
        truth = random_divfree_field(2, rng)
        targets = truth.evaluate_many(pts) + rng.normal(size=(80, 3)) * 0.05
        fitted = fit_field(pts, targets, 2, (0, 0, 0), (1, 1, 1), 0.0)
        base = fit_objective(fitted, pts, targets)
        null = null_space(divergence_constraints(2))
        m = term_count(2)
        for _ in range(20):
            vec = null @ rng.normal(size=null.shape[1])
            vec *= 1e-3 / np.linalg.norm(vec)
            coeffs = fitted.coeffs + np.vstack([vec[:m], vec[m : 2 * m], vec[2 * m :]])
            other = PolyField(2, coeffs, fitted.offset, fitted.scale)
            assert fit_objective(other, pts, targets) >= base - 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        pts = rng.uniform(-1, 1, size=(30, 3))
        targets = rng.normal(size=(30, 3))
        field = PolyField(2, rng.normal(size=(3, 10)))
        grad = fit_objective_gradient(field, pts, targets, ridge=0.3)
        h = 1e-6
        for c in range(3):
            for t in range(10):
                plus = field.coeffs.copy()
                plus[c, t] += h
                minus = field.coeffs.copy()
                minus[c, t] -= h
                fd = (
                    fit_objective(PolyField(2, plus), pts, targets, ridge=0.3)
                    - fit_objective(PolyField(2, minus), pts, targets, ridge=0.3)
                ) / (2 * h)
                denom = max(1.0, abs(fd))
                assert abs(grad[c, t] - fd) / denom < 1e-5

    def test_ridge_shrinks_coefficients(self, rng):
        pts = rng.uniform(-1, 1, size=(100, 3))
        truth = random_divfree_field(3, rng)
        targets = truth.evaluate_many(pts) + rng.normal(size=(100, 3)) * 0.1
        loose = fit_field(pts, targets, 3, (0, 0, 0), (1, 1, 1), 0.0)
        tight = fit_field(pts, targets, 3, (0, 0, 0), (1, 1, 1), 100.0)
        assert np.linalg.norm(tight.coeffs) < np.linalg.norm(loose.coeffs)

    def test_underdetermined_raises(self, rng):
        pts = rng.uniform(-1, 1, size=(3, 3))
        targets = rng.normal(size=(3, 3))
        with pytest.raises(ConditioningError, match="lower the order"):
            fit_field(pts, targets, 1, (0, 0, 0), (1, 1, 1), 0.0)

    def test_boundary_sample_count_accepted(self, rng):
        # 4 samples give 12 equations for the 11 free linear parameters
        pts = rng.uniform(-1, 1, size=(4, 3))
        field = random_divfree_field(1, rng)
        fit_field(pts, field.evaluate_many(pts), 1, (0, 0, 0), (1, 1, 1), 0.0)

    def test_degenerate_samples_raise_conditioning(self, rng):
        pts = np.tile([[0.3, 0.1, -0.2]], (5, 1))
        targets = rng.normal(size=(5, 3))
        with pytest.raises(ConditioningError):
            fit_field(pts, targets, 1, (0, 0, 0), (1, 1, 1), 0.0)


def vstack_fit_coeffs(points, targets, order, offset, scale, ridge):
    """``fit_field``'s coefficients from the reduced system built as a chain
    of products and stacks: the byte-for-byte oracle of the in-place build."""
    pts = np.asarray(points, dtype=float)
    tgt = np.asarray(targets, dtype=float)
    probe = PolyField(order, np.zeros((3, term_count(order))), offset, scale)
    null = _divergence_free_basis(order)
    free = null.shape[1]
    design = direct_basis_matrix(probe.normalize(pts), order)
    m = term_count(order)
    reduced = np.vstack([design @ null[:m], design @ null[m:2 * m], design @ null[2 * m:]])
    rhs = np.concatenate([tgt[:, 0], tgt[:, 1], tgt[:, 2]])
    if ridge > 0:
        reduced = np.vstack([reduced, np.sqrt(ridge) * np.eye(free)])
        rhs = np.concatenate([rhs, np.zeros(free)])
    cvec = null @ np.linalg.lstsq(reduced, rhs, rcond=None)[0]
    return np.vstack([cvec[:m], cvec[m:2 * m], cvec[2 * m:]])


@pytest.mark.parametrize("ridge", [0.0, 2.5e-6, 0.3])
@pytest.mark.parametrize("order", range(9))
def test_fit_matches_vstack_oracle_byte_for_byte(order, ridge):
    rng = np.random.default_rng(order)
    offset, scale = np.array([3.0, -2.0, 5.0]), np.array([4.0, 2.5, 6.0])
    pts = offset + scale * rng.uniform(-1, 1, (200, 3))
    targets = rng.normal(size=(200, 3))
    got = fit_field(pts, targets, order, offset, scale, ridge)
    want = vstack_fit_coeffs(pts, targets, order, offset, scale, ridge)
    assert got.coeffs.tobytes() == want.tobytes()


class TestFitBundleField:
    def test_prior_route_recovers_field(self, rng):
        mask = make_mask(np.ones((8, 8, 8)))
        offset, scale = domain_from_mask(mask)
        truth = random_divfree_field(2, rng, offset, scale)
        prior = synthetic_prior(mask, truth.evaluate_many)
        fitted = fit_bundle_field(prior, mask, order=2, ridge=0.0)
        pts = mask.foreground_points()
        assert np.abs(fitted.evaluate_many(pts) - truth.evaluate_many(pts)).max() < 1e-8

    def test_divergence_small_at_random_points(self, rng):
        mask = make_mask(np.ones((8, 8, 8)))
        offset, scale = domain_from_mask(mask)
        truth = random_divfree_field(2, rng, offset, scale)
        prior = synthetic_prior(mask, truth.evaluate_many)
        fitted = fit_bundle_field(prior, mask, order=3)
        pts = rng.uniform(-1, 1, size=(1000, 3))
        assert np.abs(fitted.divergence_many(pts)).max() <= 1e-6

    def test_too_few_voxels(self, rng):
        mask = make_mask(np.ones((3, 3, 3)))
        truth = random_divfree_field(1, rng)
        prior = synthetic_prior(mask, truth.evaluate_many)
        with pytest.raises(ConditioningError, match="lower the order"):
            fit_bundle_field(prior, mask, order=4, ridge=0.0)

    @pytest.mark.parametrize("order", [4, 8])
    def test_null_space_matches_scipy_byte_for_byte(self, order, tmp_path, monkeypatch):
        ph = generate(PhantomSpec(kind="fanning", radius=3.0, length=30.0,
                                  noise_deg=10.0, distractor_amp=0.8), 42)
        prior = build_prior(ph.peaks, ph.centerline, ph.mask)
        save_field(fit_bundle_field(prior, ph.mask, order), tmp_path / "numpy.txt")
        shapes = []

        def scipy_null_space(a):
            shapes.append(a.shape)
            return null_space(a)

        # The basis is cached per order: clear the cache so that the fit
        # below calls scipy, and again so that no later fit reuses its basis.
        monkeypatch.setattr(polyfield, "_null_space", scipy_null_space)
        _divergence_free_basis.cache_clear()
        try:
            save_field(fit_bundle_field(prior, ph.mask, order), tmp_path / "scipy.txt")
        finally:
            _divergence_free_basis.cache_clear()
        assert shapes == [divergence_constraints(order).shape]
        assert (tmp_path / "numpy.txt").read_bytes() == (tmp_path / "scipy.txt").read_bytes()

    def test_order_eight_fit_holds_one_reduced_system(self):
        # The fit's traced peak is the reduced system, plus the design it is
        # built from (1.14x here); stacking it piece by piece peaked at 2.14x.
        ph = generate(PhantomSpec(kind="fanning", radius=3.0, length=30.0,
                                  noise_deg=10.0, distractor_amp=0.8), 42)
        prior = build_prior(ph.peaks, ph.centerline, ph.mask)
        fit_bundle_field(prior, ph.mask, 8)  # builds the cached null basis
        free = _divergence_free_basis(8).shape[1]
        rows = 3 * int(polyfield._usable(prior, ph.mask).sum()) + free
        tracemalloc.start()
        try:
            fit_bundle_field(prior, ph.mask, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * rows * free * 8

    def test_default_ridge_finds_the_usable_voxels_once(self, rng, monkeypatch):
        mask = make_mask(np.ones((6, 6, 6)))
        truth = random_divfree_field(2, rng)
        prior = synthetic_prior(mask, truth.evaluate_many)
        given = fit_bundle_field(prior, mask, order=2, ridge=polyfield.bundle_ridge(prior, mask))
        calls = []
        usable = polyfield._usable

        def counting(*args):
            calls.append(1)
            return usable(*args)

        monkeypatch.setattr(polyfield, "_usable", counting)
        default = fit_bundle_field(prior, mask, order=2)
        assert len(calls) == 1
        assert default.coeffs.tobytes() == given.coeffs.tobytes()

    def test_grid_mismatch(self, rng):
        mask = make_mask(np.ones((4, 4, 4)))
        other = make_mask(np.ones((4, 4, 4)), origin=(1, 0, 0))
        truth = random_divfree_field(1, rng)
        prior = synthetic_prior(other, truth.evaluate_many)
        with pytest.raises(DomainError):
            fit_bundle_field(prior, mask, order=1)

    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_multi_slot_prior_is_refused_not_fitted_on_slot_0(self, rng, ridge):
        mask = make_mask(np.ones((4, 4, 4)))
        truth = random_divfree_field(1, rng)
        one = synthetic_prior(mask, truth.evaluate_many)
        two = PeaksField(one.dims, one.spacing, one.origin,
                         np.concatenate([one.directions] * 2, axis=3),
                         np.concatenate([one.amplitudes] * 2, axis=3))
        fit_bundle_field(one, mask, order=1, ridge=ridge)
        with pytest.raises(DomainError, match="one peak per voxel, found 2"):
            fit_bundle_field(two, mask, order=1, ridge=ridge)


class TestDomainAndIO:
    def test_domain_from_mask_centers_bbox(self):
        data = np.zeros((10, 6, 4))
        data[2:7, 1:5, 2] = 1
        mask = make_mask(data, spacing=(2.0, 1.0, 0.5), origin=(10.0, 0.0, -1.0))
        offset, scale = domain_from_mask(mask)
        assert np.allclose(offset, [10 + 2 * 4.0, 0 + 2.5, -1 + 0.5 * 2])
        # x: centers 14..22 -> half extent 4; y: 1..4 -> 1.5; z: single layer
        # floors at spacing/2
        assert np.allclose(scale, [4.0, 1.5, 0.25])

    @pytest.mark.parametrize("part, index, bad, message", [
        ("coeffs", (0, 1), np.nan, "finite"),
        ("coeffs", (2, 3), -np.inf, "finite"),
        ("offset", 1, np.nan, "finite"),
        ("offset", 2, np.inf, "finite"),
        ("scale", 0, np.inf, "scale"),
        ("scale", 1, np.nan, "scale"),
    ])
    def test_rejects_non_finite_parts(self, part, index, bad, message):
        parts = {"coeffs": np.zeros((3, 4)), "offset": np.zeros(3), "scale": np.ones(3)}
        parts[part][index] = bad
        with pytest.raises(ValueError, match=message):
            PolyField(1, **parts)

    def test_round_trip_exact(self, tmp_path, rng):
        field = random_divfree_field(4, rng, offset=(0.5, -3, 2), scale=(7, 5, 3))
        path = tmp_path / "field.txt"
        save_field(field, path)
        back = load_field(path)
        assert back.order == 4
        assert np.array_equal(back.coeffs, field.coeffs)
        assert np.array_equal(back.offset, field.offset)
        assert np.array_equal(back.scale, field.scale)
