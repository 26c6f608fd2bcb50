"""Divergence-free polynomial vector fields and constrained least-squares fits.

A field of order n evaluates as ``v(u) = coeffs @ monomials(u)`` in a
normalized coordinate frame ``u = (p - offset) / scale`` that maps the region
of interest into roughly [-1, 1]^3.  Divergence freedom is a set of linear
equality constraints on the coefficients, enforced exactly by solving the
least-squares problem in the constraint null space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConditioningError, DomainError, FormatError
from .grids import (
    Mask,
    PeaksField,
    _checked,
    _line,
    _numbers,
    _read_fields,
    _write_text,
    inside_many,
    same_geometry,
)
from .prior import prior_from_peaks

_RCOND_MAX = 1e12
ORDER_DEFAULT = 4


def term_count(order: int) -> int:
    """Number of trivariate monomials of total degree <= order."""
    n = int(order)
    if n < 0:
        raise ValueError("order must be >= 0")
    return (n + 1) * (n + 2) * (n + 3) // 6


def monomial_exponents(order: int) -> np.ndarray:
    """Exponent triples (i, j, k) of the canonical monomial ordering.

    The x exponent i varies slowest, then j, then k; total degree <= order.
    For order 1 the monomials are [1, z, y, x].
    """
    n = int(order)
    if n < 0:
        raise ValueError("order must be >= 0")
    rows = [
        (i, j, k)
        for i in range(n + 1)
        for j in range(n + 1 - i)
        for k in range(n + 1 - i - j)
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 3)


@lru_cache(maxsize=None)
def _exponent_columns(order: int) -> tuple:
    """Read-only x, y and z exponent columns of ``monomial_exponents``."""
    columns = monomial_exponents(order).T.copy()
    columns.flags.writeable = False
    return tuple(columns)


def basis_matrix(points: np.ndarray, order: int) -> np.ndarray:
    """Monomial design matrix: row s holds every monomial of point s.

    Each entry is ``(x**i * y**j) * z**k``, with every power built by
    repeated multiplication.  The result is C-contiguous whatever the batch:
    einsum sums in memory order, so this layout keeps each row's downstream
    reductions, and hence ``PolyField.evaluate_many``, independent of the
    batch it is computed in.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = int(order)
    ix, iy, iz = _exponent_columns(n)
    # powers[a, p] holds coordinate a of every point raised to p
    powers = np.empty((3, n + 1, len(pts)))
    powers[:, 0] = 1.0
    for p in range(1, n + 1):
        np.multiply(powers[:, p - 1], pts.T, out=powers[:, p])
    design = powers[0].take(ix, axis=0)
    design *= powers[1].take(iy, axis=0)
    design *= powers[2].take(iz, axis=0)
    return np.ascontiguousarray(design.T)


def _term_index(order: int):
    exps = monomial_exponents(order)
    return {tuple(e): idx for idx, e in enumerate(exps)}


def divergence_constraints(order: int) -> np.ndarray:
    """Linear constraints C @ vec(coeffs) = 0 equivalent to zero divergence.

    vec(coeffs) concatenates the x, y, z coefficient rows.  One constraint
    row exists per monomial of degree <= order - 1; an order-0 field has no
    constraints (shape (0, 3)).
    """
    n = int(order)
    m = term_count(n)
    lookup = _term_index(n)
    if n == 0:
        return np.zeros((0, 3 * m))
    low = monomial_exponents(n - 1)
    rows = np.zeros((len(low), 3 * m))
    for r, (p, q, s) in enumerate(low):
        rows[r, lookup[(p + 1, q, s)]] = p + 1
        rows[r, m + lookup[(p, q + 1, s)]] = q + 1
        rows[r, 2 * m + lookup[(p, q, s + 1)]] = s + 1
    return rows


@dataclass(frozen=True, eq=False)
class PolyField:
    """Polynomial vector field with an affine domain normalization.

    ``coeffs`` is (3, M) with M = term_count(order); evaluation maps a world
    point p to u = (p - offset) / scale and returns coeffs @ monomials(u).
    """

    order: int
    coeffs: np.ndarray
    offset: np.ndarray = field(default=None)
    scale: np.ndarray = field(default=None)

    def __post_init__(self):
        n = int(self.order)
        if n < 0:
            raise ValueError("order must be >= 0")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (3, term_count(n)):
            raise ValueError(
                f"coeffs must have shape (3, {term_count(n)}) for order {n}"
            )
        offset = np.zeros(3) if self.offset is None else np.asarray(self.offset, dtype=float)
        scale = np.ones(3) if self.scale is None else np.asarray(self.scale, dtype=float)
        if offset.shape != (3,) or scale.shape != (3,):
            raise ValueError("offset and scale must be 3-vectors")
        if not (np.isfinite(coeffs).all() and np.isfinite(offset).all()):
            raise ValueError("coeffs and offset must be finite")
        if not ((scale > 0) & (scale < np.inf)).all():
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "scale", scale)

    def normalize(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.offset) / self.scale

    def evaluate_many(self, points) -> np.ndarray:
        """Field vectors at each world point, one row per point.

        Uses a fixed-order einsum contraction over the C-contiguous design
        of ``basis_matrix``, so each output row is summed in the same order
        from its own input row alone; results are bitwise invariant under
        batching, which keeps the trackers' output independent of how many
        rows are live in a step.
        """
        design = basis_matrix(self.normalize(points), self.order)
        return np.einsum("sm,cm->sc", design, self.coeffs, optimize=False)

    def divergence_many(self, points) -> np.ndarray:
        """Divergence with respect to the normalized coordinates u."""
        u = self.normalize(points)
        if self.order == 0:
            return np.zeros(len(u))
        cvec = np.concatenate([self.coeffs[0], self.coeffs[1], self.coeffs[2]])
        low = basis_matrix(u, self.order - 1)
        cons = divergence_constraints(self.order)
        per_term = cons @ cvec
        return np.einsum("sm,m->s", low, per_term, optimize=False)


def domain_from_mask(mask: Mask) -> tuple:
    """Offset (bounding-box center) and scale (half-extent, floored at half a
    voxel per axis) mapping the mask foreground into [-1, 1]^3.
    """
    pts = mask.foreground_points()
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    offset = 0.5 * (lo + hi)
    floor = 0.5 * np.asarray(mask.spacing)
    scale = np.maximum(0.5 * (hi - lo), floor)
    return offset, scale


def fit_objective(
    field_: PolyField, points, targets, ridge: float = 0.0
) -> float:
    """Sum of squared residuals plus ridge * sum of squared coefficients."""
    res = field_.evaluate_many(points) - np.atleast_2d(np.asarray(targets, float))
    return float((res ** 2).sum() + float(ridge) * (field_.coeffs ** 2).sum())


def fit_objective_gradient(
    field_: PolyField, points, targets, ridge: float = 0.0
) -> np.ndarray:
    """Gradient of ``fit_objective`` with respect to the (3, M) coefficients."""
    design = basis_matrix(field_.normalize(points), field_.order)
    res = design @ field_.coeffs.T - np.atleast_2d(np.asarray(targets, float))
    return 2.0 * (res.T @ design + float(ridge) * field_.coeffs)


def _null_space(a) -> np.ndarray:
    """Orthonormal null-space basis of ``a``: scipy.linalg.null_space's rank
    rule, values and memory layout, without scipy's ~0.5 s import.

    The layout matters: ``fit_field``'s products with this basis, and so the
    fitted coefficients, depend on it in the last bit.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = np.count_nonzero(s > s.max() * max(a.shape) * np.finfo(float).eps)
    return np.asfortranarray(vh)[rank:].T


@lru_cache(maxsize=None)
def _divergence_free_basis(order: int) -> np.ndarray:
    """Read-only orthonormal basis of the order's divergence-free coefficient
    vectors, in ``_null_space``'s layout."""
    cons = divergence_constraints(order)
    null = _null_space(cons) if len(cons) else np.eye(3 * term_count(order))
    null.flags.writeable = False
    return null


def fit_field(
    points,
    targets,
    order: int,
    offset=None,
    scale=None,
    ridge: float = 0.0,
) -> PolyField:
    """Least-squares divergence-free fit of target vectors at world points.

    Solves min ||D a - t||^2 + ridge ||a||^2 subject to the exact divergence
    constraints, by reducing to the constraint null space.  Raises
    ConditioningError when there are fewer samples than free parameters or
    the reduced system is numerically singular.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tgt = np.atleast_2d(np.asarray(targets, dtype=float))
    if pts.shape != tgt.shape or pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points and targets must both be (n, 3) arrays")
    ridge = float(ridge)
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be finite and >= 0")
    probe = PolyField(order, np.zeros((3, term_count(order))), offset, scale)
    null = _divergence_free_basis(int(order))
    free = null.shape[1]
    if 3 * len(pts) < free:
        raise ConditioningError(
            f"{len(pts)} samples give {3 * len(pts)} equations, fewer than "
            f"the {free} free parameters at order {order}; add samples or "
            "lower the order"
        )
    m = term_count(order)
    n = len(pts)
    # Reduced design: rows are samples per component, then one ridge row per
    # free parameter; columns are the null basis.  The null basis is
    # orthonormal, so ridge on the reduced coordinates equals ridge on the
    # full coefficient vector.
    design = basis_matrix(probe.normalize(pts), order)
    reduced = np.zeros((3 * n + (free if ridge > 0 else 0), free))
    for c in range(3):
        np.matmul(design, null[c * m:(c + 1) * m], out=reduced[c * n:(c + 1) * n])
    del design
    np.fill_diagonal(reduced[3 * n:], np.sqrt(ridge))
    rhs = np.zeros(len(reduced))
    rhs[:3 * n] = tgt.T.ravel()
    sol, _, rank, svals = np.linalg.lstsq(reduced, rhs, rcond=None)
    if rank < free:
        raise ConditioningError(
            f"reduced system is rank deficient ({rank} < {free}); the sample "
            "geometry does not constrain the fit"
        )
    if svals[0] > 0 and svals[0] / svals[-1] > _RCOND_MAX:
        raise ConditioningError(
            f"reduced system condition number {svals[0] / svals[-1]:.3e} "
            "exceeds the stability limit; add samples or raise ridge"
        )
    cvec = null @ sol
    coeffs = np.vstack([cvec[:m], cvec[m:2 * m], cvec[2 * m:]])
    return PolyField(order, coeffs, probe.offset, probe.scale)


RIDGE_PER_SAMPLE = 1e-8


def bundle_ridge(prior: PeaksField, mask: Mask, ridge=None) -> float:
    """The ridge ``fit_bundle_field`` applies: ``ridge`` when given, else
    RIDGE_PER_SAMPLE per fit sample, a floor against rank deficiency in
    thin tubes."""
    if ridge is not None:
        return ridge
    return RIDGE_PER_SAMPLE * len(_samples(prior, mask)[0])


def _samples(prior: PeaksField, mask: Mask) -> tuple[np.ndarray, np.ndarray]:
    """The fit's points and targets: ``prior.samples()`` inside the mask.
    Raises DomainError for any other slot count or grid."""
    prior_from_peaks(prior)
    if not same_geometry(prior, mask):
        raise DomainError("prior grid does not match the mask grid")
    pts, dirs = prior.samples()
    keep = inside_many(mask, pts)
    return pts[keep], dirs[keep]


def fit_bundle_field(
    prior: PeaksField, mask: Mask, order: int = ORDER_DEFAULT, ridge=None
) -> PolyField:
    """Divergence-free fit of the selected voxel directions inside the mask.

    ``prior`` is a one-slot field (see ``prior_from_peaks``).  The samples
    are ``prior.samples()`` at the points inside the mask; the domain
    normalization comes from the mask bounding box.  Requires at least
    term_count(order) samples.  ridge=None picks ``bundle_ridge``; pass 0.0
    for an unregularized fit.
    """
    pts, tgt = _samples(prior, mask)
    m = term_count(order)
    if len(pts) < m:
        raise ConditioningError(
            f"{len(pts)} usable voxels cannot support {m} basis terms at order "
            f"{order}; lower the order or widen the prior"
        )
    offset, scale = domain_from_mask(mask)
    if ridge is None:
        ridge = RIDGE_PER_SAMPLE * len(pts)
    return fit_field(pts, tgt, order, offset, scale, ridge)


_COEFF_KEYS = ("coeffs.x", "coeffs.y", "coeffs.z")
_FIELD_KEYS = ("order", "terms", "offset", "scale") + _COEFF_KEYS


def save_field(field_: PolyField, path):
    """Write a field as ``key: value`` text, one ``coeffs.*`` line per
    vector component."""
    _write_text(path, [
        _line("order", field_.order),
        _line("terms", term_count(field_.order)),
        _line("offset", field_.offset),
        _line("scale", field_.scale),
        *(_line(key, row) for key, row in zip(_COEFF_KEYS, field_.coeffs)),
    ])


def load_field(path) -> PolyField:
    """Read a field written by ``save_field``."""
    fields = _read_fields(path, _FIELD_KEYS)
    (order,) = _numbers(fields["order"], "order", path, 1, int)
    (terms,) = _numbers(fields["terms"], "terms", path, 1, int)
    if order < 0 or terms != term_count(order):
        raise FormatError(f"{path}: terms {terms} does not match order {order}")
    offset = _numbers(fields["offset"], "offset", path, 3)
    scale = _numbers(fields["scale"], "scale", path, 3)
    coeffs = [_numbers(fields[key], key, path, terms) for key in _COEFF_KEYS]
    return _checked(path, PolyField, order, coeffs, offset, scale)
