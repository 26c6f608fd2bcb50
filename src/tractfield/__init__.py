"""Tubular bundle reconstruction via divergence-free polynomial flow fields.

The pipeline: extract a centerline from a bundle mask, select one fiber
orientation per voxel using the centerline's cross-section normals, fit a
divergence-free polynomial vector field to those orientations, and trace
perturbed Runge-Kutta streamlines through it.  A phantom generator and a
metrics suite make every stage checkable against closed-form ground truth.
"""

from .centerline import (
    Centerline,
    cross_section_normals,
    distance_transform,
    extract_centerline,
    load_centerline,
    path_energy,
    save_centerline,
)
from .errors import ConditioningError, DomainError, FormatError, TractFieldError
from .grids import (
    Mask,
    PeaksField,
    Tract,
    VolumeGrid,
    inside_many,
    load_mask,
    load_peaks,
    load_tract,
    load_volume,
    nearest_indices,
    same_geometry,
    save_peaks,
    save_tract,
    save_volume,
    voxel_centers,
)
from .metrics import hausdorff, spatial_overlap, voxelize
from .phantom import (
    Phantom,
    PhantomSpec,
    analytic_streamline,
    completion_rate,
    generate,
    load_descriptor,
    load_phantom_spec,
    save_phantom_spec,
)
from .polyfield import (
    RIDGE_PER_SAMPLE,
    PolyField,
    basis_matrix,
    divergence_constraints,
    domain_from_mask,
    fit_bundle_field,
    fit_field,
    fit_objective,
    fit_objective_gradient,
    load_field,
    monomial_exponents,
    save_field,
    term_count,
)
from .prior import build_prior, prior_from_peaks, select_peak, synthetic_prior
from .tracking import (
    TrackParams,
    baseline_peak_track,
    sample_direction,
    track,
)

__version__ = "0.1.0"
