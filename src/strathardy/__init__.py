"""Horizontal calculus and Hardy-inequality experiments on stratified groups."""

from .polynomials import Polynomial, parse_polynomial
from .groups import (
    GroupSpec,
    heisenberg_group,
    abelian_group,
    group_from_table,
    group_from_name,
    h_multiply,
    h_inverse,
    dilate,
    commutator_check,
    left_translation_jacobian,
)
from .calculus import (
    H_STEP,
    HalfSpace,
    halfspace_preset,
    ScalarField,
    distance_field,
    pairing_polynomials,
    field_pairings,
    horizontal_from_euclidean,
    apply_field_to_polynomial,
    horizontal_gradient_many,
    angle_function_many,
    TrialSample,
    sample_trial,
    angle_gradient_many,
    identity_Xi_pairing_many,
    sub_laplacian_distance_polynomial,
    distance_flux_parts,
    p_sub_laplacian_fd_many,
    p_sub_laplacian_distance_many,
    orthogonality_identity_many,
)
from .quadrature import (
    QuadConfig,
    IntegralEstimate,
    IntegrationError,
    NodeBudgetError,
    integrate_many,
)
from .trials import (
    BumpSpec,
    BumpSupport,
    make_bump,
    ground_transform,
    ground_gradient,
    power_weighted_sample,
    inverse_ground_transform,
    SharpnessSpec,
    sharpness_trial,
    boundary_bump_spec,
    random_interior_bumps,
)
from .experiments import (
    sharp_hardy_constant,
    beta_star,
    beta_form_coefficient,
    remainder_constant,
    sobolev_exponent,
    TrivialTrialError,
    hardy_quotient,
    general_hardy_margin,
    remainder_check,
    hardy_sobolev_ratio,
    luan_young_check,
    bft_fuzz,
    sharpness_sweep,
    sharpness_grid,
)
from .identities import IdentityCheck, run_identity_suite
from .reports import CSV_COLUMNS, Report, config_digest, render_csv, render_json

__version__ = "0.1.0"
