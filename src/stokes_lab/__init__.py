"""Numerical laboratory for the exterior displacement problem of plane
elastostatics: boundary-element paradox diagnostics, an annulus energy
solver, and an exact counter-example oracle."""

from .annulus import (
    CaccioppoliReport,
    ContractionReport,
    DecayFit,
    EnergyProfile,
    GrowthReport,
    VariationalProblem,
    caccioppoli_check,
    contraction_solve,
    decay_exponent_fit,
    energy_identity_residual,
    energy_profiles,
    growth_monotonicity_check,
    net_traction_discrete,
    solve_annulus,
)
from .bem import (
    EquilibriumBasis,
    ExteriorSolution,
    MSpaceField,
    assemble_single_layer,
    circle_traction_total,
    ellipse_compatibility,
    equilibrium_basis,
    evaluate,
    evaluate_gradient,
    m_space_representative,
    net_traction,
    paradox_residual,
    solve_dirichlet,
)
from .curves import BoundaryCurve
from .degiorgi import (
    ClosedFormSolution,
    CounterexampleParams,
    closed_form,
    degiorgi_tensor,
    epsilon,
    not_in_M_certificate,
    q_tail_classify,
)
from .inequalities import (
    RadialProfile,
    hardy_check,
    korn_first_check,
    wirtinger_check,
)
from .kelvin import FundamentalSolution, acoustic_tensor, fundamental_matrix
from .polar import DiscreteField, PolarGrid
from .tensors import (
    ElasticityField,
    ElasticityTensor,
    IsotropicModuli,
    apply_tensor,
    certify_bounds,
    constant_field,
    gamma_exponent,
    korn_identity_residual,
    lin_bounds,
    sqrtL_exponent,
    strong_ellipticity_margin,
    traction,
)

__version__ = "0.1.0"
