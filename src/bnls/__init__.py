"""Pseudospectral ground states of the mixed-dispersion nonlinear Schrodinger
equation eps*lap^2 u - lap u + omega u = |u|^(p-2) u on periodic boxes, with
the best-constant pipeline and variational identity verification."""

from .errors import (
    BnlsError,
    ConfigurationError,
    DegenerateQuotientError,
    DivergenceError,
    FieldFormatError,
    InvalidFieldError,
    PreconditionError,
    RegimeError,
    VanishingError,
)
from .grid import (
    BoxGrid,
    Field,
    NormTuple,
    bilaplacian,
    boundary_amplitude_ratio,
    center_and_align,
    laplacian,
    norms,
    regrid,
    relative_l2_distance,
)
from .fieldio import read_field, read_sidecar, write_field
from .functionals import (
    ExponentPack,
    Params,
    action,
    energy,
    energy_factored,
    gn_k_quotient,
    nehari_residual,
    pohozaev,
    weinstein,
)
from .scalings import (
    construct_Q,
    fiber_scale_laws,
    g_functions,
    h_profile,
    lambda_normalize,
    mass_preserving_scale_laws,
    resample,
    t_eps,
)
from .solvers import (
    GroundState,
    SolverConfig,
    extract_omega,
    gaussian_bump,
    mass_constrained_flow,
    pde_residual,
    petviashvili,
    random_bandlimited,
    random_bandlimited_blocks,
    route_Q,
)
from .constants import (
    ConstantsReport,
    K_from_C,
    K_from_c_eps,
    K_numeric,
    c_eps_formula,
    c_eps_from_K,
    compute_constants,
    eps_c_formula,
    omega_formula,
)
from .verify import (
    TolProfile,
    VerificationReport,
    full_verification,
    verify_constants,
    verify_equivalence,
    verify_gn_random,
    verify_Q,
)

__version__ = "0.1.0"
