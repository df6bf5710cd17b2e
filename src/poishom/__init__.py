"""Exact-arithmetic toolkit for unimodularity and invariant volume forms on
coisotropic Poisson quotients, with coordinate-level Hamiltonian dynamics."""

from .bialgebra import (
    CocommutatorMap,
    LieBialgebra,
    cocycle_check,
    double_algebra,
    double_bracket,
    double_jacobi_check,
    dual_constants,
    sln_standard_bialgebra,
)
from .coord import (
    FlowTrace,
    KernelObstructionCertificate,
    PolynomialPoissonModel,
    PolyVectorField,
    basic_function_check,
    divergence,
    field_from_character_data,
    hamiltonian_vf,
    hessian_at,
    jacobi_symbolic,
    kernel_obstruction_verify,
    linearization_vs_cocommutator,
    multiplicativity_spotcheck,
    preservation_residual,
    rk4_flow,
)
from .exterior import (
    ExteriorElement,
    ce_differential,
    interior,
    schouten_square,
    theta0_from_v0,
    wedge,
)
from .homspace import (
    HomogeneousSpaceSpec,
    SemiInvariantSolutions,
    UnimodularityReport,
    VolumeCertificate,
    chi_h0,
    classification_report,
    coisotropy_check,
    invariant_volume_exists,
    lu_crosscheck,
    multiplicative_unimodularity_check,
    semi_invariant_solutions,
    subgroup_type,
)
from .lie import (
    Covector,
    LieAlgebra,
    Subalgebra,
    Vector,
    is_closed_one_form,
    restrict_covector,
)
from .poly import Polynomial

__version__ = "0.1.0"
