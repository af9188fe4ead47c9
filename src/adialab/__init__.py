"""Numerical laboratory for the discretized adiabatic theorem.

The package measures, instance by instance, whether the quantitative
runtime bound

    T >= (C / delta^2) * max(||H'||^3 / lambda^4, ||H'|| ||H''|| / lambda^3)

really carries the tracked eigenstate to within delta of its endpoint,
and verifies each intermediate inequality of the underlying
geometric-sum cancellation argument numerically.
"""

from .errors import (
    AdialabError,
    ConfigError,
    DomainError,
    FeasibilityError,
    GapCollapseError,
    IntegrityError,
    NonConvergenceError,
    NumericalError,
    NumericalInstabilityError,
    UnderResolvedGridError,
)
from .evolution import (
    EvolutionConfig,
    EvolutionResult,
    distance_l2,
    distance_phase_invariant,
    evolve_adaptive,
    evolve_discrete,
)
from .hamiltonians import (
    HermitianOperator,
    NormBundle,
    TimeDependentHamiltonian,
    derivative,
    eval_batch,
    norm_bundle,
)
from .problems import (
    InstanceSpec,
    affine_hamiltonian,
    constant,
    grover,
    landau_zener,
    random_interpolation,
    transverse_ising,
)
from .proofcheck import (
    CheckEntry,
    ProofCheckConfig,
    ProofReport,
    error_vectors,
    run_proofcheck,
    total_error_vector,
)
from .spectral import (
    EigenPath,
    gauge_residual,
    path_derivatives,
    track_eigenpath,
)
from .theorem import (
    TheoremVerdict,
    ZeroFrame,
    required_time,
    shift_to_zero_eigenvalue,
    verify,
    zero_frame,
)

__version__ = "0.1.0"
