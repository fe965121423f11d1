"""dualchain: dual variational solver for damped, forced particle chains
with quadratic interaction forces.

The primal system m v' + d v + K(x) = f(t), x' = v is treated through a
concave dual functional of two multiplier fields; extremizing the discrete
functional and mapping back recovers the primal trajectory, which can be
cross-checked against direct integration.
"""

from .chain_model import (
    ChainParams,
    ForcingSpec,
    QuadraticForce,
    SampledSignal,
    Sinusoid,
    eval_force,
    eval_forcing,
    force_jacobian,
    fput_alpha,
    stiffness_lambda,
)
from .primal_solver import (
    IntegrationBlowUpError,
    NonGradientForceError,
    TimeGrid,
    Trajectory,
    energy_series,
    integrate_primal,
    primal_residual,
)
from .dual_action import (
    BaseState,
    BlockTridiagonal,
    DualField,
    ProblemSpec,
    ScaleParams,
    SingularStiffnessError,
    action,
    base_from_primal,
    dtp_map,
    ellipticity_check,
    gradient,
    hessian,
    pack_free,
    perturb_base,
    restrict_base,
    unpack_free,
    zero_base,
)
from .dual_solver import (
    DualSolution,
    SingularSystemError,
    SolveOptions,
    VerificationReport,
    recover_primal,
    solve_dual,
    verify,
)

# earlier names for the periodic problem, which is now a ProblemSpec without
# initial conditions, solved and recovered by the shared functions
from .periodic_search import PeriodicSpec, recover_periodic_orbit, solve_periodic

__version__ = "0.1.0"
