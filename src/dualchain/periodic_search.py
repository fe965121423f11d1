"""Earlier import path of the periodic names.

The periodic problem is a `ProblemSpec` without ``x0`` and ``v0``, solved by
`dual_solver.solve_dual` and recovered by `dual_solver.recover_primal`.  The
functions here forward to those as functions of their own, not second names
for the same objects, so a wrapper installed on one name misses the other.
"""

from .dual_action import ProblemSpec as PeriodicSpec
from .dual_solver import recover_primal, solve_dual

__all__ = ["PeriodicSpec", "solve_periodic", "recover_periodic_orbit"]


def solve_periodic(spec, opts=None):
    return solve_dual(spec, opts)


def recover_periodic_orbit(sol, spec):
    return recover_primal(sol, spec)
