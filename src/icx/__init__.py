"""icx: optimal inspection schemes for principal-agent contracts.

A principal pays an agent a share of the reward on success and may inspect
subsets of actions at a combinatorial cost, withholding payment on a caught
deviation.  The package computes the optimal deterministic incentive-
compatible scheme for any monotone inspection cost and the optimal
randomized scheme for submodular costs, verifies both against brute-force
oracles, and ships the benchmark families showing why randomization helps
and why XOS costs are out of reach.
"""

from .costfn import (Additive, BudgetAdditive, ConcaveCardinality, CountingOracle,
                     ExplicitTable, SetFunction, WeightedCoverage, XOSClauses,
                     check_monotone, check_submodular, check_xos_pointwise,
                     demand_default)
from .deterministic import solve_deterministic
from .model import (Action, InspectionScheme, Instance, ValidationError,
                    agent_utility, best_responses, deterministic_scheme,
                    expected_inspection_cost, is_IC, marginal, principal_utility)
from .oracle import (brute_force_deterministic, brute_force_randomized,
                     lp_min_cost_given_marginals, no_inspection_best, simplex_solve)
from .randomized import (SubmodularityError, nested_min_cost_distribution,
                         solve_randomized)
from .reports import SolveReport, __version__

__all__ = [name for name in dir() if not name.startswith("_")]
