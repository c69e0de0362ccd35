"""Exact maximization of long-run CVaR and mean-CVaR of rewards in finite
MDPs, through occupation-measure linear programming with independent
certification of every result."""

from .model import (
    DeterministicPolicy,
    MdpInstance,
    StationaryPolicy,
    TimeDependentPolicy,
    builtin,
    extract_policy,
    load,
    n_randomizations,
    random_instance,
    save,
    validate,
)
from .risk import (
    DiscreteDistribution,
    RiskParams,
    breakpoints,
    cvar_right,
    reward_distribution,
    saddle_value,
    var,
)
from .chains import (
    ChainClassification,
    check_assumption,
    classify_chain,
    stationary_distribution,
    transition_matrix,
)
from .lp import (
    LinearProgram,
    LpSolution,
    build_average_lp,
    build_dual_lp,
    build_level_lp,
    build_primal_lp,
    build_sparsify_lp,
    solve,
)
from .solver import (
    SaddleSolution,
    VerificationReport,
    endpoint_scan_oracle,
    enumerate_deterministic,
    solve_cvar,
    sparsify,
    verify_saddle,
)
from .evaluate import (
    CvarSequence,
    cvar_sequence,
    example1_policy,
    limsup_liminf_estimate,
    monte_carlo_eval,
    t_step_distribution,
)

__version__ = "0.1.0"
