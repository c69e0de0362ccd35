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
    cvar_left,
    cvar_right,
    cvar_via_ru,
    reward_distribution,
    ru_objective,
    saddle_value,
    var,
)
from .chains import (
    ChainClassification,
    VertexSet,
    check_assumption,
    classify_chain,
    polytope_vertices,
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
    alpha_zero_degeneration,
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
    lemma2_gap,
    limsup_liminf_estimate,
    monte_carlo_eval,
    t_step_distribution,
)

__version__ = "0.1.0"
