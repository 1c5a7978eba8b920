"""Equilibrium assignment and OD-matrix solvers with duality-gap certificates."""

from .network import (
    BPR,
    SD,
    EdgeCostModel,
    EdgeTable,
    FlowState,
    LevelGraph,
    Network,
    NetworkError,
    ParseError,
    ValidationError,
    load_network,
)
from .softmin import (
    UnreachableError,
    all_or_nothing,
    assignment_flows,
    effective_weights,
    hard_shortest,
    softmin_flows,
    softmin_potentials,
)
from .solvers import (
    DivergedOracleError,
    EuclideanProx,
    FunctionOracle,
    MirrorReport,
    SmoothOracle,
    SolverReport,
    mirror_descent_constrained,
    restart_wrapper,
    umt_minimize,
    umt_stochastic,
)
from .dual import (
    DualOracle,
    EquilibriumReport,
    capacity_violation,
    complementarity_residual,
    dual_value_grad,
    duality_gap,
    frank_wolfe_gap,
    solve_assignment,
    solve_multistage,
    stochastic_origin_oracle,
)
from .od import (
    ElpDualOracle,
    ElpProblem,
    ElpSolution,
    balancing_oracle,
    build_elp,
    primal_value,
    solve_entropy_od,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
