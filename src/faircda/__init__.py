"""Fairness-aware combinatorial double auction simulator and solver.

A library for simulating multi-round cloud-resource markets in which many
consumers and providers trade bundles of heterogeneous resources through an
auctioneer.  Winner determination maximizes total utility plus a
history-based fairness term; trades settle at midpoint prices; repeated
losers are boosted before they abandon the market.
"""

from .engine import (
    EngineConfig,
    Repository,
    RoundResult,
    run_round,
    run_simulation,
    update_repository,
)
from .fairness import FairnessOutcome, compute_fairness_factors
from .metrics import (
    PerRoundRow,
    RunMetrics,
    SimulationReport,
    aggregate,
    emit,
    parse_report,
    report_to_json,
)
from .model import (
    Allocation,
    ConsumerBid,
    ExtendedConsumerBid,
    FairnessParams,
    MarketShape,
    Money,
    ParticipantRecord,
    PriceVector,
    ProviderBid,
    as_money,
)
from .pricing import Settlement, settle
from .scenario import ScenarioConfig, generate_consumer_bids, generate_provider_bids
from .wdp_solver import (
    SolverLimits,
    WdpInstance,
    WdpSolution,
    dump_instance,
    min_cost_allocation,
    objective_value,
    solve_exact,
    solve_heuristic,
    solve_oracle,
    validate_solution,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ConsumerBid",
    "EngineConfig",
    "ExtendedConsumerBid",
    "FairnessOutcome",
    "FairnessParams",
    "MarketShape",
    "Money",
    "ParticipantRecord",
    "PerRoundRow",
    "PriceVector",
    "ProviderBid",
    "Repository",
    "RoundResult",
    "RunMetrics",
    "ScenarioConfig",
    "Settlement",
    "SimulationReport",
    "SolverLimits",
    "WdpInstance",
    "WdpSolution",
    "aggregate",
    "as_money",
    "compute_fairness_factors",
    "dump_instance",
    "emit",
    "generate_consumer_bids",
    "generate_provider_bids",
    "min_cost_allocation",
    "objective_value",
    "parse_report",
    "report_to_json",
    "run_round",
    "run_simulation",
    "settle",
    "solve_exact",
    "solve_heuristic",
    "solve_oracle",
    "update_repository",
    "validate_solution",
]
