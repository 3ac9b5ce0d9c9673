"""Multi-round auction orchestration.

Each round: collect bids, extend consumer bids with fairness factors (zero
in the baseline model or in round one), determine winners, settle at
midpoint prices, and record who dropped out.  A :class:`RoundResult` keeps
the cleared instance and its solution, and the repository of
participation records evolves as a pure fold over those results alone, so
a round's bids and outcomes cannot disagree.  A run keeps no round log;
each round is folded into the repository and into its report row as soon
as it clears; the report derives the per-run metrics from those rows.

A simulated round's market stays the integers it was drawn as.  The
generators' immutable tuples carry their read-only draws, and the run loop
passes them on, keeping the active consumers' rows by a boolean mask: the
drift windows read the previous round's cents, and :func:`run_round`
derives the round's market (a :class:`~faircda.model._Market`, which the
market mean prices and the instance's integers are read from) from the
draws, without sorting or checking bids that are valid by construction.
Bids given any other way, a ``list(...)`` copy included, are sorted and
checked once, and the same record derived from them.  The bids' prices are
:class:`~faircda.model.PriceVector`s: the repository's history holds them,
and its snapshot formats their integers.

Randomness is split into two independent streams per run — one for bid
generation, one for fairness draws — both derived deterministically from
the master seed and run index.  Bids are generated for every consumer each
round and dropped consumers are filtered out afterwards, so a fairness-on
and a fairness-off simulation with the same master seed see identical bid
streams (common random numbers), whatever their drop histories.
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .fairness import compute_fairness_factors
from .model import (
    ConsumerBid,
    ExtendedConsumerBid,
    FairnessParams,
    ParticipantRecord,
    ProviderBid,
    Repository,
    _check_count,
    _unchecked,
    repository_from_dict,
    repository_to_dict,
)
from .pricing import Settlement, settle
from .scenario import (
    ScenarioConfig,
    _drawn_market,
    generate_consumer_bids,
    generate_provider_bids,
)
from .wdp_solver import (
    SolverLimits,
    WdpInstance,
    WdpSolution,
    _bid_market,
    _check_bid_types,
    _Priced,
    solve_exact,
    solve_heuristic,
)

__all__ = [
    "Repository",
    "EngineConfig",
    "RoundResult",
    "run_round",
    "update_repository",
    "run_simulation",
    "repository_to_dict",
    "repository_from_dict",
]

SOLVER_MODES = ("exact", "heuristic")
_ZERO = Fraction(0)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of one simulation: fairness switch, solver, length, and seed."""

    fairness_enabled: bool = True
    fairness_params: FairnessParams = field(default_factory=FairnessParams)
    solver_mode: str = "heuristic"
    solver_limits: SolverLimits = field(default_factory=SolverLimits)
    rounds: int = 100
    master_seed: int = 0

    def __post_init__(self):
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(
                f"solver_mode must be one of {SOLVER_MODES}, got {self.solver_mode!r}"
            )
        if not isinstance(self.fairness_enabled, bool):
            raise ValueError(
                f"fairness_enabled must be true or false, got {self.fairness_enabled!r}"
            )
        for name, kind in (("fairness_params", FairnessParams), ("solver_limits", SolverLimits)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        _check_count(self.rounds, "rounds", positive=True)
        _check_count(self.master_seed, "master_seed")


@dataclass(frozen=True)
class RoundResult:
    """One cleared round: the ``instance`` solved, its ``solution``, the
    drops, and the exact ``settlement`` (payments equal receipts) of the two.

    Every other fact is read from the instance and the solution by position:
    ``instance.consumer_bids[n]`` won iff ``solution.allocation.winners[n]``.
    The constructor settles the solution, validating it once, and rejects a
    drop that is not a loser of the round or is listed twice, and a market
    that offers no units.
    """

    round_index: int
    instance: WdpInstance
    solution: WdpSolution
    drops_this_round: tuple[int, ...] = ()
    settlement: Settlement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "settlement", settle(self.instance, self.solution.allocation))
        if self.drops_this_round:
            bids, winners = self.instance.consumer_bids, self.solution.allocation.winners
            losers = {ext.consumer_id for ext, won in zip(bids, winners) if not won}
            for cid in self.drops_this_round:
                if cid not in losers:
                    raise ValueError(f"consumer {cid} cannot drop: not a loser, or listed twice")
                losers.remove(cid)
        self.utilization_percent  # raises for a market that offers no units

    @cached_property
    def utilization_percent(self) -> float:
        """Units sold per unit offered, in percent: counted once, by the
        constructor, which raises for a market that offers no units."""
        offered = metrics.units_offered(self.instance.provider_bids)
        return metrics.utilization_from_units(self.solution.allocation.units_sold(), offered)

    @property
    def win_percent(self) -> float:
        """Winners per consumer bid, in percent; 0 for a round without bids."""
        winners = self.solution.allocation.winners
        return metrics.win_rate_percent(sum(winners), len(winners)) if winners else 0.0


def run_round(
    repo: Repository,
    consumer_bids: Sequence[ConsumerBid],
    provider_bids: Sequence[ProviderBid],
    config: EngineConfig,
    rng: np.random.Generator,
) -> RoundResult:
    """Clear one auction round; the repository itself is not modified.

    Fairness factors are all zero when fairness is disabled (and in round
    one, when nobody has history).  ``rng`` feeds only the fairness draws.
    Bids from dropped consumers, and two bids from one consumer, are
    rejected, as is a market whose providers offer no units.  With no
    participants at all the round degenerates to an empty clearing with a
    winning rate of zero.

    The round's integers are derived once, here: from the draws when the
    bids are the generators' tuples, which pass every check by
    construction, and otherwise from the bids, sorted by id and checked
    once, as a :class:`~faircda.wdp_solver.WdpInstance` checks them.  An
    entry that is not a bid of its side raises ``ValueError``.
    """
    round_index = repo.round_counter + 1
    market = _drawn_market(consumer_bids, provider_bids)
    if market is None:
        # Each entry's type first, since sorting reads its id.
        _check_bid_types(consumer_bids, provider_bids)
        consumer_bids = sorted(consumer_bids, key=lambda b: b.consumer_id)
        provider_bids = sorted(provider_bids, key=lambda b: b.provider_id)
    participants = [b.consumer_id for b in consumer_bids]
    for cid in participants:
        if repo.record(cid).dropped:
            raise ValueError(f"consumer {cid} dropped out and can no longer bid")
    if market is None:
        market = _bid_market(consumer_bids, provider_bids)

    params = config.fairness_params
    factors = {}
    if config.fairness_enabled and consumer_bids:
        means = market.mean_consumer_prices()
        factors = compute_fairness_factors(repo.records, participants, means, params, rng).factors

    # Unchecked: each factor is compute_fairness_factors' Fraction or
    # Fraction(0), and each bid a checked ConsumerBid.
    ext_bids = _Priced(
        (
            _unchecked(
                ExtendedConsumerBid, bid=b, fairness_factor=factors.get(b.consumer_id, _ZERO)
            )
            for b in consumer_bids
        ),
        market,
    )
    instance = WdpInstance.from_bids(ext_bids, provider_bids)
    if config.solver_mode == "exact":
        solution = solve_exact(instance, config.solver_limits)
    else:
        solution = solve_heuristic(instance)
    drops = tuple(
        b.consumer_id
        for b, won in zip(consumer_bids, solution.allocation.winners)
        if not won and repo.record(b.consumer_id).consecutive_losses >= params.max_losses
    )
    return RoundResult(round_index, instance, solution, drops)


def update_repository(repo: Repository, result: RoundResult) -> Repository:
    """Fold one round result into the repository, returning the successor.

    The result alone drives the fold: its participants are the consumers
    of ``result.instance``, each won or lost by position in the solution's
    winner vector.  Winners gain a win and reset their streak; losers gain
    a loss and extend it; everyone's bid unit prices are appended to their
    history, unchecked (:class:`~faircda.model.ConsumerBid` checked them);
    consumers listed in ``result.drops_this_round`` are marked dropped at
    this round.
    """
    if result.round_index != repo.round_counter + 1:
        raise ValueError(
            f"round result {result.round_index} cannot follow round {repo.round_counter}"
        )
    records = dict(repo.records)
    for ext, won in zip(result.instance.consumer_bids, result.solution.allocation.winners):
        rec = records.get(ext.consumer_id) or ParticipantRecord()
        records[ext.consumer_id] = rec._appended(won, ext.bid.unit_prices)
    for cid in result.drops_this_round:
        records[cid] = records[cid].marked_dropped(result.round_index)
    # Unchecked: each record is the valid repository's or derived from one for
    # an id ConsumerBid checked, and the round follows a valid counter.
    return _unchecked(Repository, records=records, round_counter=result.round_index)


def _run_rng(master_seed: int, run_index: int, stream: int) -> np.random.Generator:
    """A run's random stream: 0 draws the bids, 1 the fairness factors."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index, stream)))


def _simulate_one_run(
    scenario: ScenarioConfig, config: EngineConfig, run_index: int
) -> tuple[list[metrics.PerRoundRow], dict]:
    """One run's report rows and final repository: small to return from a worker.

    A run makes no reference cycles, so cyclic collection is off while it lasts."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        rng_bids, rng_fair = (_run_rng(config.master_seed, run_index, stream) for stream in (0, 1))
        repo = Repository.fresh(range(scenario.shape.num_consumers))
        all_bids: Optional[tuple[ConsumerBid, ...]] = None
        rows: list[metrics.PerRoundRow] = []
        drops = 0
        for _ in range(config.rounds):
            # The generators' tuples carry their draws, and these passes keep
            # them: the drift windows read the previous round's tuple's cents,
            # and run_round reads the round's market from the draws.
            provider_bids = generate_provider_bids(scenario, rng_bids)
            all_bids = generate_consumer_bids(scenario, rng_bids, all_bids)
            active = all_bids.rows([not repo.record(b.consumer_id).dropped for b in all_bids])
            result = run_round(repo, active, provider_bids, config, rng_fair)
            repo = update_repository(repo, result)
            drops += len(result.drops_this_round)
            rows.append(
                metrics.PerRoundRow(
                    run=run_index,
                    round=result.round_index,
                    total_utility=result.solution.total_utility,
                    total_satisfaction=result.solution.total_satisfaction,
                    utilization_percent=result.utilization_percent,
                    win_percent=result.win_percent,
                    cumulative_drops=drops,
                )
            )
            del result  # garbage now, not held through the next round's clearing
        return rows, repository_to_dict(repo)
    finally:
        if collecting:
            gc.enable()


def config_echo(scenario: ScenarioConfig, config: EngineConfig) -> dict:
    """JSON-friendly echo of the full configuration (rationals as strings).

    A wall-clock solver budget makes results depend on the machine, so
    ``engine.machine_dependent`` is set exactly when ``time_budget_s`` is.
    """
    echo = {
        "scenario": {
            "consumers": scenario.shape.num_consumers,
            "providers": scenario.shape.num_providers,
            "resource_types": scenario.shape.num_resource_types,
            "runs": scenario.runs,
            "provider_quantity_range": list(scenario.provider_quantity_range),
            "consumer_quantity_range": list(scenario.consumer_quantity_range),
            "provider_price_range": [str(p) for p in scenario.provider_price_range],
            "consumer_price_range": [str(p) for p in scenario.consumer_price_range],
            "price_drift": str(scenario.price_drift),
        },
        "engine": {
            "fairness_enabled": config.fairness_enabled,
            "solver": config.solver_mode,
            "rounds": config.rounds,
            "master_seed": config.master_seed,
            "node_budget": config.solver_limits.node_budget,
            "time_budget_s": config.solver_limits.time_budget_s,
            "fairness_params": metrics._json_row(config.fairness_params),
        },
    }
    if config.solver_limits.time_budget_s is not None:
        echo["engine"]["machine_dependent"] = True
    return echo


def run_simulation(
    scenario: ScenarioConfig, config: EngineConfig, jobs: int = 1
) -> metrics.SimulationReport:
    """Execute ``scenario.runs`` independent runs of ``config.rounds`` rounds.

    Runs use separate deterministic random streams, so the report is a pure
    function of the two configurations; ``jobs > 1`` executes runs in
    parallel worker processes without changing the result.
    """
    _check_count(jobs, "jobs", positive=True)
    runs = range(scenario.runs)
    if jobs == 1 or scenario.runs == 1:
        outcomes = [_simulate_one_run(scenario, config, run) for run in runs]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, scenario.runs)) as pool:
            outcomes = list(
                pool.map(_simulate_one_run, [scenario] * len(runs), [config] * len(runs), runs)
            )
    rows, repositories = zip(*outcomes)
    return metrics.SimulationReport(
        per_round=tuple(row for run_rows in rows for row in run_rows),
        config_echo=config_echo(scenario, config),
        final_repositories=repositories,
    )
