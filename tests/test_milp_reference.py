"""An independent winner-determination reference: the prefix formulation as
a mixed-integer program, solved by scipy's HiGHS (the ``milp`` extra).

The program is built from the bids alone.  A consumer buys type ``l`` only
from providers asking at most their unit price, a prefix of the providers
in ask order, so a winner set is feasible iff, per type and prefix ``r``,
the demand of winners who reach at most ``r`` providers fits in the
prefix's supply.  Buying each type's demand cheapest first costs what any
routing of it must, so the program is

    max  sum_n w_n x_n - sum_{l,k} ask_lk t_lk
    s.t. sum_n q_nl x_n = sum_k t_lk                       per type l
         sum_{n: reach_nl <= r} q_nl x_n <= supply_l(r)    per type l, prefix r
         x_n in {0, 1}, 0 <= t_lk <= supply_lk,

with ``w_n`` a consumer's budget plus fairness factor and ``x_n`` fixed to
0 where a consumer cannot be served alone.  HiGHS solves it in floats, so
its winner set is re-scored and checked feasible exactly, in ``Fraction``s
from the bids, and the checks compare only those exact scores.
"""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from oracles import reference_cost, reference_value

from faircda import engine
from faircda.engine import EngineConfig, run_simulation
from faircda.model import ExtendedConsumerBid, MarketShape
from faircda.scenario import ScenarioConfig, generate_consumer_bids, generate_provider_bids
from faircda.wdp_solver import WdpInstance, solve_exact

optimize = pytest.importorskip("scipy.optimize")


def milp_winners(inst: WdpInstance) -> list[int]:
    """The winner positions of the prefix program of ``inst``'s bids."""
    bids = [ext.bid for ext in inst.consumer_bids]
    providers = inst.provider_bids
    N, M, L = len(bids), len(providers), len(bids[0].quantities)
    weights = [float(v) for v in (reference_value(inst, [n]) for n in range(N))]
    # Columns: the N winners, then per type the M purchases in ask order.
    cost = np.concatenate([-np.array(weights), np.zeros(L * M)])
    upper = np.concatenate([np.ones(N), np.zeros(L * M)])
    rows, row_upper = [], []
    for l in range(L):
        order = sorted(range(M), key=lambda k: providers[k].unit_prices[l])
        asks = [providers[k].unit_prices[l] for k in order]
        supply = [providers[k].quantities[l] for k in order]
        columns = slice(N + l * M, N + (l + 1) * M)
        cost[columns] = [float(a) for a in asks]
        upper[columns] = supply
        reach = [bisect_right(asks, b.unit_prices[l]) for b in bids]
        demand = np.array([b.quantities[l] for b in bids], dtype=float)
        balance = np.zeros(N + L * M)
        balance[:N], balance[columns] = demand, -1
        rows.append(balance)
        row_upper.append(0)
        for r in range(1, M + 1):
            prefix = np.zeros(N + L * M)
            prefix[:N] = demand * [reach_n <= r for reach_n in reach]
            rows.append(prefix)
            row_upper.append(sum(supply[:r]))
        for n, b in enumerate(bids):
            if b.quantities[l] > sum(supply[: reach[n]]):
                upper[n] = 0
    row_lower = [0 if bound == 0 else -np.inf for bound in row_upper]
    result = optimize.milp(
        cost,
        integrality=np.concatenate([np.ones(N), np.zeros(L * M)]),
        bounds=optimize.Bounds(np.zeros(N + L * M), upper),
        constraints=optimize.LinearConstraint(np.array(rows), row_lower, row_upper),
        options={"mip_rel_gap": 1e-9},
    )
    assert result.success, result.message
    return [n for n in range(N) if result.x[n] > 0.5]


def exact_feasible(inst: WdpInstance, winners: list[int]) -> bool:
    """Whether every winner's demand of each type, with that of every winner
    offering at most their price, fits in the supply asking at most it."""
    for l in range(inst.shape.num_resource_types):
        bids = sorted((inst.consumer_bids[n].bid for n in winners), key=lambda b: b.unit_prices[l])
        prices = [b.unit_prices[l] for b in bids]
        demand = np.cumsum([b.quantities[l] for b in bids]).tolist()
        for price in prices:
            supply = sum(p.quantities[l] for p in inst.provider_bids if p.unit_prices[l] <= price)
            if demand[bisect_right(prices, price) - 1] > supply:
                return False
    return True


def milp_score(inst: WdpInstance) -> Fraction:
    """The exact objective of the program's winner set, checked feasible."""
    winners = milp_winners(inst)
    assert exact_feasible(inst, winners)
    return reference_value(inst, winners) - reference_cost(inst, winners)


def contested_rounds():
    """Round-one markets of 16-20 consumers over scarce supply of three
    types, with fairness factors in sevenths of a unit of either sign: the
    heuristic misses the optimum in most of them."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        config = ScenarioConfig(
            shape=MarketShape(16 + seed % 5, 3, 3), runs=1, provider_quantity_range=(2, 8)
        )
        providers = generate_provider_bids(config, rng)
        consumers = [
            ExtendedConsumerBid(bid, Fraction(int(rng.integers(-700, 700)), 7))
            for bid in generate_consumer_bids(config, rng)
        ]
        yield WdpInstance(consumers, providers)


def test_proved_optimal_exact_results_score_at_least_the_milp():
    proved = 0
    for inst in contested_rounds():
        solution = solve_exact(inst)
        if solution.optimality != "proved_optimal":
            continue
        proved += 1
        score = milp_score(inst)
        assert solution.objective >= score
        # And the program reaches the optimum, to its own tolerance.
        assert score >= solution.objective - abs(solution.objective) * Fraction(1, 10**9)
    assert proved >= 10


# The heuristic's percentage gap to the optimum on the first five rounds
# of the default 300x5x4 market with fairness on, at seeds 0 and 1.
REFERENCE_GAPS = {
    0: [0.18, 0.78, 1.96, 0.09, 0.77],
    1: [5.72, 7.47, 2.97, 3.22, 5.04],
}


@pytest.fixture(scope="module")
def reference_rounds():
    """Per seed, each round's instance, heuristic solution and program
    score, captured by wrapping the engine's heuristic."""
    captured = {}
    for seed in REFERENCE_GAPS:
        rounds = captured[seed] = []

        def solve(instance, real=engine.solve_heuristic, rounds=rounds):
            solution = real(instance)
            rounds.append((instance, solution, milp_score(instance)))
            return solution

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "solve_heuristic", solve)
            run_simulation(ScenarioConfig(runs=1), EngineConfig(rounds=5, master_seed=seed))
    return captured


def test_heuristic_results_lie_within_their_gap_bound_of_the_milp(reference_rounds):
    for rounds in reference_rounds.values():
        for _, solution, score in rounds:
            assert solution.objective + solution.gap_bound >= score


def test_heuristic_gaps_reproduce_the_recorded_reference_gaps(reference_rounds):
    for seed, rounds in reference_rounds.items():
        gaps = [round(float((score - s.objective) / score * 100), 2) for _, s, score in rounds]
        assert gaps == REFERENCE_GAPS[seed]
