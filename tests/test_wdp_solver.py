"""Winner determination: examples, invariants, and brute-force cross-checks.

The inner routing is checked against an exhaustive enumeration of integer
transfer matrices (see ``oracles.py``, independent of the library's
greedy); the branch-and-bound solver is checked against subset enumeration.
"""

import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_min_cost,
    reference_budget,
    reference_greedy,
    reference_heuristic,
    reference_heuristic_winners,
    reference_margins,
    transfer_cost,
)

from faircda import engine
from faircda.cli import random_micro_instance, run_validation_corpus
from faircda.model import (
    Allocation,
    ConsumerBid,
    ExtendedConsumerBid,
    MarketShape,
    ProviderBid,
    over_common_denominator,
)
from faircda.scenario import ScenarioConfig, generate_consumer_bids, generate_provider_bids
from faircda.wdp_solver import (
    SolverLimits,
    WdpInstance,
    _greedy_pass,
    _HeuristicState,
    _heuristic_pass,
    _lagrangian_bound,
    _ranked,
    _rational_bound,
    dump_instance,
    min_cost_allocation,
    objective_value,
    solve_exact,
    solve_heuristic,
    solve_oracle,
    validate_solution,
)


def consumer(cid, prices, quantities, ff=0):
    return ExtendedConsumerBid(
        bid=ConsumerBid(cid, tuple(Fraction(p) for p in prices), tuple(quantities)),
        fairness_factor=Fraction(ff),
    )


def provider(pid, prices, quantities):
    return ProviderBid(pid, tuple(Fraction(p) for p in prices), tuple(quantities))


def instance(consumers, providers):
    return WdpInstance.from_bids(consumers, providers)


def one_unit_trade_violations(consumer_price, provider_price):
    """What :func:`validate_solution` reports for one unit traded at these prices."""
    inst = instance([consumer(0, [consumer_price], [1])], [provider(0, [provider_price], [1])])
    return validate_solution(inst, Allocation((True,), np.ones((1, 1, 1), dtype=np.int64)))


class TestCompatible:
    def test_consumer_above_ask(self):
        assert one_unit_trade_violations(10, 5) == []

    def test_equality_boundary(self):
        assert one_unit_trade_violations(5, 5) == []

    def test_consumer_below_ask(self):
        (violation,) = one_unit_trade_violations(4, 5)
        assert violation.endswith("(price compatibility)")


class TestWdpInstance:
    def test_budgets_are_each_bids_price_quantity_product(self):
        rng = np.random.default_rng(5)
        config = ScenarioConfig(shape=MarketShape(40, 3, 2), runs=1)
        for _ in range(3):
            inst = WdpInstance.from_bids(
                generate_consumer_bids(config, rng),
                generate_provider_bids(config, rng),
            )
            assert inst._scaled.consumer_prices.dtype == np.int64
            sc = inst._scaled
            budgets = [Fraction(b, sc.denominator) for b in sc.budgets]
            assert budgets == [reference_budget(ext.bid) for ext in inst.consumer_bids]

    def test_duplicate_consumer_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            instance([consumer(0, [10], [1]), consumer(0, [8], [1])], [provider(0, [5], [2])])

    def test_units_past_int64_rejected(self):
        with pytest.raises(ValueError, match="units"):
            instance([consumer(n, [10], [2**62]) for n in range(2)], [provider(0, [5], [1])])

    def test_type_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="resource types"):
            instance([consumer(0, [10, 10], [1, 1])], [provider(0, [5], [1])])


class TestObjectiveValue:
    def test_empty_allocation(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        empty = Allocation((False,), np.zeros((1, 1, 1), dtype=np.int64))
        assert objective_value(inst, empty) == (0, 0, 0)

    def test_single_trade(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        alloc = Allocation(winners=(True,), transfers=np.array([[[1]]]))
        assert objective_value(inst, alloc) == (5, 5, 0)

    def test_fairness_factor_adds_satisfaction(self):
        inst = instance([consumer(0, [10], [1], ff=3)], [provider(0, [5], [1])])
        alloc = Allocation(winners=(True,), transfers=np.array([[[1]]]))
        assert objective_value(inst, alloc) == (8, 5, 3)

    def test_infeasible_allocation_rejected_with_details(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        bad = Allocation(winners=(True,), transfers=np.zeros((1, 1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="demand exactness"):
            objective_value(inst, bad)


class TestMinCostAllocation:
    def test_no_winners_costs_nothing(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        y = min_cost_allocation(inst, set())
        assert y is not None and y.sum() == 0

    def test_splits_across_providers_cheapest_first(self):
        inst = instance(
            [consumer(0, [10], [2])],
            [provider(0, [5], [1]), provider(1, [7], [5])],
        )
        y = min_cost_allocation(inst, {0})
        assert y is not None
        assert y[0, 0, 0] == 1 and y[0, 0, 1] == 1
        assert transfer_cost(inst, y) == 12

    def test_incompatible_demand_is_infeasible(self):
        inst = instance([consumer(0, [6], [1])], [provider(0, [7], [5])])
        assert min_cost_allocation(inst, {0}) is None

    def test_unknown_winner_id_rejected(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        with pytest.raises(ValueError, match="not part"):
            min_cost_allocation(inst, {3})

    def test_matches_brute_force_on_micro_corpus(self):
        rng = np.random.default_rng(99)
        feasible = infeasible = 0
        for _ in range(80):
            inst = random_micro_instance(rng)
            positions = [
                n for n in range(inst.shape.num_consumers) if rng.random() < 0.6
            ]
            ids = [inst.consumer_bids[n].consumer_id for n in positions]
            y = min_cost_allocation(inst, ids)
            expected = brute_force_min_cost(inst, positions)
            if expected is None:
                assert y is None
                infeasible += 1
            else:
                assert y is not None
                assert transfer_cost(inst, y) == expected
                feasible += 1
        assert feasible and infeasible  # both behaviors exercised


def ab_competition():
    """Two consumers, one unit of supply: fairness overrides raw budget."""
    return instance(
        [consumer(0, [10], [1], ff=0), consumer(1, [8], [1], ff=5)],
        [provider(0, [5], [1])],
    )


def swap_market():
    """Four consumers, one provider of two units.

    The greedy takes consumer 2 (two units, the best margin); dropping it
    readmits consumer 1, also two units, so the repair keeps consumer 2.
    Consumers 0 and 3, one unit each, are worth more together.
    """
    return instance(
        [
            consumer(0, [11], [1], ff=6),
            consumer(1, [18], [2], ff=-5),
            consumer(2, [13], [2], ff=7),
            consumer(3, [11], [1], ff=6),
        ],
        [provider(0, [9], [2])],
    )


def generated_instance(seed, **scenario):
    """A generated 40x4x3 round-one market."""
    config = ScenarioConfig(shape=MarketShape(40, 4, 3), runs=1, **scenario)
    rng = np.random.default_rng(seed)
    return WdpInstance.from_bids(
        generate_consumer_bids(config, rng), generate_provider_bids(config, rng)
    )


class TestSolveExact:
    def test_single_profitable_trade(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        sol = solve_exact(inst)
        assert sol.allocation.winners == (True,)
        assert sol.objective == 5 and sol.optimality == "proved_optimal"
        assert sol.gap_bound == 0

    def test_priced_out_market_clears_empty(self):
        inst = instance([consumer(0, [4], [1])], [provider(0, [5], [1])])
        sol = solve_exact(inst)
        assert sol.allocation.winners == (False,)
        assert sol.objective == 0 and sol.optimality == "proved_optimal"

    def test_fairness_factor_flips_the_winner(self):
        sol = solve_exact(ab_competition())
        assert sol.allocation.winners == (False, True)
        assert sol.objective == 8

    def test_tie_prefers_lexicographically_smallest_winner_vector(self):
        inst = instance(
            [consumer(0, [10], [1]), consumer(1, [10], [1])],
            [provider(0, [5], [1])],
        )
        for solver in (solve_exact, solve_oracle):
            sol = solver(inst)
            assert sol.allocation.winners == (False, True)

    def test_limit_validation(self):
        with pytest.raises(ValueError, match="node_budget"):
            SolverLimits(node_budget=0)
        with pytest.raises(ValueError, match="time_budget_s"):
            SolverLimits(time_budget_s=0)

    @pytest.mark.parametrize(
        "fields",
        [{"node_budget": 1e5}, {"node_budget": True}, {"time_budget_s": True},
         {"time_budget_s": "abc"}, {"time_budget_s": float("inf")},
         {"time_budget_s": float("nan")}, {"time_budget_s": 10**400}],
    )
    def test_mistyped_limits_rejected(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            SolverLimits(**fields)

    @pytest.mark.parametrize("limits", [5, 1.5, {"node_budget": 5}])
    def test_limits_of_another_type_rejected(self, limits):
        with pytest.raises(ValueError, match="limits must be a SolverLimits, got"):
            solve_exact(ab_competition(), limits)

    def test_time_budget_is_stored_as_float(self):
        assert SolverLimits(time_budget_s=5).time_budget_s == 5.0
        assert isinstance(SolverLimits(time_budget_s=5).time_budget_s, float)

    def test_truncated_search_reports_valid_gap(self):
        inst = swap_market()
        optimal = solve_exact(inst)
        assert (optimal.winner_positions, optimal.objective) == ((0, 3), 16)
        assert solve_heuristic(inst).objective == 15
        truncated = solve_exact(inst, SolverLimits(node_budget=1))
        assert truncated.optimality == "heuristic"
        assert truncated.objective + truncated.gap_bound >= optimal.objective
        assert validate_solution(inst, truncated.allocation) == []

    # Recorded when the search was first seeded with the heuristic's winners
    # and bounded by the Lagrangian relaxation.  Every consumer wins, and the
    # root's bound equals the seed's objective.  Until the search reaches the
    # seed's own leaf an open node ties it, so the seed is returned tagged
    # heuristic with gap 0: it is not proved the lexicographically smallest
    # optimum.
    TRUNCATED_40x4x3 = {
        1: "heuristic",
        2: "heuristic",
        3: "heuristic",
        7: "heuristic",
        50: "heuristic",
        400: "proved_optimal",
        5000: "proved_optimal",
    }

    @pytest.mark.parametrize("node_budget", sorted(TRUNCATED_40x4x3))
    def test_truncated_results_are_recorded(self, node_budget):
        inst = generated_instance(seed=5)
        sol = solve_exact(inst, SolverLimits(node_budget=node_budget))
        assert (sol.winner_positions, sol.objective, sol.gap_bound, sol.optimality) == (
            tuple(range(40)), Fraction(505709, 20), 0, self.TRUNCATED_40x4x3[node_budget]
        )

    def test_truncated_search_improves_on_its_seed(self):
        # A contested market: within 400 nodes the search finds nothing
        # better than the seed, within 5000 it does, and neither proves it.
        inst = generated_instance(seed=9, provider_quantity_range=(5, 15))
        seed = solve_heuristic(inst)
        # Recorded while the heuristic's gap was still summed over S.
        assert seed.gap_bound == Fraction(16644, 25)
        early = solve_exact(inst, SolverLimits(node_budget=400))
        assert (early.winner_positions, early.objective, early.gap_bound, early.optimality) == (
            seed.winner_positions, Fraction(792403, 100), Fraction(16644, 25), "heuristic"
        )
        later = solve_exact(inst, SolverLimits(node_budget=5000))
        assert (later.winner_positions, later.objective, later.gap_bound, later.optimality) == (
            (9, 11, 16, 17, 18, 20, 21, 24, 25, 27, 30, 31, 35, 36, 37, 38, 39),
            Fraction(400721, 50),
            Fraction(57537, 100),
            "heuristic",
        )

    def test_solutions_with_a_gap_pickle(self):
        inst = generated_instance(seed=9, provider_quantity_range=(5, 15))
        for sol in (solve_heuristic(inst), solve_exact(inst, SolverLimits(node_budget=400))):
            copy = pickle.loads(pickle.dumps(sol))  # before the gap is read: the bound itself
            assert copy.allocation == sol.allocation
            assert copy.gap_bound == sol.gap_bound == Fraction(16644, 25)

    def test_only_a_search_that_can_be_truncated_builds_a_heuristic_state(self, monkeypatch):
        # A search that runs to the end seeds itself on the instance's demand
        # layout; one that a budget can stop keeps the full heuristic's seed.
        built = []

        class Spy(_HeuristicState):
            def __init__(self, inst, *args):
                built.append(inst)
                super().__init__(inst, *args)

        monkeypatch.setattr("faircda.wdp_solver._HeuristicState", Spy)
        inst = ab_competition()
        assert solve_exact(inst).winner_positions == solve_oracle(inst).winner_positions
        assert built == []
        solve_exact(inst, SolverLimits(node_budget=1))
        assert built == [inst]
        solve_exact(inst, SolverLimits(time_budget_s=60))
        assert built == [inst, inst]
        solve_heuristic(inst)
        assert built == [inst, inst, inst]


class TestSolveOracle:
    def test_agrees_with_exact_on_worked_examples(self):
        for inst in (
            instance([consumer(0, [10], [1])], [provider(0, [5], [1])]),
            instance([consumer(0, [4], [1])], [provider(0, [5], [1])]),
            ab_competition(),
        ):
            assert solve_oracle(inst).objective == solve_exact(inst).objective

    def test_empty_market_edge(self):
        no_consumers = WdpInstance(
            shape=MarketShape(0, 1, 1),
            consumer_bids=(),
            provider_bids=(provider(0, [5], [1]),),
        )
        no_providers = WdpInstance(
            shape=MarketShape(1, 0, 1), consumer_bids=(consumer(0, [10], [1]),), provider_bids=()
        )
        for solver in (solve_oracle, solve_exact):
            sol = solver(no_consumers)
            assert sol.objective == 0 and sol.allocation.winners == ()
            sol = solver(no_providers)
            assert sol.objective == 0 and sol.allocation.winners == (False,)

    def test_large_instance_guard(self):
        consumers = [consumer(n, [10], [1]) for n in range(13)]
        inst = instance(consumers, [provider(0, [5], [20])])
        with pytest.raises(ValueError, match="limited"):
            solve_oracle(inst)


class TestSolveHeuristic:
    def test_admits_everyone_when_supply_allows(self):
        inst = instance(
            [consumer(0, [10], [1]), consumer(1, [9], [2])],
            [provider(0, [5], [10])],
        )
        sol = solve_heuristic(inst)
        assert sol.allocation.winners == (True, True)
        assert sol.objective == solve_oracle(inst).objective

    def test_fairness_ranking_prefers_boosted_consumer(self):
        sol = solve_heuristic(ab_competition())
        assert sol.allocation.winners == (False, True)

    def test_empty_instance(self):
        inst = WdpInstance(
            shape=MarketShape(0, 1, 1),
            consumer_bids=(),
            provider_bids=(provider(0, [5], [1]),),
        )
        sol = solve_heuristic(inst)
        assert sol.objective == 0 and sol.allocation.winners == ()

    def test_simulation_scales_only_the_prices(self):
        """A heuristic run, settlement and a read gap included, never builds
        S: each instance's D is its cent prices' denominator, read from the
        price vectors, and nothing is put over a common denominator with the
        factors.  solve_exact makes the one call, for S."""
        caught = []
        real = engine.solve_heuristic

        def spy(inst):
            sol = real(inst)
            caught.append((inst, sol.gap_bound))
            return sol

        with mock.patch.object(engine, "solve_heuristic", spy), mock.patch(
            "faircda.wdp_solver.over_common_denominator", wraps=over_common_denominator
        ) as scaled:
            engine.run_simulation(
                ScenarioConfig(shape=MarketShape(300, 5, 4), runs=1),
                engine.EngineConfig(rounds=2, master_seed=5),
            )
            assert scaled.call_count == 0 and len(caught) == 2
            assert all(gap > 0 for _, gap in caught)
            assert all(100 % inst._scaled.denominator == 0 for inst, _ in caught)
            inst = caught[-1][0]
            solve_exact(inst, SolverLimits(node_budget=1))
            assert scaled.call_count == 1
        assert scaled.call_args.args == (inst._scaled.fairness, inst._scaled.denominator)
        S, _ = over_common_denominator(*scaled.call_args.args)
        assert S.bit_length() > 64

    def test_never_beats_exact_and_validates_clean(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            inst = random_micro_instance(rng)
            heur = solve_heuristic(inst)
            exact = solve_exact(inst)
            assert heur.objective <= exact.objective
            assert validate_solution(inst, heur.allocation) == []
            assert heur.gap_bound >= exact.objective - heur.objective


# Few distinct values make margin ties common.
PRICES = [Fraction(p) for p in ("1", "3/2", "2", "7/3", "3", "4", "9/2")]
FACTORS = [Fraction(f) for f in ("-3", "-1/3", "0", "0", "1", "5/2", "1/7", "-2/11", "3/13")]


@st.composite
def heuristic_instances(draw):
    """Small markets with ties, zero-quantity types and consumers infeasible alone."""
    N = draw(st.integers(0, 12))
    M = draw(st.integers(1, 3))
    L = draw(st.integers(1, 3))
    consumers = []
    for n in range(N):
        quantities = draw(st.lists(st.integers(0, 3), min_size=L, max_size=L))
        if not any(quantities):
            quantities[draw(st.integers(0, L - 1))] = 1
        prices = draw(st.lists(st.sampled_from(PRICES), min_size=L, max_size=L))
        consumers.append(consumer(n, prices, quantities, draw(st.sampled_from(FACTORS))))
    providers = [
        provider(
            m,
            draw(st.lists(st.sampled_from(PRICES), min_size=L, max_size=L)),
            draw(st.lists(st.integers(0, 5), min_size=L, max_size=L)),
        )
        for m in range(M)
    ]
    return WdpInstance(shape=MarketShape(N, M, L), consumer_bids=consumers, provider_bids=providers)


class TestSeededSearch:
    """The Lagrangian bound, the heuristic seed and the tie rule against the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(heuristic_instances())
    def test_bound_seed_and_truncation(self, inst):
        oracle = solve_oracle(inst)
        _, cumdem, _ = _heuristic_pass(inst)
        assert _rational_bound(inst, cumdem) >= oracle.objective
        assert solve_exact(inst).allocation.winners == oracle.allocation.winners
        heuristic = solve_heuristic(inst)
        assert heuristic.objective + heuristic.gap_bound >= oracle.objective
        seed = heuristic.objective
        # A depth-N tree has 2^(N+1) - 1 nodes: the budgets either side of
        # it (but 0), and a time budget the seed alone uses up, which stops
        # the search at its root.
        whole_tree = 2 ** (inst.shape.num_consumers + 1) - 1
        budgets = [
            SolverLimits(node_budget=b) for b in (1, 2, 5, 20, whole_tree - 1, whole_tree) if b
        ]
        for limits in budgets + [SolverLimits(time_budget_s=1e-9)]:
            sol = solve_exact(inst, limits)
            assert sol.objective >= seed
            assert sol.objective + sol.gap_bound >= oracle.objective
            if sol.optimality == "proved_optimal":
                assert sol.allocation.winners == oracle.allocation.winners

    @settings(max_examples=60, deadline=None)
    @given(heuristic_instances())
    def test_whole_tree_budget_gives_the_default_result(self, inst):
        whole_tree = SolverLimits(node_budget=2 ** (inst.shape.num_consumers + 1) - 1)
        sol, default = solve_exact(inst, whole_tree), solve_exact(inst)
        assert (sol.allocation, sol.objective, sol.optimality) == (
            default.allocation, default.objective, default.optimality
        )
        assert sol.allocation.winners == solve_oracle(inst).allocation.winners

    def test_repair_runs_only_when_the_search_can_be_truncated(self, monkeypatch):
        # The repair pass drops each greedy winner once; nothing else does.
        dropped = []
        remove = _HeuristicState.remove

        def spy(state, n):
            dropped.append(n)
            remove(state, n)

        monkeypatch.setattr(_HeuristicState, "remove", spy)
        inst = swap_market()
        N = inst.shape.num_consumers
        whole_tree = 2 ** (N + 1) - 1
        for limits, repairs in (
            (SolverLimits(node_budget=1), True),
            (SolverLimits(node_budget=2**N - 1), True),
            (SolverLimits(node_budget=whole_tree - 1), True),
            (SolverLimits(node_budget=whole_tree), False),
            (SolverLimits(node_budget=whole_tree + 1), False),
            (SolverLimits(), False),
            (SolverLimits(node_budget=whole_tree, time_budget_s=60), True),
            (SolverLimits(time_budget_s=60), True),
        ):
            dropped.clear()
            solve_exact(inst, limits)
            assert dropped == ([2] if repairs else []), limits
        dropped.clear()
        assert solve_heuristic(inst).winner_positions == (2,)
        assert dropped == [2]


class TestHeuristicBound:
    """The heuristic's ranking key, the Lagrangian margins at zero demand,
    against the reference margins: the bound at zero demand is the sum of
    the positive ones, and the heuristic's gap bound is at most that."""

    @settings(max_examples=200, deadline=None)
    @given(heuristic_instances())
    def test_margins_and_gap_bound(self, inst):
        margins = reference_margins(inst)
        sc = inst._scaled
        bundle, saved = _lagrangian_bound(inst, [])
        assert saved == 0
        assert [
            Fraction(b - c, sc.denominator) + f if ok else 0
            for b, c, f, ok in zip(sc.budgets, bundle, sc.fairness, sc.feasible_alone)
        ] == [margins.get(n, 0) for n in range(inst.shape.num_consumers)]
        positive = sum(m for m in margins.values() if m > 0)
        assert _rational_bound(inst, []) == positive
        sol = solve_heuristic(inst)
        assert 0 <= sol.gap_bound <= max(0, positive - sol.objective)


def assert_matches_reference(inst):
    sol = solve_heuristic(inst)
    expected = reference_heuristic_winners(inst)
    assert sol.winner_positions == tuple(expected)
    ids = [inst.consumer_bids[n].consumer_id for n in expected]
    allocation = Allocation(
        winners=tuple(n in expected for n in range(inst.shape.num_consumers)),
        transfers=min_cost_allocation(inst, ids),
    )
    assert sol.objective == objective_value(inst, allocation)[0]


class TestHeuristicMatchesScalarReference:
    """The array scan admits exactly what a candidate-by-candidate loop admits."""

    @settings(max_examples=300, deadline=None)
    @given(heuristic_instances())
    def test_small_markets(self, inst):
        assert_matches_reference(inst)

    def test_identical_consumers_tie_toward_lower_position(self):
        inst = instance(
            [consumer(n, [3, 2], [1, 0]) for n in range(4)],
            [provider(0, [1, 1], [2, 0]), provider(1, [2, 1], [1, 3])],
        )
        assert_matches_reference(inst)
        assert solve_heuristic(inst).winner_positions == (0, 1, 2)

    def test_consumers_infeasible_alone_never_win(self):
        inst = instance(
            [
                consumer(0, [1], [1]),  # offers below every ask
                consumer(1, [9], [7]),  # wants more than all supply
                consumer(2, [9], [2]),
            ],
            [provider(0, [2], [3]), provider(1, [4], [0])],
        )
        assert_matches_reference(inst)
        assert solve_heuristic(inst).winner_positions == (2,)

    def test_tied_margins_rank_by_the_factors_remainders(self):
        # Integer prices, so D = 1, and every margin over D is 0.  The exact
        # margins are the factors' remainders: 3/13, 0 and 2/3 (the floor of
        # -1/3 is -1).  Consumer 2 ranks first and takes the one unit; a
        # position tie-break would admit consumer 0, and the repair would
        # then try consumer 1 first, worth no more.
        inst = instance(
            [consumer(0, [4], [1], ff="3/13"), consumer(1, [4], [1]),
             consumer(2, [5], [1], ff="-1/3")],
            [provider(0, [4], [1])],
        )
        assert_matches_reference(inst)
        assert solve_heuristic(inst).winner_positions == (2,)

    def test_swap_with_equal_floors_decided_by_remainders(self):
        # Consumer 0 ranks first (margin 6 over D against 4) and wins.
        # Dropping it readmits consumer 1: over D with the factors' floors
        # both are worth 4, and consumer 1's remainder 5/13 beats 2/7.
        inst = instance(
            [consumer(0, [3, 3], [2, 2], ff="2/7"), consumer(1, [4, 4], [0, 2], ff="5/13")],
            [provider(0, [1, 5], [0, 2]), provider(1, [2, 2], [2, 3])],
        )
        assert_matches_reference(inst)
        assert solve_heuristic(inst).winner_positions == (1,)

    def test_swap_losing_a_unit_over_d_won_by_two_remainders(self):
        # Dropping consumer 0 (worth 5 over D with floors, remainder 2/3)
        # readmits consumers 1 and 2 (together 4, remainders 10/11 and
        # 12/13): one unit over D less, but more than one in remainders.
        inst = instance(
            [consumer(0, [5], [2], ff="-1/3"), consumer(1, [6], [1], ff="-1/11"),
             consumer(2, [3], [1], ff="12/13")],
            [provider(0, [2], [2])],
        )
        assert_matches_reference(inst)
        assert solve_heuristic(inst).winner_positions == (1, 2)

    def test_contested_generated_markets(self):
        """Scenario-sized markets where the repair pass swaps winners."""
        rng = np.random.default_rng(11)
        for shape in ((60, 3, 2), (80, 5, 4), (40, 2, 3)):
            config = ScenarioConfig(
                shape=MarketShape(*shape), runs=1, provider_quantity_range=(5, 30)
            )
            for _ in range(3):
                bids = generate_consumer_bids(config, rng)
                factors = rng.integers(-4000, 4000, size=len(bids))
                inst = WdpInstance.from_bids(
                    [
                        ExtendedConsumerBid(bid=b, fairness_factor=Fraction(int(f), 100))
                        for b, f in zip(bids, factors)
                    ],
                    generate_provider_bids(config, rng),
                )
                assert_matches_reference(inst)


def greedy(inst):
    """(winners, ranked): the greedy pass's winners and the candidates it
    walked, checked against the scalar loop's greedy pass, and the whole
    heuristic against the loop."""
    ranked, _ = _ranked(inst)
    winners, demand, cost = _greedy_pass(inst, ranked)
    expected, cumdem, expected_cost = reference_greedy(inst)
    # The pass's demand is flat by type, each type's providers last first.
    assert (winners, demand) == (expected, [d for row in cumdem for d in reversed(row)])
    assert Fraction(cost, inst._scaled.denominator) == expected_cost
    assert_matches_reference(inst)
    return winners, ranked


class TestGreedyPass:
    """The greedy pass, which both solvers run, admits what the scalar loop
    does at every boundary of a scan."""

    def test_first_ranked_candidate_rejected(self):
        # Consumer 0 ranks first: its margin over the cheapest-ask bound,
        # 15 - 5 - 3 = 7, beats consumer 1's 4.  But its three units cost
        # 1 + 5 + 5 = 11, more than its value 15 - 5.
        inst = instance(
            [consumer(0, [5], [3], ff=-5), consumer(1, [5], [1])],
            [provider(0, [1], [1]), provider(1, [5], [5])],
        )
        assert greedy(inst) == ([1], [0, 1])
        assert solve_heuristic(inst).winner_positions == (1,)

    def test_every_ranked_candidate_admitted(self):
        inst = instance(
            [consumer(n, [9, 8], [1 + n % 2, n % 3]) for n in range(6)],
            [provider(0, [1, 2], [20, 20]), provider(1, [3, 1], [20, 20])],
        )
        winners, ranked = greedy(inst)
        assert winners == sorted(ranked) == list(range(6))
        assert solve_heuristic(inst).winner_positions == tuple(range(6))

    def test_candidate_filling_the_supply_at_their_value_admitted(self):
        # Consumer 0 takes both units at 5, exactly their budget; consumer 1
        # offers below the ask.
        inst = instance([consumer(0, [5], [2]), consumer(1, [4], [1])], [provider(0, [5], [2])])
        assert greedy(inst) == ([0], [0])
        assert solve_heuristic(inst).winner_positions == (0,)

    def test_rejection_then_a_later_admission(self):
        # Ranked 0, 1, 2: consumer 1's two units do not fit beside
        # consumer 0's three; consumer 2's one unit does.
        inst = instance(
            [consumer(0, [10], [3]), consumer(1, [10], [2]), consumer(2, [10], [1])],
            [provider(0, [1], [4])],
        )
        assert greedy(inst) == ([0, 2], [0, 1, 2])
        assert solve_heuristic(inst).winner_positions == (0, 2)

    def test_no_providers(self):
        inst = WdpInstance.from_bids([consumer(0, [5, 1], [1, 0])], [], 2)
        assert greedy(inst) == ([], [])
        assert solve_heuristic(inst).winner_positions == ()

    def test_no_ranked_candidates(self):
        inst = instance(
            [consumer(0, [1], [1]), consumer(1, [9], [9]), consumer(2, [5], [1], ff=-9)],
            [provider(0, [2], [3])],
        )
        assert greedy(inst) == ([], [])
        assert solve_heuristic(inst).winner_positions == ()

    def test_reference_rounds_with_fairness_factors(self):
        """Reference-sized rounds after the first, whose factors have large denominators."""
        caught = []
        real = engine.solve_heuristic

        def spy(inst):
            caught.append(inst)
            return real(inst)

        with mock.patch.object(engine, "solve_heuristic", spy):
            engine.run_simulation(
                ScenarioConfig(shape=MarketShape(300, 5, 4), runs=1),
                engine.EngineConfig(rounds=4, master_seed=5),
            )
        for inst in caught[1:]:
            S, _ = over_common_denominator(inst._scaled.fairness, inst._scaled.denominator)
            assert S.bit_length() > 64
            winners, ranked = greedy(inst)
            assert 0 < len(winners) < len(ranked)


def repair(inst):
    """The heuristic pass's winners, checked against the scalar loop:
    winners, their flat cumulative demand and its cost."""
    winners, demand, cost = _heuristic_pass(inst)
    expected, cumdem, expected_cost = reference_heuristic(inst)
    assert (winners, demand) == (expected, [d for row in cumdem for d in reversed(row)])
    assert Fraction(cost, inst._scaled.denominator) == expected_cost
    return winners


@pytest.fixture
def scan_ends(monkeypatch):
    """How each readmission of the repair ended, in order: ``retest`` when
    the state refreshed for a re-test, ``floor`` when the pool's floor showed
    that nobody left fits, ``last`` when nobody else was still admissible."""
    ends = []
    real = _HeuristicState.add

    def spy(state, n, floor=()):
        refreshed = real(state, n, floor)
        ends.append("retest" if refreshed else "last" if floor is None else "floor")
        return refreshed

    monkeypatch.setattr(_HeuristicState, "add", spy)
    return ends


class TestRepairFloor:
    """A readmission scan ends without a refresh once the slack is below
    the pool's floor, its candidates' least contribution, at some entry.
    Prices here equal the one ask, so each margin is the consumer's factor."""

    def test_slack_below_the_floor_ends_the_scan(self, scan_ends):
        # Dropping consumer 0 readmits consumer 1, leaving one unit against
        # a floor of two: consumer 2 is not tested again, and the swap is lost.
        inst = instance(
            [consumer(0, [1], [4], ff=8), consumer(1, [1], [3], ff=7),
             consumer(2, [1], [2], ff=6)],
            [provider(0, [1], [4])],
        )
        assert repair(inst) == [0]
        assert scan_ends == ["floor"]
        assert solve_heuristic(inst).winner_positions == (0,)

    def test_second_readmission_leaves_zero_slack(self, scan_ends):
        # Dropping consumer 0 readmits consumer 1, leaving two units: exactly
        # the floor, so consumer 2 is tested again and takes both.
        inst = instance(
            [consumer(0, [1], [4], ff=8), consumer(1, [1], [2], ff=6),
             consumer(2, [1], [2], ff=6)],
            [provider(0, [1], [4])],
        )
        assert repair(inst) == [1, 2]
        assert scan_ends == ["retest", "last"]
        assert solve_heuristic(inst).winner_positions == (1, 2)

    def test_kept_swap_returns_a_smaller_row_to_the_pool(self, scan_ends):
        # The greedy pass admits consumers 0 and 2.  Dropping 2 readmits 3
        # and 4, worth 10 against 8, and returns 2, who wants no type 1, to
        # the pool.  Dropping 0 then readmits 1, which uses up type 1: below
        # the old pool's floor there, not the new pool's, so 2 is tested
        # again and fits.
        inst = instance(
            [
                consumer(0, [1, 1], [2, 3], ff=10),
                consumer(1, [1, 1], [0, 3], ff=9),
                consumer(2, [1, 1], [2, 0], ff=8),
                consumer(3, [1, 1], [1, 1], ff=5),
                consumer(4, [1, 1], [1, 1], ff=5),
            ],
            [provider(0, [1, 1], [4, 5])],
        )
        assert repair(inst) == [1, 2, 3, 4]
        assert scan_ends == ["retest", "last", "retest", "last"]
        assert solve_heuristic(inst).winner_positions == (1, 2, 3, 4)

    def test_reference_rounds(self, scan_ends):
        """Rounds 1-4 of a 300x5x4 run with fairness on, each against the
        scalar loop, with scans ended both by the floor and by a re-test."""
        caught = []
        real = engine.solve_heuristic

        def spy(inst):
            caught.append(inst)
            return real(inst)

        with mock.patch.object(engine, "solve_heuristic", spy):
            engine.run_simulation(
                ScenarioConfig(shape=MarketShape(300, 5, 4), runs=1),
                engine.EngineConfig(rounds=4, master_seed=2),
            )
        assert len(caught) == 4
        scan_ends.clear()
        for inst in caught:
            assert solve_heuristic(inst).winner_positions == tuple(repair(inst))
        assert {"floor", "retest"} <= set(scan_ends)


class TestValidateSolution:
    def test_solver_outputs_are_clean(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            inst = random_micro_instance(rng)
            for solver in (solve_exact, solve_heuristic):
                assert validate_solution(inst, solver(inst).allocation) == []

    def test_winner_without_units_reports_linkage_and_demand(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        bad = Allocation(winners=(True,), transfers=np.zeros((1, 1, 1), dtype=np.int64))
        messages = "\n".join(validate_solution(inst, bad))
        assert "linkage upper" in messages
        assert "demand exactness" in messages

    def test_oversold_supply_reported(self):
        inst = instance([consumer(0, [10], [2])], [provider(0, [5], [1])])
        bad = Allocation(winners=(True,), transfers=np.array([[[2]]]))
        messages = "\n".join(validate_solution(inst, bad))
        assert "supply" in messages

    def test_loser_with_units_reports_linkage_lower(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        bad = Allocation(winners=(False,), transfers=np.array([[[1]]]))
        messages = "\n".join(validate_solution(inst, bad))
        assert "linkage lower" in messages

    def test_incompatible_trade_reported(self):
        inst = instance([consumer(0, [4], [1])], [provider(0, [5], [1])])
        bad = Allocation(winners=(True,), transfers=np.array([[[1]]]))
        messages = "\n".join(validate_solution(inst, bad))
        assert "price compatibility" in messages

    def test_shape_mismatch_is_an_error_not_a_violation(self):
        inst = instance([consumer(0, [10], [1])], [provider(0, [5], [1])])
        alien = Allocation(winners=(True, False), transfers=np.zeros((2, 1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="shape"):
            validate_solution(inst, alien)


class TestSolverProperties:
    def test_oracle_equivalence_on_seeded_corpus(self):
        passes, failures = run_validation_corpus(count=120, seed=5)
        assert failures == [] and passes == 120

    def test_objective_decomposes_into_value_minus_service_cost(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            inst = random_micro_instance(rng)
            sol = solve_exact(inst)
            winners = sol.winner_positions
            winning_bids = [inst.consumer_bids[n] for n in winners]
            value = sum(
                (reference_budget(ext.bid) + ext.fairness_factor for ext in winning_bids),
                Fraction(0),
            )
            assert sol.objective == value - brute_force_min_cost(inst, winners)

    def test_fairness_threshold_flips_the_argmax(self):
        winners_by_factor = []
        for ff in range(0, 6):
            inst = instance(
                [consumer(0, [10], [1], ff=0), consumer(1, [8], [1], ff=ff)],
                [provider(0, [5], [1])],
            )
            winners_by_factor.append(solve_exact(inst).allocation.winners)
        # Low factors leave the high-budget consumer on top; beyond the
        # threshold the boosted consumer is the unique winner, and stays so.
        assert winners_by_factor[0] == (True, False)
        flip = winners_by_factor.index((False, True))
        assert all(w == (False, True) for w in winners_by_factor[flip:])


class TestDumpLoad:
    def test_fractional_values_survive(self):
        inst = instance(
            [consumer(0, ["7/3", "1/2"], [1, 2], ff="-5/4")],
            [provider(0, ["3/2", "0"], [4, 0])],
        )
        assert dump_instance(inst) == (
            "market 1 1 2\n"
            "consumer 0 ff=-5/4 prices=7/3,1/2 quantities=1,2\n"
            "provider 0 prices=3/2,0 quantities=4,0\n"
        )
