"""Solvers and settlement on prices scaled to integers over a common denominator.

An instance's prices are carried as integers over the least common multiple
of their denominators.  When that product could overflow 64-bit arithmetic
the same code runs on Python integers; the first test pins that path to
results recorded before the integer representation existed.  The property
tests then check, over generated configurations and instances, that every
round the engine runs is feasible, budget-balanced and scored exactly, and
that the exact solver agrees with subset enumeration.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    reference_budget,
    reference_cost,
    reference_costs,
    reference_greedy,
    reference_heuristic_winners,
    reference_optimum,
    reference_value,
    transfer_cost,
)

from faircda import engine
from faircda.engine import EngineConfig, run_simulation
from faircda.model import (
    ConsumerBid,
    ExtendedConsumerBid,
    FairnessParams,
    MarketShape,
    ProviderBid,
)
from faircda.pricing import settle
from faircda.scenario import ScenarioConfig
from faircda.wdp_solver import (
    WdpInstance,
    _breakpoint_cost,
    _greedy_pass,
    _HeuristicState,
    _ranked,
    _route,
    solve_exact,
    solve_heuristic,
    validate_solution,
)

# Consecutive primes above 10**6: any four of them multiply past 2**63.
P = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121, 1000133, 1000151)


def consumer(cid, prices, quantities, ff=Fraction(0)):
    return ExtendedConsumerBid(
        bid=ConsumerBid(cid, tuple(prices), tuple(quantities)), fairness_factor=ff
    )


def coprime_instance():
    """Six consumers, three providers, two types; every price on its own prime grid."""
    F = Fraction
    return WdpInstance.from_bids(
        [
            consumer(0, [F(12 * P[0] + 1, P[0]), F(9 * P[1] + 7, P[1])], [2, 1], F(-3, P[6])),
            consumer(1, [F(11 * P[1] + 5, P[1]), F(10 * P[2] + 3, P[2])], [1, 2]),
            consumer(
                2, [F(13 * P[2] + 2, P[2]), F(8 * P[3] + 1, P[3])], [1, 1], F(5 * P[7] + 1, P[7])
            ),
            consumer(3, [F(9 * P[3] + 4, P[3]), F(12 * P[4] + 9, P[4])], [3, 0]),
            consumer(4, [F(10 * P[4] + 8, P[4]), F(11 * P[5] + 6, P[5])], [0, 2], F(2, P[8])),
            consumer(5, [F(14 * P[5] + 1, P[5]), F(7 * P[0] + 2, P[0])], [1, 3]),
        ],
        [
            ProviderBid(0, (F(9 * P[6] + 5, P[6]), F(8 * P[7] + 3, P[7])), (3, 2)),
            ProviderBid(1, (F(10 * P[8] + 1, P[8]), F(7 * P[9] + 4, P[9])), (2, 3)),
            ProviderBid(2, (F(8 * P[9] + 2, P[9]), F(9 * P[6] + 1, P[6])), (1, 2)),
        ],
    )


# Recorded with the all-Fraction implementation, before prices were scaled.
RECORDED_WINNERS = (True, True, True, False, True, False)
RECORDED_TRANSFERS = [
    [[2, 0, 0], [0, 1, 0]],
    [[0, 0, 1], [1, 1, 0]],
    [[1, 0, 0], [0, 1, 0]],
    [[0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [1, 0, 1]],
    [[0, 0, 0], [0, 0, 0]],
]
RECORDED_OBJECTIVE = Fraction(
    "31022729050761957525990074631561861863468780339571783624"
    "/1000733227378794904338730120912081757583097498286973133"
)
RECORDED_UTILITY = Fraction(
    "26015602838726449825764326291861230063145156669807"
    "/1000600147559169534790602970716976399721934481001"
)
RECORDED_SATISFACTION = Fraction("5001855229028410001/1000371045812882881")
# The heuristic's winners are optimal here, and the Lagrangian bound at its
# final demand equals their objective, so its gap is 0.  The bound at zero
# demand alone, reported before, left 7002727352356107461/1000389050097137707.
RECORDED_HEURISTIC_GAP = Fraction(0)
RECORDED_PAYMENTS = {
    0: "58017656595031682568176765/2000608054829325091498066",
    1: "27009245042999699158558733/1000342038533611104308891",
    2: "37012741463576179095055291/2000688078959458882986962",
    3: "0",
    4: "39013160474819876789/2000674075440803086",
    5: "0",
}
RECORDED_RECEIPTS = {
    0: "101038116192160596930318759523775/2000754102625895540497369142546",
    1: "48012503983498109021006573/2000520040821288454380938",
    2: "39015616200637539346506497/2000800112626415315436178",
}
RECORDED_CONSUMER_UTILITIES = {
    0: "8002427219334410092333471/2000608054829325091498066",
    1: "4001369154917550239014681/1000342038533611104308891",
    2: "5001714196410625093734321/2000688078959458882986962",
    3: "0",
    4: "5001693190590130871/2000674075440803086",
    5: "0",
}
RECORDED_PROVIDER_UTILITIES = {
    0: "15005647768374217959976879075671/2000754102625895540497369142546",
    1: "6001559123634956653864019/2000520040821288454380938",
    2: "5002008284426357739575881/2000800112626415315436178",
}
RECORDED_TRADE_PRICES = {
    (0, 0, 0): "21002526007503/2000240000702",
    (0, 1, 1): "16002955080917/2000368009966",
    (1, 0, 2): "9501751547749/1000184004983",
    (1, 1, 0): "9001425040530/1000158004477",
    (1, 1, 1): "8501601547790/1000188005587",
    (2, 0, 0): "22003395095657/2000308008658",
    (2, 1, 1): "7501427544321/1000190005889",
    (4, 1, 0): "9502094614312/1000220011979",
    (4, 1, 2): "20004327232461/2000432023166",
}


def as_fractions(recorded):
    return {key: Fraction(value) for key, value in recorded.items()}


class TestBeyondInt64:
    def test_common_denominator_exceeds_int64(self):
        inst = coprime_instance()
        prices = [p for ext in inst.consumer_bids for p in ext.bid.unit_prices]
        prices += [p for pb in inst.provider_bids for p in pb.unit_prices]
        assert math.lcm(*(p.denominator for p in prices)) > 2**63

    def test_budgets_are_each_bids_price_quantity_product(self):
        inst = coprime_instance()
        sc = inst._scaled
        assert sc.consumer_prices.dtype == object
        budgets = [Fraction(b, sc.denominator) for b in sc.budgets]
        assert budgets == [reference_budget(ext.bid) for ext in inst.consumer_bids]
        assert all(type(b) is int for b in sc.budgets)

    def test_solvers_return_the_recorded_results(self):
        inst = coprime_instance()
        for solve, optimality in (
            (solve_exact, "proved_optimal"),
            (solve_heuristic, "heuristic"),
        ):
            sol = solve(inst)
            assert sol.optimality == optimality
            assert sol.allocation.winners == RECORDED_WINNERS
            assert sol.allocation.transfers.tolist() == RECORDED_TRANSFERS
            assert sol.objective == RECORDED_OBJECTIVE
            assert sol.total_utility == RECORDED_UTILITY
            assert sol.total_satisfaction == RECORDED_SATISFACTION
        assert solve_heuristic(inst).gap_bound == RECORDED_HEURISTIC_GAP
        winners = [n for n, won in enumerate(RECORDED_WINNERS) if won]
        assert reference_optimum(inst) == (winners, RECORDED_OBJECTIVE)

    def test_settlement_returns_the_recorded_flows(self):
        inst = coprime_instance()
        s = settle(inst, solve_exact(inst).allocation)
        assert s.consumer_payments == as_fractions(RECORDED_PAYMENTS)
        assert s.provider_receipts == as_fractions(RECORDED_RECEIPTS)
        assert s.consumer_utilities == as_fractions(RECORDED_CONSUMER_UTILITIES)
        assert s.provider_utilities == as_fractions(RECORDED_PROVIDER_UTILITIES)
        assert s.unit_trade_prices == as_fractions(RECORDED_TRADE_PRICES)
        assert s.total_payments() == s.total_receipts()

    def test_large_magnitudes_on_a_small_grid(self):
        """Prices near 2**62 with denominator 1 take the same path as wide grids."""
        big = 2**62
        inst = WdpInstance.from_bids(
            [consumer(0, [Fraction(big + 7)], [3]), consumer(1, [Fraction(big + 1)], [2])],
            [ProviderBid(0, (Fraction(big),), (4,)), ProviderBid(1, (Fraction(big + 2),), (1,))],
        )
        sol = solve_exact(inst)
        assert sol.allocation.winners == (True, False)
        assert sol.objective == reference_optimum(inst)[1] == 3 * (big + 7) - 3 * big
        s = settle(inst, sol.allocation)
        assert s.consumer_payments[0] == Fraction(3 * (2 * big + 7), 2)
        assert s.total_payments() == s.total_receipts()


class TestRoutingOrder:
    """Per type, winners are served by ascending (price, position), cheapest units first."""

    def test_lower_price_is_served_first(self):
        inst = WdpInstance.from_bids(
            [consumer(0, [Fraction(10)], [1]), consumer(1, [Fraction(6)], [1])],
            [ProviderBid(0, (Fraction(5),), (1,)), ProviderBid(1, (Fraction(3),), (1,))],
        )
        y = _route(inst, [0, 1])
        assert y[:, 0, :].tolist() == [[1, 0], [0, 1]]

    def test_equal_prices_are_served_in_position_order(self):
        inst = WdpInstance.from_bids(
            [consumer(n, [Fraction(10, 3)], [1]) for n in range(3)],
            [ProviderBid(0, (Fraction(3),), (2,)), ProviderBid(1, (Fraction(1),), (1,))],
        )
        y = _route(inst, [0, 1, 2])
        assert y[:, 0, :].tolist() == [[0, 1], [1, 0], [1, 0]]


# --- generated configurations run every round feasibly and exactly ----------

GRID_FRACTIONS = st.fractions(min_value=0, max_value=300, max_denominator=400)


@st.composite
def scenario_configs(draw):
    """ScenarioConfig arguments, valid or not; invalid ones are discarded."""
    shape = MarketShape(draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    plo = draw(st.integers(0, 6))
    clo = draw(st.integers(0, 3))
    kwargs = dict(
        shape=shape,
        runs=1,
        provider_quantity_range=(plo, plo + draw(st.integers(0, 8))),
        consumer_quantity_range=(clo, clo + draw(st.integers(0, 3))),
        provider_price_range=tuple(sorted((draw(GRID_FRACTIONS), draw(GRID_FRACTIONS)))),
        consumer_price_range=tuple(sorted((draw(GRID_FRACTIONS), draw(GRID_FRACTIONS)))),
        price_drift=draw(st.fractions(min_value=0, max_value=Fraction(3, 2), max_denominator=50)),
    )
    try:
        return ScenarioConfig(**kwargs)
    except ValueError:
        assume(False)


def run_checked(config, solver, fairness, max_losses=FairnessParams().max_losses, seed=0):
    """The instances a 5-round run of ``config`` clears, each solution
    checked feasible and scored exactly, each settlement budget-balanced."""
    rounds = []
    solve = getattr(engine, f"solve_{solver}")

    def checked_solve(instance, *args):
        sol = solve(instance, *args)
        assert validate_solution(instance, sol.allocation) == []
        value = reference_value(instance, sol.winner_positions)
        assert sol.objective == value - transfer_cost(instance, sol.allocation.transfers)
        rounds.append(instance)
        return sol

    def checked_settle(instance, allocation):
        s = settle(instance, allocation)
        assert s.total_payments() == s.total_receipts()
        return s

    engine_config = EngineConfig(
        fairness_enabled=fairness,
        fairness_params=FairnessParams(max_losses=max_losses),
        solver_mode=solver,
        rounds=5,
        master_seed=seed,
    )
    with mock.patch.object(engine, f"solve_{solver}", checked_solve), mock.patch.object(
        engine, "settle", checked_settle
    ):
        report = run_simulation(config, engine_config)
    assert len(report.per_round) == len(rounds) == 5
    return rounds


class TestConfigsThatValidateRunClean:
    @settings(max_examples=60, deadline=None)
    @given(
        config=scenario_configs(),
        solver=st.sampled_from(["heuristic", "exact"]),
        fairness=st.booleans(),
        max_losses=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_every_round_is_feasible_balanced_and_exact(
        self, config, solver, fairness, max_losses, seed
    ):
        run_checked(config, solver, fairness, max_losses, seed)

    @pytest.mark.parametrize("solver", ["heuristic", "exact"])
    def test_prices_past_int64_run_clean_on_python_ints(self, solver):
        """The drawn configurations all fit int64; this market's scaled
        prices do not in most rounds, so the checks run on ``object`` prices."""
        config = ScenarioConfig(
            shape=MarketShape(10, 2, 2),
            runs=1,
            consumer_price_range=("1e14", "2e14"),
            provider_price_range=("5e13", "1e14"),
        )
        rounds = run_checked(config, solver, fairness=True)
        assert any(instance._scaled.consumer_prices.dtype == object for instance in rounds)


# --- generated instances: exact against enumeration, heuristic against its loop

NON_DECIMAL = st.builds(Fraction, st.integers(0, 90), st.sampled_from([1, 3, 7, 11, 13]))
FACTORS = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 3, 9, 17]))
WIDE_GRID = st.builds(Fraction, st.integers(0, 30 * P[0]), st.sampled_from(P))


@st.composite
def instances(draw, prices, max_consumers):
    N = draw(st.integers(0, max_consumers))
    M = draw(st.integers(1, 3))
    L = draw(st.integers(1, 3))
    consumers = []
    for n in range(N):
        quantities = draw(st.lists(st.integers(0, 3), min_size=L, max_size=L))
        if not any(quantities):
            quantities[draw(st.integers(0, L - 1))] = 1
        consumers.append(
            consumer(
                n,
                draw(st.lists(prices, min_size=L, max_size=L)),
                quantities,
                draw(FACTORS),
            )
        )
    providers = [
        ProviderBid(
            m,
            tuple(draw(st.lists(prices, min_size=L, max_size=L))),
            tuple(draw(st.lists(st.integers(0, 6), min_size=L, max_size=L))),
        )
        for m in range(M)
    ]
    return WdpInstance(consumer_bids=consumers, provider_bids=providers)


def with_empty_provider(inst, price, data):
    """``inst`` with one more provider, with no supply of any type, between the others."""
    L = inst.shape.num_resource_types
    providers = list(inst.provider_bids)
    at = data.draw(st.integers(0, len(providers)))
    providers.insert(at, ProviderBid(len(providers), (price,) * L, (0,) * L))
    return WdpInstance.from_bids(inst.consumer_bids, providers)


def with_consumer_infeasible_alone(inst, price, data):
    """``inst`` with one more consumer, between the others, who wants more of
    one type than all providers hold: they never win, whatever their factor."""
    L = inst.shape.num_resource_types
    l = data.draw(st.integers(0, L - 1))
    quantities = [0] * L
    quantities[l] = sum(pb.quantities[l] for pb in inst.provider_bids) + 1
    consumers = list(inst.consumer_bids)
    at = data.draw(st.integers(0, len(consumers)))
    consumers.insert(at, consumer(len(consumers), [price] * L, quantities, Fraction(40)))
    return WdpInstance.from_bids(consumers, inst.provider_bids)


class TestGeneratedInstances:
    @settings(max_examples=80, deadline=None)
    @given(instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=9))
    def test_exact_matches_enumeration(self, inst):
        exact = solve_exact(inst)
        winners, objective = reference_optimum(inst)
        assert exact.optimality == "proved_optimal"
        assert (list(exact.winner_positions), exact.objective) == (winners, objective)
        assert exact.total_satisfaction == sum(
            inst.consumer_bids[n].fairness_factor for n in winners
        )
        assert validate_solution(inst, exact.allocation) == []
        assert transfer_cost(inst, exact.allocation.transfers) == reference_cost(inst, winners)

    @settings(max_examples=60, deadline=None)
    @given(instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=12))
    def test_budgets_are_each_bids_price_quantity_product(self, inst):
        sc = inst._scaled
        assert len(sc.budgets) == inst.shape.num_consumers
        for b, ext in zip(sc.budgets, inst.consumer_bids):
            assert Fraction(b, sc.denominator) == reference_budget(ext.bid)
            assert type(b) is int

    @settings(max_examples=60, deadline=None)
    @given(
        instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=3),
        st.one_of(NON_DECIMAL, WIDE_GRID),
        st.data(),
    )
    def test_heuristic_costs_are_exact_over_the_denominator(self, inst, price, data):
        inst = with_empty_provider(inst, price, data)
        L = inst.shape.num_resource_types
        sc = inst._scaled
        D = sc.denominator
        state = _HeuristicState(inst)
        references = [[c * D for c in reference_costs(inst, l)] for l in range(L)]
        for x in range(max(len(r) for r in references)):
            state.cumdem = [x if at in sc.demand_at else v for at, v in enumerate(state.cumdem)]
            state._refresh()
            for l, reference in enumerate(references):
                if x >= len(reference):
                    continue
                # The evaluator, and the costs the refresh derives from it.
                assert _breakpoint_cost(*sc.tables[l], x)[1] == reference[x]
                assert state.cost[l] == reference[x]
                for s, q in enumerate(state.distinct[l]):
                    if x + q < len(reference):
                        marginal = state.reads[state.slot_start[l] + s]
                        assert marginal == reference[x + q] - reference[x]

    @settings(max_examples=150, deadline=None)
    @given(
        instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=10),
        st.one_of(NON_DECIMAL, WIDE_GRID),
        st.data(),
    )
    def test_a_rejection_is_final_while_the_state_only_admits(self, inst, price, data):
        # The repair's scans rest on this: a scan re-tests only the
        # candidates that passed.
        inst = with_empty_provider(inst, price, data)
        L, M = inst.shape.num_resource_types, inst.shape.num_providers
        state = _HeuristicState(inst)
        pool = state.pool(np.flatnonzero(inst._scaled.feasible_alone))

        def room_fits_and_marginal_costs():
            fits = (pool.quantities <= state.reads.take(pool.index[:L])).all(axis=0)
            return state.reads[: L * M], fits, state.reads.take(pool.index[L:]).sum(axis=0)

        room, _, marginal = room_fits_and_marginal_costs()
        rejected = set()
        while len(pool.ids):
            passed = state.admissible(pool)
            assert not rejected & set(pool.ids[passed].tolist())
            rejected |= set(pool.ids[~passed].tolist())
            if not passed.any():
                break
            n = data.draw(st.sampled_from(pool.ids[passed].tolist()))
            state.add(n)
            marginal = marginal[pool.ids != n]
            pool = state.pool(pool.ids[pool.ids != n])
            # The cause, checked directly: room never grows, and the
            # marginal cost of a candidate that still fits never falls.
            now_room, fits, now = room_fits_and_marginal_costs()
            assert (now_room <= room).all()
            assert (now[fits] >= marginal[fits]).all()
            room, marginal = now_room, now

    @settings(max_examples=150, deadline=None)
    @given(
        instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=10),
        st.one_of(NON_DECIMAL, WIDE_GRID),
        st.data(),
    )
    def test_an_add_ended_by_the_floor_leaves_nobody_who_fits(self, inst, price, data):
        # The repair's scans rest on this: an add that the rest of the pool's
        # floor ends skips the refresh and the re-test, which would find
        # nobody who fits.
        inst = with_empty_provider(inst, price, data)
        L = inst.shape.num_resource_types
        state = _HeuristicState(inst)
        pool = state.pool(np.flatnonzero(inst._scaled.feasible_alone))
        while len(pool.ids) > 1 and (passed := state.admissible(pool)).any():
            n = data.draw(st.sampled_from(pool.ids[passed].tolist()))
            pool = state.pool(pool.ids[pool.ids != n])
            refreshed = state.add(n, pool.floor)
            state._refresh()
            fits = (pool.quantities <= state.reads.take(pool.index[:L])).all(axis=0)
            assert refreshed or not fits.any()

    @settings(max_examples=150, deadline=None)
    @given(
        instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=8),
        st.one_of(NON_DECIMAL, WIDE_GRID),
        st.data(),
    )
    def test_state_equals_a_recomputation_after_any_updates(self, inst, price, data):
        """Room, costs and the pool test after adds, removes, saves and
        restores.  An add that nobody is left to test after updates the
        demand and costs only: the room and marginal costs are read again
        only after the next refresh."""
        inst = with_empty_provider(inst, price, data)
        M, L = inst.shape.num_providers, inst.shape.num_resource_types
        D = inst._scaled.denominator
        bids = [ext.bid for ext in inst.consumer_bids]
        costs = [reference_costs(inst, l) for l in range(L)]
        references = [[c * D for c in costs[l]] for l in range(L)]
        cumsup, reach = [], []
        for l in range(L):
            order = sorted(inst.provider_bids, key=lambda pb: pb.unit_prices[l])
            cumsup.append([sum(pb.quantities[l] for pb in order[:k]) for k in range(M + 1)])
            reach.append(
                [sum(pb.unit_prices[l] <= bid.unit_prices[l] for pb in order) for bid in bids]
            )

        def room_from_scratch(winners):
            """``room[l][k]``: the least slack of the supply prefixes from ``k + 1`` on."""
            room = []
            for l in range(L):
                demand = [
                    sum(bids[n].quantities[l] for n in winners if reach[l][n] <= k + 1)
                    for k in range(M)
                ]
                slack = [cumsup[l][k + 1] - demand[k] for k in range(M)]
                room.append([min(slack[k:]) for k in range(M)])
            return room

        def admissible_one_by_one(room, demand, n):
            for l in range(L):
                q = bids[n].quantities[l]
                if q and q > room[l][reach[l][n] - 1]:
                    return False
            marginal = sum(
                costs[l][demand[l] + bids[n].quantities[l]] - costs[l][demand[l]]
                for l in range(L)
            )
            ext = inst.consumer_bids[n]
            return marginal <= reference_budget(ext.bid) + ext.fairness_factor

        state = _HeuristicState(inst)
        winners, saved, stale = set(), [], False
        candidates = np.flatnonzero(inst._scaled.feasible_alone)
        for _ in range(data.draw(st.integers(0, 12))):
            room = room_from_scratch(winners)
            addable = [
                n for n in candidates.tolist()
                if n not in winners
                and all(
                    bids[n].quantities[l] <= room[l][reach[l][n] - 1]
                    for l in range(L)
                    if bids[n].quantities[l]
                )
            ]
            ops = ["save"] + ["add"] * bool(addable) + ["remove"] * bool(winners)
            op = data.draw(st.sampled_from(ops + ["restore"] * bool(saved)))
            if op == "add":
                n = data.draw(st.sampled_from(addable))
                stale = data.draw(st.booleans())
                assert state.add(n, None if stale else ()) is not stale
                winners = winners | {n}
            elif op == "remove":
                n = data.draw(st.sampled_from(sorted(winners)))
                state.remove(n)
                winners, stale = winners - {n}, False
            elif op == "save":
                saved.append((state.save(), winners, stale))
            else:
                snapshot, winners, stale = data.draw(st.sampled_from(saved))
                state.restore(snapshot)

            room = room_from_scratch(winners)
            demand = [sum(bids[n].quantities[l] for n in winners) for l in range(L)]
            assert state.cost == [references[l][demand[l]] for l in range(L)]
            if stale:
                continue
            assert state.reads[: L * M].reshape(L, M)[:, ::-1].tolist() == room
            for l in range(L):
                for s, q in enumerate(state.distinct[l]):
                    if demand[l] + q < len(references[l]):
                        assert (
                            state.reads[state.slot_start[l] + s]
                            == references[l][demand[l] + q] - references[l][demand[l]]
                        )
            pool = state.pool(np.array([n for n in candidates if n not in winners], dtype=np.intp))
            expected = [admissible_one_by_one(room, demand, n) for n in pool.ids.tolist()]
            assert state.admissible(pool).tolist() == expected

    def test_near_tie_is_not_admitted_at_a_loss(self):
        # B's value, 10 - 1/10**10, falls short of the 10 its unit costs
        # once A has taken the cheaper one.
        inst = WdpInstance.from_bids(
            [
                consumer(0, [Fraction(20)], [1]),
                consumer(1, [Fraction(10)], [1], Fraction(-1, 10**10)),
            ],
            [ProviderBid(0, (Fraction(5),), (1,)), ProviderBid(1, (Fraction(10),), (1,))],
        )
        sol = solve_heuristic(inst)
        assert sol.winner_positions == (0,)
        assert sol.objective == solve_exact(inst).objective == 15
        assert reference_heuristic_winners(inst) == [0]

    @pytest.mark.parametrize(
        "prices, dtype", [(NON_DECIMAL, np.int64), (WIDE_GRID, object)], ids=["int64", "object"]
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_greedy_pass_is_the_scalar_greedy_pass(self, prices, dtype, data):
        # The greedy pass both solvers run: solve_exact's whole seed on a
        # search that no budget can truncate, and solve_heuristic's first pass.
        inst = data.draw(instances(prices, max_consumers=10))
        price = data.draw(prices)
        inst = with_consumer_infeasible_alone(with_empty_provider(inst, price, data), price, data)
        assume(inst._scaled.cumsup.dtype == dtype)
        winners, demand, cost = _greedy_pass(inst, _ranked(inst)[0])
        expected, cumdem, expected_cost = reference_greedy(inst)
        assert winners == expected
        # The pass's demand is flat by type, each type's providers last first.
        assert demand == [d for row in cumdem for d in reversed(row)]
        assert Fraction(cost, inst._scaled.denominator) == expected_cost

    @settings(max_examples=120, deadline=None)
    @given(instances(st.one_of(NON_DECIMAL, WIDE_GRID), max_consumers=12))
    def test_heuristic_matches_the_scalar_loop(self, inst):
        sol = solve_heuristic(inst)
        expected = reference_heuristic_winners(inst)
        assert sol.winner_positions == tuple(expected)
        assert validate_solution(inst, sol.allocation) == []
        assert transfer_cost(inst, sol.allocation.transfers) == reference_cost(inst, expected)
        s = settle(inst, sol.allocation)
        assert s.total_payments() == s.total_receipts()
