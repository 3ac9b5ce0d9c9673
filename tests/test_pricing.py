"""Midpoint pricing: exact budget balance and individual rationality."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from micro import random_micro_instance
from oracles import reference_budget, transfer_cost

from faircda.model import Allocation, ConsumerBid, ExtendedConsumerBid, ProviderBid
from faircda.pricing import settle
from faircda.wdp_solver import WdpInstance, solve_exact, solve_heuristic

MAPS = (
    "unit_trade_prices",
    "consumer_payments",
    "provider_receipts",
    "consumer_utilities",
    "provider_utilities",
)
PRICES = st.fractions(min_value=0, max_value=60, max_denominator=13)


def micro_instance(consumer_price, provider_price, quantity, supply=None):
    bid = ConsumerBid(0, (Fraction(consumer_price),), (quantity,))
    pb = ProviderBid(0, (Fraction(provider_price),), (supply if supply is not None else quantity,))
    return WdpInstance.from_bids([ExtendedConsumerBid(bid=bid)], [pb])


def unit_price(consumer_price, provider_price):
    """The price :func:`settle` gives one unit that the consumer buys from the provider."""
    inst = micro_instance(consumer_price, provider_price, 1)
    s = settle(inst, Allocation(winners=(True,), transfers=np.ones((1, 1, 1), dtype=np.int64)))
    return s.unit_trade_prices[(0, 0, 0)]


class TestTradePriceUnit:
    def test_midpoint(self):
        assert unit_price(100, 50) == 75

    def test_equal_prices(self):
        assert unit_price(80, 80) == 80

    def test_wide_spread(self):
        assert unit_price(250, 50) == 150

    def test_incompatible_pair_rejected(self):
        with pytest.raises(ValueError, match="price compatibility"):
            unit_price(4, 5)

    @given(
        pp=st.fractions(min_value=0, max_value=1000),
        spread=st.fractions(min_value=0, max_value=1000),
    )
    def test_lies_between_the_suggested_prices(self, pp, spread):
        cp = pp + spread
        price = unit_price(cp, pp)
        assert pp <= price <= cp


class TestSettle:
    def test_two_units_at_midpoint(self):
        inst = micro_instance(100, 50, 2)
        alloc = Allocation(winners=(True,), transfers=np.array([[[2]]]))
        s = settle(inst, alloc)
        assert s.consumer_payments[0] == 150
        assert s.provider_receipts[0] == 150
        assert s.consumer_utilities[0] == 50
        assert s.provider_utilities[0] == 50
        assert s.unit_trade_prices[(0, 0, 0)] == 75

    def test_empty_allocation_settles_to_zero(self):
        inst = micro_instance(100, 50, 2)
        nothing = Allocation(winners=(False,), transfers=np.zeros((1, 1, 1), dtype=np.int64))
        s = settle(inst, nothing)
        assert s.consumer_payments == {0: 0}
        assert s.provider_receipts == {0: 0}
        assert s.consumer_utilities == {0: 0}
        assert s.provider_utilities == {0: 0}
        assert s.unit_trade_prices == {}

    def test_equal_prices_yield_zero_surplus(self):
        inst = micro_instance(80, 80, 3)
        alloc = Allocation(winners=(True,), transfers=np.array([[[3]]]))
        s = settle(inst, alloc)
        assert s.consumer_payments[0] == 240
        assert s.consumer_utilities[0] == 0
        assert s.provider_utilities[0] == 0

    def test_infeasible_allocation_rejected(self):
        inst = micro_instance(100, 50, 2, supply=1)
        bad = Allocation(winners=(True,), transfers=np.array([[[2]]]))
        with pytest.raises(ValueError, match="cannot settle"):
            settle(inst, bad)

    def test_infeasible_allocation_rejected_with_details(self):
        inst = micro_instance(100, 50, 1)
        bad = Allocation(winners=(True,), transfers=np.zeros((1, 1, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="(?s)infeasible allocation:\n  .*demand exactness"):
            settle(inst, bad)


class TestSettlementInvariants:
    def solved_settlements(self, count=40, seed=13):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            inst = random_micro_instance(rng)
            sol = solve_exact(inst)
            yield inst, sol, settle(inst, sol.allocation)

    def test_budget_balance_is_exact(self):
        for _, _, s in self.solved_settlements():
            assert s.total_payments() == s.total_receipts()

    def test_individual_rationality(self):
        for _, _, s in self.solved_settlements():
            assert all(u >= 0 for u in s.consumer_utilities.values())
            assert all(u >= 0 for u in s.provider_utilities.values())

    def test_per_unit_surplus_split_is_symmetric(self):
        for inst, sol, s in self.solved_settlements():
            y = sol.allocation.transfers
            for n, l, m in np.argwhere(y > 0):
                cp = inst.consumer_bids[n].bid.unit_prices[l]
                pp = inst.provider_bids[m].unit_prices[l]
                price = s.unit_trade_prices[
                    (inst.consumer_bids[n].consumer_id, int(l), inst.provider_bids[m].provider_id)
                ]
                assert cp - price == price - pp

    def test_settlement_utilities_sum_to_wdp_total_utility(self):
        # Trade prices cancel: settlement utilities must reproduce the
        # objective's utility term exactly, the winners' budgets less what
        # their units cost.
        for inst, sol, s in self.solved_settlements():
            budgets = sum(reference_budget(inst.consumer_bids[n].bid) for n in sol.winner_positions)
            total_utility = budgets - transfer_cost(inst, sol.allocation.transfers)
            assert s.total_utility() == total_utility == sol.total_utility


@st.composite
def solved_instances(draw):
    """A small instance with rational prices and its heuristic or exact allocation."""
    N, M, L = draw(st.integers(0, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    quantities = st.lists(st.integers(0, 3), min_size=L, max_size=L)
    prices = st.lists(PRICES, min_size=L, max_size=L)
    consumers = []
    for n in range(N):
        q = draw(quantities)
        q[0] += not any(q)
        bid = ConsumerBid(n + 10, tuple(draw(prices)), tuple(q))
        consumers.append(ExtendedConsumerBid(bid, draw(st.integers(-20, 20))))
    providers = [ProviderBid(m + 20, tuple(draw(prices)), tuple(draw(quantities))) for m in range(M)]
    instance = WdpInstance(tuple(consumers), tuple(providers))
    solve = draw(st.sampled_from([solve_heuristic, solve_exact]))
    return instance, solve(instance).allocation


def eager_settlement(instance, allocation):
    """The five maps, built unit by unit from the bids at midpoint prices."""
    cids = [ext.consumer_id for ext in instance.consumer_bids]
    pids = [pb.provider_id for pb in instance.provider_bids]
    maps = {"unit_trade_prices": {}}
    for name, ids in zip(MAPS[1:], (cids, pids, cids, pids)):
        maps[name] = dict.fromkeys(ids, Fraction(0))
    y = allocation.transfers
    for n, l, m in zip(*np.nonzero(y)):
        cp = instance.consumer_bids[n].bid.unit_prices[l]
        pp = instance.provider_bids[m].unit_prices[l]
        price = (cp + pp) / 2
        units = int(y[n, l, m])
        maps["unit_trade_prices"][(cids[n], int(l), pids[m])] = price
        maps["consumer_payments"][cids[n]] += units * price
        maps["provider_receipts"][pids[m]] += units * price
        maps["consumer_utilities"][cids[n]] += units * (cp - price)
        maps["provider_utilities"][pids[m]] += units * (price - pp)
    return maps


class TestLazySettlement:
    @settings(max_examples=80, deadline=None)
    @given(solved_instances())
    def test_maps_equal_an_eager_reference_and_are_built_on_first_read(self, case):
        instance, allocation = case
        s = settle(instance, allocation)
        assert not set(MAPS) & set(vars(s))
        reference = eager_settlement(instance, allocation)
        for name in MAPS:
            assert getattr(s, name) == reference[name], name
            assert getattr(s, name) is getattr(s, name)
        assert all(type(v) is Fraction for name in MAPS for v in getattr(s, name).values())
        assert s.total_payments() == s.total_receipts()
        assert s.total_payments() == sum(reference["provider_receipts"].values())
