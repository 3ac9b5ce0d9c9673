"""Domain type invariants, and the records and budgets the program derives from them."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from faircda import model
from faircda.model import (
    Allocation,
    ConsumerBid,
    ExtendedConsumerBid,
    FairnessParams,
    MarketShape,
    ParticipantRecord,
    ProviderBid,
    as_money,
)
from faircda.engine import (
    EngineConfig,
    Repository,
    repository_to_dict,
    run_round,
    update_repository,
)
from faircda.wdp_solver import WdpInstance


class TestMarketShape:
    def test_counts_stored(self):
        shape = MarketShape(3, 2, 4)
        assert (shape.num_consumers, shape.num_providers, shape.num_resource_types) == (3, 2, 4)

    @pytest.mark.parametrize("bad", [(-1, 1, 1), (1, -2, 1), (1, 1, -1)])
    def test_negative_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            MarketShape(*bad)

    @pytest.mark.parametrize("bad", [(True, 1, 1), (1, 2.0, 1)])
    def test_non_integer_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            MarketShape(*bad)

    def test_degenerate_empty_market_allowed(self):
        # Edge markets (all consumers dropped) stay representable.
        assert MarketShape(0, 1, 1).num_consumers == 0


class TestConsumerBid:
    def test_all_zero_request_rejected(self):
        with pytest.raises(ValueError, match="no resources"):
            ConsumerBid(0, (Fraction(10), Fraction(20)), (0, 0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ConsumerBid(0, (Fraction(10),), (1, 2))

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConsumerBid(0, (Fraction(-1),), (1,))

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConsumerBid(0, (Fraction(1), Fraction(1)), (2, -1))

    def test_prices_coerced_to_fractions(self):
        bid = ConsumerBid(0, (10, "1/2"), (1, 1))
        assert bid.unit_prices == (Fraction(10), Fraction(1, 2))

    @pytest.mark.parametrize("bad", ["x", "1/0"])
    def test_unreadable_price_names_the_prices(self, bad):
        with pytest.raises(ValueError, match="consumer unit prices must be numbers"):
            ConsumerBid(0, (bad,), (1,))

    @pytest.mark.parametrize("bad", ["a", None, float("inf")])
    def test_unreadable_quantity_names_the_quantities(self, bad):
        with pytest.raises(ValueError, match="consumer quantities must be integers"):
            ConsumerBid(0, (1,), (bad,))


class TestProviderBid:
    def test_all_zero_supply_allowed(self):
        pb = ProviderBid(0, (Fraction(5), Fraction(6)), (0, 0))
        assert pb.quantities == (0, 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ProviderBid(0, (Fraction(5),), (1, 2))

    def test_unreadable_values_name_their_field(self):
        with pytest.raises(ValueError, match="provider unit prices must be numbers"):
            ProviderBid(0, ("1/0",), (1,))
        with pytest.raises(ValueError, match="provider quantities must be integers"):
            ProviderBid(0, (1,), ("a",))


# One provider with ample supply of two types.  Asking nothing, it sells to
# every bid; asking more than any bid here offers, it sells to none.
FREE = ProviderBid(0, (0, 0), (100, 100))
DEAR = ProviderBid(0, (1000, 1000), (100, 100))


def folded(record: ParticipantRecord, prices, provider: ProviderBid) -> ParticipantRecord:
    """``record`` after ``update_repository`` folds a round in which its
    consumer bid ``prices`` for one unit of each type against ``provider``."""
    repo = Repository(records={0: record}, round_counter=record.wins + record.losses)
    bid = ConsumerBid(0, prices, (1, 1))
    config = EngineConfig(fairness_enabled=False)
    result = run_round(repo, [bid], [provider], config, np.random.default_rng(0))
    return update_repository(repo, result).records[0]


class TestParticipantRecord:
    def test_streak_cannot_exceed_losses(self):
        with pytest.raises(ValueError, match="consecutive_losses"):
            ParticipantRecord(wins=0, losses=1, consecutive_losses=2)

    @pytest.mark.parametrize(
        "fields",
        [{"wins": True}, {"losses": 1.0}, {"dropped_at_round": 0}, {"dropped_at_round": True}],
    )
    def test_counts_from_json_must_be_integers(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            ParticipantRecord(**fields)

    def test_win_resets_streak(self):
        rec = ParticipantRecord(wins=1, losses=5, consecutive_losses=5)
        after = folded(rec, (Fraction(10), Fraction(10)), FREE)
        assert after.wins == 2 and after.consecutive_losses == 0
        assert after.price_history[-1] == (Fraction(10), Fraction(10))

    def test_loss_extends_streak(self):
        rec = ParticipantRecord(losses=2, consecutive_losses=1)
        after = folded(rec, (Fraction(7), Fraction(7)), DEAR)
        assert after.losses == 3 and after.consecutive_losses == 2

    def test_drop_mark_is_permanent(self):
        rec = ParticipantRecord(losses=7, consecutive_losses=7).marked_dropped(7)
        assert rec.dropped_at_round == 7
        assert rec.marked_dropped(9).dropped_at_round == 7

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0])
    def test_drop_round_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="dropped_at_round"):
            ParticipantRecord(losses=1, consecutive_losses=1).marked_dropped(bad)

    def test_constructor_validates_every_history_entry(self):
        with pytest.raises(ValueError, match="price history entry"):
            ParticipantRecord(price_history=((Fraction(1),), (Fraction(-1),)))

    def test_unreadable_history_entry_names_itself(self):
        with pytest.raises(ValueError, match="price history entry must be numbers"):
            ParticipantRecord(price_history=(("x",),))

    def test_appends_reject_a_negative_entry(self):
        # The fold appends a bid's prices, and no bid holds a negative price.
        for provider in (FREE, DEAR):
            with pytest.raises(ValueError, match="consumer unit prices must be non-negative"):
                folded(ParticipantRecord(), (Fraction(3), Fraction(-1)), provider)

    def test_append_validates_only_the_new_entry(self, monkeypatch):
        history = tuple((Fraction(k), Fraction(k, 2)) for k in range(200))
        rec = ParticipantRecord(wins=120, losses=80, price_history=history)
        checked = []
        real = model._money_tuple

        def counting(values, what):
            checked.append(tuple(values))
            return real(values, what)

        monkeypatch.setattr(model, "_money_tuple", counting)
        after = folded(folded(rec, (3, "1/2"), FREE), (Fraction(4), 0.25), DEAR)
        # Only each new bid's prices, when the bid is built; the fold checks none.
        assert checked == [(3, "1/2"), (Fraction(4), 0.25)]
        monkeypatch.undo()
        assert after == ParticipantRecord(
            wins=121,
            losses=81,
            consecutive_losses=1,
            price_history=history + ((3, Fraction(1, 2)), (4, Fraction(1, 4))),
        )
        assert all(isinstance(p, Fraction) for p in after.price_history[-1])


@pytest.mark.parametrize(
    "build, message",
    [pytest.param(lambda: ConsumerBid(0, 5, (1,)), "consumer unit prices must be numbers, got 5",
                  id="consumer-prices"),
     pytest.param(lambda: ConsumerBid(0, (1,), 3), "consumer quantities must be integers, got 3",
                  id="consumer-quantities"),
     pytest.param(lambda: ProviderBid(0, None, (1,)),
                  "provider unit prices must be numbers, got None", id="provider-prices"),
     pytest.param(lambda: ParticipantRecord(price_history=5), "price history must be",
                  id="history"),
     pytest.param(lambda: ParticipantRecord(price_history=[5]),
                  "price history entry must be numbers, got 5", id="history-entry")],
)
def test_a_field_that_is_not_a_sequence_names_itself(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestFairnessParams:
    def test_defaults_match_reference_parametrization(self):
        p = FairnessParams()
        assert (p.alpha1, p.alpha2, p.beta1, p.beta2, p.max_losses) == (9, 7, 4, 28, 6)

    def test_beta2_zero_rejected(self):
        with pytest.raises(ValueError, match="beta2"):
            FairnessParams(beta2=0)

    def test_max_losses_zero_rejected(self):
        with pytest.raises(ValueError, match="max_losses"):
            FairnessParams(max_losses=0)

    @pytest.mark.parametrize(
        "fields", [{"alpha1": "x"}, {"alpha2": -1}, {"beta1": None}, {"beta2": [28]}]
    )
    def test_coefficients_must_be_non_negative_numbers(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            FairnessParams(**fields)

    @pytest.mark.parametrize("bad", [True, 2.0])
    def test_max_losses_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="max_losses"):
            FairnessParams(max_losses=bad)


class TestAllocation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="first axis"):
            Allocation(winners=(True,), transfers=np.zeros((2, 1, 1), dtype=np.int64))

    def test_negative_transfers_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Allocation(winners=(True,), transfers=np.array([[[-1]]]))

    @pytest.mark.parametrize(
        "transfers, message",
        [pytest.param([[[1.5]]], "must be integers, got 1.5", id="fractional"),
         pytest.param(np.array([[[np.nan]]]), "must be integers, got nan", id="nan"),
         pytest.param([[[2**63]]], "must fit in int64", id="past-int64"),
         pytest.param([[[2**70]]], "must fit in int64", id="far-past-int64")],
    )
    def test_transfers_must_be_int64_integers(self, transfers, message):
        with pytest.raises(ValueError, match=message):
            Allocation(winners=(True,), transfers=transfers)

    @pytest.mark.parametrize(
        "transfers",
        [np.ones((1, 1, 1)), [[[1]]], np.ones((1, 1, 1), dtype=np.int32), [[[True]]]],
        ids=["float-ones", "list", "int32", "bool"],
    )
    def test_integral_transfers_of_any_type_are_read_as_int64(self, transfers):
        alloc = Allocation(winners=(True,), transfers=transfers)
        assert alloc.transfers.dtype == np.int64 and alloc.transfers.tolist() == [[[1]]]

    def test_transfers_frozen(self):
        alloc = Allocation(winners=(True,), transfers=np.ones((1, 1, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            alloc.transfers[0, 0, 0] = 2

    def test_callers_array_stays_writeable(self):
        y = np.ones((1, 1, 1), dtype=np.int64)
        alloc = Allocation((True,), y)
        assert y.flags.writeable and not alloc.transfers.flags.writeable
        y[0, 0, 0] = 2
        assert alloc.transfers.tolist() == [[[1]]]

    def test_value_equality(self):
        a = Allocation(winners=(True,), transfers=np.ones((1, 1, 1), dtype=np.int64))
        b = Allocation(winners=(True,), transfers=np.ones((1, 1, 1), dtype=np.int64))
        assert a == b and a.units_sold() == 1


def scaled_budget(bid: ConsumerBid) -> Fraction:
    """The budget the solvers read for ``bid``: its integer over the instance's ``D``."""
    scaled = WdpInstance.from_bids([bid], [])._scaled
    return Fraction(scaled.budgets[0], scaled.denominator)


class TestBudget:
    def test_hand_computed_example(self):
        bid = ConsumerBid(0, (Fraction(10), Fraction(20)), (1, 2))
        assert scaled_budget(bid) == 50

    def test_zero_quantity_type_contributes_nothing(self):
        bid = ConsumerBid(0, (Fraction(10), Fraction(20)), (0, 1))
        assert scaled_budget(bid) == 20

    def test_zero_prices(self):
        bid = ConsumerBid(0, (Fraction(0), Fraction(0)), (1, 1))
        assert scaled_budget(bid) == 0

    @given(
        prices=st.lists(st.integers(0, 50), min_size=1, max_size=4),
        quantities=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    )
    def test_matches_dot_product(self, prices, quantities):
        size = min(len(prices), len(quantities))
        prices, quantities = prices[:size], quantities[:size]
        if not any(quantities):
            quantities[0] = 1
        bid = ConsumerBid(0, tuple(map(Fraction, prices)), tuple(quantities))
        assert scaled_budget(bid) == sum(p * q for p, q in zip(prices, quantities))


# Pairwise coprime: gcd(2**a - 1, 2**b - 1) == 2**gcd(a, b) - 1 == 1 for distinct primes a, b.
WIDE = tuple(2**e - 1 for e in (89, 97, 101, 103, 107, 109, 113, 127))
F = Fraction


class TestOverCommonDenominator:
    @pytest.mark.parametrize(
        "values, denominator",
        [
            ([], 1),
            ([], 6),
            ([F(3, 7)], 1),
            ([F(3, 7)], 4),
            ([F(1, 6), F(5, 6), F(-1, 4), F(3, 4), F(2), F(1, 6)], 1),
            ([F(k, d) for k, d in zip(range(1, 9), WIDE)] + [F(1, WIDE[0] * WIDE[1])], 10),
            ([F(-k, WIDE[k % 3]) for k in range(1, 40)], WIDE[5]),
        ],
        ids=["empty", "empty-with-denominator", "single", "single-with-denominator",
             "repeated-denominators", "wide-coprime", "wide-repeated"],
    )
    def test_lcm_and_exact_scaling(self, values, denominator):
        S, scaled = model.over_common_denominator(values, denominator)
        assert S == math.lcm(denominator, *(v.denominator for v in values))
        assert len(scaled) == len(values)
        assert all(type(x) is int and x == v * S for x, v in zip(scaled, values))
        total = model.exact_sum(values)
        assert type(total) is F and total == sum(values, F(0))

    @given(st.lists(st.fractions(max_denominator=10**6), max_size=40), st.integers(1, 10**6))
    def test_matches_a_single_lcm(self, values, denominator):
        S, scaled = model.over_common_denominator(values, denominator)
        assert S == math.lcm(denominator, *(v.denominator for v in values))
        assert scaled == [int(v * S) for v in values]
        assert model.exact_sum(values) == sum(values, F(0))


price_st = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)
price_tuple_st = st.lists(price_st, max_size=8).map(tuple)


@st.composite
def market_price_rows(draw):
    """Consumer and provider price rows of one market, ``L`` prices each."""
    L = draw(st.integers(1, 3))
    row = st.lists(price_st, min_size=L, max_size=L).map(tuple)
    return draw(st.lists(row, max_size=4)), draw(st.lists(row, min_size=1, max_size=3))


class TestPriceVector:
    @given(price_tuple_st)
    def test_reads_equals_and_hashes_like_the_fraction_tuple(self, prices):
        vector = model._money_tuple(prices, "prices")
        assert type(vector) is model.PriceVector
        assert vector == prices and prices == vector and not vector != prices
        assert hash(vector) == hash(prices)
        assert len(vector) == len(prices)
        assert tuple(vector) == prices and all(type(p) is F for p in vector)
        n = len(prices)
        assert [vector[i] for i in range(-n, n)] == [prices[i] for i in range(-n, n)]
        assert vector[1:3] == prices[1:3] and vector[::-1] == prices[::-1]
        assert vector.denominator == math.lcm(*(p.denominator for p in prices))
        assert all(type(a) is int for a in vector.numerators)
        # One price-validation path, idempotent on a vector.
        assert model._money_tuple(vector, "prices") is vector
        assert model.PriceVector(vector) is vector
        assert pickle.loads(pickle.dumps(vector)) == vector
        assert eval(repr(vector), {"PriceVector": model.PriceVector}) == vector

    @given(price_tuple_st)
    def test_repository_strings_are_the_fraction_strings(self, prices):
        record = ParticipantRecord(losses=1, consecutive_losses=1, price_history=(prices,))
        payload = repository_to_dict(Repository(records={0: record}, round_counter=1))
        assert payload["records"]["0"]["price_history"] == [[str(p) for p in prices]]
        assert model.PriceVector(prices).strings() == [str(p) for p in prices]

    @given(market_price_rows())
    def test_instance_denominator_is_the_prices_common_denominator(self, rows):
        consumer_rows, provider_rows = rows
        L = len(provider_rows[0])
        instance = WdpInstance.from_bids(
            [ConsumerBid(n, prices, (1,) * L) for n, prices in enumerate(consumer_rows)],
            [ProviderBid(m, prices, (1,) * L) for m, prices in enumerate(provider_rows)],
            num_resource_types=L,
        )
        D, scaled = model.over_common_denominator(
            [p for row in consumer_rows + provider_rows for p in row]
        )
        sc = instance._scaled
        assert sc.denominator == D
        assert sc.consumer_prices.ravel().tolist() + sc.provider_prices.ravel().tolist() == scaled

    def test_is_immutable_and_checks_its_sign_and_integers(self):
        vector = model.PriceVector((F(1, 2), 3))
        with pytest.raises(AttributeError):
            vector.denominator = 1
        with pytest.raises(AttributeError):
            del vector.numerators
        with pytest.raises(ValueError, match="non-negative, got -1/4"):
            model._money_tuple(model.PriceVector((F(1), F(-1, 4))), "prices")
        assert vector != [F(1, 2), F(3)] and vector != (F(1, 2),)


def _money_tuple_through_as_money(values, what):
    """The reference price check: every item read by ``as_money`` into a
    ``Fraction``, then the vector built from those."""
    try:
        items = [as_money(v) for v in values]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} must be numbers, got {values!r}") from exc
    for p in items:
        if p < 0:
            raise ValueError(f"{what} must be non-negative, got {p}")
    D = math.lcm(*(p.denominator for p in items))
    return model.PriceVector._make(tuple(p.numerator * (D // p.denominator) for p in items), D)


# Near-canonical strings: digits (ASCII, Arabic-Indic, superscript), slashes,
# signs, underscores, points, exponents and spaces.
_price_strings = st.one_of(
    st.text(st.sampled_from("0123456789/+-_.eE \t٣²"), max_size=8),
    st.from_regex(r"\A[0-9]{1,5}(/[0-9]{1,5})?\Z"),
    st.text(max_size=6),
)


class TestPriceStrings:
    @given(st.lists(_price_strings, max_size=4))
    @example(["1_000"])  # read by Python 3.11's Fraction, rejected by 3.10's
    @example(["٣"])
    @example(["²"])
    @example([" 3 "])
    @example(["+3"])
    @example(["-0"])
    @example(["3/-4"])
    @example(["2/4"])
    @example(["1/0"])
    @example(["0/7", "3/"])
    @example(["0.10"])
    @example(["1e2"])
    @example(["1" * 5000])  # past the int digit limit
    @example(["12/5", "7", "1/3", 0.5, F(2, 9)])
    def test_read_as_as_money_reads_them(self, values):
        """Canonical strings skip the ``Fraction``; every value loads, or is
        refused with the same message, as through ``as_money``."""
        try:
            want = _money_tuple_through_as_money(values, "prices")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                model._money_tuple(values, "prices")
            assert str(got.value) == str(exc)
        else:
            got = model._money_tuple(values, "prices")
            assert (got.numerators, got.denominator) == (want.numerators, want.denominator)


class TestAsMoney:
    def test_float_uses_decimal_meaning(self):
        assert as_money(0.1) == Fraction(1, 10)

    def test_string_fraction(self):
        assert as_money("3/2") == Fraction(3, 2)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            as_money(True)


def test_extended_bid_carries_factor():
    bid = ConsumerBid(3, (Fraction(5),), (1,))
    ext = ExtendedConsumerBid(bid=bid, fairness_factor=-2)
    assert ext.consumer_id == 3 and ext.fairness_factor == Fraction(-2)
