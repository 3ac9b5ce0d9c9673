"""Bid generation: ranges, determinism, and the price drift rule."""

import copy
import pickle
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_consumer_bids,
    reference_drift_window,
    reference_provider_bids,
)

from faircda.model import ConsumerBid, MarketShape, PriceVector
from faircda.scenario import (
    ScenarioConfig,
    _drawn_market,
    _drift_windows,
    _grid_bounds,
    generate_consumer_bids,
    generate_provider_bids,
)


def small_config(**overrides):
    defaults = dict(shape=MarketShape(12, 3, 2), runs=1)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def rng(seed=0):
    return np.random.default_rng(seed)


def _with_bid_4_replaced(bids):
    bids = list(bids)
    bids[4] = ConsumerBid(4, bids[4].unit_prices, bids[4].quantities)
    return bids


class TestScenarioConfig:
    def test_defaults_are_the_reference_setup(self):
        config = ScenarioConfig()
        assert config.shape == MarketShape(300, 5, 4)
        assert config.runs == 10
        assert config.provider_quantity_range == (30, 100)
        assert config.consumer_quantity_range == (1, 3)
        assert config.provider_price_range == (50, 200)
        assert config.consumer_price_range == (100, 250)
        assert config.price_drift == Fraction(1, 10)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="provider_quantity_range"):
            small_config(provider_quantity_range=(10, 5))

    def test_zero_participants_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ScenarioConfig(shape=MarketShape(0, 3, 2))

    def test_shape_must_be_a_market_shape(self):
        with pytest.raises(ValueError, match="shape"):
            ScenarioConfig(shape=5)

    def test_providers_must_offer_at_least_one_unit(self):
        with pytest.raises(ValueError, match="provider_quantity_range"):
            small_config(provider_quantity_range=(0, 5))

    def test_consumer_prices_must_be_positive(self):
        with pytest.raises(ValueError, match="consumer_price_range"):
            small_config(consumer_price_range=(0, 10))

    @pytest.mark.parametrize(
        "fields",
        [
            {"runs": True},
            {"provider_quantity_range": 30},
            {"provider_quantity_range": (3, 9, 12)},
            {"consumer_quantity_range": (1, 2.5)},
            {"consumer_quantity_range": (True, 2)},
            {"consumer_price_range": "100"},
            {"consumer_price_range": ("x", 250)},
            {"provider_price_range": (50, "1/0")},
            {"price_drift": "x"},
            {"price_drift": True},
        ],
    )
    def test_mistyped_fields_rejected(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            small_config(**fields)

    def test_list_ranges_are_stored_as_tuples(self):
        config = small_config(provider_quantity_range=[3, 9], consumer_price_range=[100, 250])
        assert config.provider_quantity_range == (3, 9)
        assert config.consumer_price_range == (Fraction(100), Fraction(250))
        assert hash(config) == hash(small_config(provider_quantity_range=(3, 9)))

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"consumer_price_range": ("1e17", "1e18")}, "consumer_price_range"),
            ({"provider_price_range": (1, Fraction(2**63, 100))}, "provider_price_range"),
            ({"consumer_quantity_range": (1, 2**62)}, "consumer_quantity_range"),
            ({"provider_quantity_range": (2**62, 2**62)}, "provider_quantity_range"),
        ],
    )
    def test_int64_overflowing_ranges_rejected(self, fields, named):
        with pytest.raises(ValueError, match=named):
            small_config(**fields)

    def test_largest_int64_ranges_accepted(self):
        N, M, L = astuple(small_config().shape)
        qhi = (2**63 - 1) // (L * (N + M))
        config = small_config(
            provider_price_range=(1, Fraction(2**63 - 1, 100)),
            consumer_quantity_range=(1, qhi),
            provider_quantity_range=(1, qhi),
        )
        assert len(generate_consumer_bids(config, rng())) == N
        assert len(generate_provider_bids(config, rng())) == M

    @pytest.mark.parametrize(
        "duplicate",
        [lambda c: pickle.loads(pickle.dumps(c)), lambda c: replace(c, runs=c.runs + 1)],
        ids=["pickle", "replace"],
    )
    def test_a_copied_config_generates_the_same_bids(self, duplicate):
        config = small_config(provider_price_range=("0.505", "2.001"))
        copied = duplicate(config)
        bids = []
        for source in (config, copied):
            generator = rng(7)
            providers = generate_provider_bids(source, generator)
            first = generate_consumer_bids(source, generator)
            bids.append((providers, first, generate_consumer_bids(source, generator, first)))
        for ours, theirs in zip(*bids):
            assert ours == theirs
            np.testing.assert_array_equal(ours.cents, theirs.cents)
        assert repr(copied) == repr(config).replace("runs=1", f"runs={copied.runs}")

    def test_a_replaced_range_draws_from_its_own_grid(self):
        config = replace(small_config(), consumer_price_range=(1, 2))
        cents = generate_consumer_bids(config, rng(3)).cents
        assert cents.min() >= 100 and cents.max() <= 200

    def test_negative_drift_rejected(self):
        with pytest.raises(ValueError, match="price_drift"):
            small_config(price_drift=-1)


class TestProviderBids:
    def test_values_within_configured_ranges(self):
        config = small_config()
        bids = generate_provider_bids(config, rng())
        assert len(bids) == 3
        for bid in bids:
            assert all(30 <= q <= 100 for q in bid.quantities)
            assert all(50 <= p <= 200 for p in bid.unit_prices)

    def test_fixed_seed_reproduces_bids(self):
        config = small_config()
        assert generate_provider_bids(config, rng(5)) == generate_provider_bids(config, rng(5))

    def test_point_interval(self):
        config = small_config(provider_quantity_range=(30, 30))
        bids = generate_provider_bids(config, rng())
        assert all(q == 30 for bid in bids for q in bid.quantities)


class TestConsumerBids:
    def test_round_one_ranges(self):
        config = small_config()
        bids = generate_consumer_bids(config, rng())
        assert len(bids) == 12
        for bid in bids:
            assert all(q in (1, 2, 3) for q in bid.quantities)
            assert all(100 <= p <= 250 for p in bid.unit_prices)

    def test_drift_window_clamped_at_range_edge(self):
        config = small_config()
        previous = generate_consumer_bids(small_config(consumer_price_range=(250, 250)), rng())
        for seed in range(5):
            bids = generate_consumer_bids(config, rng(seed), previous)
            for bid in bids:
                assert all(Fraction(225) <= p <= Fraction(250) for p in bid.unit_prices)

    def test_a_list_drawn_under_another_range_drifts_to_the_nearest_edge(self):
        # 300 and 50 drift to [270, 330] and [45, 55], both outside [100, 250].
        config = small_config()
        for price, edge in ((300, 250), (50, 100)):
            previous = generate_consumer_bids(small_config(consumer_price_range=(price, price)), rng())
            bids = generate_consumer_bids(config, rng(1), previous)
            assert all(p == edge for bid in bids for p in bid.unit_prices)

    def test_zero_drift_freezes_prices(self):
        config = small_config(price_drift=0)
        previous = generate_consumer_bids(config, rng())
        bids = generate_consumer_bids(config, rng(1), previous)
        assert [b.unit_prices for b in bids] == [b.unit_prices for b in previous]

    @pytest.mark.parametrize(
        "make_previous",
        [
            pytest.param(lambda bids: {b.consumer_id: b.unit_prices for b in bids}, id="by-id"),
            pytest.param(lambda bids: [b.unit_prices for b in bids], id="price-tuples"),
            pytest.param(list, id="plain-list"),
            pytest.param(_with_bid_4_replaced, id="edited"),
            pytest.param(
                lambda bids: bids.rows([n in (0, 2, 5) for n in range(12)]), id="rows-subset"
            ),
            pytest.param(
                lambda bids: generate_consumer_bids(
                    small_config(shape=MarketShape(12, 3, 3)), rng(1)
                ),
                id="other-shape",
            ),
            pytest.param(lambda bids: 7, id="not-a-list"),
        ],
    )
    def test_a_generated_list_is_previous_prices_only_as_built(self, make_previous):
        """The previous prices are the list a round generated for this
        configuration's shape: prices given per consumer id, a plain list
        copy, an edited copy, a list cut to some rows, or one of another
        shape raise the one ``ValueError``."""
        config = small_config()
        previous = make_previous(generate_consumer_bids(config, rng(1)))
        with pytest.raises(ValueError, match="must be the unmodified consumer list"):
            generate_consumer_bids(config, rng(2), previous)

    def test_the_generated_list_is_previous_prices(self):
        config = small_config()
        bids = generate_consumer_bids(config, rng(1))
        assert len(generate_consumer_bids(config, rng(2), bids)) == len(bids)

    def test_fixed_seed_reproduces_bids(self):
        config = small_config()
        assert generate_consumer_bids(config, rng(9)) == generate_consumer_bids(config, rng(9))

    def test_zero_quantity_floor_still_requests_something(self):
        config = small_config(consumer_quantity_range=(0, 1))
        bids = generate_consumer_bids(config, rng(3))
        for bid in bids:
            assert any(q >= 1 for q in bid.quantities)

    def test_prices_live_on_the_cent_grid(self):
        config = small_config()
        bids = generate_consumer_bids(config, rng(4))
        for bid in bids:
            for p in bid.unit_prices:
                assert (p * 100).denominator == 1


class TestGeneratedLists:
    """A generator returns its bids as an immutable tuple that carries the
    read-only int64 draws they were built from."""

    CONFIG = small_config(shape=MarketShape(6, 2, 2))

    def lists(self):
        generator = rng(7)
        consumers = generate_consumer_bids(self.CONFIG, generator)
        return consumers, generate_provider_bids(self.CONFIG, generator)

    def test_bids_cannot_be_replaced(self):
        for bids in self.lists():
            with pytest.raises(TypeError):
                bids[0] = bids[1]

    @pytest.mark.parametrize("draws", ["quantities", "cents"])
    def test_draws_are_read_only(self, draws):
        for bids in self.lists():
            with pytest.raises(ValueError, match="read-only"):
                getattr(bids, draws)[0, 0] = 1

    @pytest.mark.parametrize(
        "keep",
        [
            pytest.param([1, 1], id="twice"),
            pytest.param([0, 0], id="first-twice"),
            pytest.param([3, 0], id="out-of-order"),
            pytest.param([1, 0, 1, 0, 1, 0], id="integers"),
            pytest.param([True], id="short"),
            pytest.param([True] * 7, id="long"),
        ],
    )
    def test_rows_takes_one_boolean_per_bid(self, keep):
        """Positions, or flags for another number of bids, are refused, so
        no selection repeats or reorders a bid."""
        for bids in self.lists():
            with pytest.raises(ValueError, match=f"keep must be {len(bids)} booleans"):
                bids.rows(keep)

    def test_rows_keeps_the_flagged_bids_and_their_draws(self):
        consumers, _ = self.lists()
        keep = [True, False, False, True, True, False]
        kept = consumers.rows(keep)
        assert type(kept) is type(consumers)
        assert list(kept) == [b for b, k in zip(consumers, keep) if k]
        for name in ("quantities", "cents"):
            rows = getattr(kept, name)
            assert rows.tolist() == getattr(consumers, name)[[0, 3, 4]].tolist()
            assert not rows.flags.writeable

    @pytest.mark.parametrize(
        "duplicate",
        [lambda bids: pickle.loads(pickle.dumps(bids)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_a_copy_keeps_its_draws(self, duplicate):
        """A copy is a generated list still: it is accepted as previous
        prices, drifting as the original does, and its market is read from
        its draws."""
        consumers, providers = self.lists()
        copies = duplicate(consumers), duplicate(providers)
        for twin, bids in zip(copies, (consumers, providers)):
            assert type(twin) is type(bids) and twin == bids
            for name in ("quantities", "cents"):
                assert getattr(twin, name).tolist() == getattr(bids, name).tolist()
                assert not getattr(twin, name).flags.writeable
        drifted = generate_consumer_bids(self.CONFIG, rng(2), copies[0])
        assert drifted == generate_consumer_bids(self.CONFIG, rng(2), consumers)
        market, expected = _drawn_market(*copies), _drawn_market(consumers, providers)
        assert market.denominator == expected.denominator
        for ours, theirs in zip(market[1:], expected[1:]):
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()


def test_default_round_one_markets_are_non_degenerate():
    # Offers start at 100 and asks at 50: under the default ranges some
    # compatible consumer/provider pair exists essentially always.
    config = ScenarioConfig()
    for seed in range(10):
        generator = rng(seed)
        providers = generate_provider_bids(config, generator)
        consumers = generate_consumer_bids(config, generator)
        assert any(
            c.unit_prices[l] >= p.unit_prices[l]
            for c in consumers
            for p in providers
            for l in range(config.shape.num_resource_types)
        )


def _assert_same_as_validated(bids):
    """Generator-built bids hold exactly what the validating constructor would."""
    for bid in bids:
        assert bid == type(bid)(*astuple(bid))
        # The same integers as a vector built from the Fractions: each
        # generated vector is over its items' least common denominator.
        prices = bid.unit_prices
        rebuilt = PriceVector(tuple(prices))
        assert (prices.numerators, prices.denominator) == (rebuilt.numerators, rebuilt.denominator)
        assert all(type(a) is int for a in prices.numerators)
        assert all(type(p) is Fraction for p in bid.unit_prices)
        assert all(type(q) is int for q in bid.quantities)


drift_st = st.sampled_from(
    [Fraction(0), Fraction(1, 10), Fraction(1, 7), Fraction(1, 3), Fraction(1), Fraction(3, 2)]
)
range_st = st.tuples(
    st.fractions(min_value=Fraction(1, 100), max_value=200, max_denominator=400),
    st.fractions(min_value=0, max_value=200, max_denominator=400),
).map(lambda lo_extra: (lo_extra[0], lo_extra[0] + lo_extra[1] + Fraction(1, 100)))
# The previous list's prices: a range like the drifting one's, so its
# windows may miss the grid and drift to its nearest edge, or whole cents
# of at least 2**62, past int64 arithmetic for any drift.
previous_range_st = st.one_of(
    range_st,
    st.integers(2**62, 2**63 - 1).map(lambda c: (Fraction(2**62, 100), Fraction(c, 100))),
)


@st.composite
def drift_case(draw):
    """A configuration, a consumer list generated for its shape under
    another price range and drift, and a seed."""
    N, L = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    config = ScenarioConfig(
        shape=MarketShape(N, 2, L),
        runs=1,
        consumer_quantity_range=draw(st.sampled_from([(1, 3), (0, 1), (0, 0)])),
        consumer_price_range=draw(range_st),
        price_drift=draw(drift_st),
    )
    drawn_under = ScenarioConfig(
        shape=config.shape,
        runs=1,
        consumer_price_range=draw(previous_range_st),
        price_drift=draw(drift_st),
    )
    generator = rng(draw(st.integers(0, 2**32 - 1)))
    previous = generate_consumer_bids(drawn_under, generator)
    if draw(st.booleans()):
        previous = generate_consumer_bids(drawn_under, generator, previous)
    return config, previous, draw(st.integers(0, 2**32 - 1))


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(case=drift_case())
    def test_drift_windows_and_bids_equal_the_per_cell_loop(self, case):
        """A generated list drifts as the per-cell reference drifts its
        prices by consumer id."""
        config, previous, seed = case
        by_id = {b.consumer_id: b.unit_prices for b in previous}
        lo, hi = _drift_windows(config, previous.cents, _grid_bounds(config.consumer_price_range))
        expected = [
            [
                reference_drift_window(p, config.consumer_price_range, config.price_drift)
                for p in by_id[n]
            ]
            for n in range(config.shape.num_consumers)
        ]
        assert lo.dtype == hi.dtype == np.int64
        assert [list(zip(a, b)) for a, b in zip(lo.tolist(), hi.tolist())] == expected
        bids = generate_consumer_bids(config, rng(seed), previous)
        assert list(bids) == reference_consumer_bids(config, rng(seed), by_id)
        _assert_same_as_validated(bids)

    @settings(max_examples=50, deadline=None)
    @given(case=drift_case())
    def test_round_one_and_providers_equal_the_reference(self, case):
        config, _, seed = case
        generator, reference = rng(seed), rng(seed)
        providers = generate_provider_bids(config, generator)
        assert list(providers) == reference_provider_bids(config, reference)
        _assert_same_as_validated(providers)
        bids = generate_consumer_bids(config, generator)
        assert list(bids) == reference_consumer_bids(config, reference)
        _assert_same_as_validated(bids)
