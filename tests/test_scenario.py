"""Bid generation: ranges, determinism, and the price drift rule."""

from dataclasses import astuple
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
    _drift_bounds,
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
        previous = {n: (Fraction(250), Fraction(250)) for n in range(12)}
        for seed in range(5):
            bids = generate_consumer_bids(config, rng(seed), previous)
            for bid in bids:
                assert all(Fraction(225) <= p <= Fraction(250) for p in bid.unit_prices)

    def test_zero_drift_freezes_prices(self):
        config = small_config(price_drift=0)
        previous = {n: (Fraction(150), Fraction(17999, 100)) for n in range(12)}
        bids = generate_consumer_bids(config, rng(), previous)
        for n, bid in enumerate(bids):
            assert bid.unit_prices == previous[n]

    def test_missing_consumer_in_previous_prices(self):
        config = small_config()
        previous = {n: (Fraction(150), Fraction(150)) for n in range(11)}
        with pytest.raises(ValueError, match="consumer 11"):
            generate_consumer_bids(config, rng(), previous)

    def test_wrong_length_previous_prices(self):
        config = small_config()
        previous = {n: (Fraction(150), Fraction(150)) for n in range(12)}
        previous[5] = (Fraction(150),)
        with pytest.raises(ValueError, match="consumer 5: previous prices cover 1 types, expected 2"):
            generate_consumer_bids(config, rng(), previous)

    @pytest.mark.parametrize(
        "previous, message",
        [
            ([(1, 2), (1, 2)], "no previous prices for consumer 2"),
            ({0: (1, 2), 1: 5, 2: (1, 2)}, "consumer 1: previous prices must be numbers, got 5"),
            ({0: None, 1: (1, 2), 2: (1, 2)}, "consumer 0: previous prices must be numbers"),
            ({0: (1, 2), 1: (1, 2), 2: (1, -2)}, "consumer 2: previous prices must be non-neg"),
            (7, "no previous prices for consumer 0"),
        ],
    )
    def test_unreadable_previous_prices_name_the_consumer(self, previous, message):
        config = small_config(shape=MarketShape(3, 2, 2))
        with pytest.raises(ValueError, match=message):
            generate_consumer_bids(config, rng(), previous)

    def test_a_generated_list_is_previous_prices_only_as_built(self):
        """A generated list stands for its prices only while it holds the
        bids built for this configuration's shape; edited, cut to some
        rows, or of another shape, it is no price vector per consumer."""
        config = small_config()
        bids = generate_consumer_bids(config, rng(1))
        wider = generate_consumer_bids(small_config(shape=MarketShape(12, 3, 3)), rng(1))
        replaced = generate_consumer_bids(config, rng(1))
        replaced[4] = ConsumerBid(4, replaced[4].unit_prices, replaced[4].quantities)
        for previous in (replaced, bids.rows([0, 2, 5]), wider):
            with pytest.raises(ValueError, match="consumer 0: previous prices must be numbers"):
                generate_consumer_bids(config, rng(2), previous)

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


# Previous prices: the cent grid, thirds and sevenths, exact half cents (the
# snap branch's ties), values outside the range, and numerators too large
# for int64 arithmetic.
previous_price_st = st.one_of(
    st.integers(0, 40_000).map(lambda c: Fraction(c, 100)),
    st.integers(0, 900).map(lambda k: Fraction(k, 3)),
    st.integers(0, 2_100).map(lambda k: Fraction(k, 7)),
    st.integers(0, 40_000).map(lambda c: Fraction(2 * c + 1, 200)),
    st.integers(0, 10**4).map(lambda k: Fraction(10**18 + k, 10**16)),
    st.integers(0, 10**4).map(lambda k: Fraction(10**21 + 2 * k + 1, 2 * 10**18)),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
)
drift_st = st.sampled_from(
    [Fraction(0), Fraction(1, 10), Fraction(1, 7), Fraction(1, 3), Fraction(1), Fraction(3, 2)]
)
range_st = st.tuples(
    st.fractions(min_value=Fraction(1, 100), max_value=200, max_denominator=400),
    st.fractions(min_value=0, max_value=200, max_denominator=400),
).map(lambda lo_extra: (lo_extra[0], lo_extra[0] + lo_extra[1] + Fraction(1, 100)))


@st.composite
def drift_case(draw):
    N, L = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    config = ScenarioConfig(
        shape=MarketShape(N, 2, L),
        runs=1,
        consumer_quantity_range=draw(st.sampled_from([(1, 3), (0, 1), (0, 0)])),
        consumer_price_range=draw(range_st),
        price_drift=draw(drift_st),
    )
    previous = {
        n: tuple(draw(st.lists(previous_price_st, min_size=L, max_size=L))) for n in range(N)
    }
    return config, previous, draw(st.integers(0, 2**32 - 1))


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(case=drift_case())
    def test_drift_windows_and_bids_equal_the_per_cell_loop(self, case):
        config, previous, seed = case
        lo, hi = _drift_windows(config, previous, _grid_bounds(config.consumer_price_range))
        expected = [
            [
                reference_drift_window(p, config.consumer_price_range, config.price_drift)
                for p in previous[n]
            ]
            for n in range(config.shape.num_consumers)
        ]
        assert lo.dtype == hi.dtype == np.int64
        assert [list(zip(a, b)) for a, b in zip(lo.tolist(), hi.tolist())] == expected
        bids = generate_consumer_bids(config, rng(seed), previous)
        assert bids == reference_consumer_bids(config, rng(seed), previous)
        _assert_same_as_validated(bids)

    @settings(max_examples=100, deadline=None)
    @given(case=drift_case())
    def test_a_generated_list_drifts_as_its_prices_by_id(self, case):
        """Handed back as the next round's previous prices, the list a round
        generated gives the windows and bids of its ``{id: unit_prices}``."""
        config, previous, seed = case
        bids = generate_consumer_bids(config, rng(seed), previous)
        by_id = {b.consumer_id: b.unit_prices for b in bids}
        grid = _grid_bounds(config.consumer_price_range)
        windows = _drift_windows(config, bids, grid)
        expected = _drift_windows(config, by_id, grid)
        assert [w.tolist() for w in windows] == [w.tolist() for w in expected]
        assert generate_consumer_bids(config, rng(seed + 1), bids) == generate_consumer_bids(
            config, rng(seed + 1), by_id
        )

    @settings(max_examples=50, deadline=None)
    @given(case=drift_case())
    def test_round_one_and_providers_equal_the_reference(self, case):
        config, _, seed = case
        generator, reference = rng(seed), rng(seed)
        providers = generate_provider_bids(config, generator)
        assert providers == reference_provider_bids(config, reference)
        _assert_same_as_validated(providers)
        bids = generate_consumer_bids(config, generator)
        assert bids == reference_consumer_bids(config, reference)
        _assert_same_as_validated(bids)

    @settings(max_examples=200, deadline=None)
    @given(case=drift_case(), data=st.data())
    def test_drift_windows_from_cents_equal_those_from_price_vectors(self, case, data):
        """The engine's windows, from a round's cent draws over 100, are the
        windows of the same prices given per consumer as price vectors, in
        the range, outside it (the snapping branch) and past int64."""
        config, _, _ = case
        N, L = config.shape.num_consumers, config.shape.num_resource_types
        grid = _grid_bounds(config.consumer_price_range)
        cents_st = st.one_of(
            st.integers(max(0, grid[0] - 50), grid[1] + 50),
            st.integers(0, 100_000),
            st.integers(2**62, 2**63 - 1),
        )
        cents = data.draw(st.lists(cents_st, min_size=N * L, max_size=N * L))
        cents = np.array(cents, dtype=np.int64).reshape(N, L)
        vectors = {
            n: PriceVector([Fraction(c, 100) for c in row]) for n, row in enumerate(cents.tolist())
        }
        lo, hi = _drift_bounds(config, cents, 100, grid)
        expected_lo, expected_hi = _drift_windows(config, vectors, grid)
        assert lo.dtype == hi.dtype == np.int64
        assert lo.tolist() == expected_lo.tolist() and hi.tolist() == expected_hi.tolist()

    def test_half_cent_previous_prices_snap_half_to_even(self):
        # With no drift the window of an off-grid price is empty: it snaps to
        # the nearest cent, ties to even, clamped into the range's grid.
        config = small_config(shape=MarketShape(4, 3, 1), price_drift=0)
        previous = {0: (Fraction(20025, 200),), 1: (Fraction(20027, 200),),
                    2: (Fraction(601, 200),), 3: (Fraction(60001, 200),)}
        lo, hi = _drift_windows(config, previous, _grid_bounds(config.consumer_price_range))
        assert lo.tolist() == hi.tolist() == [[10_012], [10_014], [10_000], [25_000]]
