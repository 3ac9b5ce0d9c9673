"""Bid generation: ranges, determinism, and the price drift rule."""

from fractions import Fraction

import numpy as np
import pytest

from faircda.model import MarketShape
from faircda.scenario import ScenarioConfig, generate_consumer_bids, generate_provider_bids


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

    def test_providers_must_offer_at_least_one_unit(self):
        with pytest.raises(ValueError, match="provider_quantity_range"):
            small_config(provider_quantity_range=(0, 5))

    def test_consumer_prices_must_be_positive(self):
        with pytest.raises(ValueError, match="consumer_price_range"):
            small_config(consumer_price_range=(0, 10))

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
        bids = generate_consumer_bids(config, rng(), round_index=1)
        assert len(bids) == 12
        for bid in bids:
            assert all(q in (1, 2, 3) for q in bid.quantities)
            assert all(100 <= p <= 250 for p in bid.unit_prices)

    def test_drift_window_clamped_at_range_edge(self):
        config = small_config()
        previous = {n: (Fraction(250), Fraction(250)) for n in range(12)}
        for seed in range(5):
            bids = generate_consumer_bids(config, rng(seed), 2, previous)
            for bid in bids:
                assert all(Fraction(225) <= p <= Fraction(250) for p in bid.unit_prices)

    def test_zero_drift_freezes_prices(self):
        config = small_config(price_drift=0)
        previous = {n: (Fraction(150), Fraction(17999, 100)) for n in range(12)}
        bids = generate_consumer_bids(config, rng(), 2, previous)
        for n, bid in enumerate(bids):
            assert bid.unit_prices == previous[n]

    def test_previous_prices_required_after_round_one(self):
        config = small_config()
        with pytest.raises(ValueError, match="previous"):
            generate_consumer_bids(config, rng(), 2, None)

    def test_previous_prices_forbidden_in_round_one(self):
        config = small_config()
        with pytest.raises(ValueError, match="round 1"):
            generate_consumer_bids(config, rng(), 1, {0: (Fraction(100), Fraction(100))})

    def test_missing_consumer_in_previous_prices(self):
        config = small_config()
        previous = {n: (Fraction(150), Fraction(150)) for n in range(11)}
        with pytest.raises(ValueError, match="consumer 11"):
            generate_consumer_bids(config, rng(), 2, previous)

    def test_fixed_seed_reproduces_bids(self):
        config = small_config()
        assert generate_consumer_bids(config, rng(9), 1) == generate_consumer_bids(
            config, rng(9), 1
        )

    def test_zero_quantity_floor_still_requests_something(self):
        config = small_config(consumer_quantity_range=(0, 1))
        bids = generate_consumer_bids(config, rng(3), 1)
        for bid in bids:
            assert any(q >= 1 for q in bid.quantities)

    def test_prices_live_on_the_cent_grid(self):
        config = small_config()
        bids = generate_consumer_bids(config, rng(4), 1)
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
        consumers = generate_consumer_bids(config, generator, 1)
        assert any(
            c.unit_prices[l] >= p.unit_prices[l]
            for c in consumers
            for p in providers
            for l in range(config.shape.num_resource_types)
        )
