"""Randomized bid generation for multi-round market experiments.

Provider supply and consumer demand are integer uniform draws; prices are
uniform draws on a hundredth-of-a-currency-unit grid, so every generated
value is an exact rational.  From the second round on, a consumer's price
for each type drifts uniformly within a relative band around their own
previous price, clamped back into the configured range — prices are sticky
per consumer but the market keeps moving.

Each bid's prices are its row of cent draws as a
:class:`~faircda.model.PriceVector`, integers over 100: no ``Fraction`` is
built for them here, and the drift windows read the previous vectors'
integers.

Draw order is part of the reproducibility contract: per call, one block of
quantity draws then one block of price draws, each laid out participant-
major, type-minor.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    ConsumerBid,
    MarketShape,
    Money,
    PriceVector,
    ProviderBid,
    _check_count,
    _check_money,
    _unchecked,
)

__all__ = ["ScenarioConfig", "generate_provider_bids", "generate_consumer_bids"]

_CENTS = 100
# Price draws and the solvers' unit counts are int64.
_INT64_LIMIT = 2**63
_RANGES = (
    "provider_quantity_range",
    "consumer_quantity_range",
    "provider_price_range",
    "consumer_price_range",
)


def _grid_bounds(price_range: tuple[Money, Money]) -> tuple[int, int]:
    lo, hi = price_range
    lo_c = math.ceil(lo * _CENTS)
    hi_c = math.floor(hi * _CENTS)
    return lo_c, hi_c


@dataclass(frozen=True)
class ScenarioConfig:
    """Market dimensions and draw ranges for one experiment.

    Defaults are the reference parametrization: 300 consumers, 5 providers,
    4 resource types, 10 independent runs, supply of 30-100 units per
    provider and type, demand of 1-3 units per consumer and type, asks in
    [50, 200], offers in [100, 250], and a 10% per-round price drift.

    Every provider offers at least one unit of each type and every offer is
    priced above zero, so each round's utilization and the fairness
    factors' market mean prices are defined.
    """

    shape: MarketShape = field(default_factory=lambda: MarketShape(300, 5, 4))
    runs: int = 10
    provider_quantity_range: tuple[int, int] = (30, 100)
    consumer_quantity_range: tuple[int, int] = (1, 3)
    provider_price_range: tuple[Money, Money] = (Fraction(50), Fraction(200))
    consumer_price_range: tuple[Money, Money] = (Fraction(100), Fraction(250))
    price_drift: Money = Fraction(1, 10)

    def __post_init__(self):
        if not isinstance(self.shape, MarketShape):
            raise ValueError(f"shape must be a MarketShape, got {self.shape!r}")
        if (
            self.shape.num_consumers < 1
            or self.shape.num_providers < 1
            or self.shape.num_resource_types < 1
        ):
            raise ValueError("scenario generation needs at least one of each participant kind")
        _check_count(self.runs, "runs", positive=True)
        for name in _RANGES:
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ValueError(f"{name} must be a [low, high] pair, got {value!r}")
            check = _check_count if name.endswith("quantity_range") else _check_money
            lo, hi = (check(v, f"{name} bounds") for v in value)
            if hi < lo:
                raise ValueError(f"{name} must be a non-empty interval, got [{lo}, {hi}]")
            object.__setattr__(self, name, (lo, hi))
        for name in ("provider_price_range", "consumer_price_range"):
            lo_c, hi_c = _grid_bounds(getattr(self, name))
            if lo_c > hi_c:
                raise ValueError(f"{name} contains no representable price (grid is 1/{_CENTS})")
            if hi_c >= _INT64_LIMIT:
                raise ValueError(f"{name} must stay below 2**63 cents, got {hi_c} cents")
        if self.provider_quantity_range[0] < 1:
            raise ValueError(
                "provider_quantity_range must start at 1 or more, got "
                f"{list(self.provider_quantity_range)}"
            )
        N, M, L = astuple(self.shape)
        units = L * (N * self.consumer_quantity_range[1] + M * self.provider_quantity_range[1])
        if units >= _INT64_LIMIT:
            raise ValueError(
                f"consumer_quantity_range and provider_quantity_range allow {units} units "
                "in a round, at most 2**63 - 1 fit the solvers' arithmetic"
            )
        if self.consumer_price_range[0] <= 0:
            raise ValueError(
                "consumer_price_range must start above 0, got "
                f"[{self.consumer_price_range[0]}, {self.consumer_price_range[1]}]"
            )
        object.__setattr__(self, "price_drift", _check_money(self.price_drift, "price_drift"))


def _cent_vectors(cents: np.ndarray) -> list[PriceVector]:
    """Each row of cent draws as a price vector: the row and 100, both divided
    by their gcd, are its numerators and its least common denominator."""
    g = np.gcd(np.gcd.reduce(cents, axis=1), _CENTS)
    rows = (cents // g[:, None]).tolist()
    return list(map(PriceVector._make, map(tuple, rows), (_CENTS // g).tolist()))


def generate_provider_bids(config: ScenarioConfig, rng: np.random.Generator) -> list[ProviderBid]:
    """Draw one offer per provider: per-type supply and ask prices."""
    M = config.shape.num_providers
    L = config.shape.num_resource_types
    qlo, qhi = config.provider_quantity_range
    plo_c, phi_c = _grid_bounds(config.provider_price_range)
    quantities = rng.integers(qlo, qhi, size=(M, L), endpoint=True)
    price_cents = rng.integers(plo_c, phi_c, size=(M, L), endpoint=True)
    # Integer draws from the validated ranges, as ints and cent-grid price
    # vectors: valid by construction, so the constructor's checks are skipped.
    return [
        _unchecked(ProviderBid, provider_id=m, unit_prices=p, quantities=tuple(q))
        for m, (p, q) in enumerate(zip(_cent_vectors(price_cents), quantities.tolist()))
    ]


def _drift_windows(
    config: ScenarioConfig,
    previous_personal_prices: Mapping[int, Sequence[Money]],
    grid: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per consumer and type, the lowest and highest cents a drifted price may take.

    The window ``[(1 - drift) * p, (1 + drift) * p]`` in cents, for
    ``p = a / b`` and ``drift = u / v``, is ``[(v - u) * 100a / vb,
    (v + u) * 100a / vb]``, rounded inward and clamped into the grid.  Each
    consumer's previous prices are read as a :class:`PriceVector`: ``a`` is
    a numerator and ``b`` the row's one denominator, which moves no floor.
    The arithmetic is int64 when every product provably fits, and
    ``object`` arrays of Python ints otherwise.
    """
    N = config.shape.num_consumers
    L = config.shape.num_resource_types
    rows = []
    for n in range(N):
        try:
            prev = previous_personal_prices[n]
        except KeyError:
            raise ValueError(f"no previous prices for consumer {n}") from None
        if len(prev) != L:
            raise ValueError(
                f"consumer {n}: previous prices cover {len(prev)} types, expected {L}"
            )
        rows.append(PriceVector(prev))
    numerators = [a for row in rows for a in row.numerators]
    denominators = [row.denominator for row in rows]
    plo_c, phi_c = grid
    u, v = config.price_drift.numerator, config.price_drift.denominator
    largest = max(
        max(map(abs, numerators)) * _CENTS * (u + v),
        max(denominators) * v * 2,
        abs(plo_c),
        abs(phi_c),
    )
    dtype = np.int64 if largest < 2**63 else object
    cents = np.array(numerators, dtype=dtype).reshape(N, L) * _CENTS
    b = np.array(denominators, dtype=dtype).reshape(N, 1)
    lo = np.maximum(plo_c, -((u - v) * cents // (b * v)))
    hi = np.minimum(phi_c, (v + u) * cents // (b * v))
    outside = lo > hi
    if outside.any():
        # The previous price sits outside the range: snap to the nearest
        # edge, rounding 100p half to even as round(Fraction) does.
        q = cents // b
        r = cents - q * b
        nearest = q + ((2 * r > b) | ((2 * r == b) & (q % 2 == 1)))
        snapped = np.minimum(phi_c, np.maximum(plo_c, nearest))
        lo = np.where(outside, snapped, lo)
        hi = np.where(outside, snapped, hi)
    return lo.astype(np.int64), hi.astype(np.int64)


def generate_consumer_bids(
    config: ScenarioConfig,
    rng: np.random.Generator,
    previous_personal_prices: Optional[Mapping[int, Sequence[Money]]] = None,
) -> list[ConsumerBid]:
    """Draw one request per consumer: per-type demand and offered prices.

    Without previous prices (round one), prices are uniform over the
    configured range.  Given ``previous_personal_prices``, keyed by consumer
    id and covering every consumer, each consumer's price for each type is
    uniform over ``[(1 - drift) * previous, (1 + drift) * previous]``
    clamped into the range, where ``previous`` is that consumer's own price
    from the prior round.
    """
    N = config.shape.num_consumers
    L = config.shape.num_resource_types
    qlo, qhi = config.consumer_quantity_range
    grid = _grid_bounds(config.consumer_price_range)
    quantities = rng.integers(qlo, qhi, size=(N, L), endpoint=True)
    if qlo < 1:
        # Every bid must request something; bump one uniformly chosen type.
        for n in range(N):
            if not quantities[n].any():
                quantities[n][int(rng.integers(0, L))] = 1

    if previous_personal_prices is None:
        price_cents = rng.integers(*grid, size=(N, L), endpoint=True)
    else:
        lo, hi = _drift_windows(config, previous_personal_prices, grid)
        price_cents = rng.integers(lo, hi, size=(N, L), endpoint=True)

    # Integer draws from the validated ranges, as ints and cent-grid price
    # vectors, and every bid requests a unit: valid by construction, so the
    # constructor's checks are skipped.
    return [
        _unchecked(ConsumerBid, consumer_id=n, unit_prices=p, quantities=tuple(q))
        for n, (p, q) in enumerate(zip(_cent_vectors(price_cents), quantities.tolist()))
    ]
