"""Randomized bid generation for multi-round market experiments.

Provider supply and consumer demand are integer uniform draws; prices are
uniform draws on a hundredth-of-a-currency-unit grid, so every generated
value is an exact rational.  From the second round on, a consumer's price
for each type drifts uniformly within a relative band around their own
previous price, clamped back into the configured range — prices are sticky
per consumer but the market keeps moving.

Each bid's prices are its row of cent draws as a
:class:`~faircda.model.PriceVector`, integers over 100: no ``Fraction`` is
built for them here.  The generators return their bids as an immutable
tuple that also carries the int64 draws, read-only (:class:`_DrawnBids`),
so the draws always stand for the bids.  The engine's run loop passes
those tuples on: the consumer tuple is the next round's previous prices,
whose drift windows read its cents, and the round's market is read from
both tuples' draws (:func:`_drawn_market`), never from the bids built from
them.

Draw order is part of the reproducibility contract: per call, one block of
quantity draws then one block of price draws, each laid out participant-
major, type-minor.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .model import (
    ConsumerBid,
    MarketShape,
    Money,
    PriceVector,
    ProviderBid,
    _check_count,
    _check_money,
    _Market,
    _price_dtype,
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
    factors' market mean prices are defined.  Each price range's cent grid,
    the lowest and highest whole cents it holds, is derived once, when the
    configuration is built, and the generators read it from there.
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
        for side in ("provider", "consumer"):
            name = f"{side}_price_range"
            lo_c, hi_c = grid = _grid_bounds(getattr(self, name))
            if lo_c > hi_c:
                raise ValueError(f"{name} contains no representable price (grid is 1/{_CENTS})")
            if hi_c >= _INT64_LIMIT:
                raise ValueError(f"{name} must stay below 2**63 cents, got {hi_c} cents")
            # Kept for the generators, but not a field: equality, repr and
            # dataclasses.replace see only the range it is derived from.
            object.__setattr__(self, f"_{side}_grid", grid)
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


class _DrawnBids(tuple):
    """A generator's bids in id order, with the int64 draws they were built
    from: bid ``i`` is row ``i`` of ``quantities`` and of ``cents``.

    The tuple and its read-only draws cannot be edited, so the draws always
    stand for the bids; ``list(bids)`` is an editable copy of plain bids.
    """

    def __new__(cls, bids, quantities: np.ndarray, cents: np.ndarray):
        self = super().__new__(cls, bids)
        quantities.flags.writeable = cents.flags.writeable = False
        self.quantities, self.cents = quantities, cents
        return self

    def __reduce__(self):
        return type(self), (tuple(self), self.quantities, self.cents)

    def rows(self, keep: Sequence[bool]) -> "_DrawnBids":
        """The bids flagged in ``keep``, one boolean per bid, with their draws."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self),):
            raise ValueError(f"keep must be {len(self)} booleans, one per bid, got {keep.dtype}")
        return type(self)(compress(self, keep.tolist()), self.quantities[keep], self.cents[keep])


class _DrawnConsumers(_DrawnBids):
    pass


class _DrawnProviders(_DrawnBids):
    pass


def _drawn_market(
    consumer_bids: Sequence[ConsumerBid], provider_bids: Sequence[ProviderBid]
) -> Optional[_Market]:
    """The market of generated consumer and provider bids, read from their
    draws, with no bid read; ``None`` unless both are the generators'
    tuples (or rows of them), cover the same number of types and hold fewer
    than 2**63 units, the checks of ``wdp_solver._bid_market`` that
    generated bids can fail: each side is in id order with no id twice by
    construction.

    ``D`` is 100 over the gcd of 100 and every cent, which is the lcm of the
    rows' price vector denominators, and each price over ``D`` its cents
    over that gcd."""
    if not (
        type(consumer_bids) is _DrawnConsumers
        and type(provider_bids) is _DrawnProviders
        and consumer_bids.cents.shape[1] == provider_bids.cents.shape[1]
    ):
        return None
    # Each side's configuration bounds its own sum below 2**63.
    units = int(consumer_bids.quantities.sum()) + int(provider_bids.quantities.sum())
    if units >= _INT64_LIMIT:
        return None
    g = math.gcd(
        int(np.gcd.reduce(consumer_bids.cents, axis=None)),
        int(np.gcd.reduce(provider_bids.cents, axis=None)),
        _CENTS,
    )
    consumer_prices, provider_prices = consumer_bids.cents // g, provider_bids.cents // g
    largest = max(int(consumer_prices.max(initial=0)), int(provider_prices.max(initial=0)))
    dtype = _price_dtype(largest, units)
    return _Market(
        _CENTS // g,
        consumer_prices.astype(dtype, copy=False),
        provider_prices.astype(dtype, copy=False),
        consumer_bids.quantities,
        provider_bids.quantities,
    )


def generate_provider_bids(
    config: ScenarioConfig, rng: np.random.Generator
) -> tuple[ProviderBid, ...]:
    """Draw one offer per provider: per-type supply and ask prices, as an
    immutable tuple in id order that carries its read-only draws."""
    M = config.shape.num_providers
    L = config.shape.num_resource_types
    qlo, qhi = config.provider_quantity_range
    quantities = rng.integers(qlo, qhi, size=(M, L), endpoint=True)
    price_cents = rng.integers(*config._provider_grid, size=(M, L), endpoint=True)
    # Integer draws from the validated ranges, as ints and cent-grid price
    # vectors: valid by construction, so the constructor's checks are skipped.
    bids = [
        _unchecked(ProviderBid, provider_id=m, unit_prices=p, quantities=tuple(q))
        for m, (p, q) in enumerate(zip(_cent_vectors(price_cents), quantities.tolist()))
    ]
    return _DrawnProviders(bids, quantities, price_cents)


def _drift_windows(
    config: ScenarioConfig, cents: np.ndarray, grid: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per consumer and type, the lowest and highest cents a drifted price may
    take, for a previous round's price ``cents``.

    The window ``[(1 - drift) * c, (1 + drift) * c]`` for ``drift = u / v``
    is ``[(v - u) * c / v, (v + u) * c / v]``, rounded inward and clamped
    into the grid.  It holds ``c``, so a price drawn under another range
    whose window misses the grid drifts to the grid's nearest edge.  The
    arithmetic is int64 when every product provably fits, and ``object``
    arrays of Python ints otherwise.
    """
    u, v = config.price_drift.numerator, config.price_drift.denominator
    if int(cents.max()) * (u + v) >= _INT64_LIMIT:
        cents = cents.astype(object)
    lo = np.clip(-((u - v) * cents // v), *grid)
    hi = np.clip((v + u) * cents // v, *grid)
    return lo.astype(np.int64), hi.astype(np.int64)


def generate_consumer_bids(
    config: ScenarioConfig,
    rng: np.random.Generator,
    previous_personal_prices: Optional[Sequence[ConsumerBid]] = None,
) -> tuple[ConsumerBid, ...]:
    """Draw one request per consumer: per-type demand and offered prices, as
    an immutable tuple in id order that carries its read-only draws.

    Without previous prices (round one), prices are uniform over the
    configured range.  Given ``previous_personal_prices``, the tuple this
    function returned for the prior round, of this configuration's shape,
    each consumer's price for each type is uniform over
    ``[(1 - drift) * previous, (1 + drift) * previous]`` clamped into the
    range, where ``previous`` is that consumer's own price in the tuple.
    Anything else, a ``list(...)`` copy included, raises ``ValueError``.
    """
    N = config.shape.num_consumers
    L = config.shape.num_resource_types
    previous = previous_personal_prices
    if previous is not None and not (
        type(previous) is _DrawnConsumers and previous.cents.shape == (N, L)
    ):
        raise ValueError(
            "previous_personal_prices must be the unmodified consumer list generated "
            f"for the prior round, of {N} consumers and {L} types"
        )
    qlo, qhi = config.consumer_quantity_range
    grid = config._consumer_grid
    quantities = rng.integers(qlo, qhi, size=(N, L), endpoint=True)
    if qlo < 1:
        # Every bid must request something; bump one uniformly chosen type.
        for n in range(N):
            if not quantities[n].any():
                quantities[n][int(rng.integers(0, L))] = 1

    if previous is None:
        price_cents = rng.integers(*grid, size=(N, L), endpoint=True)
    else:
        lo, hi = _drift_windows(config, previous.cents, grid)
        price_cents = rng.integers(lo, hi, size=(N, L), endpoint=True)

    # Integer draws from the validated ranges, as ints and cent-grid price
    # vectors, and every bid requests a unit: valid by construction, so the
    # constructor's checks are skipped.
    bids = [
        _unchecked(ConsumerBid, consumer_id=n, unit_prices=p, quantities=tuple(q))
        for n, (p, q) in enumerate(zip(_cent_vectors(price_cents), quantities.tolist()))
    ]
    return _DrawnConsumers(bids, quantities, price_cents)
