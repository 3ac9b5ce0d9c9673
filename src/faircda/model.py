"""Core domain types for the combinatorial double auction.

Monetary values are exact rationals (`fractions.Fraction`) at the API, so
midpoint trade prices and budget-balance checks are exact equalities rather
than floating-point approximations.  A bid's unit prices are a
:class:`PriceVector`: integer numerators over one denominator, read as a
sequence of ``Fraction`` items that are built only when an item is read.
Generation, winner determination, settlement, the fairness factors and the
repository's report read the integers, so a generated price is never a
``Fraction`` unless something reads it as one.  Quantities are integers:
resources are discrete units.

All types are immutable value objects; constructing one with an invalid
field combination raises ``ValueError``.  The :class:`Repository` and its
snapshot loader are here, where both the engine and the report parser read them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence as _SequenceABC
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

Money = Fraction

__all__ = [
    "Money",
    "as_money",
    "PriceVector",
    "MarketShape",
    "ConsumerBid",
    "ProviderBid",
    "ExtendedConsumerBid",
    "ParticipantRecord",
    "Repository",
    "repository_to_dict",
    "repository_from_dict",
    "FairnessParams",
    "Allocation",
]


def as_money(value) -> Money:
    """Coerce a numeric value to an exact :class:`Fraction`.

    Floats are converted through their decimal string form, so
    ``as_money(0.1) == Fraction(1, 10)`` rather than the binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret {value!r} as a monetary value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"cannot interpret {value!r} as a monetary value")


def common_denominator(denominators: Iterable[int]) -> int:
    """The least common multiple of ``denominators`` (1 for none).

    A product tree of pairwise ``lcm``s (Bernstein 2008), so each joins
    operands of similar size, not a small one into a growing result.
    """
    level = list(set(denominators)) or [1]
    while len(level) > 1:
        level = [math.lcm(*level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def over_common_denominator(
    values: Sequence[Money], denominator: int = 1
) -> tuple[int, list[int]]:
    """``S``, the least common multiple of ``denominator`` and the values'
    denominators, and each value times ``S``.

    Sums and comparisons of the returned integers are exact and need no
    rational arithmetic; divide a result by ``S`` to get a rational back.
    """
    denominators = {v.denominator for v in values}
    denominators.add(denominator)
    S = common_denominator(denominators)
    scale = {d: S // d for d in denominators}
    return S, [v.numerator * scale[v.denominator] for v in values]


def price_rows(vectors: Sequence[PriceVector]) -> tuple[int, list[Sequence[int]]]:
    """``D``, the lcm of the vectors' denominators and so of their items',
    and each vector's numerators over ``D``."""
    D = common_denominator(v.denominator for v in vectors)
    return D, [
        v.numerators if v.denominator == D else [a * (D // v.denominator) for a in v.numerators]
        for v in vectors
    ]


# Scaled prices are int64 when (max price + 1) * (total units + 1) stays below
# this: every budget, cumulative supply or cost and doubled midpoint sum fits.
_INT64_SAFE = 2**62


def _price_dtype(largest_price: int, units: int) -> type:
    """The dtype of a market's scaled prices: int64 when
    ``(largest_price + 1) * (units + 1) < _INT64_SAFE``, ``object`` (Python
    ints) otherwise."""
    return np.int64 if (largest_price + 1) * (units + 1) < _INT64_SAFE else object


class _Market(NamedTuple):
    """A round's market as integers, one row per bid in bid order.

    ``consumer_prices[n, l]`` and ``provider_prices[m, l]`` are unit prices
    times ``denominator`` (``D``, the least common denominator of every
    price), of :func:`_price_dtype` over the largest of them and the
    market's units; the quantity arrays are int64.  Two builders make it:
    ``wdp_solver._bid_market`` from the bids, which it checks, and
    ``scenario._cent_market`` from a round's draws, which are never read
    back from the bids built from them.
    """

    denominator: int
    consumer_prices: np.ndarray
    provider_prices: np.ndarray
    consumer_quantities: np.ndarray
    provider_quantities: np.ndarray

    def mean_consumer_prices(self) -> list[Money]:
        """Per type, the mean offered unit price, one ``Fraction`` of the
        column's integer sum.  Every bid requests a unit, so there are at
        most as many prices as units and an int64 sum stays below 2**62."""
        scale = self.denominator * len(self.consumer_prices)
        return [Fraction(total, scale) for total in self.consumer_prices.sum(axis=0).tolist()]


def _ratio(value) -> tuple[int, int]:
    """``value``'s reduced numerator and denominator, as :func:`as_money` reads it."""
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if num.isdigit() and (den.isdigit() or not slash) and (d := int(den or 1)):
            g = math.gcd(n := int(num), d)
            return n // g, d // g
    money = as_money(value)
    return money.numerator, money.denominator


class PriceVector(_SequenceABC):
    """An immutable vector of exact prices: integer ``numerators`` over one
    ``denominator``.

    The denominator is the least common denominator of the items, so equal
    vectors hold equal integers.  The vector is a read-only sequence of
    :data:`Money`: reading an item builds its ``Fraction``, and a vector
    equals and hashes like the tuple of those ``Fraction``s.  Code that
    only computes with the prices reads ``numerators`` and ``denominator``
    and builds no ``Fraction`` at all.

    ``PriceVector(values)`` reads each value with :func:`as_money`, like
    ``tuple(values)``, and returns a vector given a vector; a canonical string,
    ASCII ``"n"`` or ``"n/d"`` with ``d > 0`` as :meth:`strings` writes, is
    read to the same integers without a ``Fraction``.
    """

    __slots__ = ("numerators", "denominator")

    def __new__(cls, values: Iterable = ()):
        if type(values) is cls:
            return values
        pairs = [_ratio(v) for v in values]
        D = math.lcm(*[d for _, d in pairs])
        return cls._make(tuple(n * (D // d) for n, d in pairs), D)

    @classmethod
    def _make(cls, numerators: tuple[int, ...], denominator: int) -> "PriceVector":
        """The vector of these integers, unchecked: ``denominator`` must be
        positive and the least common denominator of the items."""
        vector = object.__new__(cls)
        object.__setattr__(vector, "numerators", numerators)
        object.__setattr__(vector, "denominator", denominator)
        return vector

    def __setattr__(self, name, value):
        raise AttributeError(f"PriceVector is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PriceVector is immutable; cannot delete {name!r}")

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PriceVector(tuple(self)[index])
        return Fraction(self.numerators[index], self.denominator)

    def __iter__(self):
        d = self.denominator
        return (Fraction(n, d) for n in self.numerators)

    def __eq__(self, other):
        if isinstance(other, PriceVector):
            return self.numerators == other.numerators and self.denominator == other.denominator
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __reduce__(self):
        return PriceVector._make, (self.numerators, self.denominator)

    def __repr__(self) -> str:
        return f"PriceVector({self.strings()!r})"

    def strings(self) -> list[str]:
        """Each item as ``str`` prints its ``Fraction``, formatted from the integers."""
        d = self.denominator
        return [
            str(n // g) if (g := math.gcd(n, d)) == d else f"{n // g}/{d // g}"
            for n in self.numerators
        ]


def exact_sum(values: Iterable[Money]) -> Money:
    """The exact sum of ``values``: numerators are summed per denominator,
    and those sums added in pairs as a tree, like
    :func:`common_denominator`'s ``lcm``s, so each addition joins
    operands of similar size.  Partial sums stay unreduced; one ``gcd``
    reduces the total."""
    per_denominator: dict[int, int] = {}
    for v in values:
        per_denominator[v.denominator] = per_denominator.get(v.denominator, 0) + v.numerator
    level = [(n, d) for d, n in per_denominator.items()] or [(0, 1)]
    while len(level) > 1:
        pairs = zip(level[::2], level[1::2])
        level = [(a * d + c * b, b * d) for (a, b), (c, d) in pairs] + level[len(level) & ~1 :]
    return Fraction(*level[0])


def _check_count(value, name: str, positive: bool = False) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) that is at least 0, or 1 if ``positive``.

    The one count check of every config and record type: counts arrive from
    JSON, where ``true`` and ``2.0`` must not pass for integers.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < int(positive):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def _json_value(value, name: str, kind: type = dict, keys: Iterable[str] = ()):
    """``value`` if it is a JSON object (``kind`` dict) holding every one of
    ``keys``, or a JSON array (``kind`` list): the shape check of the JSON
    loaders, so that malformed input raises a ``ValueError`` naming the value
    or the missing field, never a ``KeyError`` or ``TypeError``."""
    if not isinstance(value, kind):
        shape = "object" if kind is dict else "array"
        raise ValueError(f"{name} must be a JSON {shape}, got {value!r}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{name} is missing the field {key!r}")
    return value


def _check_money(value, name: str) -> Money:
    """``value`` as exact money if :func:`as_money` reads it and it is at least 0.

    The one money check of every config type: like counts, money arrives
    from JSON, and a bad value must be reported under its field's name.
    """
    try:
        money = as_money(value)
    except (ValueError, ZeroDivisionError):
        money = None
    if money is None or money < 0:
        raise ValueError(f"{name} must be a non-negative number, got {value!r}")
    return money


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` built without ``__post_init__``.

    Only for values that are valid by construction; each caller says why.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def _money_tuple(values: Sequence, what: str) -> PriceVector:
    """``values`` as a :class:`PriceVector` of non-negative money; a vector
    is returned as it is once its sign is checked.  The one price check of
    bids and history entries."""
    try:
        vector = PriceVector(values)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} must be numbers, got {values!r}") from exc
    for n in vector.numerators:
        if n < 0:
            raise ValueError(f"{what} must be non-negative, got {Fraction(n, vector.denominator)}")
    return vector


def _quantity_tuple(values: Sequence, what: str) -> tuple[int, ...]:
    if not isinstance(values, Iterable):
        raise ValueError(f"{what} must be integers, got {values!r}")
    out = []
    for v in values:
        try:
            iv = int(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{what} must be integers, got {v!r}") from exc
        if iv != v:
            raise ValueError(f"{what} must be integers, got {v!r}")
        if iv < 0:
            raise ValueError(f"{what} must be non-negative, got {iv}")
        out.append(iv)
    return tuple(out)


def _check_bid_vectors(bid, side: str, bid_id: int) -> None:
    """Store a bid's unit prices and quantities validated; they must match in length."""
    object.__setattr__(bid, "unit_prices", _money_tuple(bid.unit_prices, f"{side} unit prices"))
    object.__setattr__(bid, "quantities", _quantity_tuple(bid.quantities, f"{side} quantities"))
    if len(bid.unit_prices) != len(bid.quantities):
        raise ValueError(
            f"{side} {bid_id}: price vector has length {len(bid.unit_prices)} "
            f"but quantity vector has length {len(bid.quantities)}"
        )


@dataclass(frozen=True)
class MarketShape:
    """Market dimensions: consumer, provider, and resource-type counts.

    Zero counts are tolerated so degenerate edge markets (for example a
    round in which every consumer has dropped out) remain representable;
    scenario generation requires all counts to be at least one.
    """

    num_consumers: int
    num_providers: int
    num_resource_types: int

    def __post_init__(self):
        for name in ("num_consumers", "num_providers", "num_resource_types"):
            _check_count(getattr(self, name), name)


@dataclass(frozen=True)
class ConsumerBid:
    """A consumer's request: per-type unit prices and a bundle of quantities.

    The bid asks for ``quantities[l]`` units of each resource type ``l`` at a
    suggested unit price of ``unit_prices[l]``.  Any sequence of money is
    accepted as the prices and stored as a :class:`PriceVector`.  A bid must
    request at least one unit of something; an all-zero request is rejected.
    """

    consumer_id: int
    unit_prices: PriceVector
    quantities: tuple[int, ...]

    def __post_init__(self):
        _check_bid_vectors(self, "consumer", self.consumer_id)
        if not any(q >= 1 for q in self.quantities):
            raise ValueError(
                f"consumer {self.consumer_id}: bid requests no resources at all"
            )

    @property
    def num_types(self) -> int:
        return len(self.quantities)


@dataclass(frozen=True)
class ProviderBid:
    """A provider's offer: per-type unit asking prices (a :class:`PriceVector`,
    like a consumer's) and available supply."""

    provider_id: int
    unit_prices: PriceVector
    quantities: tuple[int, ...]

    def __post_init__(self):
        _check_bid_vectors(self, "provider", self.provider_id)

    @property
    def num_types(self) -> int:
        return len(self.quantities)


@dataclass(frozen=True)
class ExtendedConsumerBid:
    """A consumer bid extended with its fairness factor for this round.

    The fairness factor is a signed currency-scale value added to the
    winner-determination objective when this consumer wins.  Positive values
    boost persistent losers, negative values throttle repeat winners.
    """

    bid: ConsumerBid
    fairness_factor: Money = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.bid, ConsumerBid):
            raise ValueError(f"an extended bid extends a ConsumerBid, got {self.bid!r}")
        object.__setattr__(self, "fairness_factor", as_money(self.fairness_factor))

    @property
    def consumer_id(self) -> int:
        return self.bid.consumer_id


@dataclass(frozen=True)
class ParticipantRecord:
    """Per-consumer participation history kept by the auction repository.

    ``consecutive_losses`` is the length of the current losing streak and
    resets to zero on a win.  ``price_history`` holds the per-type unit
    prices this consumer offered in each past round, most recent last, each
    a :class:`PriceVector`; it feeds the bid-quality evaluation.
    ``dropped_at_round``, once set, never changes.

    History is validated on entry: the constructor checks every entry it is
    given, and the fold (``engine.update_repository``) appends each bid's
    unit prices unchecked, since :class:`ConsumerBid` checked them.  A run
    validates each entry once, not once per round.
    """

    wins: int = 0
    losses: int = 0
    consecutive_losses: int = 0
    dropped_at_round: Optional[int] = None
    price_history: tuple[PriceVector, ...] = ()

    def __post_init__(self):
        for name in ("wins", "losses", "consecutive_losses"):
            _check_count(getattr(self, name), name)
        if self.consecutive_losses > self.losses:
            raise ValueError(
                f"consecutive_losses ({self.consecutive_losses}) cannot exceed "
                f"losses ({self.losses})"
            )
        if self.dropped_at_round is not None:
            _check_count(self.dropped_at_round, "dropped_at_round", positive=True)
        if not isinstance(self.price_history, Iterable):
            raise ValueError(f"price history must be price vectors, got {self.price_history!r}")
        object.__setattr__(
            self,
            "price_history",
            tuple(_money_tuple(entry, "price history entry") for entry in self.price_history),
        )

    @property
    def dropped(self) -> bool:
        return self.dropped_at_round is not None

    def last_offered_prices(self) -> Optional[PriceVector]:
        """Most recent price vector this consumer offered, or None."""
        return self.price_history[-1] if self.price_history else None

    def _appended(self, won: bool, entry: PriceVector) -> "ParticipantRecord":
        # Counts derived from a valid record stay valid, held history was
        # validated on entry, and ``entry`` must already be valid money.
        return _unchecked(
            ParticipantRecord,
            wins=self.wins + won,
            losses=self.losses + (not won),
            consecutive_losses=0 if won else self.consecutive_losses + 1,
            dropped_at_round=self.dropped_at_round,
            price_history=self.price_history + (entry,),
        )

    def marked_dropped(self, round_index: int) -> "ParticipantRecord":
        """Successor record with the drop round recorded; idempotent once set."""
        if self.dropped_at_round is not None:
            return self
        # Only the new field needs checking: the rest is this valid record's.
        _check_count(round_index, "dropped_at_round", positive=True)
        return _unchecked(ParticipantRecord, **{**vars(self), "dropped_at_round": round_index})


@dataclass(frozen=True)
class Repository:
    """Participation records for every consumer ever seen, plus the round count."""

    records: dict[int, ParticipantRecord] = field(default_factory=dict)
    round_counter: int = 0

    def __post_init__(self):
        _check_count(self.round_counter, "round_counter")

    def record(self, consumer_id: int) -> ParticipantRecord:
        try:
            return self.records[consumer_id]
        except KeyError:
            raise ValueError(f"no participation record for consumer {consumer_id}") from None

    @classmethod
    def fresh(cls, consumer_ids: Sequence[int]) -> "Repository":
        return cls(records={cid: ParticipantRecord() for cid in sorted(consumer_ids)})


def repository_to_dict(repo: Repository) -> dict:
    return {
        "round_counter": repo.round_counter,
        "records": {
            str(cid): {
                "wins": rec.wins,
                "losses": rec.losses,
                "consecutive_losses": rec.consecutive_losses,
                "dropped_at_round": rec.dropped_at_round,
                # Formatted from the vectors' integers: iterating them would
                # build every history price as a Fraction.
                "price_history": [entry.strings() for entry in rec.price_history],
            }
            for cid, rec in sorted(repo.records.items())
        },
    }


_RECORD_COUNTS = ("wins", "losses", "consecutive_losses", "dropped_at_round")


def repository_from_dict(payload: Mapping) -> Repository:
    """Inverse of :func:`repository_to_dict`; malformed input raises a
    ``ValueError`` naming the field."""
    payload = _json_value(payload, "repository", keys=("records", "round_counter"))
    records = {}
    for cid, fields in _json_value(payload["records"], "records").items():
        fields = _json_value(fields, f"record {cid}", keys=(*_RECORD_COUNTS, "price_history"))
        history = _json_value(fields["price_history"], "price_history", list)
        # Only str(id) itself: "03" or " 3" would merge with "3" into one record.
        try:
            consumer_id = int(cid)
            if str(consumer_id) != cid:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(f"records key must be a consumer id as str(id), got {cid!r}") from None
        # ParticipantRecord converts each price once, with as_money: 0.1 loads as 1/10.
        records[consumer_id] = ParticipantRecord(
            **{name: fields[name] for name in _RECORD_COUNTS},
            price_history=[_json_value(e, "price history entry", list) for e in history],
        )
    return Repository(records=records, round_counter=payload["round_counter"])


@dataclass(frozen=True)
class FairnessParams:
    """Coefficients of the fairness-factor policy.

    ``alpha1``/``alpha2`` weight the loss count and bid quality in the
    loser-reward formula; ``beta1``/``beta2`` weight the win count and
    inverse bid quality in the winner-penalty formula.  ``max_losses`` is
    the longest tolerated losing streak: one more consecutive loss and the
    consumer drops out.
    """

    alpha1: Money = Fraction(9)
    alpha2: Money = Fraction(7)
    beta1: Money = Fraction(4)
    beta2: Money = Fraction(28)
    max_losses: int = 6

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            object.__setattr__(self, name, _check_money(getattr(self, name), name))
        if self.beta2 <= 0:
            raise ValueError("beta2 must be strictly positive (it is divided by the bid quality)")
        _check_count(self.max_losses, "max_losses", positive=True)


@dataclass(frozen=True, eq=False)
class Allocation:
    """A winner vector and the dense transfer tensor of one clearing.

    ``winners[n]`` says whether consumer ``n`` won; ``transfers[n, l, m]``
    is the number of units of type ``l`` consumer ``n`` takes from provider
    ``m``.  The constructor checks intrinsic well-formedness only (shapes,
    integrality, non-negativity); feasibility against a concrete instance —
    supply, demand exactness, linkage, price compatibility — is checked by
    ``wdp_solver.validate_solution`` so that deliberately infeasible
    allocations can be constructed and diagnosed.
    """

    winners: tuple[bool, ...]
    transfers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "winners", tuple(bool(w) for w in self.winners))
        # A copy: freezing the caller's own array would make it read-only.
        transfers = np.array(self.transfers)
        if transfers.dtype != np.int64:
            # Item by item, so that 1.5 or 2**63 is an error, not truncated or overflowed.
            units = _quantity_tuple(transfers.ravel().tolist(), "transfers")
            if max(units, default=0) >= 2**63:
                raise ValueError(f"transfers must fit in int64, got {max(units)}")
            transfers = np.array(units, dtype=np.int64).reshape(transfers.shape)
        if transfers.ndim != 3:
            raise ValueError(f"transfers must be a 3-d array, got shape {transfers.shape}")
        if transfers.shape[0] != len(self.winners):
            raise ValueError(
                f"transfers first axis ({transfers.shape[0]}) must match the "
                f"number of winners entries ({len(self.winners)})"
            )
        if transfers.size and transfers.min() < 0:
            raise ValueError("transfers must be non-negative")
        transfers.flags.writeable = False
        object.__setattr__(self, "transfers", transfers)

    def units_sold(self) -> int:
        return int(self.transfers.sum())

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return self.winners == other.winners and np.array_equal(
            self.transfers, other.transfers
        )

    __hash__ = None
