"""Midpoint pricing and settlement of a cleared round.

Every traded unit settles at the arithmetic mean of the consumer's offered
unit price and the provider's ask.  Both sides therefore capture the same
per-unit surplus, nobody trades at a loss, and total payments equal total
receipts exactly (all arithmetic is exact, over integers scaled by the
prices' common denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import Allocation, Money, as_money
from .wdp_solver import WdpInstance, compatible, validate_solution

__all__ = ["Settlement", "trade_price_unit", "settle"]


def trade_price_unit(consumer_price: Money, provider_price: Money) -> Money:
    """Unit trade price: the midpoint of the two suggested prices.

    Only defined for compatible pairs; a consumer offering less than the ask
    cannot trade at any price acceptable to both sides.
    """
    cp = as_money(consumer_price)
    pp = as_money(provider_price)
    if not compatible(cp, pp):
        raise ValueError(
            f"no trade price exists: consumer offers {cp}, provider asks {pp}"
        )
    return (cp + pp) / 2


@dataclass(frozen=True)
class Settlement:
    """Per-participant money flows of one cleared round.

    All maps are keyed by participant id (trade prices by consumer id, type
    index, provider id) and include zero entries for participants who did
    not trade.
    """

    unit_trade_prices: dict[tuple[int, int, int], Money]
    consumer_payments: dict[int, Money]
    provider_receipts: dict[int, Money]
    consumer_utilities: dict[int, Money]
    provider_utilities: dict[int, Money]

    def total_payments(self) -> Money:
        return sum(self.consumer_payments.values(), Fraction(0))

    def total_receipts(self) -> Money:
        return sum(self.provider_receipts.values(), Fraction(0))

    def total_utility(self) -> Money:
        return sum(self.consumer_utilities.values(), Fraction(0)) + sum(
            self.provider_utilities.values(), Fraction(0)
        )


def settle(instance: WdpInstance, allocation: Allocation) -> Settlement:
    """Price every traded unit and compute payments, receipts, and utilities.

    The allocation must be feasible for the instance.  A consumer pays the
    midpoint price for each unit received; utility is what they saved
    against their own offer, and symmetrically for providers.  Losers and
    providers who sold nothing settle at zero.

    Sums run over the instance's integer prices: a midpoint is
    ``(cp + pp) / 2D`` for prices scaled by ``D``, and each participant's
    totals become rationals once, at the end.
    """
    violations = validate_solution(instance, allocation)
    if violations:
        raise ValueError(
            "cannot settle an infeasible allocation:\n  " + "\n  ".join(violations)
        )
    sc = instance._scaled
    twice_d = 2 * sc.denominator
    consumer_ids = [ext.consumer_id for ext in instance.consumer_bids]
    provider_ids = [pb.provider_id for pb in instance.provider_bids]
    y = allocation.transfers
    cp = sc.consumer_prices[:, :, None]
    pp = sc.provider_prices.T[None, :, :]
    # Over 2D: a unit's price is cp + pp, and the surplus each side keeps cp - pp.
    price = cp + pp
    paid = y * price
    kept = y * (cp - pp)

    def rationals(ids: list[int], totals: np.ndarray) -> dict[int, Money]:
        return {key: Fraction(t, twice_d) for key, t in zip(ids, totals.tolist())}

    traded = y > 0
    unit_prices = {
        (consumer_ids[n], l, provider_ids[m]): Fraction(p, twice_d)
        for (n, l, m), p in zip(np.argwhere(traded).tolist(), price[traded].tolist())
    }
    return Settlement(
        unit_trade_prices=unit_prices,
        consumer_payments=rationals(consumer_ids, paid.sum(axis=(1, 2))),
        provider_receipts=rationals(provider_ids, paid.sum(axis=(0, 1))),
        consumer_utilities=rationals(consumer_ids, kept.sum(axis=(1, 2))),
        provider_utilities=rationals(provider_ids, kept.sum(axis=(0, 1))),
    )
