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
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class Settlement:
    """Per-participant money flows of one cleared round.

    All maps are keyed by participant id (trade prices by consumer id, type
    index, provider id) and include zero entries for participants who did
    not trade.  Flows are kept as integers over ``twice_d`` (``2D``): row 0
    of a side's totals is what each paid or received, row 1 the surplus each
    kept, and each traded cell ``(n, l, m)`` has its unit price.  Each map
    is built on first access, then kept.
    """

    twice_d: int
    consumer_ids: list[int]
    provider_ids: list[int]
    consumer_totals: np.ndarray
    provider_totals: np.ndarray
    traded_cells: np.ndarray
    traded_prices: np.ndarray

    def _money(self, keys: list, totals: np.ndarray) -> dict:
        return {key: Fraction(t, self.twice_d) for key, t in zip(keys, totals.tolist())}

    @cached_property
    def unit_trade_prices(self) -> dict[tuple[int, int, int], Money]:
        c, p = self.consumer_ids, self.provider_ids
        cells = [(c[n], l, p[m]) for n, l, m in self.traded_cells.tolist()]
        return self._money(cells, self.traded_prices)

    consumer_payments = cached_property(lambda s: s._money(s.consumer_ids, s.consumer_totals[0]))
    provider_receipts = cached_property(lambda s: s._money(s.provider_ids, s.provider_totals[0]))
    consumer_utilities = cached_property(lambda s: s._money(s.consumer_ids, s.consumer_totals[1]))
    provider_utilities = cached_property(lambda s: s._money(s.provider_ids, s.provider_totals[1]))

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
    ``(cp + pp) / 2D`` for prices scaled by ``D``, and the settlement keeps
    each participant's totals as integers until a map is read.
    """
    violations = validate_solution(instance, allocation)
    if violations:
        raise ValueError(
            "cannot settle an infeasible allocation:\n  " + "\n  ".join(violations)
        )
    sc = instance._scaled
    y = allocation.transfers
    cp = sc.consumer_prices[:, :, None]
    pp = sc.provider_prices.T[None, :, :]
    # Over 2D: a unit's price is cp + pp, and the surplus each side keeps cp - pp.
    price = cp + pp
    flows = np.stack([y * price, y * (cp - pp)])
    traded = y > 0
    return Settlement(
        twice_d=2 * sc.denominator,
        consumer_ids=[ext.consumer_id for ext in instance.consumer_bids],
        provider_ids=[pb.provider_id for pb in instance.provider_bids],
        consumer_totals=flows.sum(axis=(2, 3)),
        provider_totals=flows.sum(axis=(1, 2)),
        traded_cells=np.argwhere(traded),
        traded_prices=price[traded],
    )
