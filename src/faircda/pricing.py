"""Midpoint pricing and settlement of a cleared round.

Every traded unit settles at the arithmetic mean of the consumer's offered
unit price and the provider's ask.  Both sides therefore capture the same
per-unit surplus, nobody trades at a loss, and total payments equal total
receipts exactly (all arithmetic is exact, over integers scaled by the
prices' common denominator).  A :class:`Settlement` is the instance and
the allocation it settles; every flow is derived from the two when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .model import Allocation, Money
from .wdp_solver import WdpInstance, _require_feasible

__all__ = ["Settlement", "settle"]


@dataclass(frozen=True, eq=False)
class Settlement:
    """Per-participant money flows of a feasible ``allocation`` of ``instance``.

    All maps are keyed by participant id (trade prices by consumer id, type
    index, provider id) and include zero entries for participants who did
    not trade.  Each is built on first access, then kept, from the
    instance's scaled prices (``instance._scaled``) over ``2D``: a unit's
    price is ``cp + pp`` and the surplus each side keeps ``cp - pp``.  The
    flows behind the maps are computed once, on the first read of any.
    """

    instance: WdpInstance
    allocation: Allocation

    @cached_property
    def _flows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each side's totals over ``2D`` (row 0 paid or received, row 1 the
        surplus kept), the traded cells ``(n, l, m)`` and their unit prices."""
        sc = self.instance._scaled
        y = self.allocation.transfers
        cp = sc.consumer_prices[:, :, None]
        pp = sc.provider_prices.T[None, :, :]
        price = cp + pp
        flows = np.stack([y * price, y * (cp - pp)])
        traded = y > 0
        return flows.sum(axis=(2, 3)), flows.sum(axis=(1, 2)), np.argwhere(traded), price[traded]

    def _money(self, keys, totals: np.ndarray) -> dict:
        twice_d = 2 * self.instance._scaled.denominator
        return {key: Fraction(t, twice_d) for key, t in zip(keys, totals.tolist())}

    @cached_property
    def _ids(self) -> tuple[list[int], list[int]]:
        """Consumer and provider ids, by position in the instance."""
        consumers, providers = self.instance.consumer_bids, self.instance.provider_bids
        return [e.consumer_id for e in consumers], [b.provider_id for b in providers]

    @cached_property
    def unit_trade_prices(self) -> dict[tuple[int, int, int], Money]:
        (c, p), (_, _, cells, prices) = self._ids, self._flows
        return self._money([(c[n], l, p[m]) for n, l, m in cells.tolist()], prices)

    consumer_payments = cached_property(lambda s: s._money(s._ids[0], s._flows[0][0]))
    provider_receipts = cached_property(lambda s: s._money(s._ids[1], s._flows[1][0]))
    consumer_utilities = cached_property(lambda s: s._money(s._ids[0], s._flows[0][1]))
    provider_utilities = cached_property(lambda s: s._money(s._ids[1], s._flows[1][1]))

    def total_payments(self) -> Money:
        return sum(self.consumer_payments.values(), Fraction(0))

    def total_receipts(self) -> Money:
        return sum(self.provider_receipts.values(), Fraction(0))

    def total_utility(self) -> Money:
        return sum(self.consumer_utilities.values(), Fraction(0)) + sum(
            self.provider_utilities.values(), Fraction(0)
        )


def settle(instance: WdpInstance, allocation: Allocation) -> Settlement:
    """The settlement of a feasible ``allocation`` of ``instance``.

    The allocation is validated here, once (``validate_solution``); an
    infeasible one raises ``ValueError``.  A consumer pays the midpoint
    price for each unit received; utility is what they saved against their
    own offer, and symmetrically for providers.  Losers and providers who
    sold nothing settle at zero.  Nothing is priced until a map is read.
    """
    _require_feasible(instance, allocation, "cannot settle an infeasible allocation")
    return Settlement(instance, allocation)
