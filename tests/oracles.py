"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's solver machinery: routing cost is
found by enumerating every integer transfer matrix, type by type, and the
heuristic (as a candidate-by-candidate loop), the fairness factors and the
bid generator's drift windows are written directly in ``Fraction``
arithmetic.  Keep them slow and obvious.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

from faircda.model import ConsumerBid, ProviderBid, as_money
from faircda.wdp_solver import WdpInstance


def reference_budget(bid) -> Fraction:
    """What a consumer offers for their whole bundle: price times quantity, summed."""
    return sum((p * q for p, q in zip(bid.unit_prices, bid.quantities)), Fraction(0))


def transfer_cost(inst: WdpInstance, y: np.ndarray) -> Fraction:
    total = Fraction(0)
    for n, l, m in np.argwhere(y > 0):
        total += int(y[n, l, m]) * inst.provider_bids[m].unit_prices[l]
    return total


def brute_force_min_cost(inst: WdpInstance, winner_positions) -> Fraction | None:
    """Exhaustive minimum service cost over all integer transfer matrices.

    Resource types route independently, so the search enumerates, per type,
    every way of splitting each winner's demand across providers within
    supply and price compatibility.  Returns None when no routing exists.
    """
    total = Fraction(0)
    for l in range(inst.shape.num_resource_types):
        best = _brute_force_type(inst, winner_positions, l)
        if best is None:
            return None
        total += best
    return total


def _brute_force_type(inst, winner_positions, l):
    M = inst.shape.num_providers
    needs = [
        (n, inst.consumer_bids[n].bid.quantities[l])
        for n in winner_positions
        if inst.consumer_bids[n].bid.quantities[l] > 0
    ]
    prices = [pb.unit_prices[l] for pb in inst.provider_bids]
    supply = [pb.quantities[l] for pb in inst.provider_bids]
    best = [None]

    def recurse(idx, remaining, cost):
        if idx == len(needs):
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        n, need = needs[idx]
        threshold = inst.consumer_bids[n].bid.unit_prices[l]
        for split in itertools.product(range(need + 1), repeat=M):
            if sum(split) != need:
                continue
            if any(split[m] > remaining[m] for m in range(M)):
                continue
            if any(split[m] > 0 and prices[m] > threshold for m in range(M)):
                continue
            recurse(
                idx + 1,
                [remaining[m] - split[m] for m in range(M)],
                cost + sum(split[m] * prices[m] for m in range(M)),
            )

    recurse(0, supply, Fraction(0))
    return best[0]


def reference_margins(inst: WdpInstance) -> dict[int, Fraction]:
    """Each consumer whose bundle the providers they can afford cover on their
    own, by position, mapped to their margin: budget plus fairness factor
    minus their bundle priced at each type's cheapest ask.

    No winner set gains more from a consumer than their margin, so the sum
    of the positive margins bounds every objective.
    """
    margins = {}
    for n, ext in enumerate(inst.consumer_bids):
        bound, ok = Fraction(0), True
        for l, (need, price) in enumerate(zip(ext.bid.quantities, ext.bid.unit_prices)):
            if need == 0:
                continue
            affordable = [pb for pb in inst.provider_bids if pb.unit_prices[l] <= price]
            if sum(pb.quantities[l] for pb in affordable) < need:
                ok = False
                break
            bound += need * min(pb.unit_prices[l] for pb in inst.provider_bids)
        if ok:
            margins[n] = reference_budget(ext.bid) + ext.fairness_factor - bound
    return margins


def reference_heuristic_winners(inst: WdpInstance) -> list[int]:
    """Winner positions of the greedy-plus-repair heuristic, one candidate at a time.

    This is the heuristic as a plain loop in ``Fraction`` arithmetic, read
    straight from the bids: feasibility by walking every supply prefix,
    marginal cost by bisecting cumulative supply.  The library's solver
    tests candidates as arrays, on integers over common denominators; it
    must admit exactly the consumers this loop admits.
    """
    return reference_heuristic(inst)[0]


def reference_heuristic(inst: WdpInstance) -> tuple[list[int], list[list[int]], Fraction]:
    """The same loop, greedy pass and repair: its winner positions,
    ascending, their cumulative demand and its cost, as
    :func:`reference_greedy` returns them."""
    return _reference_heuristic(inst, repair=True)


def reference_greedy(inst: WdpInstance) -> tuple[list[int], list[list[int]], Fraction]:
    """The same loop's greedy pass alone, with no repair: its winner
    positions, ascending; their cumulative demand ``cumdem[l][k]``, the
    demand of type ``l`` from winners who reach at most ``k + 1`` providers
    sorted by (ask, position); and the cost of that demand."""
    return _reference_heuristic(inst, repair=False)


def _reference_heuristic(inst, repair):
    """(winners, cumdem, cost) of the greedy pass, then the repair if ``repair``."""
    M = inst.shape.num_providers
    L = inst.shape.num_resource_types
    q = [list(ext.bid.quantities) for ext in inst.consumer_bids]
    w = [reference_budget(ext.bid) + ext.fairness_factor for ext in inst.consumer_bids]
    sorted_prices, cumsup, cumcost = [], [], []
    for l in range(L):
        order = sorted(range(M), key=lambda m: (inst.provider_bids[m].unit_prices[l], m))
        prices = [inst.provider_bids[m].unit_prices[l] for m in order]
        cs, cc = [0], [Fraction(0)]
        for m, p in zip(order, prices):
            cs.append(cs[-1] + inst.provider_bids[m].quantities[l])
            cc.append(cc[-1] + p * inst.provider_bids[m].quantities[l])
        sorted_prices.append(prices)
        cumsup.append(cs)
        cumcost.append(cc)
    reach = [
        [bisect_right(sorted_prices[l], ext.bid.unit_prices[l]) for l in range(L)]
        for ext in inst.consumer_bids
    ]
    def can_add(cumdem, n):
        for l in range(L):
            if q[n][l] == 0:
                continue
            for k in range(reach[n][l] - 1, M):
                if cumdem[l][k] + q[n][l] > cumsup[l][k + 1]:
                    return False
        return True

    def shift(cumdem, n, sign):
        for l in range(L):
            if q[n][l] == 0:
                continue
            for k in range(reach[n][l] - 1, M):
                cumdem[l][k] += sign * q[n][l]

    def cost(l, demand):
        if demand == 0:
            return Fraction(0)
        idx = bisect_left(cumsup[l], demand)
        return cumcost[l][idx - 1] + (demand - cumsup[l][idx - 1]) * sorted_prices[l][idx - 1]

    def marginal_cost(cumdem, n):
        delta = Fraction(0)
        for l in range(L):
            if q[n][l] == 0:
                continue
            d = cumdem[l][M - 1] if M else 0
            delta += cost(l, d + q[n][l]) - cost(l, d)
        return delta

    def admit_in_order(cumdem, admitted, pool):
        for n in pool:
            if can_add(cumdem, n) and w[n] - marginal_cost(cumdem, n) >= 0:
                shift(cumdem, n, 1)
                admitted.append(n)

    def total_cost(cumdem):
        return sum((cost(l, cumdem[l][M - 1] if M else 0) for l in range(L)), Fraction(0))

    def objective(cumdem, admitted):
        return sum((w[n] for n in admitted), Fraction(0)) - total_cost(cumdem)

    margin = reference_margins(inst)
    ranked = sorted((n for n in margin if margin[n] >= 0), key=lambda n: (-margin[n], n))
    cumdem = [[0] * M for _ in range(L)]
    admitted = []
    admit_in_order(cumdem, admitted, ranked)
    current = objective(cumdem, admitted)
    for a in sorted(admitted, key=lambda n: (margin[n], n)) if repair else ():
        trial_cumdem = [row[:] for row in cumdem]
        trial = [n for n in admitted if n != a]
        shift(trial_cumdem, a, -1)
        admit_in_order(trial_cumdem, trial, [r for r in ranked if r not in admitted])
        new = objective(trial_cumdem, trial)
        if new > current:
            cumdem, admitted, current = trial_cumdem, trial, new
    return sorted(admitted), cumdem, total_cost(cumdem)


def reference_costs(inst: WdpInstance, l: int) -> list[Fraction]:
    """The exact cost of the ``d`` cheapest units of type ``l``, for every ``d`` up to supply."""
    order = sorted(inst.provider_bids, key=lambda pb: pb.unit_prices[l])
    costs = [Fraction(0)]
    for pb in order:
        base = costs[-1]
        costs += [base + k * pb.unit_prices[l] for k in range(1, pb.quantities[l] + 1)]
    return costs


def reference_eval_fun(record, market_mean_prices) -> Fraction:
    """Mean of last price / market mean over types, clamped to [1/10, 10]."""
    means = [as_money(p) for p in market_mean_prices]
    for l, mean in enumerate(means):
        if mean <= 0:
            raise ValueError(f"market mean price for resource type {l} must be positive, got {mean}")
    last = record.last_offered_prices()
    if last is None:
        return Fraction(1)
    if len(last) != len(means):
        raise ValueError(
            f"price history entry has {len(last)} types but market means have {len(means)}"
        )
    ratio = sum((p / mean for p, mean in zip(last, means)), Fraction(0)) / len(means)
    return min(max(ratio, Fraction(1, 10)), Fraction(10))


def reference_fun_w(losses, eval, cl, params) -> Fraction:
    return (cl + 1) * (params.alpha1 * losses + params.alpha2 * as_money(eval))


def reference_fun_l(wins, eval, cl, params) -> Fraction:
    return -Fraction(1, cl + 1) * (params.beta1 * wins + params.beta2 / as_money(eval))


def reference_prob_w(cl, params) -> Fraction:
    return min(Fraction(1), Fraction(cl + 1, params.max_losses + 1))


def reference_prob_l(cl) -> Fraction:
    return Fraction(1, cl + 1)


def reference_previous_outcome(record) -> str:
    """The previous-round outcome a record implies: "new" with no round played,
    "lost" while on a losing streak, "won" otherwise."""
    if record.wins + record.losses == 0:
        return "new"
    return "lost" if record.consecutive_losses > 0 else "won"


def reference_fairness_factors(records, participants, means, params, rng):
    """``(factors, branches)``: one draw per participant in id order, compared as a float."""
    factors, branches = {}, {}
    for cid in sorted(participants):
        record = records[cid]
        u = float(rng.random())
        outcome = reference_previous_outcome(record)
        factor, branch = Fraction(0), "none"
        if outcome == "lost" and u < reference_prob_w(record.consecutive_losses, params):
            quality = reference_eval_fun(record, means)
            factor = reference_fun_w(record.losses, quality, record.consecutive_losses, params)
            branch = "reward"
        elif outcome == "won" and u < reference_prob_l(record.consecutive_losses):
            quality = reference_eval_fun(record, means)
            factor = reference_fun_l(record.wins, quality, record.consecutive_losses, params)
            branch = "penalty"
        factors[cid] = factor
        branches[cid] = branch
    return factors, branches


def reference_drift_window(previous_price, price_range, drift) -> tuple[int, int]:
    """The cents a drifted price is drawn from, one cell at a time.

    ``[(1 - drift) * p, (1 + drift) * p]`` in cents, rounded inward and
    clamped into the range's cent grid; a previous price so far outside the
    range that the clamped window is empty snaps to the nearest grid point,
    rounding half to even, clamped into the grid.
    """
    p = as_money(previous_price)
    lo_c = math.ceil(price_range[0] * 100)
    hi_c = math.floor(price_range[1] * 100)
    wlo = max(lo_c, math.ceil((1 - drift) * p * 100))
    whi = min(hi_c, math.floor((1 + drift) * p * 100))
    if wlo > whi:
        wlo = whi = min(hi_c, max(lo_c, round(p * 100)))
    return wlo, whi


def reference_consumer_bids(config, rng, previous=None) -> list[ConsumerBid]:
    """The consumer bid generator as a per-cell loop over validating constructors;
    round one's uniform prices when there are no ``previous`` prices."""
    N = config.shape.num_consumers
    L = config.shape.num_resource_types
    qlo, qhi = config.consumer_quantity_range
    lo_c = math.ceil(config.consumer_price_range[0] * 100)
    hi_c = math.floor(config.consumer_price_range[1] * 100)
    quantities = rng.integers(qlo, qhi, size=(N, L), endpoint=True)
    if qlo < 1:
        for n in range(N):
            if not quantities[n].any():
                quantities[n][int(rng.integers(0, L))] = 1
    if previous is None:
        cents = rng.integers(lo_c, hi_c, size=(N, L), endpoint=True)
    else:
        windows = [
            [reference_drift_window(previous[n][l], config.consumer_price_range, config.price_drift)
             for l in range(L)]
            for n in range(N)
        ]
        lo = np.array([[w[0] for w in row] for row in windows], dtype=np.int64)
        hi = np.array([[w[1] for w in row] for row in windows], dtype=np.int64)
        cents = rng.integers(lo, hi, size=(N, L), endpoint=True)
    return [
        ConsumerBid(
            consumer_id=n,
            unit_prices=tuple(Fraction(int(c), 100) for c in cents[n]),
            quantities=tuple(int(q) for q in quantities[n]),
        )
        for n in range(N)
    ]


def reference_provider_bids(config, rng) -> list[ProviderBid]:
    """The provider bid generator over validating constructors."""
    M = config.shape.num_providers
    L = config.shape.num_resource_types
    qlo, qhi = config.provider_quantity_range
    lo_c = math.ceil(config.provider_price_range[0] * 100)
    hi_c = math.floor(config.provider_price_range[1] * 100)
    quantities = rng.integers(qlo, qhi, size=(M, L), endpoint=True)
    cents = rng.integers(lo_c, hi_c, size=(M, L), endpoint=True)
    return [
        ProviderBid(
            provider_id=m,
            unit_prices=tuple(Fraction(int(c), 100) for c in cents[m]),
            quantities=tuple(int(q) for q in quantities[m]),
        )
        for m in range(M)
    ]
