"""Winner determination: who trades, with whom, at exact minimum cost.

The problem: pick a set of winning consumers (each served their full bundle,
partial fills forbidden) and route units from providers to winners so that
no provider oversells, every traded unit is price-compatible (consumer's
unit price >= provider's ask), and the sum of winner budgets plus fairness
factors minus provider-side cost is maximal.

Because a consumer can buy type ``l`` only from providers asking at most
their own unit price, the providers available to a consumer always form a
prefix of the providers sorted by ask price.  Two consequences drive every
solver here:

* a winner set is feasible for type ``l`` iff, for every prefix of the
  sorted providers, the demand of winners who can reach *only* that prefix
  fits within the prefix's supply;
* the minimum routing cost depends only on each type's total winner demand:
  buy that many units cheapest-first (serving winners in ascending order of
  their price threshold, each from the cheapest remaining provider,
  realizes exactly that multiset).

``solve_exact`` runs depth-first branch and bound over the winner vector,
seeded with the heuristic's winners; ``solve_oracle`` enumerates all winner
subsets; ``solve_heuristic`` greedily admits consumers by Lagrangian margin
with one drop-and-readd repair pass.  One function bounds both searches, the
Lagrangian relaxation of the per-type supply balance: at the heuristic's
demand for the exact nodes, at the cheapest asks for the heuristic's
ranking and gap.  All three return allocations that validate clean.  The
two search solvers hold winner demand in one layout, a flat
cumulative-demand vector, read the supply and cost tables of that layout
from the instance, and read its cost with one formula, ``_breakpoint_cost``.

Arithmetic is exact integer arithmetic.  A :class:`WdpInstance` derives
its market as integers once, when it is built (:class:`_ScaledValues`):
prices and budgets over ``D``, the least common multiple of the prices'
denominators, and the reach, cumulative cost and stand-alone feasibility
facts every solver reads.  Budgets are derived, never passed in.  The
solvers add the fairness factors over ``S``, a common multiple of ``D`` and
the factors' denominators.  Rationals are built only for the results.  The
integers are int64 arrays when every sum formed from them provably fits,
and ``object`` arrays of Python ints otherwise, so the same code stays
exact on any rational input.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add, le, sub
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    Allocation,
    ConsumerBid,
    ExtendedConsumerBid,
    MarketShape,
    Money,
    ProviderBid,
    _check_count,
    as_money,
    over_common_denominator,
)

__all__ = [
    "WdpInstance",
    "WdpSolution",
    "SolverLimits",
    "compatible",
    "objective_value",
    "min_cost_allocation",
    "solve_exact",
    "solve_oracle",
    "solve_heuristic",
    "validate_solution",
    "dump_instance",
    "load_instance",
]

ORACLE_MAX_CONSUMERS = 12


def compatible(consumer_price: Money, provider_price: Money) -> bool:
    """A unit may trade at these prices iff the consumer offers at least the ask."""
    return as_money(consumer_price) >= as_money(provider_price)


# Scaled prices are int64 when (max price + 1) * (total units + 1) stays below
# this: every budget, cumulative supply or cost and doubled midpoint sum fits.
_INT64_SAFE = 2**62


class _ScaledValues:
    """An instance's market as integers, derived once when the instance is built.

    ``consumer_prices[n, l]`` and ``provider_prices[m, l]`` are unit prices
    times ``denominator`` (``D``, the least common multiple of the prices'
    denominators); ``budgets`` are Python ints over ``D``.  ``factors`` are
    the fairness factors as Python ints over ``factor_denominator`` (``S``,
    the least common multiple of ``D`` and the factors' denominators), and
    ``factor_floors`` the floors of the factors over ``D``.  Per
    type, ``order[l]`` lists provider positions by (ask, position), and
    ``sorted_prices``, ``cumsup`` and ``cumcost`` (cumulative supply and
    cost, each with a leading 0) follow that order.
    ``reach[n, l]`` is how many of those providers consumer ``n`` can afford
    for type ``l``; ``feasible_alone[n]`` whether that supply alone covers
    their bundle.  ``up`` is ``S // D``, which takes a value over ``D`` to
    one over ``S``.  Price arrays, ``cumsup`` and ``cumcost`` are int64 when
    every sum formed from them fits, ``object`` otherwise; quantity arrays
    are int64.  Every array is read-only.

    Both searches hold winner demand as one flat cumulative-demand vector
    (see :class:`_HeuristicState`) and read the same layout from here:
    ``supply`` (and ``supply_list``), each entry's cumulative supply;
    ``contribution[n]`` (and ``contribution_rows``), what admitting consumer
    ``n`` adds to the demand; ``demand_at[l]``, where type ``l``'s whole
    demand is; and ``tables[l]``, the type's ``(cumsup, cumcost, price)``
    lists for :func:`_breakpoint_cost`.
    """

    def __init__(
        self,
        consumer_bids: Sequence[ExtendedConsumerBid],
        provider_bids: Sequence[ProviderBid],
        num_types: int,
    ):
        prices = [p for ext in consumer_bids for p in ext.bid.unit_prices]
        prices += [p for pb in provider_bids for p in pb.unit_prices]
        D, scaled = over_common_denominator(prices)
        units = sum(q for ext in consumer_bids for q in ext.bid.quantities)
        units += sum(q for pb in provider_bids for q in pb.quantities)
        dtype = np.int64 if (max(scaled, default=0) + 1) * (units + 1) < _INT64_SAFE else object
        flat = np.array(scaled, dtype=dtype)
        N, M, L = len(consumer_bids), len(provider_bids), num_types
        types = np.arange(L)

        self.denominator = D
        self.consumer_prices = flat[: N * L].reshape(N, L)
        self.provider_prices = flat[N * L :].reshape(M, L)
        q = np.array([ext.bid.quantities for ext in consumer_bids], dtype=np.int64).reshape(N, L)
        self.consumer_quantities = q
        self.provider_quantities = np.array(
            [pb.quantities for pb in provider_bids], dtype=np.int64
        ).reshape(M, L)
        self.budgets = tuple((self.consumer_prices * q).sum(axis=1).tolist())
        by_ask = np.argsort(self.provider_prices, axis=0, kind="stable")
        self.order = by_ask.T
        self.sorted_prices = self.provider_prices[by_ask, types].T
        supply = self.provider_quantities[by_ask, types].T
        self.cumsup = np.zeros((L, M + 1), dtype=dtype)
        self.cumsup[:, 1:] = np.cumsum(supply, axis=1, dtype=dtype)
        self.cumcost = np.zeros_like(self.cumsup)
        self.cumcost[:, 1:] = np.cumsum(self.sorted_prices * supply, axis=1)
        self.reach = np.empty((N, L), dtype=np.intp)
        for l in range(L):
            self.reach[:, l] = np.searchsorted(
                self.sorted_prices[l], self.consumer_prices[:, l], side="right"
            )
        fits = (q == 0) | ((self.reach > 0) & (q <= self.cumsup[types, self.reach]))
        self.feasible_alone = fits.all(axis=1)
        fairness = [ext.fairness_factor for ext in consumer_bids]
        self.factor_denominator, factors = over_common_denominator(fairness, D)
        self.factors = tuple(factors)
        # From the small rationals: f // up on the factors over S divides integers of S's size.
        self.factor_floors = tuple(ff.numerator * D // ff.denominator for ff in fairness)
        self.up = self.factor_denominator // D

        # The layout both searches read.  cumsup[l][k + 1], flat by type with
        # each type's providers last first, as the cumulative demand is.
        self.supply = self.cumsup[:, :0:-1].reshape(-1)
        self.supply_list = self.supply.tolist()
        self.demand_at = [l * M for l in range(L)]
        # What admitting consumer n adds to the cumulative demand: q[n][l] at
        # every provider of type l it reaches.
        self.contribution = np.where(
            np.arange(M - 1, -1, -1) >= self.reach[:, :, None] - 1, q[:, :, None], 0
        ).reshape(N, L * M)
        self.contribution_rows = self.contribution.tolist()
        self.tables = []
        for l in range(L):
            # One breakpoint past the supply, so that every segment has an end.
            cumsup = self.cumsup[l].tolist()
            cumsup.append(cumsup[-1] + 1)
            price = self.sorted_prices[l].tolist() + [0]
            self.tables.append((cumsup, self.cumcost[l].tolist(), price))
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@dataclass(frozen=True)
class WdpInstance:
    """One round's winner-determination problem.

    Bid order is significant: objective ties are broken toward the
    lexicographically smallest winner vector over this order, so callers
    should pass consumer bids sorted by ascending consumer id.  Construction
    also derives the market as integers once (:class:`_ScaledValues`): the
    prices, budgets, fairness factors, reach and cost tables that the
    solvers and settlement use.
    """

    shape: MarketShape
    consumer_bids: tuple[ExtendedConsumerBid, ...]
    provider_bids: tuple[ProviderBid, ...]

    def __post_init__(self):
        object.__setattr__(self, "consumer_bids", tuple(self.consumer_bids))
        object.__setattr__(self, "provider_bids", tuple(self.provider_bids))
        if len(self.consumer_bids) != self.shape.num_consumers:
            raise ValueError(
                f"expected {self.shape.num_consumers} consumer bids, "
                f"got {len(self.consumer_bids)}"
            )
        if len(self.provider_bids) != self.shape.num_providers:
            raise ValueError(
                f"expected {self.shape.num_providers} provider bids, "
                f"got {len(self.provider_bids)}"
            )
        L = self.shape.num_resource_types
        seen_consumers = set()
        for ext in self.consumer_bids:
            if ext.bid.num_types != L:
                raise ValueError(
                    f"consumer {ext.consumer_id}: bid covers {ext.bid.num_types} "
                    f"resource types, market has {L}"
                )
            if ext.consumer_id in seen_consumers:
                raise ValueError(f"duplicate consumer id {ext.consumer_id}")
            seen_consumers.add(ext.consumer_id)
        seen_providers = set()
        for pb in self.provider_bids:
            if pb.num_types != L:
                raise ValueError(
                    f"provider {pb.provider_id}: bid covers {pb.num_types} "
                    f"resource types, market has {L}"
                )
            if pb.provider_id in seen_providers:
                raise ValueError(f"duplicate provider id {pb.provider_id}")
            seen_providers.add(pb.provider_id)

        object.__setattr__(
            self, "_scaled", _ScaledValues(self.consumer_bids, self.provider_bids, L)
        )

    @property
    def budgets(self) -> tuple[Money, ...]:
        """Each consumer's price-quantity product, :func:`faircda.model.budget` of their bid."""
        sc = self._scaled
        return tuple(Fraction(b, sc.denominator) for b in sc.budgets)

    @classmethod
    def from_bids(
        cls,
        consumer_bids: Iterable[ExtendedConsumerBid | ConsumerBid],
        provider_bids: Iterable[ProviderBid],
        num_resource_types: Optional[int] = None,
    ) -> "WdpInstance":
        """Build an instance, extending plain bids with fairness factor 0."""
        ext_bids = tuple(
            b if isinstance(b, ExtendedConsumerBid) else ExtendedConsumerBid(bid=b)
            for b in consumer_bids
        )
        providers = tuple(provider_bids)
        if num_resource_types is None:
            if ext_bids:
                num_resource_types = ext_bids[0].bid.num_types
            elif providers:
                num_resource_types = providers[0].num_types
            else:
                raise ValueError("cannot infer the number of resource types from no bids")
        shape = MarketShape(
            num_consumers=len(ext_bids),
            num_providers=len(providers),
            num_resource_types=num_resource_types,
        )
        return cls(shape=shape, consumer_bids=ext_bids, provider_bids=providers)


@dataclass(frozen=True)
class WdpSolution:
    """A solved allocation plus its exact objective decomposition."""

    allocation: Allocation
    total_utility: Money
    total_satisfaction: Money
    optimality: str
    gap_bound: Money = Fraction(0)

    def __post_init__(self):
        if self.optimality not in ("proved_optimal", "heuristic", "oracle"):
            raise ValueError(f"unknown optimality tag {self.optimality!r}")
        if self.gap_bound < 0:
            raise ValueError("gap_bound must be non-negative")
        if self.optimality in ("proved_optimal", "oracle") and self.gap_bound != 0:
            raise ValueError("a proved-optimal solution must report gap_bound 0")

    @cached_property
    def objective(self) -> Money:
        """``total_utility + total_satisfaction``, built on first access."""
        return self.total_utility + self.total_satisfaction

    @property
    def winner_positions(self) -> tuple[int, ...]:
        return tuple(n for n, won in enumerate(self.allocation.winners) if won)


@dataclass(frozen=True)
class SolverLimits:
    """Search budgets for the exact solver.

    ``node_budget`` is the deterministic limit; ``time_budget_s`` (None for
    unlimited, else a positive finite number of seconds, stored as a float)
    additionally caps wall-clock time but makes truncated results
    machine-dependent.
    """

    node_budget: int = 1_000_000
    time_budget_s: Optional[float] = None

    def __post_init__(self):
        _check_count(self.node_budget, "node_budget", positive=True)
        budget = self.time_budget_s
        if budget is None:
            return
        if isinstance(budget, (int, float)) and not isinstance(budget, bool):
            try:
                budget = float(budget)
            except OverflowError:  # an int past the float range
                budget = math.inf
        if not (isinstance(budget, float) and 0 < budget < math.inf):
            raise ValueError(
                "time_budget_s must be None or a positive finite number, "
                f"got {self.time_budget_s!r}"
            )
        object.__setattr__(self, "time_budget_s", budget)


def min_cost_allocation(
    instance: WdpInstance, winner_set: Iterable[int]
) -> Optional[np.ndarray]:
    """Cheapest feasible routing that fully serves every winner, or None.

    ``winner_set`` holds consumer ids.  Each resource type is routed
    independently: winners are served in ascending order of their price
    threshold, each from the cheapest provider with remaining stock they can
    afford.  Returns the dense transfers array, or None when some winner
    cannot be fully served within supply and price compatibility.
    """
    ids = set(winner_set)
    positions = []
    for pos, ext in enumerate(instance.consumer_bids):
        if ext.consumer_id in ids:
            positions.append(pos)
            ids.discard(ext.consumer_id)
    if ids:
        raise ValueError(f"winner ids {sorted(ids)} are not part of this instance")
    return _route(instance, positions)


def _route(instance: WdpInstance, positions: Sequence[int]) -> Optional[np.ndarray]:
    """:func:`min_cost_allocation` for consumer positions.

    Per type, lay the winners' demands end to end in ascending (threshold,
    position) order, and the providers' supplies end to end in ascending
    (ask, position) order: each winner takes from each provider the overlap
    of their two intervals.  That is the cheapest-first fill, and it is
    feasible iff the supply covers the demand and no winner overlaps a
    provider asking more than the winner's price.
    """
    N = instance.shape.num_consumers
    M = instance.shape.num_providers
    L = instance.shape.num_resource_types
    sc = instance._scaled
    y = np.zeros((N, L, M), dtype=np.int64)
    positions = np.sort(np.asarray(positions, dtype=np.intp))
    for l in range(L):
        wanting = positions[sc.consumer_quantities[positions, l] > 0]
        if not len(wanting):
            continue
        thresholds = sc.consumer_prices[wanting, l]
        rank = np.argsort(thresholds, kind="stable")
        wanting, thresholds = wanting[rank], thresholds[rank]
        need = sc.consumer_quantities[wanting, l]
        end = np.cumsum(need)
        cs = sc.cumsup[l]
        if end[-1] > cs[-1]:
            return None
        overlap = np.minimum(end[:, None], cs[None, 1:]) - np.maximum(
            (end - need)[:, None], cs[None, :-1]
        )
        overlap = np.maximum(overlap, 0)
        if ((overlap > 0) & (sc.sorted_prices[l][None, :] > thresholds[:, None])).any():
            return None
        y[wanting[:, None], l, sc.order[l][None, :]] = overlap
    return y


def validate_solution(instance: WdpInstance, allocation: Allocation) -> list[str]:
    """Check every constraint family; return one message per violation.

    An empty list means the allocation is feasible for this instance.  The
    two linkage inequalities are checked even though demand exactness
    implies them, so a diagnosed allocation reports every broken constraint.
    """
    N = instance.shape.num_consumers
    M = instance.shape.num_providers
    L = instance.shape.num_resource_types
    y = allocation.transfers
    if len(allocation.winners) != N or y.shape != (N, L, M):
        raise ValueError(
            f"allocation shape {y.shape} with {len(allocation.winners)} winners "
            f"does not match the instance shape ({N}, {L}, {M})"
        )
    sc = instance._scaled
    violations: list[str] = []
    x = np.array(allocation.winners, dtype=np.int64)
    # Lower bound of the transfer domain (y >= 0) is enforced by the
    # Allocation constructor; everything instance-dependent is checked here.
    caps = sc.provider_quantities.T

    for n, l, m in np.argwhere(y > caps[None, :, :]):
        violations.append(
            f"y[{n},{l},{m}] = {y[n, l, m]} exceeds provider "
            f"{instance.provider_bids[m].provider_id}'s offer of {caps[l, m]} "
            f"units of type {l} (transfer domain)"
        )

    per_consumer_total = y.sum(axis=(1, 2))
    demand = sc.consumer_quantities
    for (n,) in np.argwhere(x * demand.sum(axis=1) < per_consumer_total):
        violations.append(
            f"consumer {instance.consumer_bids[n].consumer_id}: receives "
            f"{per_consumer_total[n]} units but is not marked a winner covering "
            f"them (linkage lower bound)"
        )
    for (n,) in np.argwhere(x > per_consumer_total):
        violations.append(
            f"consumer {instance.consumer_bids[n].consumer_id}: marked winner but "
            f"receives no units (linkage upper bound)"
        )

    sold = y.sum(axis=0)
    for l, m in np.argwhere(sold > caps):
        violations.append(
            f"provider {instance.provider_bids[m].provider_id}: sells {sold[l, m]} "
            f"units of type {l}, offered only {caps[l, m]} (supply)"
        )

    received = y.sum(axis=2)
    for n, l in np.argwhere(received != demand * x[:, None]):
        expected = demand[n, l] if x[n] else 0
        violations.append(
            f"consumer {instance.consumer_bids[n].consumer_id}: receives "
            f"{received[n, l]} units of type {l}, demand exactness requires {expected}"
        )

    underpriced = sc.consumer_prices[:, :, None] < sc.provider_prices.T[None, :, :]
    for n, l, m in np.argwhere((y > 0) & underpriced):
        violations.append(
            f"consumer {instance.consumer_bids[n].consumer_id} pays "
            f"{instance.consumer_bids[n].bid.unit_prices[l]} per unit of type {l} but "
            f"provider {instance.provider_bids[m].provider_id} asks "
            f"{instance.provider_bids[m].unit_prices[l]} (price compatibility)"
        )
    return violations


def objective_value(
    instance: WdpInstance, allocation: Allocation
) -> tuple[Money, Money, Money]:
    """Exact (objective, total_utility, total_satisfaction) of a feasible allocation.

    Total utility collapses to winner budgets minus provider-side cost
    because every trade price appears once positively (provider revenue) and
    once negatively (consumer payment).
    """
    violations = validate_solution(instance, allocation)
    if violations:
        raise ValueError(
            "allocation violates the instance constraints:\n  " + "\n  ".join(violations)
        )
    scaled, utility, satisfaction = _totals(instance, allocation)
    return Fraction(scaled, instance._scaled.factor_denominator), utility, satisfaction


def _totals(instance: WdpInstance, allocation: Allocation) -> tuple[int, Money, Money]:
    """A feasible allocation's objective over ``S``, then (utility, satisfaction)."""
    sc = instance._scaled
    S, D = sc.factor_denominator, sc.denominator
    won = allocation.winners
    value = sum(b for b, w in zip(sc.budgets, won) if w)
    satisfaction = sum(f for f, w in zip(sc.factors, won) if w)
    utility = value - int((allocation.transfers.sum(axis=0) * sc.provider_prices.T).sum())
    return utility * sc.up + satisfaction, Fraction(utility, D), Fraction(satisfaction, S)


def _build_solution(
    instance: WdpInstance, positions: Sequence[int], optimality: str, bound: Optional[int] = None
) -> WdpSolution:
    """A solver's winner set routed at minimum cost, as a solution.

    The routing is feasible by construction, so it is not validated here;
    the engine validates each round's allocation once, when it settles it.
    ``bound``, an upper bound on the optimum over ``S`` where the solver has
    one, sets the gap to ``max(0, bound - objective) / S``; without it the
    gap is 0.
    """
    y = _route(instance, positions)
    if y is None:
        raise RuntimeError("internal error: solver produced an infeasible winner set")
    chosen = set(positions)
    winners = tuple(n in chosen for n in range(instance.shape.num_consumers))
    allocation = Allocation(winners=winners, transfers=y)
    scaled, utility, satisfaction = _totals(instance, allocation)
    gap = 0 if bound is None else max(0, bound - scaled)
    return WdpSolution(
        allocation=allocation,
        total_utility=utility,
        total_satisfaction=satisfaction,
        optimality=optimality,
        gap_bound=Fraction(gap, instance._scaled.factor_denominator),
    )


def solve_oracle(instance: WdpInstance) -> WdpSolution:
    """Exhaustive reference solver: every winner subset, evaluated naively.

    Kept deliberately free of the branch-and-bound machinery so the two
    solvers fail independently.  Guarded to small instances.
    """
    N = instance.shape.num_consumers
    if N > ORACLE_MAX_CONSUMERS:
        raise ValueError(
            f"oracle enumeration is limited to {ORACLE_MAX_CONSUMERS} consumers, "
            f"instance has {N}"
        )
    best_positions: list[int] = []
    best_objective: Optional[Money] = None
    for mask in range(1 << N):
        positions = [n for n in range(N) if mask & (1 << (N - 1 - n))]
        ids = [instance.consumer_bids[n].consumer_id for n in positions]
        y = min_cost_allocation(instance, ids)
        if y is None:
            continue
        winners = tuple(n in set(positions) for n in range(N))
        allocation = Allocation(winners=winners, transfers=y)
        objective, _, _ = objective_value(instance, allocation)
        if best_objective is None or objective > best_objective:
            best_objective = objective
            best_positions = positions
    return _build_solution(instance, best_positions, optimality="oracle")


def solve_exact(instance: WdpInstance, limits: Optional[SolverLimits] = None) -> WdpSolution:
    """Branch and bound over the winner vector, exact within the given limits.

    Consumers are decided in bid order, exclude branch first, so subsets are
    visited in lexicographic winner-vector order.  The incumbent starts as
    the heuristic's winner set (the seed), so a truncated search is never
    worse than :func:`solve_heuristic`.  Each node is bounded by the
    Lagrangian relaxation of the per-type supply balance, with one
    multiplier per type read from the seed (:func:`_lagrangian_bound`): its
    winners' Lagrangian margins plus a suffix sum, O(1) per node.

    Ties go to the lexicographically smallest winner vector.  A search leaf
    replaces the incumbent only by strict improvement and a node is pruned
    when its bound does not exceed the incumbent's, so the first optimum
    found in lexicographic order is kept.  The seed may not be that
    optimum, so it enters one unit over ``S`` below its objective: while it
    is the incumbent, only nodes bounded strictly below it are pruned, and
    the first search leaf that reaches it replaces it.  If a budget runs out
    first, the incumbent is tagged ``proved_optimal`` only when no open node
    is bounded above it: open nodes come later in lexicographic order than
    every leaf visited, so at most they tie a leaf, but could tie the seed
    from before it.  Otherwise it is returned with a gap bound from the open
    nodes (0 when one only ties the seed).  The time budget counts the seed.

    Objectives and bounds are integers over the instance's common
    denominator ``S``.  A node's demand is a flat cumulative-demand list,
    laid out as :class:`_HeuristicState`'s, and the search reads the
    instance's contribution rows, supply and cost tables
    (:class:`_ScaledValues`): a consumer fits iff every entry of the demand
    with them added is within its supply, and only a leaf's cost is read,
    at the price breakpoints (:func:`_breakpoint_cost`).  Nodes are cheap,
    so they run on Python lists, not arrays.
    """
    if limits is None:
        limits = SolverLimits()
    started = time.monotonic()
    sc = instance._scaled
    N = instance.shape.num_consumers
    up = sc.up
    feasible_alone = sc.feasible_alone.tolist()
    rows, supply = sc.contribution_rows, sc.supply_list
    tables = list(zip(sc.tables, sc.demand_at))

    # Winner values and the seed's objective, less one, over S; each node's
    # bound is its winners' Lagrangian margins g plus rest[i], what
    # consumers i.. and the providers can add at most.
    w = [b * up + f for b, f in zip(sc.budgets, sc.factors)]
    incumbent, state, _ = _heuristic_pass(instance)
    incumbent_obj = sum(w[n] for n in incumbent) - up * sum(state.cost) - 1
    g, rest = _lagrangian_bound(instance, state.cumdem)

    # Stack entries: (next consumer index, winner positions, demand,
    # winner-value sum, Lagrangian margin sum), sums over S.
    stack = [(0, [], [0] * len(supply), 0, 0)]
    nodes = 0
    truncated = False
    while stack:
        if nodes >= limits.node_budget:
            truncated = True
            break
        if (
            limits.time_budget_s is not None
            and nodes % 256 == 0
            and time.monotonic() - started > limits.time_budget_s
        ):
            truncated = True
            break
        i, chosen, cumdem, wsum, gsum = stack.pop()
        nodes += 1
        if i == N:
            # The empty set is worth 0; with no providers it has no demand to read.
            cost = sum(_breakpoint_cost(*t, cumdem[at])[1] for t, at in tables) if chosen else 0
            if (node_obj := wsum - up * cost) > incumbent_obj:
                incumbent, incumbent_obj = chosen, node_obj
            continue
        if gsum + rest[i] <= incumbent_obj:
            continue
        # Push include first so the exclude branch pops (and is explored) first.
        # The parent's demand fits, so the child fits iff every entry does.
        if feasible_alone[i]:
            child = list(map(add, cumdem, rows[i]))
            if all(map(le, child, supply)):
                stack.append((i + 1, chosen + [i], child, wsum + w[i], gsum + g[i]))
        stack.append((i + 1, chosen, cumdem, wsum, gsum))

    if truncated:
        open_bound = max(gsum + rest[i] for i, *_, gsum in stack)
        if open_bound > incumbent_obj:
            return _build_solution(instance, incumbent, optimality="heuristic", bound=open_bound)
    return _build_solution(instance, incumbent, optimality="proved_optimal")


def _lagrangian_bound(instance: WdpInstance, cumdem: list[int]) -> tuple[list[int], list[int]]:
    """``(g, rest)``: each consumer's Lagrangian margin, and the bound on
    what consumers ``i``, ``i + 1``, ... and the providers add, all over ``S``.

    Relaxing each type's supply balance (units bought equal units sold) with
    a multiplier ``u_l`` bounds every objective by ``Σ_n max(0, g_n)`` over
    consumers feasible alone, ``g_n = w_n − Σ_l q_nl·u_l``, plus ``C =
    Σ_l Σ_k supply_lk·max(0, u_l − ask_lk)`` (Fisher 1981): any ``u`` gives a
    valid bound, and dropping the reach constraints only loosens it.
    ``u_l`` is the ask at the ``d_l``-th cheapest unit of type ``l``, ``d_l``
    read from ``cumdem`` (the cheapest ask when ``d_l`` is 0); then ``C`` is
    what the units cheaper than ``u_l`` save at that price.  ``rest[i]`` is
    ``C`` plus the positive ``g`` from consumer ``i`` on, so a node at depth
    ``i`` is bounded by its winners' ``g`` plus ``rest[i]``.  Consumers not
    feasible alone have ``g`` 0.  At zero demand (``cumdem`` empty), ``u_l``
    is the cheapest ask and ``C`` is 0: the heuristic's ranking key and bound.
    """
    sc = instance._scaled
    up = sc.up
    u, saved = [], 0
    for (cumsup, cumcost, price), at in zip(sc.tables, sc.demand_at):
        j, _ = _breakpoint_cost(cumsup, cumcost, price, cumdem[at] if cumdem else 0)
        u.append(price[j])
        saved += price[j] * cumsup[j] - cumcost[j]
    bundle = (sc.consumer_quantities @ np.array(u, dtype=sc.cumsup.dtype)).tolist()
    g = [
        (b - c) * up + f if ok else 0
        for b, c, f, ok in zip(sc.budgets, bundle, sc.factors, sc.feasible_alone.tolist())
    ]
    # Skip a margin that is not positive: adding 0 would still copy a large integer.
    rest = list(accumulate(reversed(g), lambda r, x: r + x if x > 0 else r, initial=up * saved))
    rest.reverse()
    return g, rest


def _breakpoint_cost(
    cumsup: list[int], cumcost: list[int], price: list[int], x: int
) -> tuple[int, int]:
    """``(j, cost)``: the price segment of the ``x``-th cheapest unit of one
    type, and the cost over ``D`` of the ``x`` cheapest units.

    ``j`` is the first segment with ``x <= cumsup[j + 1]``, and the cost is
    ``cumcost[j] + (x - cumsup[j]) * price[j]``.  Past the supply, ``j`` is
    the last segment, whose ``price`` is 0: such demand never fits.
    """
    j = bisect_left(cumsup, x, 1, len(cumcost)) - 1
    return j, cumcost[j] + (x - cumsup[j]) * price[j]


def _breakpoint_costs(
    cumsup: np.ndarray, cumcost: np.ndarray, price: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """:func:`_breakpoint_cost`'s cost for every entry of ``x``, the same
    formula over arrays: ``searchsorted`` is ``bisect_left``."""
    j = np.searchsorted(cumsup[1 : len(cumcost)], x)
    return cumcost[j] + (x - cumsup[j]) * price[j]


class _Pool(NamedTuple):
    """The candidates of a scan, gathered once, in scan order.

    Per type ``l`` and candidate ``i``: ``quantities[l, i]``; where in the
    state's ``reads`` their room is, ``index[l, i]``, and their marginal
    cost, ``index[L + l, i]``; and ``value[i]``.
    """

    ids: np.ndarray
    quantities: np.ndarray
    index: np.ndarray
    value: np.ndarray


class _HeuristicState:
    """The heuristic's winner demand, and which candidates it has room and value for.

    The cumulative demand of type ``l`` at ``k`` sums the winners' demand
    of that type over those who reach at most ``k + 1`` sorted providers;
    at ``k = M - 1`` it is the type's whole demand.  Its slack is
    ``cumsup[l][k + 1]`` minus it, and the room at ``k`` is the smallest
    slack at ``k`` or later, so a consumer fits iff every quantity it
    demands is at most the room at its reach: the whole prefix check in
    O(L) instead of O(L·M).  ``cumdem`` and the room are flat by type, each
    type's providers last first: entry ``l·M + t`` is provider ``k = M - 1
    - t``, so ``l·M`` holds the type's demand and the room is a running
    minimum restarted at each type.

    Costs are integers over ``D`` read at the price breakpoints
    (:func:`_breakpoint_cost`).  ``distinct[l]`` holds the quantities type
    ``l`` consumers demand, 0 first.  Each change of demand ``d`` sets
    ``cost[l]``, the cost of ``d[l]`` units, and the marginal cost at
    ``slot_start[l] + s``, the cost of ``d[l] + distinct[l][s]`` minus it;
    a quantity that stays on the price segment of ``d[l]`` costs ``x ·
    price`` with no search.  ``value[n]`` is the most a consumer's marginal
    cost over ``D`` may be: their budget plus the floor of their fairness
    factor over ``D``, exact because costs over ``D`` are integers.

    The state is plain Python ints: on a market the size of the reference
    one an update touches a few dozen of them, where numpy's fixed cost per
    call would dominate.  Only what a scan reads is an array: ``reads``,
    the L·M room entries followed by the marginal costs, in the market's
    dtype (int64 or ``object``).  A :class:`_Pool` gathers the candidates'
    side once per pool, and a test reads ``reads`` with one gather.
    ``value`` is int64 when every entry fits.

    While the state only admits, a rejection is final.  Room never grows,
    and because asks are sorted ascending, cost is convex in demand, so a
    consumer's marginal cost never falls while the demand stays within
    supply; demand beyond supply already fails the room test.

    The supply, contribution rows and cost tables are the instance's
    (:class:`_ScaledValues`), which :func:`solve_exact` reads too; the
    room, the marginal costs and the pools are the heuristic's alone.
    """

    def __init__(self, instance: WdpInstance):
        sc = instance._scaled
        L, M = sc.sorted_prices.shape
        self.num_types, self.dtype = L, sc.cumsup.dtype
        self.supply, self.supply_list = sc.supply, sc.supply_list
        self.contribution, self.contribution_rows = sc.contribution, sc.contribution_rows
        self.tables, self.demand_at = sc.tables, sc.demand_at
        self.type_start = [t == 0 for _ in range(L) for t in range(M)]
        value = list(map(add, sc.budgets, sc.factor_floors))
        fits = max(map(abs, value), default=0) < _INT64_SAFE
        self.value = np.array(value, dtype=np.int64 if fits else object)
        self.distinct, self.slot_start = [], []
        slot = np.empty((L, len(value)), dtype=np.intp)
        start = L * M
        for l, column in enumerate(sc.consumer_quantities.T):
            values, index = np.unique(np.append(column, 0), return_inverse=True)
            self.distinct.append(values.tolist())
            self.slot_start.append(start)
            slot[l] = start + index[:-1]
            start += len(values)
        self.table_arrays = [[np.array(t, dtype=self.dtype) for t in tab] for tab in self.tables]
        # Reach r reads type l's room at l·M + M - r.  Room is never negative,
        # so a type a consumer does not demand (reach 0 included) never stops them.
        room_index = np.minimum(M - sc.reach.T, M - 1) + M * np.arange(L)[:, None]
        # A pool's per-type arrays, stacked so that one gather takes them all.
        self.candidate_side = np.concatenate([sc.consumer_quantities.T, room_index, slot])
        self.cumdem = [0] * (L * M)
        self._refresh()

    def _refresh(self) -> None:
        cumdem = self.cumdem
        # The suffix minimum of each type's slack, from its last provider on.
        low = 0
        room = [
            low := s if first or s < low else low
            for s, first in zip(map(sub, self.supply_list, cumdem), self.type_start)
        ]
        cost, marginal = [], []
        for (cumsup, cumcost, price), distinct, at in zip(
            self.tables, self.distinct, self.demand_at
        ):
            d = cumdem[at] if cumdem else 0
            j, c = _breakpoint_cost(cumsup, cumcost, price, d)
            cost.append(c)
            p, end = price[j], cumsup[j + 1] - d
            marginal += [
                x * p if x <= end else _breakpoint_cost(cumsup, cumcost, price, d + x)[1] - c
                for x in distinct
            ]
        self.cost, self.reads = cost, np.fromiter(room + marginal, self.dtype)

    def pool(self, ids: np.ndarray) -> _Pool:
        """The consumers ``ids``, in scan order, gathered for :meth:`admissible`."""
        side = self.candidate_side[:, ids]
        return _Pool(ids, side[: self.num_types], side[self.num_types :], self.value[ids])

    def admissible(self, pool: _Pool) -> np.ndarray:
        """Which candidates of ``pool`` would each, on their own, fit and pay their way."""
        L = self.num_types
        read = self.reads.take(pool.index)
        fits = np.logical_and.reduce(pool.quantities <= read[:L], axis=0)
        return fits & (np.add.reduce(read[L:], axis=0) <= pool.value)

    def admit_leading_run(self, ids: np.ndarray) -> int:
        """Admit the longest prefix of ``ids`` that would be admitted one by one.

        Candidate ``i`` is tested against the state with ``ids[:i]``
        admitted.  That state plus the candidate is the cumulative sum of
        the contributions through ``i``, so one array pass tests them all
        for room: the current state is feasible, and so is every state
        before the first failure, so a candidate fits iff the whole sum fits
        the supply prefixes.  The candidates that fit are then priced at
        once (:func:`_breakpoint_costs`): each one's marginal cost is the
        difference of two consecutive total costs.  Returns the prefix
        length ``f``; ``ids[f]``, if it exists, fails against the state now
        held.
        """
        # Reading demand needs a provider.  With none, no consumer fits
        # alone, so no pool the solver passes has members.
        if not len(ids):
            return 0
        after = np.cumsum(self.contribution[ids], axis=0, dtype=self.dtype) + self.cumdem
        fits = (after <= self.supply).all(axis=1)
        fitting = len(ids) if fits.all() else int(fits.argmin())
        demand = after[:fitting, self.demand_at]
        totals = sum(_breakpoint_costs(*t, demand[:, l]) for l, t in enumerate(self.table_arrays))
        marginal = np.diff(totals, prepend=sum(self.cost))
        passed = marginal <= self.value[ids[:fitting]]
        f = fitting if passed.all() else int(passed.argmin())
        if f:
            self.cumdem = after[f - 1].tolist()
            self._refresh()
        return f

    def add(self, n: int) -> None:
        self.cumdem = list(map(add, self.cumdem, self.contribution_rows[n]))
        self._refresh()

    def remove(self, n: int) -> None:
        self.cumdem = list(map(sub, self.cumdem, self.contribution_rows[n]))
        self._refresh()

    def save(self) -> tuple:
        # Every update rebinds cumdem, cost and reads rather than
        # writing into them, so the current objects are a snapshot.
        return self.cumdem, self.cost, self.reads

    def restore(self, saved: tuple) -> None:
        self.cumdem, self.cost, self.reads = saved


def solve_heuristic(instance: WdpInstance) -> WdpSolution:
    """Greedy admission by Lagrangian margin with one drop-and-readd pass.

    Consumers are ranked by budget plus fairness factor minus their bundle
    at each type's cheapest ask: the Lagrangian margin at zero demand
    (:func:`_lagrangian_bound`), whose bound, the sum of the positive
    margins, sets the gap.  Each with a non-negative margin is admitted when
    the winner set stays feasible and the exact marginal cost does not
    exceed their value.  One repair pass then tries
    dropping each admitted consumer in ascending rank and greedily
    readmitting the other ranked candidates not admitted, keeping strict
    improvements of the objective.  Every comparison is exact integer
    arithmetic over the instance's denominators (see
    :class:`_HeuristicState`); costs are read at price breakpoints, so
    memory does not grow with units.

    Every scan walks its candidates in rank order and only admits, so winner
    demand only grows within a scan, and a candidate rejected once stays
    rejected for the rest of it (room only shrinks, cost is convex).  The
    greedy pass starts with its leading run: from the empty state, the
    top-ranked candidates are admitted back to back, so one array pass
    tests each for room against the state with all before it admitted, and
    the run up to the first failure is admitted at once.  After that, and
    in every repair scan, a scan tests all its candidates at once, admits
    the first that passes, and tests again only the later ones that passed:
    the admissions are those of a candidate-by-candidate loop.  A scan's
    candidates are gathered once as a :class:`_Pool` and narrowed with a
    mask; the repair pool is gathered again only when a swap is kept.
    """
    winners, _, bound = _heuristic_pass(instance)
    return _build_solution(instance, winners, optimality="heuristic", bound=bound)


def _heuristic_pass(instance: WdpInstance) -> tuple[list[int], _HeuristicState, int]:
    """:func:`solve_heuristic`'s winner positions, ascending, its final state,
    which holds their demand and its cost, and its bound on the optimum over
    ``S``: the search, with no solution built."""
    sc = instance._scaled
    state = _HeuristicState(instance)
    margin, rest = _lagrangian_bound(instance, [])

    def admit_in_order(pool: _Pool) -> list[int]:
        """Admit each candidate of ``pool``, in order, that fits and pays its way."""
        gained: list[int] = []
        if not len(pool.ids):
            return gained
        alive = state.admissible(pool)
        while len(passing := np.flatnonzero(alive)):
            i = passing[0]
            n = int(pool.ids[i])
            state.add(n)
            gained.append(n)
            if len(passing) == 1:
                break
            alive[i] = False
            alive &= state.admissible(pool)
        return gained

    def objective(budgets: int, factors: int) -> int:
        """The winners' objective over ``S``, from their budget sum over ``D``
        and their fairness factor sum over ``S``."""
        return sc.up * (budgets - sum(state.cost)) + factors

    # The sort is stable, so tied margins stay in position order.
    ranked = np.array(
        sorted(
            (n for n in np.flatnonzero(sc.feasible_alone).tolist() if margin[n] >= 0),
            key=margin.__getitem__,
            reverse=True,
        ),
        dtype=np.intp,
    )
    run = state.admit_leading_run(ranked)
    admitted = ranked[:run].tolist() + admit_in_order(state.pool(ranked[run + 1 :]))
    won = np.zeros(instance.shape.num_consumers, dtype=bool)
    won[admitted] = True
    pool = state.pool(ranked[~won[ranked]])
    budgets = sum(sc.budgets[n] for n in admitted)
    factors = sum(sc.factors[n] for n in admitted)
    current = objective(budgets, factors)
    for a in sorted(admitted, key=lambda n: (margin[n], n)):
        snapshot = state.save()
        state.remove(a)
        gained = admit_in_order(pool)
        new_budgets = budgets - sc.budgets[a] + sum(sc.budgets[n] for n in gained)
        new_factors = factors - sc.factors[a] + sum(sc.factors[n] for n in gained)
        new = objective(new_budgets, new_factors)
        if new > current:
            current, budgets, factors = new, new_budgets, new_factors
            won[a] = False
            won[gained] = True
            pool = state.pool(ranked[~won[ranked]])
        else:
            state.restore(snapshot)

    return np.flatnonzero(won).tolist(), state, rest[0]


def dump_instance(instance: WdpInstance) -> str:
    """Serialize an instance to the line-oriented debug format.

    One record per bid; rationals print as ``p`` or ``p/q`` and parse back
    bit-exactly.  See :func:`load_instance`.
    """
    lines = [
        f"market {instance.shape.num_consumers} {instance.shape.num_providers} "
        f"{instance.shape.num_resource_types}"
    ]
    for ext in instance.consumer_bids:
        prices = ",".join(str(p) for p in ext.bid.unit_prices)
        quantities = ",".join(str(q) for q in ext.bid.quantities)
        lines.append(
            f"consumer {ext.consumer_id} ff={ext.fairness_factor} "
            f"prices={prices} quantities={quantities}"
        )
    for pb in instance.provider_bids:
        prices = ",".join(str(p) for p in pb.unit_prices)
        quantities = ",".join(str(q) for q in pb.quantities)
        lines.append(f"provider {pb.provider_id} prices={prices} quantities={quantities}")
    return "\n".join(lines) + "\n"


def load_instance(text: str) -> WdpInstance:
    """Parse the format written by :func:`dump_instance`."""
    shape: Optional[MarketShape] = None
    consumers: list[ExtendedConsumerBid] = []
    providers: list[ProviderBid] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "market":
                shape = MarketShape(int(fields[1]), int(fields[2]), int(fields[3]))
            elif kind in ("consumer", "provider"):
                entry_id = int(fields[1])
                kv = dict(f.split("=", 1) for f in fields[2:])
                prices = [Fraction(p) for p in kv["prices"].split(",")] if kv["prices"] else []
                quantities = (
                    [int(q) for q in kv["quantities"].split(",")] if kv["quantities"] else []
                )
                if kind == "consumer":
                    consumers.append(
                        ExtendedConsumerBid(
                            bid=ConsumerBid(entry_id, tuple(prices), tuple(quantities)),
                            fairness_factor=Fraction(kv.get("ff", "0")),
                        )
                    )
                else:
                    providers.append(ProviderBid(entry_id, tuple(prices), tuple(quantities)))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (IndexError, KeyError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"malformed instance record on line {lineno}: {raw!r} "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    if shape is None:
        raise ValueError("instance text is missing the leading 'market N M L' record")
    return WdpInstance(
        shape=shape, consumer_bids=tuple(consumers), provider_bids=tuple(providers)
    )
