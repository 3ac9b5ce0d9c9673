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
seeded with the heuristic's winners (its greedy pass's alone, without the
repair, when no budget can truncate the search: the result is then the same);
``solve_heuristic`` greedily admits consumers by Lagrangian margin with one
drop-and-readd repair pass.  One function bounds both searches, the
Lagrangian relaxation of the per-type supply balance, over ``D``: at the
heuristic's demand for the exact nodes, at the cheapest asks for the
heuristic's ranking, and at both for its gap.  Both return allocations that
validate clean, routed by one function, ``_route``.  They hold winner demand
in one layout, a flat cumulative-demand vector, read the supply and cost
tables of that layout from the instance, and read its cost with one formula,
``_breakpoint_cost``.

Arithmetic is exact integer arithmetic.  A :class:`WdpInstance` derives
its market as integers once, when it is built (:class:`_ScaledValues`):
prices and budgets over ``D``, the least common multiple of the prices'
denominators, and the reach, cumulative cost and stand-alone feasibility
facts every solver reads.  The prices and quantities come from the round's
:class:`~faircda.model._Market`: a construction from bids checks them and
reads it from them (:func:`_bid_market`); ``run_round`` passes in the
market it derived (:class:`_Priced`), from its checked bids or, for a
simulated round, from the draws, with nothing checked again.  Budgets are
derived, never passed in.  The heuristic and settlement run over ``D``:
each fairness factor enters as its floor over ``D``, and the exact
remainder the floor drops is read only where the floors cannot decide.
Only ``solve_exact`` builds ``S``, the common multiple of ``D`` and the
factors' denominators, once per call, and adds the factors over it.
Rationals are built only for the results.  The integers are int64 arrays
when every sum formed from them provably fits, and ``object`` arrays of
Python ints otherwise, so the same code stays exact on any rational input.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from operator import add, le, lt, sub
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    Allocation,
    ConsumerBid,
    ExtendedConsumerBid,
    MarketShape,
    Money,
    ProviderBid,
    _INT64_SAFE,
    _Market,
    _check_count,
    _price_dtype,
    exact_sum,
    over_common_denominator,
    price_rows,
)

__all__ = [
    "WdpInstance",
    "WdpSolution",
    "SolverLimits",
    "solve_exact",
    "solve_heuristic",
    "validate_solution",
]


def _bid_market(
    consumer_bids: Sequence[ConsumerBid], provider_bids: Sequence[ProviderBid]
) -> _Market:
    """The market of bids from outside, checked: every provider entry a
    :class:`~faircda.model.ProviderBid` (an ``ExtendedConsumerBid`` checks
    that its bid is a ``ConsumerBid``), ids unique per side, every bid over
    the first bid's types, and fewer than 2**63 units in all."""
    for bid in provider_bids:
        if not isinstance(bid, ProviderBid):
            raise ValueError(f"provider bids must be ProviderBids, got {bid!r}")
    bids = [*consumer_bids, *provider_bids]
    L = bids[0].num_types if bids else 0
    for kind, side in (("consumer", consumer_bids), ("provider", provider_bids)):
        seen = set()
        for bid in side:
            bid_id = getattr(bid, f"{kind}_id")
            if bid.num_types != L:
                raise ValueError(
                    f"{kind} {bid_id}: bid covers {bid.num_types} resource types, "
                    f"market has {L}"
                )
            if bid_id in seen:
                raise ValueError(f"duplicate {kind} id {bid_id}")
            seen.add(bid_id)
    D, rows = price_rows([b.unit_prices for b in bids])
    scaled = [a for row in rows for a in row]
    units = sum(q for b in consumer_bids for q in b.quantities)
    units += sum(q for b in provider_bids for q in b.quantities)
    if units >= 2**63:
        # Quantities, routes and transfers are int64.
        raise ValueError(f"a market holds at most 2**63 - 1 units, this one {units}")
    flat = np.array(scaled, dtype=_price_dtype(max(scaled, default=0), units))
    N, M = len(consumer_bids), len(provider_bids)
    return _Market(
        D,
        flat[: N * L].reshape(N, L),
        flat[N * L :].reshape(M, L),
        np.array([b.quantities for b in consumer_bids], dtype=np.int64).reshape(N, L),
        np.array([b.quantities for b in provider_bids], dtype=np.int64).reshape(M, L),
    )


class _ScaledValues:
    """An instance's market as integers, derived once when the instance is built.

    The prices and quantities are the round's :class:`~faircda.model._Market`:
    ``consumer_prices[n, l]`` and ``provider_prices[m, l]`` are unit prices
    times ``denominator`` (``D``, the least common multiple of the prices'
    denominators).  From them, ``budgets`` are Python ints over ``D``;
    ``fairness`` holds the fairness factors, ``factor_floors`` their floors
    over ``D`` and ``value`` each budget plus floor.  Per type, ``order[l]`` lists
    provider positions by (ask, position), and ``sorted_prices``, ``cumsup``
    and ``cumcost`` (cumulative supply and cost, each with a leading 0)
    follow that order.  ``reach[n, l]`` is how many of those providers
    consumer ``n`` can afford for type ``l``; ``feasible_alone[n]`` whether
    that supply alone covers their bundle.  Price arrays, ``cumsup`` and
    ``cumcost`` are int64 when every sum formed from them fits, ``object``
    otherwise; quantity arrays are int64.  Every array is read-only.

    Both searches hold winner demand as one flat cumulative-demand vector
    (see :class:`_HeuristicState`) and read the same layout from here, as
    lists: ``supply_list``, each entry's cumulative supply;
    ``contribution_rows[n]``, what admitting consumer ``n`` adds to the
    demand (also kept as the int64 matrix ``contribution``, from which
    :meth:`_HeuristicState.pool` takes each repair pool's floor);
    ``demand_at[l]``, where type ``l``'s whole demand is; and
    ``tables[l]``, the type's ``(cumsup, cumcost, price)`` lists for
    :func:`_breakpoint_cost`.  Nothing here is over ``S``: only
    :func:`solve_exact` builds it, once per call.
    """

    def __init__(self, market: _Market, consumer_bids: Sequence[ExtendedConsumerBid]):
        D, self.consumer_prices, self.provider_prices, q, self.provider_quantities = market
        self.denominator, self.consumer_quantities = D, q
        dtype = self.consumer_prices.dtype
        (N, L), M = q.shape, len(self.provider_quantities)
        types = np.arange(L)

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
        self.fairness = tuple(ext.fairness_factor for ext in consumer_bids)
        self.factor_floors = tuple(ff.numerator * D // ff.denominator for ff in self.fairness)
        self.value = tuple(map(add, self.budgets, self.factor_floors))

        # The layout both searches read.  cumsup[l][k + 1], flat by type with
        # each type's providers last first, as the cumulative demand is.
        self.supply_list = self.cumsup[:, :0:-1].reshape(-1).tolist()
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

    def remainder(self, n: int) -> Fraction:
        """What ``factor_floors[n]`` drops of consumer ``n``'s factor over
        ``D``: ``f_n·D − F_n``, in ``[0, 1)``."""
        return self.fairness[n] * self.denominator - self.factor_floors[n]


class _Priced(tuple):
    """Extended bids whose round's market is already derived, ``market``
    (row ``n`` is bid ``n``'s), from bids that passed :func:`_bid_market`'s
    checks or were generated to pass them: :class:`WdpInstance` builds
    their instance without checking them again."""

    def __new__(cls, bids: Iterable[ExtendedConsumerBid], market: _Market):
        priced = super().__new__(cls, bids)
        priced.market = market
        return priced


@dataclass(frozen=True)
class WdpInstance:
    """One round's winner-determination problem.

    Bid order is significant: objective ties are broken toward the
    lexicographically smallest winner vector over this order, so callers
    should pass consumer bids sorted by ascending consumer id.  A plain
    :class:`~faircda.model.ConsumerBid` is extended with fairness factor 0.
    ``shape`` is read from the bids: their two counts and the first bid's
    type count, 0 when there are no bids.  Construction also derives the
    market as integers once (:class:`_ScaledValues`): the prices, budgets,
    fairness factors, reach and cost tables that the solvers and settlement use.

    The constructor checks the bids, once (:func:`_bid_market`), and reads
    their integers from them, except for :func:`~faircda.engine.run_round`'s
    bids (:class:`_Priced`): it checked them, or they were generated to
    pass the checks, and it passes in the market it derived.
    """

    consumer_bids: tuple[ExtendedConsumerBid, ...]
    provider_bids: tuple[ProviderBid, ...]

    def __post_init__(self):
        consumers, providers = self.consumer_bids, tuple(self.provider_bids)
        if type(consumers) is _Priced:
            market = consumers.market
        else:
            consumers = [
                b if isinstance(b, ExtendedConsumerBid) else ExtendedConsumerBid(bid=b)
                for b in consumers
            ]
            market = _bid_market([ext.bid for ext in consumers], providers)
        first = consumers[0].bid if consumers else providers[0] if providers else None
        shape = MarketShape(len(consumers), len(providers), first.num_types if first else 0)
        object.__setattr__(self, "consumer_bids", tuple(consumers))
        object.__setattr__(self, "provider_bids", providers)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_scaled", _ScaledValues(market, consumers))

    @classmethod
    def from_bids(
        cls,
        consumer_bids: Iterable[ExtendedConsumerBid | ConsumerBid],
        provider_bids: Iterable[ProviderBid],
    ) -> "WdpInstance":
        """The instance of these bids: the constructor, under the name that
        :func:`~faircda.engine.run_round` builds each round's instance by."""
        return cls(consumer_bids, provider_bids)


@dataclass(frozen=True)
class WdpSolution:
    """A solved allocation plus its exact objective decomposition.

    ``bound``, for a result not proved optimal, returns an upper bound on
    the optimum; it is called on the first read of :attr:`gap_bound`.  The
    solvers' bounds are ``functools.partial``s of module-level functions,
    so a solution pickles.
    """

    allocation: Allocation
    total_utility: Money
    total_satisfaction: Money
    optimality: str
    bound: Optional[Callable[[], Money]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.optimality not in ("proved_optimal", "heuristic"):
            raise ValueError(f"unknown optimality tag {self.optimality!r}")
        if self.optimality == "proved_optimal" and self.bound is not None:
            raise ValueError("a proved-optimal solution carries no bound: its gap is 0")

    @cached_property
    def objective(self) -> Money:
        """``total_utility + total_satisfaction``, built on first access."""
        return self.total_utility + self.total_satisfaction

    @cached_property
    def gap_bound(self) -> Money:
        """How far the optimum may lie above :attr:`objective`, at least 0."""
        return max(Fraction(0), self.bound() - self.objective) if self.bound else Fraction(0)

    @property
    def winner_positions(self) -> tuple[int, ...]:
        return tuple(n for n, won in enumerate(self.allocation.winners) if won)


@dataclass(frozen=True)
class SolverLimits:
    """Search budgets for the exact solver.

    ``node_budget`` is the deterministic limit; ``time_budget_s`` (None for
    unlimited, else a positive finite number of seconds, stored as a float)
    additionally caps wall-clock time but makes truncated results
    machine-dependent.  With no time budget, a node budget of at least
    ``2^(N+1) − 1`` (the whole tree of ``N`` consumers) proves optimality,
    and the seed is the heuristic's greedy pass alone: no output changes.
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


def _route(instance: WdpInstance, positions: Sequence[int]) -> Optional[np.ndarray]:
    """Cheapest feasible routing that fully serves the consumers at
    ``positions``, as a dense transfers array, or None.

    Each resource type is routed independently.  Per type, lay the winners'
    demands end to end in ascending (threshold, position) order, and the
    providers' supplies end to end in ascending (ask, position) order: each
    winner takes from each provider the overlap of their two intervals.
    That is the cheapest-first fill, and it is feasible iff the supply
    covers the demand and no winner overlaps a provider asking more than the
    winner's price.
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


def _build_solution(
    instance: WdpInstance,
    positions: Sequence[int],
    cost: int,
    optimality: str,
    bound: Optional[Callable[[], Money]] = None,
) -> WdpSolution:
    """A solver's winner set routed at minimum cost, as a solution.

    Utility is the winners' budgets less ``cost``, the cost over ``D`` of
    their demand that the solver read at the price breakpoints, which is the
    routing's.  The routing is feasible by construction, so it is not
    validated here; the engine validates each round's allocation once, when
    it settles it.  ``bound``, where the solver has one, returns an upper
    bound on the optimum; it is called only when something reads the gap.
    """
    y = _route(instance, positions)
    if y is None:
        raise RuntimeError("internal error: solver produced an infeasible winner set")
    sc = instance._scaled
    chosen = set(positions)
    winners = tuple(n in chosen for n in range(instance.shape.num_consumers))
    value = sum(sc.budgets[n] for n in positions)
    return WdpSolution(
        allocation=Allocation(winners=winners, transfers=y),
        total_utility=Fraction(value - cost, sc.denominator),
        total_satisfaction=exact_sum(sc.fairness[n] for n in positions if sc.fairness[n]),
        optimality=optimality,
        bound=bound,
    )


def solve_exact(instance: WdpInstance, limits: Optional[SolverLimits] = None) -> WdpSolution:
    """Branch and bound over the winner vector, exact within the given limits.

    Consumers are decided in bid order, exclude branch first, so subsets are
    visited in lexicographic winner-vector order.  The incumbent starts as
    the heuristic's winner set (the seed), so a truncated search is never
    worse than :func:`solve_heuristic`.  A search that no budget can
    truncate (see :class:`SolverLimits`) returns the same result whatever
    the seed, so its seed is the heuristic's greedy pass alone
    (:func:`_greedy_pass`), with no repair and no :class:`_HeuristicState`.
    Each node is bounded by the Lagrangian relaxation of the per-type supply
    balance, with one multiplier per type read from the seed
    (:func:`_lagrangian_bound`): its winners' Lagrangian margins plus a
    suffix sum, O(1) per node.

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

    Objectives and bounds are integers over ``S``, the least common multiple
    of ``D`` and the factors' denominators (thousands of bits on generated
    markets), which each call builds for itself and nothing else does.  A
    node's demand is a flat cumulative-demand list, laid out as
    :class:`_HeuristicState`'s, and the search reads the instance's
    contribution rows, supply and cost tables (:class:`_ScaledValues`): a
    consumer fits iff every entry of the demand with them added is within
    its supply, and only a leaf's cost is read, at the price breakpoints
    (:func:`_breakpoint_cost`).  Nodes are cheap, so they run on Python
    lists, not arrays.
    """
    limits = SolverLimits() if limits is None else limits
    if not isinstance(limits, SolverLimits):
        raise ValueError(f"limits must be a SolverLimits, got {limits!r}")
    started = time.monotonic()
    sc = instance._scaled
    N = instance.shape.num_consumers
    S, factors = over_common_denominator(sc.fairness, sc.denominator)
    up = S // sc.denominator
    feasible_alone = sc.feasible_alone.tolist()
    rows, supply = sc.contribution_rows, sc.supply_list
    tables = list(zip(sc.tables, sc.demand_at))
    # node_budget >= 2^(N+1) - 1, the whole tree: the search cannot be truncated.
    complete = limits.time_budget_s is None and (limits.node_budget + 1).bit_length() > N + 1

    # Winner values and the seed's objective, less one, over S; each node's
    # bound is its winners' Lagrangian margins g plus rest[i], what
    # consumers i.. and the providers can add at most.
    w = [b * up + f for b, f in zip(sc.budgets, factors)]
    if complete:
        incumbent, seed_demand, incumbent_cost = _greedy_pass(instance, _ranked(instance)[0])
    else:
        incumbent, seed_demand, incumbent_cost = _heuristic_pass(instance)
    incumbent_obj = sum(w[n] for n in incumbent) - up * incumbent_cost - 1
    bundle, saved = _lagrangian_bound(instance, seed_demand)
    g = [x - c * up if ok else 0 for x, c, ok in zip(w, bundle, feasible_alone)]
    # Skip a margin that is not positive: adding 0 would still copy a large integer.
    rest = list(accumulate(reversed(g), lambda r, x: r + x if x > 0 else r, initial=up * saved))
    rest.reverse()

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
                incumbent, incumbent_obj, incumbent_cost = chosen, node_obj, cost
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
            bound = partial(Fraction, open_bound, S)
            return _build_solution(instance, incumbent, incumbent_cost, "heuristic", bound)
    return _build_solution(instance, incumbent, incumbent_cost, "proved_optimal")


def _lagrangian_bound(instance: WdpInstance, cumdem: Sequence[int]) -> tuple[list[int], int]:
    """``(bundle, saved)``, integers over ``D``: each consumer's bundle priced
    at the multipliers ``u``, and the providers' constant ``C``.

    Relaxing each type's supply balance (units bought equal units sold) with
    a multiplier ``u_l`` bounds every objective by ``C = Σ_l Σ_k
    supply_lk·max(0, u_l − ask_lk)`` plus ``Σ_n max(0, g_n)`` over consumers
    feasible alone, where ``g_n = b_n + f_n − bundle_n`` is the Lagrangian
    margin of budget ``b_n``, factor ``f_n`` and ``bundle_n = Σ_l
    q_nl·u_l`` (Fisher 1981): any ``u`` gives a valid bound, and dropping
    the reach constraints only loosens it.  ``u_l`` is the ask at the
    ``d_l``-th cheapest unit of type ``l``, ``d_l`` read from ``cumdem`` (the
    cheapest ask when ``d_l`` is 0); then ``C`` is what the units cheaper
    than ``u_l`` save at that price.  At zero demand (``cumdem`` empty),
    ``u_l`` is the cheapest ask and ``C`` is 0: the heuristic ranks by those
    margins, and that bound and the one at its final demand set its gap
    (:func:`solve_heuristic`).  :func:`solve_exact` adds the factors over
    ``S`` to the margins at its seed's demand.
    """
    sc = instance._scaled
    u, saved = [], 0
    for (cumsup, cumcost, price), at in zip(sc.tables, sc.demand_at):
        j, _ = _breakpoint_cost(cumsup, cumcost, price, cumdem[at] if cumdem else 0)
        u.append(price[j])
        saved += price[j] * cumsup[j] - cumcost[j]
    return (sc.consumer_quantities @ np.array(u, dtype=sc.cumsup.dtype)).tolist(), saved


def _rational_bound(instance: WdpInstance, cumdem: Sequence[int]) -> Money:
    """The Lagrangian bound at ``cumdem`` (:func:`_lagrangian_bound`) as a
    rational: ``C`` plus the winning budgets less bundles over ``D``, plus
    the exact sum of those consumers' factors.

    ``g_n·D`` is the integer ``b_n − bundle_n + F_n``, ``F_n`` the factor's
    floor over ``D``, plus the floor's remainder in ``[0, 1)``: so ``g_n`` is
    at least 0 iff that integer is, and a ``g_n`` of 0 adds nothing.
    """
    sc = instance._scaled
    bundle, saved = _lagrangian_bound(instance, cumdem)
    ok, b, floor = sc.feasible_alone.tolist(), sc.budgets, sc.factor_floors
    positive = [n for n, c in enumerate(bundle) if ok[n] and b[n] + floor[n] >= c]
    over_d = saved + sum(b[n] - bundle[n] for n in positive)
    return Fraction(over_d, sc.denominator) + exact_sum(sc.fairness[n] for n in positive)


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


class _Pool(NamedTuple):
    """The candidates of a scan, gathered once, in scan order.

    Per type ``l`` and candidate ``i``: ``quantities[l, i]``; where in the
    state's ``reads`` their room is, ``index[l, i]``, and their marginal
    cost, ``index[L + l, i]``; and ``value[i]``.  ``floor`` is the
    entry-wise minimum of their contribution rows, a list: where the slack
    is below it at any entry, none of them fits.
    """

    ids: np.ndarray
    quantities: np.ndarray
    index: np.ndarray
    value: np.ndarray
    floor: list


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

    A scan also ends once nobody left can fit.  A pool's ``floor`` is its
    candidates' least contribution at each entry, so where the slack
    (supply less demand) falls below it at any entry, none of them fits.
    When that holds after an admission, or nobody else passed the last
    test, :meth:`add` updates only ``cumdem`` and ``cost`` (one breakpoint
    read per type) and the scan ends with no refresh and no re-test.  So
    ``reads`` matches ``cumdem`` only right after a refresh; every repair
    trial starts with :meth:`remove`, which refreshes, before its first
    test.

    The state starts at ``cumdem``, zero demand if none is given; the
    repair pass starts it at the greedy pass's demand.  The supply,
    contribution rows and cost tables are the instance's
    (:class:`_ScaledValues`), which the greedy pass and :func:`solve_exact`
    read too; the room, the marginal costs and the pools are the repair's alone.
    """

    def __init__(self, instance: WdpInstance, cumdem: Sequence[int] = ()):
        self.sc = sc = instance._scaled
        L, M = sc.sorted_prices.shape
        self.num_types, self.dtype = L, sc.cumsup.dtype
        self.type_start = [t == 0 for _ in range(L) for t in range(M)]
        fits = max(map(abs, sc.value), default=0) < _INT64_SAFE
        self.value = np.array(sc.value, dtype=np.int64 if fits else object)
        self.distinct, self.slot_start = [], []
        slot = np.empty((L, len(sc.value)), dtype=np.intp)
        start = L * M
        for l, column in enumerate(sc.consumer_quantities.T):
            values, index = np.unique(np.append(column, 0), return_inverse=True)
            self.distinct.append(values.tolist())
            self.slot_start.append(start)
            slot[l] = start + index[:-1]
            start += len(values)
        # Reach r reads type l's room at l·M + M - r.  Room is never negative,
        # so a type a consumer does not demand (reach 0 included) never stops them.
        room_index = np.minimum(M - sc.reach.T, M - 1) + M * np.arange(L)[:, None]
        # A pool's per-type arrays, stacked so that one gather takes them all.
        self.candidate_side = np.concatenate([sc.consumer_quantities.T, room_index, slot])
        self.cumdem = list(cumdem) or [0] * (L * M)
        self._refresh()

    def _refresh(self) -> None:
        sc, cumdem = self.sc, self.cumdem
        # The suffix minimum of each type's slack, from its last provider on.
        low = 0
        room = [
            low := s if first or s < low else low
            for s, first in zip(map(sub, sc.supply_list, cumdem), self.type_start)
        ]
        cost, marginal = [], []
        for (cumsup, cumcost, price), distinct, at in zip(sc.tables, self.distinct, sc.demand_at):
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
        floor = self.sc.contribution[ids].min(axis=0).tolist() if len(ids) else []
        return _Pool(ids, side[: self.num_types], side[self.num_types :], self.value[ids], floor)

    def admissible(self, pool: _Pool) -> np.ndarray:
        """Which candidates of ``pool`` would each, on their own, fit and pay their way."""
        L = self.num_types
        read = self.reads.take(pool.index)
        fits = np.logical_and.reduce(pool.quantities <= read[:L], axis=0)
        return fits & (np.add.reduce(read[L:], axis=0) <= pool.value)

    def add(self, n: int, floor: Optional[Sequence[int]] = ()) -> bool:
        """Add consumer ``n``'s contribution to the demand; return whether
        ``reads`` was refreshed.  It is not when nobody is left to test
        (``floor`` None) or the new slack is below ``floor``, the least
        contribution of those left, at some entry: then only ``cost`` is
        updated.  The default, an empty floor, proves nothing."""
        sc = self.sc
        self.cumdem = cumdem = list(map(add, self.cumdem, sc.contribution_rows[n]))
        if floor is None or any(map(lt, map(sub, sc.supply_list, cumdem), floor)):
            tables = zip(sc.tables, sc.demand_at)
            self.cost = [_breakpoint_cost(*t, cumdem[at])[1] for t, at in tables]
            return False
        self._refresh()
        return True

    def remove(self, n: int) -> None:
        self.cumdem = list(map(sub, self.cumdem, self.sc.contribution_rows[n]))
        self._refresh()

    def save(self) -> tuple:
        # Every update rebinds cumdem and cost, and reads when it refreshes,
        # rather than writing into them, so the current objects are a snapshot.
        return self.cumdem, self.cost, self.reads

    def restore(self, saved: tuple) -> None:
        self.cumdem, self.cost, self.reads = saved


def solve_heuristic(instance: WdpInstance) -> WdpSolution:
    """Greedy admission by Lagrangian margin with one drop-and-readd pass.

    Consumers are ranked by budget plus fairness factor minus their bundle
    at each type's cheapest ask: the Lagrangian margin at zero demand
    (:func:`_lagrangian_bound`).  Each with a non-negative margin is
    admitted when the winner set stays feasible and the exact marginal cost
    does not exceed their value.  One repair pass then tries
    dropping each admitted consumer in ascending rank and greedily
    readmitting the other ranked candidates not admitted, keeping strict
    improvements of the objective.  Every comparison is exact, over ``D``:
    each factor enters as its floor over ``D``, and the remainder the floor
    drops is read only where the floors cannot decide, between tied margins
    and for a swap whose change over ``D`` lies in ``(-k, 0]`` for ``k``
    readmitted consumers (see :class:`_HeuristicState`).  Costs are read at
    price breakpoints, so memory does not grow with units.  The gap bound
    is the smaller of the Lagrangian bound at zero demand and at the final
    demand, computed only when read: its budgets and bundles over ``D``
    plus the exact sum of its consumers' factors, with no ``S``.

    Every scan walks its candidates in rank order and only admits, so winner
    demand only grows within a scan, and a candidate rejected once stays
    rejected for the rest of it (room only shrinks, cost is convex).  The
    greedy pass is one loop over the ranked candidates on the instance's
    demand layout (:func:`_greedy_pass`), the seed :func:`solve_exact` uses
    alone.  The repair pass holds the demand in a :class:`_HeuristicState`:
    each of its scans tests all its candidates at once, admits the first
    that passes, and tests again only the later ones that passed, so the
    admissions are those of a candidate-by-candidate loop.  A scan's
    candidates are gathered once as a :class:`_Pool` and narrowed with a
    mask; the repair pool is gathered again only when a swap is kept, and
    with it the pool's floor, the least contribution of its candidates at
    each entry of the demand.  After an admission, a scan ends with no
    re-test when nobody else passed, or when the slack is below that floor
    at some entry, so that nobody left fits: it then updates only the
    demand and its cost, not the room and marginal costs a test reads.
    Those match the demand only right after a refresh, and each trial's
    drop refreshes them before its first test.  Both checks are exact, so a
    scan ends early only where a re-test would admit nobody.
    """
    winners, cumdem, cost = _heuristic_pass(instance)
    bound = partial(_heuristic_bound, instance, tuple(cumdem))
    return _build_solution(instance, winners, cost, "heuristic", bound)


def _heuristic_bound(instance: WdpInstance, cumdem: tuple[int, ...]) -> Money:
    """The smaller Lagrangian bound, at zero demand or at the final ``cumdem``."""
    return min(_rational_bound(instance, d) for d in ((), cumdem))


def _ranked(instance: WdpInstance) -> tuple[list[int], dict[int, tuple]]:
    """``(ranked, key)``: the heuristic's candidates, best first, by ``key``:
    the Lagrangian margin at zero demand over ``D`` with the factors' floors,
    then between tied margins the remainder the floor drops, in ``[0, 1)``,
    so it orders as the exact margin does; stable, so ties keep position order."""
    sc = instance._scaled
    margin = list(map(sub, sc.value, _lagrangian_bound(instance, [])[0]))
    candidates = [n for n in np.flatnonzero(sc.feasible_alone).tolist() if margin[n] >= 0]
    tied = Counter(margin[n] for n in candidates)
    key = {n: (margin[n], sc.remainder(n) if tied[margin[n]] > 1 else 0) for n in candidates}
    return sorted(candidates, key=key.__getitem__, reverse=True), key


def _greedy_pass(instance: WdpInstance, ranked: list[int]) -> tuple[list[int], list[int], int]:
    """The heuristic's greedy pass over the ``ranked`` candidates: its winner
    positions, ascending, their flat cumulative demand and its cost over
    ``D``.  A candidate is admitted iff their contribution is within the
    slack (the supply less the demand) entry by entry and the cost rises by
    at most their value."""
    sc = instance._scaled
    supply = sc.supply_list
    tables = [(*t, at) for t, at in zip(sc.tables, sc.demand_at)]
    winners, slack, cost = [], supply, 0
    for n in ranked:
        row = sc.contribution_rows[n]
        if all(map(le, row, slack)):
            child = list(map(sub, slack, row))
            child_cost = 0
            for cumsup, cumcost, price, at in tables:
                child_cost += _breakpoint_cost(cumsup, cumcost, price, supply[at] - child[at])[1]
            if child_cost - cost <= sc.value[n]:
                winners.append(n)
                slack, cost = child, child_cost
    return sorted(winners), list(map(sub, supply, slack)), cost


def _heuristic_pass(instance: WdpInstance) -> tuple[list[int], list[int], int]:
    """:func:`solve_heuristic`'s winner positions, ascending, their flat
    cumulative demand and its cost over ``D``, with no solution built."""
    sc = instance._scaled
    ranked, key = _ranked(instance)
    admitted, cumdem, cost = _greedy_pass(instance, ranked)
    state = _HeuristicState(instance, cumdem)

    def admit_in_order(pool: _Pool) -> list[int]:
        """Admit each candidate of ``pool``, in order, that fits and pays its way."""
        gained: list[int] = []
        if not len(pool.ids):
            return gained
        alive = state.admissible(pool)
        i = alive.argmax()
        while alive[i]:
            n = int(pool.ids[i])
            gained.append(n)
            alive[i] = False
            if not state.add(n, pool.floor if alive.any() else None):
                break
            alive &= state.admissible(pool)
            i = alive.argmax()
        return gained

    ranked = np.array(ranked, dtype=np.intp)
    won = np.zeros(instance.shape.num_consumers, dtype=bool)
    won[admitted] = True
    pool = state.pool(ranked[~won[ranked]])
    # The winners' objective over D with the factors' floors.  A swap's
    # exact change, times D, is its change x in that plus the gained
    # remainders less the dropped one: in (x - 1, x + len(gained)), so
    # positive if x >= 1 and not if x <= -len(gained).  Only in between
    # are the remainders read.
    values = sum(sc.value[n] for n in admitted)
    current = values - cost
    for a in sorted(admitted, key=lambda n: (key[n], n)):
        snapshot = state.save()
        state.remove(a)
        gained = admit_in_order(pool)
        new_values = values - sc.value[a] + sum(sc.value[n] for n in gained)
        x = new_values - sum(state.cost) - current
        if x >= 1 or (x > -len(gained) and x + sum(map(sc.remainder, gained)) > sc.remainder(a)):
            current, values = current + x, new_values
            won[a] = False
            won[gained] = True
            pool = state.pool(ranked[~won[ranked]])
        else:
            state.restore(snapshot)

    return np.flatnonzero(won).tolist(), state.cumdem, sum(state.cost)
