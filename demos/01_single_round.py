"""Walk through one auction round by hand.

Three consumers request bundles of two resource types, two providers offer
supply, and the winner-determination solver picks the surplus-maximizing
trades.  Settlement splits every unit's surplus evenly between the two
sides of the trade.
"""

from fractions import Fraction

from faircda import (
    ConsumerBid,
    ExtendedConsumerBid,
    ProviderBid,
    WdpInstance,
    settle,
    solve_exact,
    solve_heuristic,
    validate_solution,
)

# Consumer 0 is a big spender, consumer 1 is modest, consumer 2 offers less
# than any provider asks for type 0 and therefore cannot trade.
consumers = [
    ConsumerBid(consumer_id=0, unit_prices=(Fraction(120), Fraction(90)), quantities=(2, 1)),
    ConsumerBid(consumer_id=1, unit_prices=(Fraction(80), Fraction(70)), quantities=(1, 2)),
    ConsumerBid(consumer_id=2, unit_prices=(Fraction(40), Fraction(65)), quantities=(1, 1)),
]
providers = [
    ProviderBid(provider_id=0, unit_prices=(Fraction(60), Fraction(50)), quantities=(2, 2)),
    ProviderBid(provider_id=1, unit_prices=(Fraction(75), Fraction(55)), quantities=(3, 1)),
]

# No history yet, so every fairness factor is zero.
instance = WdpInstance.from_bids(
    [ExtendedConsumerBid(bid=c) for c in consumers], providers
)

# Both solvers agree on this tiny market.
for solver in (solve_exact, solve_heuristic):
    solution = solver(instance)
    print(
        f"{solver.__name__:>16}: winners={solution.winner_positions} "
        f"objective={solution.objective} ({solution.optimality})"
    )

solution = solve_exact(instance)
print("\ntransfers[n, l, m] (units from provider m to consumer n):")
print(solution.allocation.transfers)
print("constraint violations:", validate_solution(instance, solution.allocation))

# Midpoint pricing: each unit trades at the average of offer and ask.
settlement = settle(instance, solution.allocation)
print("\nunit trade prices:", {k: str(v) for k, v in settlement.unit_trade_prices.items()})
print("consumer payments :", {k: str(v) for k, v in settlement.consumer_payments.items()})
print("provider receipts :", {k: str(v) for k, v in settlement.provider_receipts.items()})
print("consumer utilities:", {k: str(v) for k, v in settlement.consumer_utilities.items()})
print("provider utilities:", {k: str(v) for k, v in settlement.provider_utilities.items()})

# The auctioneer keeps nothing, and nobody trades at a loss.
assert settlement.total_payments() == settlement.total_receipts()
assert all(u >= 0 for u in settlement.consumer_utilities.values())
print("\nbudget balance holds exactly:", settlement.total_payments(), "==",
      settlement.total_receipts())
