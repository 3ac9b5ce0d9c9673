"""How the fairness factor responds to wins, losses, and losing streaks.

A loser's reward, ``(cl + 1) * (alpha1 * losses + alpha2 * quality)``,
grows with their total losses and escalates with their losing streak
``cl``.  It applies with probability ``min(1, (cl + 1) / (max_losses + 1))``,
so it is certain at the drop threshold.  A winner's penalty,
``-(beta1 * wins + beta2 / quality)``, grows with their win count and is
certain.  Every factor below comes from ``compute_fairness_factors``, the
procedure each round runs.
"""

from fractions import Fraction

import numpy as np

from faircda import FairnessParams, ParticipantRecord, compute_fairness_factors

params = FairnessParams()  # alpha1=9, alpha2=7, beta1=4, beta2=28, max_losses=6
rng = np.random.default_rng(2024)
means = (Fraction(1),)

# A thousand losers on each streak, with 10 losses in all and no price
# history yet, so their bid quality is a neutral 1.
per_streak, streaks = 1000, range(1, params.max_losses + 1)
losers = {
    cl * per_streak + i: ParticipantRecord(losses=10, consecutive_losses=cl)
    for cl in streaks
    for i in range(per_streak)
}
outcome = compute_fairness_factors(losers, list(losers), means, params, rng)
print("reward for a loser, by streak length (10 total losses, neutral bid quality):")
for cl in streaks:
    ids = range(cl * per_streak, (cl + 1) * per_streak)
    rewarded = [cid for cid in ids if outcome.applied_branch[cid] == "reward"]
    print(f"  streak {cl}: reward={str(outcome.factors[rewarded[0]]):>4}  "
          f"applied to {len(rewarded):>4}/{per_streak} "
          f"(probability {Fraction(cl + 1, params.max_losses + 1)})")

winners = {wins: ParticipantRecord(wins=wins) for wins in (1, 5, 10, 20)}
outcome = compute_fairness_factors(winners, list(winners), means, params, rng)
print("\npenalty for a winner, by win count (neutral bid quality):")
for wins in winners:
    print(f"  {wins:>2} wins: penalty={outcome.factors[wins]} ({outcome.applied_branch[wins]})")

# Bid quality compares a consumer's latest offered prices with the market
# means, clamped to [1/10, 10]: offering double the market rate scores 2.
# A higher score softens a winner's penalty through beta2 / quality.
market_means = (Fraction(150), Fraction(100))
bidders = {
    0: ParticipantRecord(wins=1, price_history=((Fraction(300), Fraction(200)),)),
    1: ParticipantRecord(wins=1, price_history=((Fraction(75), Fraction(50)),)),
}
outcome = compute_fairness_factors(bidders, [0, 1], market_means, params, rng)
print("\npenalty after one win, aggressive bidder (quality 2):", outcome.factors[0])
print("penalty after one win, stingy bidder (quality 1/2)  :", outcome.factors[1])

# A full factor computation for one round; each consumer's previous
# outcome is read from their record.  Consumer 0 is on a 6-round losing
# streak (reward guaranteed), consumer 1 just won (penalty guaranteed),
# consumer 2 is new (no factor).
records = {
    0: ParticipantRecord(wins=0, losses=6, consecutive_losses=6,
                         price_history=((Fraction(150), Fraction(100)),) * 6),
    1: ParticipantRecord(wins=4, losses=1, consecutive_losses=0,
                         price_history=((Fraction(200), Fraction(150)),) * 5),
    2: ParticipantRecord(),
}
outcome = compute_fairness_factors(
    records,
    participants=[0, 1, 2],
    market_mean_prices=market_means,
    params=params,
    rng=rng,
)
print("\nfactors for this round:")
for cid in (0, 1, 2):
    print(f"  consumer {cid}: factor={outcome.factors[cid]} "
          f"({outcome.applied_branch[cid]})")
