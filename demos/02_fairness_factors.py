"""How the fairness factor responds to wins, losses, and losing streaks.

A loser's reward grows with their total losses and escalates with the
streak; a winner's penalty grows with their win count and fades as losses
accumulate.  Interventions are randomized: the reward probability rises
with the streak (certain at the drop threshold), the penalty probability is
certain right after a win and fades afterwards.
"""

from fractions import Fraction

import numpy as np

from faircda import (
    FairnessParams,
    ParticipantRecord,
    compute_fairness_factors,
    eval_fun,
    fun_l,
    fun_w,
    prob_l,
    prob_w,
)

params = FairnessParams()  # alpha1=9, alpha2=7, beta1=4, beta2=28, max_losses=6
print("reward for a loser, by streak length (10 total losses, neutral bid quality):")
for cl in range(0, 7):
    print(f"  streak {cl}: reward={str(fun_w(10, Fraction(1), cl, params)):>4}  "
          f"applied with probability {prob_w(cl, params)}")

print("\npenalty for a winner, by win count (fresh streak, neutral quality):")
for wins in (1, 5, 10, 20):
    print(f"  {wins:>2} wins: penalty={fun_l(wins, Fraction(1), 0, params)}  "
          f"applied with probability {prob_l(0)}")

# Bid quality compares a consumer's latest offered prices to the market
# means: offering double the market rate doubles the quality score.
market_means = (Fraction(150), Fraction(100))
aggressive = ParticipantRecord(price_history=((Fraction(300), Fraction(200)),))
stingy = ParticipantRecord(price_history=((Fraction(75), Fraction(50)),))
print("\nbid quality, aggressive bidder:", eval_fun(aggressive, market_means))
print("bid quality, stingy bidder    :", eval_fun(stingy, market_means))

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
rng = np.random.default_rng(2024)
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
