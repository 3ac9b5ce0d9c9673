"""Per-consumer fairness factors from participation history.

A consumer who lost the previous round may receive a positive reward factor
(more likely the longer their losing streak); a consumer who won receives a
negative penalty factor.  The factor is added to the winner-determination
objective when that consumer wins, so rewards pull persistent losers back
into the market and penalties throttle serial winners.  A previous-round
winner's losing streak has just reset to 0, so the penalty applies with
certainty (``prob_l(0) = 1``) and :func:`fun_l` divides by 1: the streak
dependence of :func:`prob_l` and :func:`fun_l` is reached only by calling
them directly.

The history is the repository's participation records alone: a
consumer's previous-round outcome is read from their record (new, lost or
won), so the records and the outcome cannot disagree.

The reward/penalty magnitudes use the market's loss/win counts and a bid
quality score; the intervention probabilities use the losing-streak length.
The quality score and both probability shapes are policy choices documented
on :func:`eval_fun`, :func:`prob_w` and :func:`prob_l`.

Arithmetic is exact integer arithmetic.  The market means are validated
and scaled to integer coefficients once per round; a quality score is an
integer numerator over an integer denominator, read from the last offered
price vector's integers and clamped by integer comparisons, and each reward
or penalty is built as a single ``Fraction`` from integers.  A uniform draw
``u`` is compared with a probability ``num / den`` as ``u``'s exact integer
ratio, so no rational is built for it.  The public formulas and
:func:`compute_fairness_factors` share these integer helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Literal, Mapping, Sequence

from .model import FairnessParams, Money, ParticipantRecord, _unchecked, as_money

__all__ = [
    "Branch",
    "FairnessOutcome",
    "eval_fun",
    "fun_w",
    "fun_l",
    "prob_w",
    "prob_l",
    "compute_fairness_factors",
]

Branch = Literal["reward", "penalty", "none"]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FairnessOutcome:
    """Factors and the branch applied to each participant this round."""

    factors: dict[int, Money] = field(default_factory=dict)
    applied_branch: dict[int, Branch] = field(default_factory=dict)

    def __post_init__(self):
        for cid, branch in self.applied_branch.items():
            factor = self.factors.get(cid, _ZERO)
            if branch == "reward" and factor < 0:
                raise ValueError(f"consumer {cid}: reward branch with negative factor {factor}")
            if branch == "penalty" and factor >= 0:
                raise ValueError(f"consumer {cid}: penalty branch with factor {factor} >= 0")
            if branch == "none" and factor != 0:
                raise ValueError(f"consumer {cid}: no branch applied but factor is {factor}")


def _market_scale(market_mean_prices: Sequence[Money]) -> tuple[list[int], int]:
    """The market means as integers: per-type coefficients and a scale.

    With each mean written ``A_l / B_l`` and ``T = lcm(A_l)``, a price
    ``a_l / b`` divided by mean ``l`` is ``a_l * c_l / (b * T)`` for
    ``c_l = B_l * (T // A_l)``.  Returns the ``c_l`` and ``T * L``, the
    quality score's denominator apart from the prices' own ``b``.
    """
    means = [as_money(p) for p in market_mean_prices]
    for l, mean in enumerate(means):
        if mean <= 0:
            raise ValueError(f"market mean price for resource type {l} must be positive, got {mean}")
    T = math.lcm(*(mean.numerator for mean in means))
    return [mean.denominator * (T // mean.numerator) for mean in means], T * len(means)


def _quality(record: ParticipantRecord, coefficients: list[int], scale: int) -> tuple[int, int]:
    """The clamped bid-quality score of :func:`eval_fun` as ``(numerator, denominator)``."""
    last = record.last_offered_prices()
    if last is None:
        return 1, 1
    if len(last) != len(coefficients):
        raise ValueError(
            f"price history entry has {len(last)} types but market means have {len(coefficients)}"
        )
    # The last offered prices are integers over one denominator.
    num = sum(map(mul, last.numerators, coefficients))
    den = last.denominator * scale
    if 10 * num < den:
        return 1, 10
    if num > 10 * den:
        return 10, 1
    return num, den


def _reward(losses: int, qn: int, qd: int, cl: int, params: FairnessParams) -> Money:
    """:func:`fun_w` for the quality score ``qn / qd``, as one fraction of integers."""
    a1, a2 = params.alpha1, params.alpha2
    num = a1.numerator * losses * a2.denominator * qd + a2.numerator * qn * a1.denominator
    return Fraction((cl + 1) * num, a1.denominator * a2.denominator * qd)


def _penalty(wins: int, qn: int, qd: int, cl: int, params: FairnessParams) -> Money:
    """:func:`fun_l` for the non-zero quality score ``qn / qd``, as one fraction of integers."""
    b1, b2 = params.beta1, params.beta2
    num = b1.numerator * wins * b2.denominator * qn + b2.numerator * qd * b1.denominator
    return Fraction(-num, b1.denominator * b2.denominator * qn * (cl + 1))


def _reward_odds(cl: int, params: FairnessParams) -> tuple[int, int]:
    """:func:`prob_w` as ``(numerator, denominator)``."""
    return min(cl + 1, params.max_losses + 1), params.max_losses + 1


def _penalty_odds(cl: int) -> tuple[int, int]:
    """:func:`prob_l` as ``(numerator, denominator)``."""
    return 1, cl + 1


def eval_fun(record: ParticipantRecord, market_mean_prices: Sequence[Money]) -> Money:
    """Bid-quality score: how the consumer's latest prices compare to the market.

    Returns the mean over resource types of (consumer's most recent offered
    unit price / market mean unit price), clamped to [0.1, 10].  A consumer
    with no history yet scores a neutral 1.  Higher offered prices score
    higher, so quality rewards aggressive bidders and the score is free of
    the market's price scale.
    """
    return Fraction(*_quality(record, *_market_scale(market_mean_prices)))


def fun_w(losses: int, eval: Money, cl: int, params: FairnessParams) -> Money:
    """Reward for a previous-round loser.

    ``(cl + 1) * (alpha1 * losses + alpha2 * eval)``: grows with the total
    loss count, the bid quality, and — through the leading factor — the
    current losing streak.  Always non-negative.
    """
    eval = as_money(eval)
    return _reward(losses, eval.numerator, eval.denominator, cl, params)


def fun_l(wins: int, eval: Money, cl: int, params: FairnessParams) -> Money:
    """Penalty for a previous-round winner.

    ``-(beta1 * wins + beta2 / eval) / (cl + 1)``: magnitude grows with the
    total win count, shrinks for high-quality bids, and fades as a losing
    streak accumulates.  Always non-positive.
    """
    eval = as_money(eval)
    if eval == 0:
        raise ValueError("bid quality score must be non-zero (beta2 is divided by it)")
    return _penalty(wins, eval.numerator, eval.denominator, cl, params)


def prob_w(cl: int, params: FairnessParams) -> Fraction:
    """Probability of rewarding a loser with streak ``cl``.

    ``min(1, (cl + 1) / (max_losses + 1))``: monotone in the streak and
    certain once the streak reaches the drop threshold, so a consumer on
    the verge of dropping is always boosted.
    """
    return Fraction(*_reward_odds(cl, params))


def prob_l(cl: int) -> Fraction:
    """Probability of penalizing a winner with streak ``cl``.

    ``1 / (cl + 1)``: certain for a consumer with no losing streak, which
    every previous-round winner is (the streak resets on a win), and
    fading with streak length, which only direct calls reach.
    """
    return Fraction(*_penalty_odds(cl))


def compute_fairness_factors(
    records: Mapping[int, ParticipantRecord],
    participants: Sequence[int],
    market_mean_prices: Sequence[Money],
    params: FairnessParams,
    rng,
) -> FairnessOutcome:
    """Run the factor-assignment procedure for one round's participants.

    ``records`` maps consumer id to :class:`ParticipantRecord` (the
    repository's records).  Each participant's previous-round outcome is read
    from their record: active consumers bid every round, so a record with no
    wins and no losses is new (factor 0, branch "none", as for everyone in
    round one), a positive losing streak means they lost the previous round,
    and any other record means they won it.  A winner's streak is therefore
    always 0: the penalty applies with certainty (``prob_l(0) = 1``) and
    :func:`fun_l` divides by 1.  Exactly one uniform draw is
    consumed per participant, in ascending consumer-id order, regardless of
    which branch applies — so the random trace depends only on the
    participant set, never on outcomes.

    ``rng`` is a seeded ``numpy.random.Generator`` (anything with a
    ``random()`` method works).
    """
    factors: dict[int, Money] = {}
    branches: dict[int, Branch] = {}
    # The means are validated and scaled at the first evaluation, so a call
    # that evaluates nobody accepts any means, as a per-consumer check would.
    market_scale = None
    for cid in sorted(participants):
        record = records.get(cid)
        if record is None:
            raise ValueError(f"no participation record for consumer {cid}")
        u = float(rng.random())
        factor: Money = _ZERO
        branch: Branch = "none"
        if record.wins or record.losses:
            cl = record.consecutive_losses
            lost = cl > 0
            odds, odds_den = _reward_odds(cl, params) if lost else _penalty_odds(cl)
            # u < odds / odds_den, exactly: a float is a ratio of integers.
            un, ud = u.as_integer_ratio()
            if un * odds_den < odds * ud:
                if market_scale is None:
                    market_scale = _market_scale(market_mean_prices)
                qn, qd = _quality(record, *market_scale)
                if lost:
                    factor = _reward(record.losses, qn, qd, cl, params)
                    branch = "reward"
                else:
                    factor = _penalty(record.wins, qn, qd, cl, params)
                    branch = "penalty"
        factors[cid] = factor
        branches[cid] = branch
    # Valid by construction: rewards are >= 0 since alpha >= 0, and penalties
    # < 0 since beta2 > 0; the public constructor keeps its check.
    return _unchecked(FairnessOutcome, factors=factors, applied_branch=branches)
