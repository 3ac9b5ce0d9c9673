"""Per-consumer fairness factors from participation history.

A consumer who lost the previous round may receive a positive reward factor
(more likely the longer their losing streak); a consumer who won receives a
negative penalty factor.  The factor is added to the winner-determination
objective when that consumer wins, so rewards pull persistent losers back
into the market and penalties throttle serial winners.

With ``cl`` the losing streak, ``eval`` the bid-quality score, and the
coefficients of :class:`~faircda.model.FairnessParams`:

* a loser's reward ``(cl + 1) * (alpha1 * losses + alpha2 * eval)`` applies
  with probability ``min(1, (cl + 1) / (max_losses + 1))``;
* a winner's penalty ``-(beta1 * wins + beta2 / eval)`` is certain.

A previous-round winner's losing streak has just reset to 0, so a
streak-dependent penalty, divided by ``cl + 1`` and applied with
probability ``1 / (cl + 1)``, would reduce to this one.

The history is the repository's participation records alone: a
consumer's previous-round outcome is read from their record (new, lost or
won), so the records and the outcome cannot disagree.

The quality score is the mean over resource types of the consumer's most
recent offered unit price over the market mean unit price, clamped to
``[1/10, 10]``; a consumer with no history yet scores a neutral 1.  Higher
offered prices score higher, so quality rewards aggressive bidders and the
score is free of the market's price scale.

Arithmetic is exact integer arithmetic.  The market means are validated
and scaled to integer coefficients, and the policy's coefficients
cross-multiplied into integers, once per round; a quality score is an
integer numerator over an integer denominator, read from the last offered
price vector's integers and clamped by integer comparisons, and each reward
or penalty is built as a single ``Fraction`` from integers.  The round's
uniform draws are taken in one ``rng.random(n)`` call, and a draw ``u`` is
compared with the reward probability ``num / den`` as ``u``'s exact integer
ratio, so no rational is built for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Literal, Mapping, Sequence

from .model import FairnessParams, Money, ParticipantRecord, as_money

__all__ = ["Branch", "FairnessOutcome", "compute_fairness_factors"]

Branch = Literal["reward", "penalty", "none"]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FairnessOutcome:
    """Factors and the branch applied to each participant this round."""

    factors: dict[int, Money] = field(default_factory=dict)
    applied_branch: dict[int, Branch] = field(default_factory=dict)


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
    """The clamped bid-quality score as ``(numerator, denominator)``."""
    last = record.last_offered_prices()
    if last is None:
        return 1, 1
    # The last offered prices are integers over one denominator.
    numerators = last.numerators
    if len(numerators) != len(coefficients):
        raise ValueError(
            f"price history entry has {len(numerators)} types but market means have "
            f"{len(coefficients)}"
        )
    num = sum(map(mul, numerators, coefficients))
    den = last.denominator * scale
    if 10 * num < den:
        return 1, 10
    if num > 10 * den:
        return 10, 1
    return num, den


def compute_fairness_factors(
    records: Mapping[int, ParticipantRecord],
    participants: Sequence[int],
    market_mean_prices: Sequence[Money],
    params: FairnessParams,
    rng,
) -> FairnessOutcome:
    """Run the factor-assignment procedure for one round's participants.

    ``records`` maps consumer id to :class:`ParticipantRecord` (the
    repository's records); a participant listed twice raises ``ValueError``
    before any draw.  Each participant's previous-round outcome is read
    from their record: active consumers bid every round, so a record with no
    wins and no losses is new (factor 0, branch "none", as for everyone in
    round one), a positive losing streak means they lost the previous round,
    and any other record means they won it.  Exactly one uniform draw ``u``
    is consumed per participant, in ascending consumer-id order, regardless
    of which branch applies — so the random trace depends only on the
    participant set, never on outcomes.  A loser is rewarded iff ``u`` is
    below the reward probability; a winner's draw is not compared at all,
    since ``u`` lies in ``[0, 1)`` and the penalty's probability is 1.

    ``rng`` is a seeded ``numpy.random.Generator``.  The round's draws are
    taken in one ``rng.random(n)`` call for ``n`` participants, which reads
    the same stream as ``n`` calls of ``rng.random()``; anything whose
    ``random(n)`` returns a numpy array of ``n`` floats works.
    """
    ids = sorted(participants)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"consumer {a} is listed twice among the participants")
    draws = rng.random(len(ids)).tolist()
    # A reward (cl + 1) * (alpha1 * losses + alpha2 * q) and a penalty
    # -(beta1 * wins + beta2 / q), for q = qn / qd, each as one fraction of
    # integers: the coefficients' numerators and denominators cross-multiplied.
    a1, a2, b1, b2 = params.alpha1, params.alpha2, params.beta1, params.beta2
    reward_losses, reward_quality = a1.numerator * a2.denominator, a2.numerator * a1.denominator
    reward_den = a1.denominator * a2.denominator
    penalty_wins, penalty_quality = b1.numerator * b2.denominator, b2.numerator * b1.denominator
    penalty_den = b1.denominator * b2.denominator
    k = params.max_losses + 1
    factors: dict[int, Money] = {}
    branches: dict[int, Branch] = {}
    # The means are validated and scaled at the first evaluation, so a call
    # that evaluates nobody accepts any means, as a per-consumer check would.
    market_scale = None
    for cid, u in zip(ids, draws):
        record = records.get(cid)
        if record is None:
            raise ValueError(f"no participation record for consumer {cid}")
        factor: Money = _ZERO
        branch: Branch = "none"
        if record.wins or record.losses:
            cl = record.consecutive_losses
            if cl:
                # u < min(cl + 1, k) / k for k = max_losses + 1, exactly: a
                # float is a ratio of integers.
                un, ud = u.as_integer_ratio()
                branch = "reward" if un * k < min(cl + 1, k) * ud else "none"
            else:
                branch = "penalty"  # certain: u < 1
            if branch != "none":
                if market_scale is None:
                    market_scale = _market_scale(market_mean_prices)
                qn, qd = _quality(record, *market_scale)
                if branch == "reward":
                    num = reward_losses * record.losses * qd + reward_quality * qn
                    factor = Fraction((cl + 1) * num, reward_den * qd)
                else:
                    num = penalty_wins * record.wins * qn + penalty_quality * qd
                    factor = Fraction(-num, penalty_den * qn)
        factors[cid] = factor
        branches[cid] = branch
    # Rewards are >= 0 since alpha >= 0, and penalties < 0 since beta2 > 0.
    return FairnessOutcome(factors, branches)
