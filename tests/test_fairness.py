"""Fairness factors: the reward and penalty formulas, their probabilities,
and the round procedure, each read through :func:`compute_fairness_factors`."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    reference_eval_fun,
    reference_fairness_factors,
    reference_fun_l,
    reference_fun_w,
    reference_prob_l,
    reference_prob_w,
)

from faircda.fairness import compute_fairness_factors
from faircda.model import FairnessParams, ParticipantRecord

PARAMS = FairnessParams()  # alpha1=9, alpha2=7, beta1=4, beta2=28, max_losses=6
# beta1 = 0 and beta2 = 1 make a winner's penalty minus one over their bid quality.
QUALITY_PARAMS = FairnessParams(beta1=0, beta2=1)
# The largest draw a uniform stream in [0, 1) can yield.
TOP_DRAW = math.nextafter(1.0, 0.0)

evals = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10))
counts = st.integers(min_value=0, max_value=50)
streaks = st.integers(min_value=1, max_value=50)


class _ConstantRng:
    """Stand-in random stream yielding a fixed uniform value."""

    def __init__(self, value):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


def outcome(record, means=(Fraction(1),), params=PARAMS, u=0.0):
    """The branch and factor :func:`compute_fairness_factors` gives one consumer."""
    out = compute_fairness_factors({0: record}, [0], means, params, _ConstantRng(u))
    return out.applied_branch[0], out.factors[0]


def reward(losses, quality, cl):
    """A loser's factor at a zero draw, their last price ``quality`` times a mean of 1."""
    record = ParticipantRecord(losses=losses, consecutive_losses=cl, price_history=((quality,),))
    branch, factor = outcome(record)
    assert branch == "reward"
    return factor


def penalty(wins, quality):
    """A winner's factor, their last price ``quality`` times a mean of 1."""
    branch, factor = outcome(ParticipantRecord(wins=wins, price_history=((quality,),)))
    assert branch == "penalty"
    return factor


def quality_penalty(history, means):
    """Minus one over the bid quality of a winner with this price history."""
    return outcome(ParticipantRecord(wins=1, price_history=history), means, QUALITY_PARAMS)[1]


class TestEvalFun:
    """The bid-quality score, read as a winner's penalty under ``QUALITY_PARAMS``."""

    def test_prices_equal_to_market_means(self):
        assert quality_penalty(((150, 120),), (Fraction(150), Fraction(120))) == -1

    def test_prices_double_the_market_means(self):
        assert quality_penalty(((300, 240),), (Fraction(150), Fraction(120))) == Fraction(-1, 2)

    def test_empty_history_scores_neutral(self):
        assert quality_penalty((), (Fraction(100),)) == -1

    def test_only_most_recent_entry_counts(self):
        assert quality_penalty(((999,), (50,)), (Fraction(100),)) == -2

    def test_clamped_to_band(self):
        assert quality_penalty(((10_000,),), (Fraction(1),)) == Fraction(-1, 10)
        assert quality_penalty(((Fraction(1, 100),),), (Fraction(100),)) == -10

    def test_non_positive_market_mean_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            quality_penalty(((10,),), (Fraction(0),))


class TestFunW:
    """A loser's reward ``(cl + 1) * (alpha1 * losses + alpha2 * quality)``."""

    def test_fresh_loser(self):
        assert reward(1, 1, 1) == 32

    def test_streaky_loser(self):
        assert reward(2, 2, 1) == 64

    @given(extra=counts, quality=evals, cl=streaks)
    def test_non_negative(self, extra, quality, cl):
        assert reward(cl + extra, quality, cl) >= 0

    @given(extra=counts, quality=evals, cl=streaks)
    def test_streak_escalates_reward(self, extra, quality, cl):
        losses = cl + 1 + extra
        assert reward(losses, quality, cl + 1) > reward(losses, quality, cl)

    @given(extra=counts, quality=st.fractions(Fraction(1, 10), 9), cl=streaks)
    def test_monotone_in_losses_and_quality(self, extra, quality, cl):
        losses = cl + extra
        assert reward(losses + 1, quality, cl) > reward(losses, quality, cl)
        assert reward(losses, quality + 1, cl) > reward(losses, quality, cl)


class TestFunL:
    """A winner's penalty ``-(beta1 * wins + beta2 / quality)``."""

    def test_single_win(self):
        assert penalty(1, 1) == -32

    def test_quality_soaks_up_the_penalty(self):
        assert penalty(1, 7) == -8
        assert penalty(1, 10) == Fraction(-34, 5)

    @given(wins=streaks, quality=evals)
    def test_never_positive(self, wins, quality):
        assert penalty(wins, quality) < 0

    @given(wins=streaks, quality=evals)
    def test_penalty_grows_with_wins(self, wins, quality):
        assert abs(penalty(wins + 1, quality)) > abs(penalty(wins, quality))


def branch_at(u, cl=None):
    """The branch of a loser on streak ``cl`` at draw ``u``, or of a winner for no ``cl``."""
    if cl is None:
        record = ParticipantRecord(wins=1)
    else:
        record = ParticipantRecord(losses=cl, consecutive_losses=cl)
    return outcome(record, u=u)[0]


class TestProbabilities:
    """A loser's reward applies iff the draw is below
    ``min(1, (cl + 1) / (max_losses + 1))``; a winner's penalty is certain."""

    def test_prob_w_saturates_at_drop_threshold(self):
        assert branch_at(TOP_DRAW, cl=6) == "reward"
        assert branch_at(TOP_DRAW, cl=9) == "reward"

    def test_prob_w_fresh_streak(self):
        # 2/7 = 0.2857...
        assert branch_at(0.28, cl=1) == "reward"
        assert branch_at(0.29, cl=1) == "none"

    def test_prob_w_mid_streak(self):
        # 4/7 = 0.5714...
        assert branch_at(0.57, cl=3) == "reward"
        assert branch_at(0.58, cl=3) == "none"

    def test_prob_l_certain_at_zero_streak(self):
        assert branch_at(TOP_DRAW) == "penalty"

    @given(cl=streaks, u=st.floats(min_value=0, max_value=1, exclude_max=True))
    def test_both_are_probabilities(self, cl, u):
        assert branch_at(0.0, cl=cl) == "reward"
        assert branch_at(u, cl=cl) in ("reward", "none")
        assert branch_at(u) == "penalty"

    @given(cl=streaks, u=st.floats(min_value=0, max_value=1, exclude_max=True))
    def test_monotonicities(self, cl, u):
        if branch_at(u, cl=cl) == "reward":
            assert branch_at(u, cl=cl + 1) == "reward"


class TestComputeFairnessFactors:
    MEANS = (Fraction(100), Fraction(100))

    def records(self):
        return {
            0: ParticipantRecord(
                wins=0, losses=6, consecutive_losses=6,
                price_history=tuple(((Fraction(100), Fraction(100)),) * 6),
            ),
            1: ParticipantRecord(
                wins=3, losses=2, consecutive_losses=0,
                price_history=tuple(((Fraction(100), Fraction(100)),) * 5),
            ),
            2: ParticipantRecord(),
        }

    def test_round_one_everyone_absent(self):
        records = {0: ParticipantRecord(), 1: ParticipantRecord()}
        rng = _ConstantRng(0.5)
        out = compute_fairness_factors(records, [0, 1], self.MEANS, PARAMS, rng)
        assert out.factors == {0: 0, 1: 0}
        assert out.applied_branch == {0: "none", 1: "none"}
        assert rng.draws == 2

    def test_previous_outcome_is_read_from_the_record(self):
        # No round played: new, whatever the history says.  A losing streak:
        # lost.  Any other record with a round played is won, one with
        # losses and no wins included: the rule reads only the counts.
        records = {
            0: ParticipantRecord(price_history=((Fraction(100), Fraction(100)),)),
            1: ParticipantRecord(wins=2, losses=1, consecutive_losses=1),
            2: ParticipantRecord(wins=0, losses=3, consecutive_losses=0),
            3: ParticipantRecord(wins=1),
        }
        rng = _ConstantRng(0.0)
        out = compute_fairness_factors(records, [0, 1, 2, 3], self.MEANS, PARAMS, rng)
        assert out.applied_branch == {0: "none", 1: "reward", 2: "penalty", 3: "penalty"}
        assert out.factors[1] == 32  # 2 * (9 * 1 + 7 * 1)
        assert out.factors[2] == -28  # -(4 * 0 + 28 / 1)

    def test_saturated_loser_rewarded_regardless_of_draw(self):
        out = compute_fairness_factors(
            self.records(), [0], self.MEANS, PARAMS, _ConstantRng(0.99)
        )
        # The reward probability is 1 at streak 6, so even a 0.99 draw takes it.
        assert out.applied_branch[0] == "reward"
        assert out.factors[0] == 427  # 7 * (9 * 6 + 7 * 1)

    def test_fresh_winner_always_penalized(self):
        out = compute_fairness_factors(
            self.records(), [1], self.MEANS, PARAMS, _ConstantRng(0.3)
        )
        # The penalty branch is certain right after a win.
        assert out.applied_branch[1] == "penalty"
        assert out.factors[1] == -40  # -(4 * 3 + 28 / 1)
        assert out.factors[1] < 0

    def test_failed_draw_leaves_factor_zero(self):
        records = {0: ParticipantRecord(losses=1, consecutive_losses=1)}
        out = compute_fairness_factors(records, [0], self.MEANS, PARAMS, _ConstantRng(0.9))
        # The reward probability at streak 1 is 2/7 < 0.9: no intervention.
        assert out.factors[0] == 0 and out.applied_branch[0] == "none"

    def test_one_draw_per_participant_in_id_order(self):
        rng = _ConstantRng(0.5)
        compute_fairness_factors(self.records(), [2, 0, 1], self.MEANS, PARAMS, rng)
        assert rng.draws == 3

    def test_missing_record_names_the_consumer(self):
        with pytest.raises(ValueError, match="consumer 7"):
            compute_fairness_factors({}, [7], self.MEANS, PARAMS, _ConstantRng(0.5))

    def test_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(1234)
            return compute_fairness_factors(self.records(), [0, 1, 2], self.MEANS, PARAMS, rng)

        assert run() == run()


class _SequenceRng:
    """Stand-in random stream yielding given uniform values in order."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def random(self):
        value = self.values[self.draws]
        self.draws += 1
        return value


# Means and prices with denominators that are not powers of 2 and 5, and
# coefficients that are not integers.
means_st = st.fractions(min_value=Fraction(1, 50), max_value=300, max_denominator=60)
coefficient_st = st.fractions(min_value=0, max_value=40, max_denominator=12)
params_st = st.builds(
    FairnessParams,
    alpha1=coefficient_st,
    alpha2=coefficient_st,
    beta1=coefficient_st,
    beta2=st.fractions(min_value=Fraction(1, 12), max_value=40, max_denominator=12),
    max_losses=st.integers(1, 8),
)
# Ratios of a price to its type's mean: clamp edges exactly and just past them.
EDGE_RATIOS = (
    Fraction(1, 10), Fraction(1, 10) - Fraction(1, 997), Fraction(1, 10) + Fraction(1, 997),
    Fraction(10), Fraction(10) - Fraction(1, 997), Fraction(10) + Fraction(1, 997), Fraction(1),
)
# Draws exactly on probability thresholds (0.5 is the reward probability at
# streak 2 and max_losses 5), floats just off them, and arbitrary floats.
draw_st = st.one_of(
    st.sampled_from([0.0, 0.5, 0.25, 0.75, 1 / 3, 2 / 3, 1 / 7, 0.2, 0.125]),
    st.floats(min_value=0, max_value=1, exclude_max=True),
)


# A record's previous outcome is read from it: new (no round played), lost
# (on a losing streak) or won (any other record with a round played).
RECORD_KINDS = ("new", "lost", "won")


@st.composite
def fairness_round(draw):
    L = draw(st.integers(1, 4))
    means = draw(st.lists(means_st, min_size=L, max_size=L))
    params = draw(params_st)
    n = draw(st.integers(1, 8))
    records = {}
    for cid in range(n):
        kind = draw(st.sampled_from(RECORD_KINDS))
        wins = losses = streak = 0
        if kind == "lost":
            wins, losses = draw(st.integers(0, 12)), draw(st.integers(1, 12))
            streak = draw(st.integers(1, losses))
        elif kind == "won":
            wins, losses = draw(
                st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda c: sum(c))
            )
        history = ()
        if kind != "new" or draw(st.booleans()):
            if draw(st.booleans()):
                ratio = draw(st.sampled_from(EDGE_RATIOS))
                last = tuple(m * ratio for m in means)
            else:
                last = tuple(
                    draw(st.lists(
                        st.fractions(min_value=0, max_value=4000, max_denominator=70),
                        min_size=L, max_size=L,
                    ))
                )
            history = (last,)
        records[cid] = ParticipantRecord(
            wins=wins, losses=losses, consecutive_losses=streak, price_history=history
        )
    draws = draw(st.lists(draw_st, min_size=n, max_size=n))
    return records, means, params, draws


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(case=fairness_round())
    def test_factors_and_branches_equal_the_fraction_reference(self, case):
        records, means, params, draws = case
        participants = list(records)[::-1]
        rng, reference_rng = _SequenceRng(draws), _SequenceRng(draws)
        out = compute_fairness_factors(records, participants, means, params, rng)
        factors, branches = reference_fairness_factors(
            records, participants, means, params, reference_rng
        )
        assert out.factors == factors
        assert out.applied_branch == branches
        assert rng.draws == reference_rng.draws == len(records)
        for record in records.values():
            quality = reference_eval_fun(record, means)
            assert quality_penalty(record.price_history, means) == -1 / quality

    @given(count=counts, quality=evals, cl=streaks, u=draw_st, params=params_st)
    def test_public_formulas_equal_the_fraction_reference(self, count, quality, cl, u, params):
        # The paper's formulas as the round applies them: a loser on streak
        # cl, and a winner, whose streak is 0, with quality over a mean of 1.
        history = ((quality,),)
        loser = ParticipantRecord(losses=cl + count, consecutive_losses=cl, price_history=history)
        assert outcome(loser, params=params) == (
            "reward", reference_fun_w(cl + count, quality, cl, params)
        )
        rewarded = u < reference_prob_w(cl, params)
        assert outcome(loser, params=params, u=u)[0] == ("reward" if rewarded else "none")
        winner = ParticipantRecord(wins=count, losses=1, price_history=history)
        assert u < reference_prob_l(0)
        assert outcome(winner, params=params, u=u) == (
            "penalty", reference_fun_l(count, quality, 0, params)
        )

    def test_draw_exactly_on_the_threshold_fails(self):
        params = FairnessParams(max_losses=5)
        records = {
            0: ParticipantRecord(losses=2, consecutive_losses=2, price_history=((Fraction(1),),)),
            1: ParticipantRecord(wins=1, losses=1, consecutive_losses=0, price_history=((Fraction(1),),)),
        }
        # The reward probability at streak 2 is 3/6: a draw of 0.5 is not
        # below it.  Consumer 1 won, so their penalty is certain.
        out = compute_fairness_factors(records, [0, 1], (1,), params, _ConstantRng(0.5))
        assert out.applied_branch == {0: "none", 1: "penalty"}
        below = compute_fairness_factors(
            records, [0, 1], (1,), params, _ConstantRng(0.49999999999999994)
        )
        assert below.applied_branch == {0: "reward", 1: "penalty"}


class TestMarketMeanValidation:
    LOSER = {0: ParticipantRecord(losses=1, consecutive_losses=1, price_history=((Fraction(3),),))}

    def test_non_positive_mean_accepted_when_nobody_is_evaluated(self):
        # The reward probability at streak 1 is 2/7 < 0.9: the loser's draw
        # fails, so nobody is evaluated.
        for records in (self.LOSER, {0: ParticipantRecord()}):
            out = compute_fairness_factors(
                records, [0], (Fraction(0),), PARAMS, _ConstantRng(0.9)
            )
            assert out.factors == {0: 0} and out.applied_branch == {0: "none"}

    def test_first_evaluation_rejects_a_non_positive_mean(self):
        with pytest.raises(
            ValueError, match=r"market mean price for resource type 1 must be positive, got -1/2"
        ):
            compute_fairness_factors(
                self.LOSER, [0], (Fraction(1), Fraction(-1, 2)), PARAMS,
                _ConstantRng(0.0),
            )


class TestFairnessOutcome:
    @settings(max_examples=100, deadline=None)
    @given(case=fairness_round())
    def test_branch_sign_consistency_enforced(self, case):
        records, means, params, draws = case
        out = compute_fairness_factors(records, list(records), means, params, _SequenceRng(draws))
        for cid, branch in out.applied_branch.items():
            factor = out.factors[cid]
            assert {"reward": factor >= 0, "penalty": factor < 0, "none": factor == 0}[branch]
