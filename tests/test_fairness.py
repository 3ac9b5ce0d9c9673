"""Fairness factor formulas, intervention probabilities, and the round procedure."""

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

from faircda.fairness import (
    FairnessOutcome,
    compute_fairness_factors,
    eval_fun,
    fun_l,
    fun_w,
    prob_l,
    prob_w,
)
from faircda.model import FairnessParams, ParticipantRecord

PARAMS = FairnessParams()  # alpha1=9, alpha2=7, beta1=4, beta2=28, max_losses=6

evals = st.fractions(min_value=Fraction(1, 10), max_value=Fraction(10))
counts = st.integers(min_value=0, max_value=50)


class TestEvalFun:
    def test_prices_equal_to_market_means(self):
        rec = ParticipantRecord(price_history=((Fraction(150), Fraction(120)),))
        assert eval_fun(rec, (Fraction(150), Fraction(120))) == 1

    def test_prices_double_the_market_means(self):
        rec = ParticipantRecord(price_history=((Fraction(300), Fraction(240)),))
        assert eval_fun(rec, (Fraction(150), Fraction(120))) == 2

    def test_empty_history_scores_neutral(self):
        assert eval_fun(ParticipantRecord(), (Fraction(100),)) == 1

    def test_only_most_recent_entry_counts(self):
        rec = ParticipantRecord(
            price_history=((Fraction(999),), (Fraction(50),))
        )
        assert eval_fun(rec, (Fraction(100),)) == Fraction(1, 2)

    def test_clamped_to_band(self):
        high = ParticipantRecord(price_history=((Fraction(10_000),),))
        low = ParticipantRecord(price_history=((Fraction(1, 100),),))
        assert eval_fun(high, (Fraction(1),)) == 10
        assert eval_fun(low, (Fraction(100),)) == Fraction(1, 10)

    def test_non_positive_market_mean_rejected(self):
        rec = ParticipantRecord(price_history=((Fraction(10),),))
        with pytest.raises(ValueError, match="positive"):
            eval_fun(rec, (Fraction(0),))


class TestFunW:
    def test_fresh_loser(self):
        assert fun_w(0, Fraction(1), 0, PARAMS) == 7

    def test_streaky_loser(self):
        assert fun_w(2, Fraction(2), 1, PARAMS) == 64

    def test_vanishes_with_no_history_signal(self):
        assert fun_w(0, Fraction(1, 10**6), 0, PARAMS) == Fraction(7, 10**6)

    @given(losses=counts, eval=evals, cl=counts)
    def test_non_negative(self, losses, eval, cl):
        assert fun_w(losses, eval, cl, PARAMS) >= 0

    @given(losses=st.integers(0, 50), eval=evals, cl=counts)
    def test_streak_escalates_reward(self, losses, eval, cl):
        # Strictly increasing in the streak whenever the base term is positive.
        assert fun_w(losses, eval, cl + 1, PARAMS) > fun_w(losses, eval, cl, PARAMS)

    @given(losses=counts, eval=evals, cl=counts)
    def test_monotone_in_losses_and_quality(self, losses, eval, cl):
        assert fun_w(losses + 1, eval, cl, PARAMS) > fun_w(losses, eval, cl, PARAMS)
        assert fun_w(losses, eval + 1, cl, PARAMS) > fun_w(losses, eval, cl, PARAMS)


class TestFunL:
    def test_single_win(self):
        assert fun_l(1, Fraction(1), 0, PARAMS) == -32

    def test_quality_soaks_up_the_penalty(self):
        assert fun_l(0, Fraction(28), 0, PARAMS) == -1

    def test_streak_fades_the_penalty(self):
        assert fun_l(2, Fraction(2), 1, PARAMS) == -11

    def test_zero_quality_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            fun_l(1, Fraction(0), 0, PARAMS)

    @given(wins=counts, eval=evals, cl=counts)
    def test_never_positive(self, wins, eval, cl):
        assert fun_l(wins, eval, cl, PARAMS) <= 0

    @given(wins=counts, eval=evals, cl=counts)
    def test_penalty_fades_with_streak(self, wins, eval, cl):
        assert abs(fun_l(wins, eval, cl + 1, PARAMS)) < abs(fun_l(wins, eval, cl, PARAMS))

    @given(wins=counts, eval=evals, cl=counts)
    def test_penalty_grows_with_wins(self, wins, eval, cl):
        assert abs(fun_l(wins + 1, eval, cl, PARAMS)) > abs(fun_l(wins, eval, cl, PARAMS))


class TestProbabilities:
    def test_prob_w_saturates_at_drop_threshold(self):
        assert prob_w(6, PARAMS) == 1

    def test_prob_w_fresh_streak(self):
        assert prob_w(0, PARAMS) == Fraction(1, 7)

    def test_prob_w_mid_streak(self):
        assert prob_w(3, PARAMS) == Fraction(4, 7)

    def test_prob_l_certain_at_zero_streak(self):
        assert prob_l(0) == 1

    def test_prob_l_halves(self):
        assert prob_l(1) == Fraction(1, 2)
        assert prob_l(3) == Fraction(1, 4)

    @given(cl=counts)
    def test_both_are_probabilities(self, cl):
        assert 0 <= prob_w(cl, PARAMS) <= 1
        assert 0 < prob_l(cl) <= 1

    @given(cl=counts)
    def test_monotonicities(self, cl):
        assert prob_w(cl + 1, PARAMS) >= prob_w(cl, PARAMS)
        assert prob_l(cl + 1) <= prob_l(cl)


class _ConstantRng:
    """Stand-in random stream yielding a fixed uniform value."""

    def __init__(self, value):
        self.value = value
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.value


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
        assert out.factors[1] == fun_w(1, Fraction(1), 1, PARAMS)
        assert out.factors[2] == fun_l(0, Fraction(1), 0, PARAMS)

    def test_saturated_loser_rewarded_regardless_of_draw(self):
        out = compute_fairness_factors(
            self.records(), [0], self.MEANS, PARAMS, _ConstantRng(0.99)
        )
        # prob_w(6) = 1, so even a 0.99 draw takes the reward branch.
        assert out.applied_branch[0] == "reward"
        assert out.factors[0] == fun_w(6, Fraction(1), 6, PARAMS)

    def test_fresh_winner_always_penalized(self):
        out = compute_fairness_factors(
            self.records(), [1], self.MEANS, PARAMS, _ConstantRng(0.3)
        )
        # prob_l(0) = 1: the penalty branch is certain right after a win.
        assert out.applied_branch[1] == "penalty"
        assert out.factors[1] == fun_l(3, Fraction(1), 0, PARAMS)
        assert out.factors[1] < 0

    def test_failed_draw_leaves_factor_zero(self):
        records = {0: ParticipantRecord(losses=1, consecutive_losses=1)}
        out = compute_fairness_factors(records, [0], self.MEANS, PARAMS, _ConstantRng(0.9))
        # prob_w(1) = 2/7 < 0.9: no intervention this round.
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


class TestFairnessOutcome:
    def test_branch_sign_consistency_enforced(self):
        with pytest.raises(ValueError, match="penalty"):
            FairnessOutcome(factors={0: Fraction(1)}, applied_branch={0: "penalty"})
        with pytest.raises(ValueError, match="reward"):
            FairnessOutcome(factors={0: Fraction(-1)}, applied_branch={0: "reward"})
        with pytest.raises(ValueError, match="no branch"):
            FairnessOutcome(factors={0: Fraction(1)}, applied_branch={0: "none"})


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
# Draws exactly on probability thresholds (0.5 is prob_w(2) at max_losses 5),
# floats just off them, and arbitrary floats.
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
        FairnessOutcome(factors=out.factors, applied_branch=out.applied_branch)
        assert rng.draws == reference_rng.draws == len(records)
        for cid, record in records.items():
            assert eval_fun(record, means) == reference_eval_fun(record, means)

    @given(
        count=counts,
        eval=st.fractions(min_value=Fraction(-5), max_value=50, max_denominator=97),
        cl=counts,
        params=params_st,
    )
    def test_public_formulas_equal_the_fraction_reference(self, count, eval, cl, params):
        assert fun_w(count, eval, cl, params) == reference_fun_w(count, eval, cl, params)
        if eval != 0:
            assert fun_l(count, eval, cl, params) == reference_fun_l(count, eval, cl, params)
        assert prob_w(cl, params) == reference_prob_w(cl, params)
        assert prob_l(cl) == reference_prob_l(cl)

    def test_draw_exactly_on_the_threshold_fails(self):
        params = FairnessParams(max_losses=5)
        records = {
            0: ParticipantRecord(losses=2, consecutive_losses=2, price_history=((Fraction(1),),)),
            1: ParticipantRecord(wins=1, losses=1, consecutive_losses=0, price_history=((Fraction(1),),)),
        }
        # prob_w(2) = 3/6: a draw of 0.5 is not below it.  Consumer 1 won, so
        # their streak is 0 and prob_l(0) = 1: every draw is below it.
        out = compute_fairness_factors(records, [0, 1], (1,), params, _ConstantRng(0.5))
        assert out.applied_branch == {0: "none", 1: "penalty"}
        below = compute_fairness_factors(
            records, [0, 1], (1,), params, _ConstantRng(0.49999999999999994)
        )
        assert below.applied_branch == {0: "reward", 1: "penalty"}


class TestMarketMeanValidation:
    LOSER = {0: ParticipantRecord(losses=1, consecutive_losses=1, price_history=((Fraction(3),),))}

    def test_non_positive_mean_accepted_when_nobody_is_evaluated(self):
        # prob_w(1) = 2/7 < 0.9: the loser's draw fails, so nobody is evaluated.
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
