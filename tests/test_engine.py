"""Round orchestration, repository evolution, and full simulations."""

import dataclasses
import gc
import json
import pickle
import weakref
from collections import Counter
from fractions import Fraction
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_cost, reference_optimum, transfer_cost

from faircda import engine, metrics, model, pricing
from faircda.engine import (
    EngineConfig,
    Repository,
    RoundResult,
    repository_from_dict,
    repository_to_dict,
    run_round,
    run_simulation,
    update_repository,
)
from faircda.model import (
    Allocation,
    ConsumerBid,
    MarketShape,
    ParticipantRecord,
    ProviderBid,
)
from faircda.scenario import (
    ScenarioConfig,
    _drawn_market,
    generate_consumer_bids,
    generate_provider_bids,
)
from faircda.wdp_solver import (
    WdpInstance,
    WdpSolution,
    _bid_market,
    solve_heuristic,
    validate_solution,
)


def cbid(cid, price, quantity=1):
    return ConsumerBid(cid, (Fraction(price),), (quantity,))


def pbid(pid, price, quantity):
    return ProviderBid(pid, (Fraction(price),), (quantity,))


def fairness_rng(seed=0):
    return np.random.default_rng(seed)


class TestRunRound:
    def test_fairness_disabled_means_zero_satisfaction(self):
        repo = Repository.fresh([0, 1])
        config = EngineConfig(fairness_enabled=False, rounds=1)
        result = run_round(repo, [cbid(0, 10), cbid(1, 8)], [pbid(0, 5, 5)], config, fairness_rng())
        assert result.solution.total_satisfaction == 0

    def test_round_one_identical_with_and_without_fairness(self):
        bids = [cbid(0, 10), cbid(1, 8)]
        offers = [pbid(0, 5, 1)]
        results = []
        for enabled in (True, False):
            repo = Repository.fresh([0, 1])
            config = EngineConfig(fairness_enabled=enabled, rounds=1)
            results.append(run_round(repo, bids, offers, config, fairness_rng()))
        assert results[0].solution.allocation == results[1].solution.allocation
        assert results[0].solution.total_satisfaction == results[1].solution.total_satisfaction == 0

    def test_single_trade_round_is_balanced(self):
        repo = Repository.fresh([0])
        config = EngineConfig(rounds=1)
        result = run_round(repo, [cbid(0, 10, 2)], [pbid(0, 6, 3)], config, fairness_rng())
        assert result.solution.allocation.winners == (True,)
        settlement = result.settlement
        assert settlement.consumer_payments[0] == settlement.provider_receipts[0] == 16
        assert result.solution.total_utility == 8
        assert result.win_percent == 100.0
        assert result.utilization_percent == pytest.approx(100 * 2 / 3)

    def test_dropped_consumer_cannot_bid(self):
        repo = Repository(
            records={0: ParticipantRecord(losses=7, consecutive_losses=7).marked_dropped(7)},
            round_counter=7,
        )
        config = EngineConfig(rounds=1)
        with pytest.raises(ValueError, match="dropped"):
            run_round(repo, [cbid(0, 10)], [pbid(0, 5, 5)], config, fairness_rng())

    @pytest.mark.parametrize("fairness_enabled", [True, False])
    def test_duplicate_consumer_ids_are_rejected(self, fairness_enabled):
        repo = Repository.fresh([0, 1])
        config = EngineConfig(fairness_enabled=fairness_enabled, rounds=5)
        first = run_round(repo, [cbid(0, 10), cbid(1, 8)], [pbid(0, 5, 5)], config, fairness_rng())
        repo = update_repository(repo, first)
        with pytest.raises(ValueError, match="duplicate"):
            run_round(repo, [cbid(0, 10), cbid(0, 8)], [pbid(0, 5, 5)], config, fairness_rng())

    @pytest.mark.parametrize(
        "consumers, providers, named",
        [
            ([5], [pbid(0, 5, 5)], "consumer bids must be ConsumerBids, got 5"),
            ([cbid(0, 10)], [5], "provider bids must be ProviderBids, got 5"),
            ([pbid(0, 5, 5)], [pbid(0, 5, 5)], "consumer bids must be ConsumerBids, got Provider"),
        ],
        ids=["int-consumer", "int-provider", "provider-as-consumer"],
    )
    def test_entry_that_is_not_a_bid_of_its_side_is_rejected(self, consumers, providers, named):
        with pytest.raises(ValueError, match=named):
            run_round(
                Repository.fresh([0]), consumers, providers, EngineConfig(rounds=1), fairness_rng()
            )

    def test_round_without_participants_degenerates(self):
        repo = Repository()
        config = EngineConfig(rounds=1)
        result = run_round(repo, [], [pbid(0, 5, 5)], config, fairness_rng())
        assert result.win_percent == 0.0
        assert result.utilization_percent == 0.0
        assert result.solution.total_utility == 0

    def test_loser_on_the_brink_is_reported_dropped(self):
        # Consumer 1's offer beats no ask, so they lose; their streak is at
        # the limit and this loss pushes them over.
        repo = Repository(
            records={
                0: ParticipantRecord(wins=6, losses=0, consecutive_losses=0),
                1: ParticipantRecord(wins=0, losses=6, consecutive_losses=6),
            },
            round_counter=6,
        )
        config = EngineConfig(fairness_enabled=False, rounds=100)
        result = run_round(repo, [cbid(0, 10), cbid(1, 2)], [pbid(0, 5, 5)], config, fairness_rng())
        assert result.drops_this_round == (1,)
        assert result.round_index == 7


class TestUpdateRepository:
    def run_one(self, records, consumer_bids, provider_bids, round_counter=0):
        repo = Repository(records=records, round_counter=round_counter)
        config = EngineConfig(fairness_enabled=False, rounds=100)
        result = run_round(repo, consumer_bids, provider_bids, config, fairness_rng())
        return result, update_repository(repo, result)

    def test_winner_streak_resets(self):
        records = {0: ParticipantRecord(wins=1, losses=5, consecutive_losses=5)}
        _, repo = self.run_one(records, [cbid(0, 10)], [pbid(0, 5, 5)])
        assert repo.records[0].wins == 2
        assert repo.records[0].consecutive_losses == 0
        assert not repo.records[0].dropped

    def test_loser_at_threshold_drops(self):
        records = {0: ParticipantRecord(losses=6, consecutive_losses=6)}
        result, repo = self.run_one(records, [cbid(0, 2)], [pbid(0, 5, 5)], round_counter=6)
        assert result.drops_this_round == (0,)
        assert repo.records[0].consecutive_losses == 7
        assert repo.records[0].dropped_at_round == 7

    def test_fresh_loser_does_not_drop(self):
        records = {0: ParticipantRecord()}
        _, repo = self.run_one(records, [cbid(0, 2)], [pbid(0, 5, 5)])
        assert repo.records[0].consecutive_losses == 1
        assert not repo.records[0].dropped

    def test_price_history_appended_for_everyone(self):
        records = {0: ParticipantRecord(), 1: ParticipantRecord()}
        _, repo = self.run_one(records, [cbid(0, 10), cbid(1, 2)], [pbid(0, 5, 5)])
        assert repo.records[0].price_history == ((Fraction(10),),)
        assert repo.records[1].price_history == ((Fraction(2),),)
        assert repo.round_counter == 1

    def test_builds_a_record_only_for_a_new_participant(self, monkeypatch):
        bids = [cbid(0, 10), cbid(1, 2), cbid(2, 7)]
        config = EngineConfig(fairness_enabled=False, rounds=100)
        result = run_round(
            Repository.fresh([0, 1, 2]), bids, [pbid(0, 5, 5)], config, fairness_rng()
        )
        known = Repository.fresh([0, 1])
        built = []
        real = ParticipantRecord.__post_init__

        def counting(record):
            built.append(record)
            real(record)

        monkeypatch.setattr(ParticipantRecord, "__post_init__", counting)
        repo = update_repository(known, result)
        monkeypatch.undo()
        assert built == [ParticipantRecord()]
        assert repo.records[2].price_history == ((Fraction(7),),)
        assert [repo.records[cid].wins for cid in (0, 1, 2)] == [1, 0, 1]

    def test_round_index_must_follow(self):
        repo = Repository.fresh([0])
        config = EngineConfig(fairness_enabled=False, rounds=100)
        result = run_round(repo, [cbid(0, 10)], [pbid(0, 5, 5)], config, fairness_rng())
        stale = Repository(records=repo.records, round_counter=5)
        with pytest.raises(ValueError, match="cannot follow"):
            update_repository(stale, result)


def hand_built_result(consumer_bids, provider_bids, drops=()):
    """A round-one result, solved and built through the public constructor."""
    instance = WdpInstance.from_bids(consumer_bids, provider_bids)
    solution = solve_heuristic(instance)
    return RoundResult(
        round_index=1, instance=instance, solution=solution, drops_this_round=drops
    )


class TestRoundResult:
    def test_fold_credits_the_win_to_the_consumer_charged(self):
        # The instance lists consumer 1 first: the winner flags are read by
        # the instance's bid order, not by sorted consumer id.
        result = hand_built_result([cbid(1, 10), cbid(0, 8)], [pbid(0, 5, 1)])
        assert result.solution.allocation.winners == (True, False)
        assert result.settlement.consumer_payments == {1: Fraction(15, 2), 0: 0}
        assert result.instance.consumer_bids[0].consumer_id == 1
        assert result.win_percent == 50.0
        repo = update_repository(Repository.fresh([0, 1]), result)
        assert (repo.records[1].wins, repo.records[1].losses) == (1, 0)
        assert (repo.records[0].wins, repo.records[0].losses) == (0, 1)

    def test_solution_must_have_one_winner_entry_per_consumer(self):
        result = hand_built_result([cbid(0, 10), cbid(1, 8)], [pbid(0, 5, 1)])
        short = WdpSolution(
            allocation=Allocation(winners=(True,), transfers=np.ones((1, 1, 1))),
            total_utility=Fraction(5),
            total_satisfaction=Fraction(0),
            optimality="heuristic",
        )
        with pytest.raises(ValueError, match=r"1 winners does not match the instance shape \(2,"):
            dataclasses.replace(result, solution=short)

    def test_settlement_is_derived_from_the_round(self):
        result = hand_built_result([cbid(0, 10), cbid(1, 8)], [pbid(0, 5, 1)])
        assert result.settlement.instance is result.instance
        assert result.settlement.allocation is result.solution.allocation
        assert "settlement" not in {f.name for f in dataclasses.fields(RoundResult) if f.init}
        with pytest.raises(TypeError, match="settlement"):
            RoundResult(1, result.instance, result.solution, settlement=result.settlement)

    def test_solution_infeasible_for_its_instance_is_rejected(self):
        # Both consumers marked winners, but the provider offers one unit.
        result = hand_built_result([cbid(0, 10), cbid(1, 8)], [pbid(0, 5, 1)])
        both = WdpSolution(
            allocation=Allocation(winners=(True, True), transfers=np.ones((2, 1, 1))),
            total_utility=Fraction(8),
            total_satisfaction=Fraction(0),
            optimality="heuristic",
        )
        with pytest.raises(ValueError, match="cannot settle an infeasible allocation"):
            dataclasses.replace(result, solution=both)

    @pytest.mark.parametrize("drop", [0, 7, 1], ids=["winner", "not-a-bidder", "twice"])
    def test_a_drop_must_be_a_loser_of_the_round(self, drop):
        # Consumer 0 wins the one unit, consumer 1 loses, 7 did not bid.
        bids, offers = [cbid(0, 10), cbid(1, 8)], [pbid(0, 5, 1)]
        assert hand_built_result(bids, offers, drops=(1,)).drops_this_round == (1,)
        with pytest.raises(ValueError, match=f"consumer {drop} cannot drop"):
            hand_built_result(bids, offers, drops=(1, drop))

    def test_result_pickles_with_its_gap_and_settlement(self):
        repo = Repository.fresh(range(6))
        bids = [cbid(cid, 10 - cid, 1 + cid % 2) for cid in range(6)]
        config = EngineConfig(rounds=1)
        result = run_round(repo, bids, [pbid(0, 5, 3), pbid(1, 6, 2)], config, fairness_rng())
        assert result.solution.optimality == "heuristic" and result.solution.bound is not None
        copy = pickle.loads(pickle.dumps(result))
        assert copy.solution.gap_bound == result.solution.gap_bound
        assert copy.solution.allocation == result.solution.allocation
        for name in ("unit_trade_prices", "consumer_payments", "provider_receipts",
                     "consumer_utilities", "provider_utilities"):
            assert getattr(copy.settlement, name) == getattr(result.settlement, name), name

    @pytest.mark.parametrize("provider_bids", [[], [pbid(0, 5, 0)]], ids=["none", "empty"])
    def test_market_offering_no_units_is_rejected(self, provider_bids):
        repo = Repository.fresh([0])
        config = EngineConfig(rounds=1)
        with pytest.raises(ValueError, match="utilization is undefined"):
            run_round(repo, [cbid(0, 10)], provider_bids, config, fairness_rng())


class TestOfferedPrices:
    def test_fold_stores_validated_fractions(self):
        result = hand_built_result([cbid(0, 3), cbid(1, "5/2")], [pbid(0, 5, 1)])
        repo = update_repository(Repository.fresh([0, 1]), result)
        assert repo.records[0].price_history == ((Fraction(3),),)
        assert repo.records[1].price_history == ((Fraction(5, 2),),)
        assert all(
            type(p) is Fraction
            for rec in repo.records.values()
            for entry in rec.price_history
            for p in entry
        )

    def test_folding_a_round_validates_no_price_again(self, monkeypatch):
        # Consumer 1 loses at the streak limit, so the fold marks a drop too.
        history = ((Fraction(2),),) * 6
        streak = ParticipantRecord(losses=6, consecutive_losses=6, price_history=history)
        repo = Repository(records={0: ParticipantRecord(), 1: streak, 2: ParticipantRecord()})
        config = EngineConfig(fairness_enabled=False, rounds=10)
        bids = [cbid(0, 10), cbid(1, 2), cbid(2, 7)]
        result = run_round(repo, bids, [pbid(0, 5, 5)], config, fairness_rng())
        assert result.drops_this_round == (1,)
        calls = []
        real = model._money_tuple

        def counting(values, what):
            calls.append(what)
            return real(values, what)

        monkeypatch.setattr(model, "_money_tuple", counting)
        repo = update_repository(repo, result)
        assert calls == []
        assert repo.records[2].price_history == ((Fraction(7),),)
        assert repo.records[1].dropped_at_round == 1


class TestRunSimulation:
    @pytest.mark.parametrize("solver", ["heuristic", "exact"])
    def test_each_round_is_validated_once(self, monkeypatch, solver):
        calls = []
        real = pricing.validate_solution

        def counting(instance, allocation):
            calls.append(instance)
            return real(instance, allocation)

        monkeypatch.setattr(pricing, "validate_solution", counting)
        scenario = ScenarioConfig(shape=MarketShape(12, 2, 2), runs=2)
        run_simulation(scenario, EngineConfig(solver_mode=solver, rounds=4, master_seed=1))
        assert len(calls) == 2 * 4 == len({id(instance) for instance in calls})

    def test_each_round_counts_its_utilization_once(self, monkeypatch):
        """The constructor's check and the report row read one count."""
        calls = []
        real = metrics.utilization_from_units

        def counting(units_sold, offered):
            calls.append(units_sold)
            return real(units_sold, offered)

        monkeypatch.setattr(metrics, "utilization_from_units", counting)
        scenario = ScenarioConfig(shape=MarketShape(12, 2, 2), runs=2)
        report = run_simulation(scenario, EngineConfig(rounds=4, master_seed=1))
        assert len(calls) == 2 * 4 == len(report.per_round)

    @pytest.mark.parametrize("solver", ["heuristic", "exact"])
    @pytest.mark.parametrize("fairness", [True, False])
    @pytest.mark.parametrize("collecting", [True, False])
    def test_a_run_collects_nothing_and_leaves_the_collector_as_found(
        self, monkeypatch, solver, fairness, collecting
    ):
        """Collection is off during a run, which leaves no cyclic garbage,
        and the caller's collector state is restored."""
        states = []
        real = engine.run_round

        def recording(*args):
            states.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(engine, "run_round", recording)
        scenario = ScenarioConfig(shape=MarketShape(30, 3, 2), runs=2)
        config = EngineConfig(
            fairness_enabled=fairness, solver_mode=solver, rounds=6, master_seed=2
        )
        gc.collect()
        (gc.enable if collecting else gc.disable)()
        try:
            run_simulation(scenario, config)
            assert gc.isenabled() is collecting
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert states == [False] * 2 * 6

    def test_same_seed_is_bit_identical(self):
        scenario = ScenarioConfig(shape=MarketShape(15, 2, 2), runs=2)
        config = EngineConfig(rounds=8, master_seed=11)
        assert run_simulation(scenario, config) == run_simulation(scenario, config)

    def test_parallel_runs_match_serial(self):
        scenario = ScenarioConfig(shape=MarketShape(10, 2, 2), runs=3)
        config = EngineConfig(rounds=5, master_seed=3)
        assert run_simulation(scenario, config, jobs=2) == run_simulation(scenario, config)

    @pytest.mark.parametrize("jobs", [0, "2", 2.5, True])
    def test_jobs_must_be_a_positive_integer(self, jobs):
        scenario = ScenarioConfig(shape=MarketShape(2, 1, 1), runs=2)
        with pytest.raises(ValueError, match="jobs"):
            run_simulation(scenario, EngineConfig(rounds=1), jobs=jobs)

    def test_unbeatable_consumer_never_drops(self):
        scenario = ScenarioConfig(
            shape=MarketShape(1, 1, 1),
            runs=1,
            consumer_price_range=(200, 250),
            provider_price_range=(50, 100),
        )
        config = EngineConfig(rounds=20, master_seed=0)
        report = run_simulation(scenario, config)
        row = report.per_run[0]
        assert row.drops == 0
        assert row.mean_drop_round is None
        assert row.mean_win_percent == 100.0

    def test_fairness_keeps_contested_market_alive_longer(self):
        # Two consumers, supply for one: without fairness the weaker bidder
        # starves and drops; with fairness the reward factor alternates wins.
        scenario = ScenarioConfig(
            shape=MarketShape(2, 1, 1),
            runs=1,
            provider_quantity_range=(3, 3),
            consumer_quantity_range=(2, 3),
        )
        fair_drop_rounds = []
        base_drop_rounds = []
        for seed in range(4):
            fair = run_simulation(scenario, EngineConfig(rounds=30, master_seed=seed))
            base = run_simulation(
                scenario, EngineConfig(rounds=30, master_seed=seed, fairness_enabled=False)
            )
            fair_drop_rounds.append(fair.per_run[0].mean_drop_round or 31.0)
            base_drop_rounds.append(base.per_run[0].mean_drop_round or 31.0)
        assert sum(fair_drop_rounds) > sum(base_drop_rounds)

    def test_dropped_consumers_stay_out(self):
        scenario = ScenarioConfig(shape=MarketShape(8, 1, 1), runs=1,
                                  provider_quantity_range=(5, 8))
        config = EngineConfig(rounds=25, master_seed=5, fairness_enabled=False)
        report = run_simulation(scenario, config)
        repo = repository_from_dict(report.final_repositories[0])
        for cid, rec in repo.records.items():
            rounds_participated = rec.wins + rec.losses
            assert rounds_participated == len(rec.price_history)
            if rec.dropped:
                # Nothing recorded after the drop round.
                assert rounds_participated == rec.dropped_at_round
            else:
                assert rounds_participated == 25

    def test_fold_replay_reproduces_repository(self):
        scenario = ScenarioConfig(shape=MarketShape(6, 2, 2), runs=1)
        config = EngineConfig(rounds=6, master_seed=2)
        rng_bids = np.random.default_rng(1)
        rng_fair = np.random.default_rng(2)
        repo = Repository.fresh(range(6))
        results = []
        previous_prices = None
        for _ in range(6):
            providers = generate_provider_bids(scenario, rng_bids)
            bids = generate_consumer_bids(scenario, rng_bids, previous_prices)
            previous_prices = bids
            active = [b for b in bids if not repo.records[b.consumer_id].dropped]
            result = run_round(repo, active, providers, config, rng_fair)
            repo = update_repository(repo, result)
            results.append(result)
        replayed = Repository.fresh(range(6))
        for result in results:
            replayed = update_repository(replayed, result)
        assert replayed == repo

    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_metrics_agree_with_the_final_repository(self, seed):
        # The per-run drop figures come from the per-round rows alone; they
        # must say what the repository's drop records say.
        scenario = ScenarioConfig(shape=MarketShape(8, 1, 1), runs=2,
                                  provider_quantity_range=(5, 8))
        report = run_simulation(scenario, EngineConfig(rounds=25, master_seed=seed))
        assert sum(row.drops for row in report.per_run) > 0
        for row, snapshot in zip(report.per_run, report.final_repositories):
            drop_rounds = [
                rec.dropped_at_round
                for rec in repository_from_dict(snapshot).records.values()
                if rec.dropped
            ]
            assert row.drops == len(drop_rounds)
            assert row.mean_drop_round == (fmean(drop_rounds) if drop_rounds else None)

    def test_no_round_result_outlives_its_round(self, monkeypatch):
        results = []
        alive_at_next_round = []

        def recording_run_round(*args):
            alive_at_next_round.append(sum(ref() is not None for ref in results))
            result = run_round(*args)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(engine, "run_round", recording_run_round)
        scenario = ScenarioConfig(shape=MarketShape(8, 2, 2), runs=1)
        run_simulation(scenario, EngineConfig(rounds=6, master_seed=4))
        assert len(results) == 6
        assert alive_at_next_round == [0] * 6
        assert all(ref() is None for ref in results)

    def test_reference_rounds_build_no_price_fraction(self, monkeypatch):
        # Generation, fairness, the instance build, the solve, settlement,
        # the fold and the repository snapshot all read the price vectors'
        # integers: no bid price is read as a Fraction item.
        reads = []
        for name in ("__iter__", "__getitem__"):
            real = getattr(model.PriceVector, name)
            monkeypatch.setattr(
                model.PriceVector, name,
                lambda self, *args, _name=name, _real=real: reads.append(_name) or _real(self, *args),
            )
        scenario = ScenarioConfig(shape=MarketShape(300, 5, 4), runs=1)
        report = run_simulation(scenario, EngineConfig(rounds=2, master_seed=0))
        assert report.per_run[0].total_utility > 0
        assert sum(row.total_satisfaction != 0 for row in report.per_round) == 1
        assert reads == []
        assert list(model.PriceVector((Fraction(1, 2), "3/2"))) == [Fraction(1, 2), Fraction(3, 2)]
        assert reads == ["__iter__"]


def assert_same_instance(instance, expected):
    """Equal bids and, field for field, equal integers: every array with
    its dtype, every list and tuple."""
    assert instance == expected and instance.shape == expected.shape
    ours, theirs = vars(instance._scaled), vars(expected._scaled)
    assert ours.keys() == theirs.keys()
    for name, value in ours.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == theirs[name].dtype, name
            assert value.shape == theirs[name].shape and np.array_equal(value, theirs[name]), name
        else:
            assert type(value) is type(theirs[name]) and value == theirs[name], name


class TestRoundsFromDraws:
    """A simulated round's instance is built from its draws, not read back
    from its bids; it must be the instance its bids build."""

    # The reference market; one whose fixed prices (150 and 60.5) put D at
    # 2; and a small one whose prices put the scaled prices past int64 in
    # some rounds and not in others.
    MARKETS = (
        (ScenarioConfig(shape=MarketShape(300, 5, 4), runs=1), 2, 5),
        (
            ScenarioConfig(
                shape=MarketShape(6, 2, 2),
                runs=1,
                consumer_price_range=(150, 150),
                provider_price_range=("60.5", "60.5"),
            ),
            1,
            5,
        ),
        (
            ScenarioConfig(
                shape=MarketShape(10, 2, 2),
                runs=1,
                consumer_price_range=("1e14", "2e14"),
                provider_price_range=("5e13", "1e14"),
            ),
            0,
            40,
        ),
    )

    @pytest.mark.parametrize("scenario, seed, rounds", MARKETS)
    def test_cleared_instances_equal_those_built_from_their_bids(
        self, monkeypatch, scenario, seed, rounds
    ):
        cleared = []
        real = engine.solve_heuristic

        def capturing(instance):
            cleared.append(instance)
            return real(instance)

        monkeypatch.setattr(engine, "solve_heuristic", capturing)
        run_simulation(scenario, EngineConfig(rounds=rounds, master_seed=seed))
        assert len(cleared) == rounds
        dtypes = set()
        for instance in cleared:
            expected = WdpInstance.from_bids(instance.consumer_bids, instance.provider_bids)
            assert_same_instance(instance, expected)
            dtypes.add(instance._scaled.consumer_prices.dtype)
        if scenario.shape.num_consumers == 10:
            assert dtypes == {np.dtype(np.int64), np.dtype(object)}
        if scenario.shape.num_consumers == 6:
            assert {instance._scaled.denominator for instance in cleared} == {2}
        assert sum(instance.shape.num_consumers for instance in cleared) > 0

    def test_each_round_goes_through_the_public_functions(self, monkeypatch):
        """Every simulated round calls the generators, run_round,
        WdpInstance.from_bids and update_repository once, by the names the
        engine module holds, so that a wrapper of those names sees it."""
        calls = Counter()

        def counting(name, func):
            def counted(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return counted

        names = (
            "generate_provider_bids",
            "generate_consumer_bids",
            "run_round",
            "update_repository",
        )
        for name in names:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        from_bids = staticmethod(counting("from_bids", engine.WdpInstance.from_bids))
        monkeypatch.setattr(engine.WdpInstance, "from_bids", from_bids)
        scenario = ScenarioConfig(shape=MarketShape(8, 2, 2), runs=2)
        run_simulation(scenario, EngineConfig(rounds=6, master_seed=1))
        assert calls == {name: 12 for name in (*names, "from_bids")}

    def test_generated_lists_clear_from_their_draws_only_as_built(self):
        """A generator's list clears from its draws, over its counterpart's
        types; a list copy, reordered or edited, clears as plain bids do,
        and a list of other types fails as a plain list of its bids does."""
        scenario = ScenarioConfig(shape=MarketShape(8, 2, 2), runs=1)
        rng = np.random.default_rng(5)
        providers = generate_provider_bids(scenario, rng)
        consumers = generate_consumer_bids(scenario, rng)
        repo = Repository.fresh(range(8))

        def clear(consumer_bids, provider_bids):
            return run_round(repo, consumer_bids, provider_bids, EngineConfig(), fairness_rng())

        expected = clear(list(consumers), list(providers))
        assert_same_instance(clear(consumers, providers).instance, expected.instance)
        edited = list(consumers)
        edited.reverse()
        assert_same_instance(clear(edited, providers).instance, expected.instance)
        edited[2] = ConsumerBid(5, (Fraction(240), Fraction("249.99")), (3, 1))
        result = clear(edited, providers)
        assert_same_instance(result.instance, clear(edited, list(providers)).instance)
        assert result.instance.consumer_bids[5].bid is edited[2]

        wider = ScenarioConfig(shape=MarketShape(8, 2, 3), runs=1)
        wide_consumers = generate_consumer_bids(wider, rng)
        messages = []
        for consumer_bids in (wide_consumers, list(wide_consumers)):
            with pytest.raises(ValueError) as error:
                clear(consumer_bids, providers)
            messages.append(str(error.value))
        expected_message = "provider 0: bid covers 2 resource types, market has 3"
        assert messages == [expected_message, expected_message]
        assert _drawn_market(wide_consumers, providers) is None

    @settings(max_examples=30, deadline=None)
    @given(keep=st.lists(st.booleans(), min_size=8, max_size=8), seed=st.integers(0, 2**16))
    def test_a_selection_clears_as_the_list_of_its_bids(self, keep, seed):
        """The bids a keep-mask selects from a generated list, after a round
        that gives them fairness factors, clear field for field as a plain
        list of the same bids does."""
        scenario = ScenarioConfig(shape=MarketShape(8, 2, 2), runs=1)
        rng = np.random.default_rng(seed)
        repo, config = Repository.fresh(range(8)), EngineConfig()
        consumers = generate_consumer_bids(scenario, rng)
        first = run_round(repo, consumers, generate_provider_bids(scenario, rng), config, rng)
        repo = update_repository(repo, first)
        providers = generate_provider_bids(scenario, rng)
        consumers = generate_consumer_bids(scenario, rng, consumers)
        kept = consumers.rows(keep)
        assert _drawn_market(kept, providers) is not None
        result = run_round(repo, kept, providers, config, fairness_rng(seed))
        plain = [b for b, k in zip(consumers, keep) if k]
        expected = run_round(repo, plain, list(providers), config, fairness_rng(seed))
        assert_same_instance(result.instance, expected.instance)
        assert result.solution == expected.solution

    def test_the_draws_market_takes_the_checked_paths_conditions(self):
        """Lists of two configurations give the draws' market when they
        cover the same types and hold fewer than 2**63 units, the market
        the checked path reads from the same bids; otherwise no market, and
        run_round raises the checked path's error."""
        rng = np.random.default_rng(3)
        consumers = generate_consumer_bids(ScenarioConfig(shape=MarketShape(8, 2, 2)), rng)
        cheap = ScenarioConfig(shape=MarketShape(4, 3, 2), provider_price_range=("1/3", 2))
        providers = generate_provider_bids(cheap, rng)
        drawn = _drawn_market(consumers, providers)
        checked = _bid_market(list(consumers), list(providers))
        assert drawn.denominator == checked.denominator
        for ours, theirs in zip(drawn[1:], checked[1:]):
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        repo, config = Repository.fresh(range(8)), EngineConfig()
        instance = run_round(repo, consumers, providers, config, fairness_rng()).instance
        expected = run_round(repo, list(consumers), list(providers), config, fairness_rng())
        assert_same_instance(instance, expected.instance)

        one = MarketShape(1, 1, 1)
        consumers = generate_consumer_bids(
            ScenarioConfig(shape=one, consumer_quantity_range=(2**62, 2**62)), rng
        )
        providers = generate_provider_bids(
            ScenarioConfig(shape=one, provider_quantity_range=(2**62, 2**62)), rng
        )
        assert _drawn_market(consumers, providers) is None
        with pytest.raises(ValueError, match=f"at most 2\\*\\*63 - 1 units, this one {2**63}$"):
            run_round(Repository.fresh([0]), consumers, providers, config, fairness_rng())

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 3), st.integers(1, 2)),
        rounds=st.integers(1, 8),
        max_losses=st.integers(1, 2),
        fairness=st.booleans(),
        solver=st.sampled_from(["heuristic", "exact"]),
        supply_top=st.integers(1, 12),
        demand=st.sampled_from([(1, 3), (0, 2)]),
        seed=st.integers(0, 2**16),
    )
    def test_a_run_is_the_loop_over_the_public_functions(
        self, shape, rounds, max_losses, fairness, solver, supply_top, demand, seed
    ):
        """run_simulation's rows and final repository are those of a loop
        over generate_provider_bids, generate_consumer_bids, run_round and
        update_repository, drops included.  The loop hands run_round plain
        lists of the active bids, so its rounds are read from the bids, not
        the draws."""
        scenario = ScenarioConfig(
            shape=MarketShape(*shape),
            runs=1,
            provider_quantity_range=(1, supply_top),
            consumer_quantity_range=demand,
        )
        config = EngineConfig(
            fairness_enabled=fairness,
            fairness_params=model.FairnessParams(max_losses=max_losses),
            solver_mode=solver,
            rounds=rounds,
            master_seed=seed,
        )
        report = run_simulation(scenario, config)

        rng_bids, rng_fair = (engine._run_rng(seed, 0, stream) for stream in (0, 1))
        repo = Repository.fresh(range(shape[0]))
        previous, rows, drops = None, [], 0
        for _ in range(rounds):
            providers = generate_provider_bids(scenario, rng_bids)
            bids = generate_consumer_bids(scenario, rng_bids, previous)
            previous = bids
            active = [b for b in bids if not repo.records[b.consumer_id].dropped]
            result = run_round(repo, active, providers, config, rng_fair)
            repo = update_repository(repo, result)
            drops += len(result.drops_this_round)
            rows.append(
                metrics.PerRoundRow(
                    run=0,
                    round=result.round_index,
                    total_utility=result.solution.total_utility,
                    total_satisfaction=result.solution.total_satisfaction,
                    utilization_percent=result.utilization_percent,
                    win_percent=result.win_percent,
                    cumulative_drops=drops,
                )
            )
        assert report.per_round == tuple(rows)
        assert report.final_repositories == (repository_to_dict(repo),)


class TestExactIsTheOracle:
    # (shape, seed, rounds): the small market has rounds the heuristic gets
    # wrong, the large one rounds of 12 consumers, 4096 winner sets.  Scarce
    # supply and max_losses=1 make drops happen.
    SIMULATIONS = (((8, 2, 1), 2, 6), ((12, 3, 2), 1, 2))

    @pytest.mark.parametrize("fairness", [True, False])
    def test_every_simulated_round_is_the_oracles_optimum(self, monkeypatch, fairness):
        """Every round ``exact`` clears is proved optimal and is the
        enumeration's optimum, tie rule included, routed feasibly at the
        cost of buying each type's demand cheapest first."""
        real = engine.solve_exact
        sizes, heuristic_misses, drops = [], 0, 0

        def checked_solve(instance, limits):
            nonlocal heuristic_misses
            sol = real(instance, limits)
            winners, objective = reference_optimum(instance)
            assert sol.optimality == "proved_optimal"
            assert (list(sol.winner_positions), sol.objective) == (winners, objective)
            assert validate_solution(instance, sol.allocation) == []
            assert transfer_cost(instance, sol.allocation.transfers) == reference_cost(
                instance, winners
            )
            sizes.append(instance.shape.num_consumers)
            heuristic_misses += list(solve_heuristic(instance).winner_positions) != winners
            return sol

        monkeypatch.setattr(engine, "solve_exact", checked_solve)
        for shape, seed, rounds in self.SIMULATIONS:
            scenario = ScenarioConfig(
                shape=MarketShape(*shape), runs=1, provider_quantity_range=(5, 20)
            )
            config = EngineConfig(
                fairness_enabled=fairness,
                fairness_params=model.FairnessParams(max_losses=1),
                solver_mode="exact",
                rounds=rounds,
                master_seed=seed,
            )
            drops += sum(row.drops for row in run_simulation(scenario, config).per_run)
        assert len(sizes) == sum(rounds for _, _, rounds in self.SIMULATIONS)
        assert max(sizes) == 12
        assert drops > 0 and heuristic_misses > 0


class TestRepositorySerialization:
    def test_json_round_trip(self):
        repo = Repository(
            records={
                0: ParticipantRecord(wins=2, losses=3, consecutive_losses=1,
                                     price_history=((Fraction(3, 2), Fraction(7)),)),
                4: ParticipantRecord(losses=7, consecutive_losses=7).marked_dropped(7),
            },
            round_counter=9,
        )
        assert repository_from_dict(json.loads(json.dumps(repository_to_dict(repo)))) == repo

    def test_dict_round_trip_through_report(self):
        repo = Repository(records={1: ParticipantRecord(wins=1, losses=0)}, round_counter=1)
        assert repository_from_dict(repository_to_dict(repo)) == repo

    @staticmethod
    def payload(price_history):
        record = {"wins": 0, "losses": 1, "consecutive_losses": 1, "dropped_at_round": None,
                  "price_history": price_history}
        return {"round_counter": 1, "records": {"3": record}}

    def test_price_history_converts_like_the_record(self):
        repo = repository_from_dict(self.payload([[0.1, "1/3"]]))
        assert repo.records[3].price_history == ((Fraction(1, 10), Fraction(1, 3)),)
        assert repository_from_dict(json.loads(json.dumps(repository_to_dict(repo)))) == repo

    def test_non_numeric_price_history_entry_rejected(self):
        with pytest.raises(ValueError, match="price history entry"):
            repository_from_dict(self.payload([["abc"]]))

    @pytest.mark.parametrize(
        "malform, named",
        [(lambda p: p["records"]["3"].pop("losses"), "losses"),
         (lambda p: p["records"]["3"].update(price_history=5), "price_history"),
         (lambda p: p["records"]["3"].update(price_history=[5]), "price history entry"),
         (lambda p: p["records"].update({"3": 7}), "record 3"),
         (lambda p: p.update(records=[]), "records"),
         (lambda p: p.pop("round_counter"), "round_counter"),
         (lambda p: p["records"].update(x=p["records"].pop("3")), "records key .*'x'"),
         # Not str(id): "03" would merge with "3" into one record, keeping the last read.
         (lambda p: p["records"].update({"03": p["records"]["3"]}), "records key .*'03'"),
         (lambda p: p["records"].update({" 3": p["records"].pop("3")}), "records key .*' 3'")],
        ids=["losses-missing", "history-5", "history-entry-5", "record-7", "records-array",
             "round_counter-missing", "key-x", "key-03", "key-space-3"],
    )
    def test_malformed_record_rejected(self, malform, named):
        payload = self.payload([])
        malform(payload)
        with pytest.raises(ValueError, match=named):
            repository_from_dict(payload)

    @pytest.mark.parametrize("counter", ["3", -1, True, 2.5])
    def test_malformed_round_counter_rejected(self, counter):
        payload = {**self.payload([]), "round_counter": counter}
        with pytest.raises(ValueError, match="round_counter"):
            repository_from_dict(payload)


class TestEngineConfig:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            EngineConfig(rounds=0)

    @pytest.mark.parametrize(
        "fields",
        [{"rounds": True}, {"rounds": 2.0}, {"master_seed": "3"}, {"fairness_enabled": "false"},
         {"fairness_enabled": 0}],
    )
    def test_mistyped_fields_rejected(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            EngineConfig(**fields)

    def test_unknown_solver_rejected(self):
        for mode in ("simplex", "oracle"):
            with pytest.raises(ValueError, match="solver_mode"):
                EngineConfig(solver_mode=mode)

    @pytest.mark.parametrize("name", ["fairness_params", "solver_limits"])
    def test_nested_config_must_have_its_type(self, name):
        with pytest.raises(ValueError, match=name):
            EngineConfig(rounds=2, **{name: 5})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="master_seed"):
            EngineConfig(master_seed=-1)
