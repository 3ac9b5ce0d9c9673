"""Round orchestration, repository evolution, and full simulations."""

import dataclasses
import gc
import json
import pickle
import weakref
from fractions import Fraction
from statistics import fmean

import numpy as np
import pytest

from faircda import engine, model, wdp_solver
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
from faircda.scenario import ScenarioConfig, generate_consumer_bids, generate_provider_bids
from faircda.wdp_solver import WdpInstance, WdpSolution, solve_heuristic, solve_oracle


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
        real = wdp_solver.validate_solution

        def counting(instance, allocation):
            calls.append(instance)
            return real(instance, allocation)

        monkeypatch.setattr(wdp_solver, "validate_solution", counting)
        scenario = ScenarioConfig(shape=MarketShape(12, 2, 2), runs=2)
        run_simulation(scenario, EngineConfig(solver_mode=solver, rounds=4, master_seed=1))
        assert len(calls) == 2 * 4 == len({id(instance) for instance in calls})

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
            previous_prices = {b.consumer_id: b.unit_prices for b in bids}
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


class TestExactIsTheOracle:
    # (shape, seed, rounds): the small market has rounds the heuristic gets
    # wrong, the large one rounds at the oracle's 12-consumer cap.  Scarce
    # supply and max_losses=1 make drops happen.
    SIMULATIONS = (((8, 2, 1), 2, 6), ((12, 3, 2), 1, 2))

    @pytest.mark.parametrize("fairness", [True, False])
    def test_every_simulated_round_is_the_oracles_optimum(self, monkeypatch, fairness):
        """On markets the oracle can enumerate, every round ``exact`` clears
        is proved optimal and is the oracle's allocation, tie rule included."""
        real = engine.solve_exact
        sizes, heuristic_misses, drops = [], 0, 0

        def checked_solve(instance, limits):
            nonlocal heuristic_misses
            sol = real(instance, limits)
            expected = solve_oracle(instance).allocation
            assert sol.optimality == "proved_optimal"
            assert sol.allocation == expected
            sizes.append(instance.shape.num_consumers)
            heuristic_misses += solve_heuristic(instance).allocation != expected
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
        assert max(sizes) == wdp_solver.ORACLE_MAX_CONSUMERS
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
