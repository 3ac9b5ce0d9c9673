"""Acceptance gate: every criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.  The scaled fairness comparison (criteria 3-7, 10) uses 50
consumers, 3 providers, 2 resource types, 60 rounds, and seeds 0-4 with the
heuristic solver; provider supply is drawn from [10, 26] so that demand
outstrips supply by roughly the same factor as in the full-scale reference
scenario — the regime where the fairness mechanism matters.
"""

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from micro import CORPUS_SEED, CORPUS_SIZE, random_micro_instance
from oracles import brute_force_min_cost, reference_optimum, transfer_cost

from faircda.cli import main
from faircda.engine import (
    EngineConfig,
    Repository,
    RoundResult,
    run_round,
    update_repository,
)
from faircda.metrics import PerRoundRow, RunMetrics, aggregate
from faircda.model import Allocation, MarketShape
from faircda.scenario import ScenarioConfig, generate_consumer_bids, generate_provider_bids
from faircda.wdp_solver import (
    SolverLimits,
    WdpInstance,
    solve_exact,
    solve_heuristic,
    validate_solution,
)

SEEDS = (0, 1, 2, 3, 4)
SCALED_SCENARIO = ScenarioConfig(
    shape=MarketShape(50, 3, 2),
    runs=1,
    provider_quantity_range=(10, 26),
)
SCALED_ROUNDS = 60


def criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


@dataclass
class ArmResult:
    metrics: RunMetrics
    rounds: list
    first_allocation: Allocation


def simulate_arm(seed: int, fairness_enabled: bool, check_invariants: bool) -> ArmResult:
    """One acceptance-scale run, optionally checking every round's invariants.

    Bid generation depends only on the seed, never on the fairness switch,
    so the two arms of one seed trade on identical bid streams.
    """
    config = EngineConfig(
        fairness_enabled=fairness_enabled,
        rounds=SCALED_ROUNDS,
        master_seed=seed,
        solver_mode="heuristic",
    )
    rng_bids = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(77,)))
    rng_fair = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(78,)))
    repo = Repository.fresh(range(SCALED_SCENARIO.shape.num_consumers))
    previous_prices = None
    rounds: list[RoundResult] = []
    for _ in range(SCALED_ROUNDS):
        providers = generate_provider_bids(SCALED_SCENARIO, rng_bids)
        all_bids = generate_consumer_bids(SCALED_SCENARIO, rng_bids, previous_prices)
        previous_prices = {b.consumer_id: b.unit_prices for b in all_bids}
        active = [b for b in all_bids if not repo.records[b.consumer_id].dropped]
        result = run_round(repo, active, providers, config, rng_fair)
        if check_invariants:
            _check_round_invariants(active, providers, result)
        repo = update_repository(repo, result)
        rounds.append(result)
    drops = itertools.accumulate(len(r.drops_this_round) for r in rounds)
    rows = [
        PerRoundRow(seed, r.round_index, r.solution.total_utility, r.solution.total_satisfaction,
                    r.utilization_percent, r.win_percent, cumulative)
        for r, cumulative in zip(rounds, drops)
    ]
    run_metrics = aggregate(rows, seed)
    assert run_metrics.drops == sum(rec.dropped for rec in repo.records.values())
    return ArmResult(
        metrics=run_metrics,
        rounds=rounds,
        first_allocation=rounds[0].solution.allocation,
    )


def _check_round_invariants(consumer_bids, provider_bids, result: RoundResult) -> None:
    # Budget balance, exact.
    settlement = result.settlement
    payments = sum(settlement.consumer_payments.values(), Fraction(0))
    receipts = sum(settlement.provider_receipts.values(), Fraction(0))
    assert payments == receipts, f"round {result.round_index}: {payments} != {receipts}"
    # Individual rationality.
    assert all(u >= 0 for u in settlement.consumer_utilities.values())
    assert all(u >= 0 for u in settlement.provider_utilities.values())
    # Feasibility, checked against a fairness-free rebuild of the instance
    # (the constraints do not involve fairness factors).
    instance = WdpInstance.from_bids(consumer_bids, provider_bids)
    violations = validate_solution(instance, result.solution.allocation)
    assert violations == [], f"round {result.round_index}: {violations}"


@pytest.fixture(scope="module")
def scaled_comparison():
    started = time.monotonic()
    arms = {
        seed: {
            "fairness": simulate_arm(seed, True, check_invariants=True),
            "baseline": simulate_arm(seed, False, check_invariants=True),
        }
        for seed in SEEDS
    }
    return arms, time.monotonic() - started


def test_criterion_1_oracle_equivalence():
    """``exact`` against the enumeration of every winner set, winner vectors
    and objectives: the seeded micro corpus, then markets of 8-10 consumers,
    where the bound prunes: each is also proved optimal within half its
    search tree's nodes."""
    started = time.monotonic()
    rng = np.random.default_rng(np.random.SeedSequence(CORPUS_SEED))
    micro = [random_micro_instance(rng) for _ in range(CORPUS_SIZE)]
    rng = np.random.default_rng(np.random.SeedSequence(CORPUS_SEED, spawn_key=(1,)))
    larger = [
        random_micro_instance(rng, int(rng.integers(8, 10, endpoint=True))) for _ in range(100)
    ]
    mismatches = []
    for index, inst in enumerate(micro + larger):
        sol = solve_exact(inst)
        if reference_optimum(inst) != (list(sol.winner_positions), sol.objective):
            mismatches.append(index)
    pruned = sum(
        solve_exact(inst, SolverLimits(node_budget=2**inst.shape.num_consumers)).optimality
        == "proved_optimal"
        for inst in larger
    )
    elapsed = time.monotonic() - started
    criterion(
        1,
        f"branch-and-bound matches exhaustive enumeration on {CORPUS_SIZE} micro instances "
        "and 100 markets of 8-10 consumers",
        not mismatches and pruned == len(larger) and elapsed < 60,
        f"{len(micro) + len(larger) - len(mismatches)}/{len(micro) + len(larger)} agree "
        f"(mismatches at {mismatches[:5]}), {pruned}/{len(larger)} proved within half "
        f"their tree, {elapsed:.1f}s",
    )


def test_criterion_2_inner_solver_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(424242)
    checked = mismatches = 0
    for _ in range(200):
        inst = random_micro_instance(rng)
        for solve in (solve_exact, solve_heuristic):
            allocation = solve(inst).allocation
            winners = [n for n, won in enumerate(allocation.winners) if won]
            checked += 1
            clean = validate_solution(inst, allocation) == []
            cost = brute_force_min_cost(inst, winners)
            mismatches += not clean or transfer_cost(inst, allocation.transfers) != cost
    elapsed = time.monotonic() - started
    criterion(
        2,
        "solver routings are feasible and as cheap as exhaustive transfer enumeration "
        "on 200 micro instances",
        checked == 400 and mismatches == 0 and elapsed < 30,
        f"{checked} solutions, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_3_mechanism_invariants(scaled_comparison):
    arms, elapsed = scaled_comparison
    total_rounds = sum(len(arm.rounds) for pair in arms.values() for arm in pair.values())
    criterion(
        3,
        "budget balance, individual rationality, and feasibility hold every round",
        total_rounds == len(SEEDS) * 2 * SCALED_ROUNDS and elapsed < 120,
        f"{total_rounds} rounds validated in {elapsed:.1f}s",
    )


def test_criterion_4_bidder_drop_reduction(scaled_comparison):
    arms, _ = scaled_comparison
    fair_drops = [arms[s]["fairness"].metrics.drops for s in SEEDS]
    base_drops = [arms[s]["baseline"].metrics.drops for s in SEEDS]
    seeds_not_worse = sum(1 for f, b in zip(fair_drops, base_drops) if f <= b)
    mean_fair = sum(fair_drops) / len(SEEDS)
    mean_base = sum(base_drops) / len(SEEDS)
    criterion(
        4,
        "fairness reduces bidder drops",
        seeds_not_worse >= 4 and mean_fair < mean_base,
        f"drops {fair_drops} vs {base_drops}; means {mean_fair:.1f} vs {mean_base:.1f}; "
        f"not worse in {seeds_not_worse}/5 seeds",
    )


def test_criterion_5_drops_happen_later(scaled_comparison):
    arms, _ = scaled_comparison
    eligible = later = 0
    details = []
    for seed in SEEDS:
        fair = arms[seed]["fairness"].metrics
        base = arms[seed]["baseline"].metrics
        if fair.drops >= 1 and base.drops >= 1:
            eligible += 1
            if fair.mean_drop_round >= base.mean_drop_round:
                later += 1
            details.append(f"seed {seed}: {fair.mean_drop_round:.1f} vs {base.mean_drop_round:.1f}")
    needed = math.ceil(0.8 * eligible)
    criterion(
        5,
        "among seeds where both arms drop, fairness drops happen later",
        eligible > 0 and later >= needed,
        f"{later}/{eligible} seeds (need {needed}); " + "; ".join(details),
    )


def test_criterion_6_utility_tradeoff_reported(scaled_comparison):
    arms, _ = scaled_comparison
    deltas = [
        arms[s]["fairness"].metrics.total_utility - arms[s]["baseline"].metrics.total_utility
        for s in SEEDS
    ]
    positive = sum(1 for d in deltas if d > 0)
    negative = sum(1 for d in deltas if d < 0)
    tied = len(deltas) - positive - negative
    print(
        "criterion 6 detail: paired total-utility deltas (fairness - baseline): "
        + ", ".join(f"{float(d):+.1f}" for d in deltas)
        + f"; sign distribution {positive} positive / {negative} negative / {tied} tied"
    )
    criterion(
        6,
        "paired total-utility deltas reported with sign distribution (no threshold)",
        len(deltas) == len(SEEDS),
        f"{positive}+/{negative}-/{tied}=",
    )


def test_criterion_7_utilization_improvement(scaled_comparison):
    arms, _ = scaled_comparison
    better = sum(
        1
        for s in SEEDS
        if arms[s]["fairness"].metrics.mean_utilization
        >= arms[s]["baseline"].metrics.mean_utilization
    )
    pairs = [
        f"seed {s}: {arms[s]['fairness'].metrics.mean_utilization:.1f} vs "
        f"{arms[s]['baseline'].metrics.mean_utilization:.1f}"
        for s in SEEDS
    ]
    criterion(
        7,
        "fairness maintains or improves mean resource utilization",
        better >= 4,
        f"{better}/5 seeds; " + "; ".join(pairs),
    )


def test_criterion_8_determinism(tmp_path):
    args = [
        "run", "--consumers", "20", "--providers", "2", "--types", "2",
        "--rounds", "15", "--runs", "2", "--seed", "9",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main([*args, "--out", str(out_a)])
    code_b = main([*args, "--out", str(out_b)])
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("per_round.csv", "per_run.csv", "report.json")
    )
    criterion(
        8,
        "identical config and seed produce byte-identical outputs",
        code_a == 0 and code_b == 0 and identical,
    )


def test_criterion_10_round_one_equivalence(scaled_comparison):
    arms, _ = scaled_comparison
    identical = all(
        arms[s]["fairness"].first_allocation == arms[s]["baseline"].first_allocation
        for s in SEEDS
    )
    satisfaction_zero = all(
        arms[s]["fairness"].rounds[0].solution.total_satisfaction == 0 for s in SEEDS
    )
    criterion(
        10,
        "with shared bids, round-1 allocations are identical across arms",
        identical and satisfaction_zero,
    )


def test_criterion_9_full_scale_run(tmp_path):
    # Full reference scenario: 300 consumers, 5 providers, 4 types,
    # 100 rounds, 10 runs, heuristic solver.  Runs last (it is the slow one).
    out = tmp_path / "full_scale"
    started = time.monotonic()
    code = main(["run", "--seed", "1", "--jobs", "2", "--out", str(out)])
    elapsed = time.monotonic() - started
    files_ok = all(
        (out / name).exists() for name in ("per_round.csv", "per_run.csv", "report.json")
    )
    criterion(
        9,
        "full-scale scenario completes with the heuristic solver in under 10 minutes",
        code == 0 and files_ok and elapsed < 600,
        f"{elapsed:.0f}s",
    )
