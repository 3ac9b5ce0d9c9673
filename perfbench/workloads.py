"""The benchmark's workloads: market shape, solver, arms and parallelism.

Each workload is a list of arms run on the same master seed.  An *operation*
is one arm's ``run_simulation`` plus ``emit``.  This module must not import
``faircda`` at import time: ``build`` receives the package so that its import
is timed as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    shape: tuple[int, int, int]
    rounds: int
    solver: str
    runs: int = 1
    jobs: int = 1
    arms: tuple[str, ...] = ("fairness",)
    scenario_kw: dict = field(default_factory=dict)

    @property
    def market_rounds(self) -> int:
        """Market-rounds cleared by one repetition: runs x rounds x arms."""
        return self.runs * self.rounds * len(self.arms)


WORKLOADS = {
    # The ROADMAP reference market: README defaults, one run, serial.  Solve
    # and the repository fold dominate, and the fold's cost grows with the
    # round index.  50 rounds (half the ROADMAP reference run) keep that
    # growth visible and leave room for two or three repetitions per run,
    # whose emits are spread far enough apart to average out host noise.
    "reference_heuristic": Workload(shape=(300, 5, 4), rounds=50, solver="heuristic"),
    # Branch and bound dominates.  Solve time per market is heavy-tailed
    # (p90 about 2.7 times p50) and nearly independent from round to round,
    # so the workload clears many small markets (30 runs x 30 rounds; with
    # 20 runs the quartiles over ten seeds spread 8.5% of the median) to
    # keep the total steady across seeds.  With 12 consumers the search tree
    # has at most 2^13 nodes, so every round proves optimal within the
    # default node budget and the digest pins the lexicographically
    # smallest optimum.
    "exact_small": Workload(
        shape=(12, 3, 2),
        rounds=30,
        solver="exact",
        runs=30,
        scenario_kw={"provider_quantity_range": (10, 26)},
    ),
    # The calls `faircda compare` makes, through the process pool: both arms
    # share bid streams, and the baseline arm runs the fairness layer with
    # zero work.
    "compare_jobs2": Workload(
        shape=(150, 5, 4),
        rounds=30,
        solver="heuristic",
        runs=4,
        jobs=2,
        arms=("fairness", "baseline"),
    ),
}


def build(faircda, workload: Workload, seed: int) -> list[tuple[str, object, object]]:
    """``(arm, ScenarioConfig, EngineConfig)`` for every arm of ``workload``."""
    scenario = faircda.ScenarioConfig(
        shape=faircda.MarketShape(*workload.shape),
        runs=workload.runs,
        **workload.scenario_kw,
    )
    return [
        (
            arm,
            scenario,
            faircda.EngineConfig(
                fairness_enabled=(arm == "fairness"),
                solver_mode=workload.solver,
                rounds=workload.rounds,
                master_seed=seed,
            ),
        )
        for arm in workload.arms
    ]
