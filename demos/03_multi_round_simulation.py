"""A small multi-round market: run it, inspect the metrics, emit the files.

Forty consumers compete for scarce supply from three providers over fifty
rounds.  Consumers who lose seven rounds in a row abandon the market; the
fairness mechanism is on, so persistent losers get boosted before that
happens.
"""

from pathlib import Path

from faircda import (
    EngineConfig,
    MarketShape,
    ScenarioConfig,
    emit,
    run_simulation,
)
from faircda.engine import repository_from_dict

scenario = ScenarioConfig(
    shape=MarketShape(num_consumers=40, num_providers=3, num_resource_types=2),
    runs=3,
    provider_quantity_range=(8, 20),  # scarce: demand roughly doubles supply
)
config = EngineConfig(rounds=50, master_seed=11)

report = run_simulation(scenario, config)

print("per-run summary:")
for row in report.per_run:
    drop_round = "-" if row.mean_drop_round is None else f"{row.mean_drop_round:.1f}"
    print(
        f"  run {row.run}: drops={row.drops} (mean round {drop_round}) "
        f"utilization={row.mean_utilization:.1f}% win={row.mean_win_percent:.1f}% "
        f"total_utility={float(row.total_utility):.0f}"
    )

print("\nfirst five rounds of run 0:")
for row in report.per_round[:5]:
    print(
        f"  round {row.round}: utility={float(row.total_utility):.0f} "
        f"satisfaction={float(row.total_satisfaction):.0f} "
        f"utilization={row.utilization_percent:.1f}% drops so far={row.cumulative_drops}"
    )

# The emitted CSVs feed any plotting tool; report.json round-trips the
# whole report exactly.
out = Path("demo_out")
paths = emit(report, out)
print("\nwrote:", ", ".join(str(p) for p in paths))

# The report keeps each run's final repository as a snapshot; load run 0's.
repo = repository_from_dict(report.final_repositories[0])
survivors = sum(1 for rec in repo.records.values() if not rec.dropped)
print(f"run 0 final state: {survivors} active consumers, "
      f"{len(repo.records) - survivors} dropped, after {repo.round_counter} rounds")
