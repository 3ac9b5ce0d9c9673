"""Cross-check the two solvers on generated markets.

``solve_exact`` searches the winner vector by branch and bound and proves
its result optimal; ``solve_heuristic`` admits consumers greedily and
reports a gap bound, how far the optimum may lie above its objective.  On
every market the heuristic's objective is at most the exact optimum, and
the optimum is at most the heuristic's objective plus its gap bound.
"""

import numpy as np

from faircda import (
    MarketShape,
    ScenarioConfig,
    WdpInstance,
    generate_consumer_bids,
    generate_provider_bids,
    solve_exact,
    solve_heuristic,
)

# Twelve consumers compete for the scarce supply of three providers; in one
# of these markets the heuristic misses the optimum.
config = ScenarioConfig(shape=MarketShape(12, 3, 2), runs=1, provider_quantity_range=(3, 10))
rng = np.random.default_rng(0)

for market in range(5):
    instance = WdpInstance.from_bids(
        generate_consumer_bids(config, rng), generate_provider_bids(config, rng)
    )
    exact = solve_exact(instance)
    heuristic = solve_heuristic(instance)
    assert exact.optimality == "proved_optimal"
    assert heuristic.objective <= exact.objective <= heuristic.objective + heuristic.gap_bound
    print(
        f"market {market}: exact {float(exact.objective):9.2f} "
        f"({len(exact.winner_positions)} winners), "
        f"heuristic {float(heuristic.objective):9.2f} "
        f"+ gap bound {float(heuristic.gap_bound):7.2f} "
        f"({len(heuristic.winner_positions)} winners)"
    )
