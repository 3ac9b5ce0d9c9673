"""Solver debugging workflow: print instances and cross-check solvers.

The branch-and-bound solver is validated against exhaustive subset
enumeration on randomized micro instances; any mismatch would be printed
in a line-oriented text format, one line per bid with exact rationals,
ready to read or to rebuild as a regression test.
"""

import numpy as np

from faircda import dump_instance, solve_exact, solve_heuristic, solve_oracle
from faircda.cli import random_micro_instance, run_validation_corpus

rng = np.random.default_rng(8)
instance = random_micro_instance(rng)

print("a random micro instance in the debug format:")
print(dump_instance(instance))

exact = solve_exact(instance)
oracle = solve_oracle(instance)
heuristic = solve_heuristic(instance)
print(f"exact    : objective={exact.objective} winners={exact.winner_positions}")
print(f"oracle   : objective={oracle.objective} winners={oracle.winner_positions}")
print(f"heuristic: objective={heuristic.objective} winners={heuristic.winner_positions} "
      f"(gap bound {heuristic.gap_bound})")

# The corpus behind `faircda validate`: 200 seeded instances here, 500 by
# default on the command line.
passes, failures = run_validation_corpus(count=200, seed=123)
print(f"\nvalidation corpus: {passes}/200 instances agree, {len(failures)} mismatches")

# The heuristic is never allowed to beat the exact optimum.
worst_gap = max(
    solve_exact(inst).objective - solve_heuristic(inst).objective
    for inst in (random_micro_instance(rng) for _ in range(100))
)
print(f"largest exact-minus-heuristic gap over 100 micro instances: {worst_gap}")
