"""Golden report digests: refactors and fast paths must keep every byte.

Each case runs a small fixed simulation, emits it, and compares the sha256
of ``report.json`` with the digest recorded before the solver and
repository fast paths existed.  The heuristic cases are contested (demand
exceeds supply) and long enough for losing streaks to end in drops, so the
repair pass, the fairness factors and the repository fold all shape the
report.  A change that is meant to alter reports must re-record these.
"""

import hashlib

import pytest

from faircda import EngineConfig, MarketShape, ScenarioConfig, emit, run_simulation

# name: (market shape, solver, fairness on, rounds, runs, sha256 of report.json)
CASES = {
    "heuristic-fairness": (
        (40, 3, 2), "heuristic", True, 16, 2,
        "b5ed384cadd1a37972183ee11d745b5ae06c9606fc4c643b7f63eb6df638fe00",
    ),
    "heuristic-baseline": (
        (40, 3, 2), "heuristic", False, 16, 2,
        "5f57f47a1299c722a81ae69597665af35a0f2076d0ed4da90b63b5a0c3686bb0",
    ),
    "exact-fairness": (
        (10, 3, 2), "exact", True, 12, 2,
        "167a35177e694a5e058035e46f7be0602705badc135103d5ed3a59c2e19a39fa",
    ),
    "exact-baseline": (
        (10, 3, 2), "exact", False, 12, 2,
        "d0e0043fe70fac094e70e0dfc10ef97cff74031d33ccdaf2d911b1da6f1326bb",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_unchanged(name, tmp_path):
    shape, solver, fairness, rounds, runs, expected = CASES[name]
    scenario = ScenarioConfig(
        shape=MarketShape(*shape), runs=runs, provider_quantity_range=(10, 26)
    )
    engine = EngineConfig(
        fairness_enabled=fairness, solver_mode=solver, rounds=rounds, master_seed=3
    )
    emit(run_simulation(scenario, engine), tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == expected
