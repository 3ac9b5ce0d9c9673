"""Golden report digests: refactors and fast paths must keep every byte.

Each case runs a small fixed simulation, emits it, and compares the sha256
of every emitted file with the digest recorded before the change it
guards: ``report.json`` before the solver and repository fast paths
existed, the CSV files and the ``faircda compare`` tree before the emitted
tables took their columns from the row types.  The heuristic cases are
contested (demand exceeds supply) and long enough for losing streaks to end
in drops, so the repair pass, the fairness factors and the repository fold
all shape the report.  A change that is meant to alter reports must
re-record these.
"""

import contextlib
import hashlib
import io

import pytest

from faircda import EngineConfig, MarketShape, ScenarioConfig, emit, run_simulation
from faircda.cli import ExperimentConfig, cmd_compare

# name: (market shape, solver, fairness on, rounds, runs, {file: sha256})
CASES = {
    "heuristic-fairness": (
        (40, 3, 2), "heuristic", True, 16, 2,
        {
            "per_round.csv": "c97e15e854d89bf2c7167e403592a02233c428c9e583d4c03a3a95c890600b83",
            "per_run.csv": "e6d24fa43f24579bdc492a8a2b3a08b7aa7e161ce49bb8d73381831f618a10b8",
            "report.json": "b5ed384cadd1a37972183ee11d745b5ae06c9606fc4c643b7f63eb6df638fe00",
        },
    ),
    "heuristic-baseline": (
        (40, 3, 2), "heuristic", False, 16, 2,
        {
            "per_round.csv": "5988ed30d42d9ee36af3f3256aa628d743868be869035846ac2370185b17abbc",
            "per_run.csv": "6580b454b7b0913658c133b68d7406c81a2bac1fdd4bcc4025a32d3f348c9bd2",
            "report.json": "5f57f47a1299c722a81ae69597665af35a0f2076d0ed4da90b63b5a0c3686bb0",
        },
    ),
    "exact-fairness": (
        (10, 3, 2), "exact", True, 12, 2,
        {
            "per_round.csv": "4f1e885b5aba43118af2770f45c31ee138a4306c8dbe9d813ac3928f461ac53a",
            "per_run.csv": "0bbfeb7c391c673fae84a9b76285d7fd895c59de663be0ee27add5b2b9a43d3f",
            "report.json": "167a35177e694a5e058035e46f7be0602705badc135103d5ed3a59c2e19a39fa",
        },
    ),
    "exact-baseline": (
        (10, 3, 2), "exact", False, 12, 2,
        {
            "per_round.csv": "aa77e5c0273853126f70c79fdbed42ccc2af49618283c385473ace42343ec5b5",
            "per_run.csv": "966c772078f1d9af423265b8da11904466733694bcf33940992026f312a3d7a8",
            "report.json": "d0e0043fe70fac094e70e0dfc10ef97cff74031d33ccdaf2d911b1da6f1326bb",
        },
    ),
}

# A 12x2x2 compare, 16 rounds, 2 runs, seed 3: its comparison rows hold a
# nonzero drops delta, a negative mean-drop-round delta and an empty one
# (only the baseline arm drops in run 0).
COMPARE_DIGESTS = {
    "comparison.csv": "d96ce273ee3f130e9e1c8d405eeb44d2038a84a73a869bc119c5c3b9f4490d49",
    "baseline/per_round.csv": "f575af7b91fd2de849f1d666fd5cce6eff141c2de335e569f262293ead774d87",
    "baseline/per_run.csv": "4f96241c795102d6b284ef3dac9dd8fb75f0f4b7edfbea3f669c3aae75f2ed9c",
    "baseline/report.json": "83fff505c7960273e343598afe15e0199bf42143abdecb0834cb3ccbf3fe4f54",
    "fairness/per_round.csv": "11a8a76d8fa59b676e49f22dcb09bc11f9c54fb30ce7a14350c9abcb15f2b31f",
    "fairness/per_run.csv": "7b1290e5eb5ce6d1135776d04a5e79e2e9a4ef8e340d59f74df12c8a5864f515",
    "fairness/report.json": "b1316e25b7be404005fb65d76d830f49f443ec5aa1719cd4a08f58b2365d5042",
}


def _tree_digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
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
    assert _tree_digests(tmp_path) == expected


def test_compare_digests_are_unchanged(tmp_path):
    scenario = ScenarioConfig(
        shape=MarketShape(12, 2, 2), runs=2, provider_quantity_range=(10, 26)
    )
    engine = EngineConfig(rounds=16, master_seed=3)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cmd_compare(ExperimentConfig(scenario, engine, tmp_path)) == 0
    assert _tree_digests(tmp_path) == COMPARE_DIGESTS
