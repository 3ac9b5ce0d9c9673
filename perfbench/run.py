"""faircda benchmark: end-to-end and per-layer metrics for three market workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Every repetition runs in a fresh process (``rep.py``).  With
``--trace 0`` repetitions are untraced and the last output line reports the
end-to-end metrics as medians over repetitions (``emit_s``: of many repeated
emits; ``setup_s``: over set-up-only processes run before every repetition
and at both ends of the run); with ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are reported instead.
End-to-end timings are wall times normalised to a fixed host speed: every
repetition samples the speed the shared host gives it while it runs
(``hostspeed.py``), and each timed interval after set-up is scaled by the
speed sampled during it.  Set-up time is not normalised (see the set-up
probe settings below), and neither are spans.  ``engine.wall_rounds_per_s``
and ``host.speed_ratio`` report the raw throughput and the sampled speed
beside the per-layer metrics.  Each arm's ``report.json`` must match the
golden digest recorded for the workload and seed (``golden.json``), must be
identical across repetitions, traced or not, and must round-trip through
``parse_report``; any exception or mismatch counts as a failed operation.
The result line is printed even when every operation failed; a metric that
no repetition measured is ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

# Set-up-only processes: at each end of a run, and before every repetition.
# One set-up takes about 0.2 s, so probes spread over the run give its
# median more samples than the repetitions alone would.  Set-up is not
# scaled by the sampled host speed: it is mostly loading numpy's extension
# modules, which slows by about 1.3 times where the sampled loop slows by
# 1.8 (30 probes on a 2-vCPU sandbox), so scaling over-corrects it.
SETUP_PROBES_END = 2
SETUP_PROBES_EACH = 2
# An untraced run takes at least this many repetitions, even past its
# seconds, so that no end-to-end metric rests on a single process.
MIN_PLAIN_REPS = 2
MIN_P90_SAMPLES = 100  # a p90 needs at least 10 samples beyond it
RUN_LIMIT_S = 170.0  # a run must end within 180 s, repetitions included

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "emit_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario.gen_s": "s",
    "scenario.bids": "count",
    "fairness.factors_s": "s",
    "fairness.rewards": "count",
    "fairness.penalties": "count",
    "wdp_solver.build_s": "s",
    "wdp_solver.solve_s": "s",
    "wdp_solver.solve_ms.p50": "ms",
    "wdp_solver.solve_ms.p90": "ms",
    "wdp_solver.solve_ms.n": "count",
    "wdp_solver.solves": "count",
    "wdp_solver.proved_optimal_ratio": "ratio",
    "pricing.settle_s": "s",
    "pricing.trades": "count",
    "engine.round_s": "s",
    "engine.round_self_s": "s",
    "engine.round_ms.p50": "ms",
    "engine.round_ms.p90": "ms",
    "engine.round_ms.n": "count",
    "engine.fold_s": "s",
    "engine.fold_ms.p50": "ms",
    "engine.fold_ms.p90": "ms",
    "engine.fold_ms.n": "count",
    "engine.loop_self_s": "s",
    "engine.pool_worker_cpu_s": "s",
    "engine.pool_parent_cpu_s": "s",
    "engine.pool_efficiency": "ratio",
    "metrics.report_json_s": "s",
    "metrics.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "engine.wall_rounds_per_s": "1/s",
    "host.speed_ratio": "ratio",
}


def run_child(name: str, seed: int, mode: str, out_dir: Path, timeout: float) -> dict:
    """Run one repetition in a fresh process; ``{"crash": ...}`` if it died."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), name, str(seed), mode, str(out_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"crash": f"{mode} repetition overran the {RUN_LIMIT_S} s run limit"}
    finally:
        try:  # pool workers the repetition may have left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"{mode} repetition exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def p90(samples: list[float]):
    """90th percentile, or None when fewer than 10 samples would lie beyond it."""
    return statistics.quantiles(samples, n=10)[-1] if len(samples) >= MIN_P90_SAMPLES else None


def median_or_none(values: list):
    """Median, or None when any repetition left the value unmeasured."""
    return None if not values or None in values else statistics.median(values)


class Run:
    """Repetitions of one workload at one seed, and the checks on their reports."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        self.name, self.seed, self.out_dir = name, seed, out_dir
        self.workload = WORKLOADS[name]
        golden = json.loads(GOLDEN.read_text())
        self.golden = golden.get(name, {}).get(str(seed))
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reps: dict[str, list[dict]] = {"plain": [], "traced": []}
        self.setups: list[float] = []
        self.started = 0
        self.limit = time.perf_counter() + RUN_LIMIT_S

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.name} seed {self.seed}: {why}", file=sys.stderr)

    def child(self, mode: str) -> tuple[dict, float]:
        """Run one process of ``rep.py``; its output and wall time."""
        self.started += 1
        started = time.perf_counter()
        rep = run_child(
            self.name, self.seed, mode, self.out_dir / str(self.started),
            timeout=max(1.0, self.limit - started),
        )
        return rep, time.perf_counter() - started

    def repeat(self, mode: str) -> float:
        """Run one repetition, check its operations; return its wall time."""
        rep, elapsed = self.child(mode)
        if "crash" not in rep and mode == "plain":
            self.setups.append(rep["setup_s"])
        if "crash" in rep:
            self.attempted += len(self.workload.arms)
            for arm in self.workload.arms:
                self.fail(f"{arm}: {rep['crash']}")
            return elapsed
        timed = True
        for op in rep["ops"]:
            self.attempted += 1
            arm = op["arm"]
            if "error" in op:
                timed = False
                self.fail(f"{arm} ({mode}): {op['error']}")
                continue
            expected = self.golden.get(arm) if self.golden else self.digests.get(arm)
            if expected is not None and op["digest"] != expected:
                source = "golden digest" if self.golden else "the first repetition"
                self.fail(
                    f"{arm} ({mode}): report.json sha256 {op['digest']} differs from {source}"
                )
            self.digests.setdefault(arm, op["digest"])
        if timed:
            self.reps[mode].append(rep)
        return elapsed

    def probe_setup(self, count: int) -> None:
        for _ in range(count):
            setup, _ = self.child("setup")
            if "crash" in setup:
                print(f"perfbench: set-up probe failed: {setup['crash']}", file=sys.stderr)
            else:
                self.setups.append(setup["setup_s"])

    def measure(self, seconds: float, trace: bool) -> None:
        self.child("setup")  # fills the bytecode cache; not counted
        # Only the untraced run reports set-up time.
        probes = (lambda count: None) if trace else self.probe_setup
        deadline = time.perf_counter() + seconds
        probes(SETUP_PROBES_END)
        modes = ("plain", "traced") if trace else ("plain",)
        # Traced repetitions until the per-round samples support a p90.
        traced_needed = math.ceil(MIN_P90_SAMPLES / self.workload.market_rounds)
        last: dict[str, float] = {}
        turn = 0
        while True:
            mode = modes[turn % len(modes)]
            probes(SETUP_PROBES_EACH)
            last[mode] = self.repeat(mode)
            turn += 1
            if trace:
                enough = bool(self.reps["plain"]) and len(self.reps["traced"]) >= traced_needed
            else:
                enough = len(self.reps["plain"]) >= MIN_PLAIN_REPS
            # Start another repetition if at least half of it fits.
            following = modes[turn % len(modes)]
            out_of_time = time.perf_counter() + 0.5 * last.get(following, last[mode]) > deadline
            if out_of_time and (enough or self.failed):
                break
        probes(SETUP_PROBES_END)

    def end_to_end(self) -> dict:
        plain = self.reps["plain"]
        if not plain:
            return unmeasured(END_TO_END)

        def seconds(rep: dict, window: list[float]) -> float:
            """The interval's wall time at the reference host speed."""
            start, end = window
            return (end - start) * hostspeed.factor(rep["samples"], start, end)

        def simulation(r):
            return sum(seconds(r, op["simulation"]) for op in r["ops"])

        values = {
            "setup_s": median_or_none(self.setups),
            "rounds_per_s": statistics.median(
                self.workload.market_rounds / simulation(r) for r in plain
            ),
            # Per arm, the median of its repeated emits.
            "emit_s": statistics.median(
                sum(statistics.median(seconds(r, e) for e in op["emits"]) for op in r["ops"])
                for r in plain
            ),
            # The time a user waits: the first emit of each arm, which
            # creates the files and pays for anything emit caches.
            "total_s": statistics.median(
                r["setup_s"]
                + simulation(r)
                + sum(seconds(r, op["first_emit"]) for op in r["ops"])
                for r in plain
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        plain, traced = self.reps["plain"], self.reps["traced"]
        if not plain or not traced:
            return unmeasured(PER_LAYER)
        summaries = [r["trace"] for r in traced]
        for missing in sorted({m for s in summaries for m in s["missing"]}):
            print(f"perfbench: {missing} is gone; its layer is unmeasured", file=sys.stderr)
        metrics: dict[str, object] = {}

        def total(layer):
            return median_or_none([s["totals"][layer] for s in summaries])

        def self_time(key):
            return median_or_none([s[key] for s in summaries])

        def distribution(prefix, layer):
            samples = [x for s in summaries for x in s["samples_ms"][layer]]
            metrics[f"{prefix}.p50"] = median_or_none(samples)
            metrics[f"{prefix}.p90"] = p90(samples)
            metrics[f"{prefix}.n"] = len(samples)

        # Counts repeat exactly: every traced repetition has the same inputs
        # and, by the digest checks, the same outputs.
        def count(key):
            return summaries[0]["counts"].get(key, 0)

        metrics["scenario.gen_s"] = total("scenario.gen")
        metrics["scenario.bids"] = count("scenario.bids")
        metrics["fairness.factors_s"] = total("fairness.factors")
        metrics["fairness.rewards"] = count("fairness.rewards")
        metrics["fairness.penalties"] = count("fairness.penalties")
        metrics["wdp_solver.build_s"] = total("wdp_solver.build")
        metrics["wdp_solver.solve_s"] = total("wdp_solver.solve")
        distribution("wdp_solver.solve_ms", "wdp_solver.solve")
        solves = count("wdp_solver.solves")
        metrics["wdp_solver.solves"] = solves
        metrics["wdp_solver.proved_optimal_ratio"] = (
            count("wdp_solver.proved_optimal") / solves if solves else None
        )
        metrics["pricing.settle_s"] = total("pricing.settle")
        metrics["pricing.trades"] = count("pricing.trades")
        metrics["engine.round_s"] = total("engine.round")
        metrics["engine.round_self_s"] = self_time("round_self_s")
        distribution("engine.round_ms", "engine.round")
        metrics["engine.fold_s"] = total("engine.fold")
        distribution("engine.fold_ms", "engine.fold")
        metrics["engine.loop_self_s"] = self_time("loop_self_s")

        # The pool split comes from the untraced repetitions, which use the
        # workload's own ``jobs``.  Serial workloads simulate in the parent,
        # so their efficiency is parent CPU over wall time.
        jobs = self.workload.jobs
        worker = statistics.median(r["worker_cpu_s"] for r in plain)
        parent = statistics.median(r["parent_cpu_s"] for r in plain)
        busy = [
            (r["worker_cpu_s"] if jobs > 1 else r["parent_cpu_s"]) / (jobs * r["simulation_s"])
            for r in plain
        ]
        metrics["engine.pool_worker_cpu_s"] = worker
        metrics["engine.pool_parent_cpu_s"] = parent
        metrics["engine.pool_efficiency"] = statistics.median(busy)

        metrics["metrics.report_json_s"] = total("metrics.report_json")
        metrics["metrics.report_bytes"] = sum(op["report_bytes"] for op in traced[0]["ops"])
        # Overhead in CPU seconds at the reference host speed, so that a
        # pooled untraced run compares with the serial traced one.
        untraced_cpu = statistics.median(
            (r["parent_cpu_s"] + r["worker_cpu_s"]) * simulation_speed(r) for r in plain
        )
        traced_cpu = statistics.median(r["parent_cpu_s"] * simulation_speed(r) for r in traced)
        metrics["trace.overhead_ratio"] = traced_cpu / untraced_cpu
        metrics["engine.wall_rounds_per_s"] = statistics.median(
            self.workload.market_rounds / r["simulation_s"] for r in plain
        )
        metrics["host.speed_ratio"] = statistics.median(simulation_speed(r) for r in plain)
        covered = median_or_none(
            [
                None if s["loop_self_s"] is None else 1.0 - s["loop_self_s"] / r["simulation_s"]
                for s, r in zip(summaries, traced)
            ]
        )
        metrics["trace.coverage_ratio"] = covered

        for key, value in metrics.items():
            if value is None:
                print(f"perfbench: {key} is unmeasured", file=sys.stderr)
        return {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}


def simulation_speed(rep: dict) -> float:
    """The host's speed over a repetition's simulations, relative to the reference."""
    windows = [op["simulation"] for op in rep["ops"]]
    weighted = sum((b - a) * hostspeed.factor(rep["samples"], a, b) for a, b in windows)
    return weighted / sum(b - a for a, b in windows)


def unmeasured(units: dict) -> dict:
    """Every metric as ``null``, when no repetition completed."""
    print("perfbench: no repetition completed; every metric is unmeasured", file=sys.stderr)
    return {k: {"value": None, "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # Termination unwinds through run_child, which kills the repetition's
    # process group, and through the clean-up below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "faircda" / "__init__.py").is_file():
        print(f"perfbench: no faircda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        run = Run(args.workload, args.seed, out_dir)
        if run.golden is None:
            print(
                f"perfbench: no golden digest for {args.workload} at seed {args.seed}; "
                "digest check skipped (round-trip, cross-check and repeat agreement still run)",
                file=sys.stderr,
            )
        run.measure(args.seconds, bool(args.trace))
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
