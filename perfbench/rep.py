"""One repetition of a benchmark workload, run in a fresh process.

    python3 perfbench/rep.py WORKLOAD SEED MODE OUT_DIR

MODE is ``setup`` (import and build the configs only), ``plain`` (untraced,
with the workload's own ``jobs``) or ``traced`` (serial, round-phase spans
on).  Every arm is one operation: ``run_simulation`` then ``emit`` into
``OUT_DIR/<arm>``.  The last line of standard output is a JSON object with
the timings, resource usage and each operation's ``report.json`` digest or
error.  A fresh process per repetition keeps ``ru_maxrss`` and
``RUSAGE_CHILDREN`` from accumulating across repetitions.

After set-up, a repetition samples the host's speed (``hostspeed``) and
reports the samples with the start and end of every timed interval, which
``run.py`` normalises.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
from workloads import WORKLOADS, build

SRC = Path(__file__).resolve().parents[1] / "src"
# Emit takes a fraction of a second, so each arm's emit is repeated for this
# long and ``emit_s`` is taken over the repeats.  The repeats write over
# files the first call created and reuse anything it cached, so the first
# call alone is reported as well (``first_emit``), the emit a user of the
# program waits for.
EMIT_SECONDS = 2.0


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> dict:
    name, seed, mode, out_dir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    workload = WORKLOADS[name]

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import faircda

    arms = build(faircda, workload, seed)
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        return result

    traced = mode == "traced"
    hostspeed.start(out_dir / "samples")
    tracer = spans.install(faircda) if traced else None
    jobs = 1 if traced else workload.jobs
    ops, emitted = [], []
    simulation_s, self_cpu, child_cpu = 0.0, 0.0, 0.0
    for arm, scenario, engine in arms:
        op = {"arm": arm}
        ops.append(op)
        try:
            self0 = resource.getrusage(resource.RUSAGE_SELF)
            child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            report = faircda.run_simulation(scenario, engine, jobs=jobs)
            t1 = time.perf_counter()
            self1 = resource.getrusage(resource.RUSAGE_SELF)
            child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            faircda.emit(report, out_dir / arm)
            t2 = time.perf_counter()
        except Exception as exc:
            traceback.print_exc()
            op["error"] = f"{type(exc).__name__}: {exc}"
            continue
        simulation_s += t1 - t0
        self_cpu += _cpu(self1) - _cpu(self0)
        child_cpu += _cpu(child1) - _cpu(child0)
        op["simulation"] = [t0, t1]
        op["first_emit"] = [t1, t2]
        data = (out_dir / arm / "report.json").read_bytes()
        op["digest"] = hashlib.sha256(data).hexdigest()
        op["report_bytes"] = len(data)
        emitted.append((op, report, data))

    # Taken before the checks below, which a user's run does not do.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    for op, report, data in emitted:
        try:
            # Repeat emit (traced repetitions only time the first call).
            op["emits"] = emits = []
            while not traced and sum(b - a for a, b in emits) < EMIT_SECONDS:
                again = out_dir / f"{op['arm']}.again"
                t0 = time.perf_counter()
                faircda.emit(report, again)
                emits.append([t0, time.perf_counter()])
                if (again / "report.json").read_bytes() != data:
                    raise ValueError("emit wrote different report.json bytes for the same report")
            # Held-out seeds have no golden digest; this is what still proves
            # their reports exact (emit has already cross-checked the per-run
            # rows against the per-round rows).
            if not traced:
                parsed = faircda.parse_report(data.decode())
                if parsed != report or faircda.report_to_json(parsed) != data.decode():
                    raise ValueError("report.json does not round-trip through parse_report")
        except Exception as exc:
            traceback.print_exc()
            op["error"] = f"{type(exc).__name__}: {exc}"
    result.update(
        ops=ops,
        simulation_s=simulation_s,
        parent_cpu_s=self_cpu,
        worker_cpu_s=child_cpu,
        peak_rss_mb=peak_kb / 1024.0,
    )
    result["samples"] = hostspeed.stop()
    if traced:
        result["trace"] = tracer.summary(simulation_s)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
