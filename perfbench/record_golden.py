"""Record the golden ``report.json`` digests of every workload arm.

    python3 perfbench/record_golden.py [SEED ...]

Runs one untraced repetition per workload and seed (default: the shipped
seeds 0-10), which also checks that each report round-trips through
``parse_report``, and writes ``golden.json``.  Run it only when a change is
meant to alter the reports; a performance change must reproduce them.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, ROOT, RUN_LIMIT_S, run_child
from workloads import WORKLOADS

SHIPPED_SEEDS = range(11)


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(SHIPPED_SEEDS)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for name in WORKLOADS:
            for seed in seeds:
                rep = run_child(name, seed, "plain", out_dir / "rep", timeout=RUN_LIMIT_S)
                errors = [op["error"] for op in rep.get("ops", []) if "error" in op]
                if "crash" in rep or errors:
                    print(f"{name} seed {seed}: {rep.get('crash') or errors}", file=sys.stderr)
                    return 1
                digests = {op["arm"]: op["digest"] for op in rep["ops"]}
                golden.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {digests}", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
