"""Pin the scan workload's results for the default seeds.

    python3 perfbench/record_reference.py

Runs one scan pass per default seed and writes perfbench/reference.json
(the partial sum and every density checkpoint count). run.py then checks
each scan run on a default seed against these values as well as against
the oracle: counts exactly, sums to 1e-9 relative, so a deliberate
one-ulp change in summation order still passes. Record them only from a
commit whose scan outputs are known to be right.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sl = workloads.import_splitlab(run.SRC)
    values = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for seed in run.DEFAULT_SEEDS:
            scan = workloads.Scan(sl, seed, Path(tmp))
            log = scan.run_pass()
            scan.check([log])
            errors = [op.error for op in log.ops if op.error]
            if errors:
                print(f"seed {seed}: {errors}", file=sys.stderr)
                return 1
            values[str(seed)] = scan.reference_values(log)
            print(f"seed {seed} ({log.wall_s:.3f} s): {values[str(seed)]}", flush=True)
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps({"scan": values}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
