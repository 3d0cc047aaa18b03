"""Record the sha256 of every reference CLI artifact into golden.json.

    python3 perfbench/record_golden.py

Run this only at a commit whose artifacts are known to be right, and only
when a change alters artifacts on purpose; the benchmark's correctness gate
compares every later run against these hashes.
"""

import json
import os
import sys

import checks
import ops
import run


def main() -> int:
    ctx = ops.Context(run.ROOT / "src", run.ROOT / ".bench_work" / str(os.getpid()))
    recorded = {}
    try:
        for workload in ops.WORKLOADS:
            if workload == "lib-modes":
                continue
            problems, _, hashes = run.reference_artifacts(ops.reference_ops(workload), ctx)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            recorded.update(hashes)
    finally:
        ctx.close()
    checks.GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"recorded {sum(map(len, recorded.values()))} artifacts of "
          f"{len(recorded)} reference ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
