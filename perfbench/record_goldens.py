"""Record goldens.json: the per-operation fingerprints of every workload at
its default seed and sizes, from one untraced process each.

    python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are known to be right; a later commit
must reproduce these fingerprints bit for bit.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    goldens = {}
    for workload, sizes in workloads.SIZES.items():
        out = run.measure(workload, workloads.DEFAULT_SEED, 0.0, 0, sizes, None)
        if not out["result"]["correct"]:
            print("\n".join(out["lines"]), file=sys.stderr)
            return 1
        goldens[workload] = out["fingerprints"]
    run.GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
