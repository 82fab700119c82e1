"""cfmseg benchmark: train -> infer plus the conv-once vs per-region comparison.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The second-to-last stdout line is a report (machine and input facts, output
fingerprint, mean IoU); the last line is the result JSON with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# one thread everywhere, like `cfmseg --threads 1`; must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "dense", "per_region"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfmseg" / "__init__.py").is_file():
        sys.stderr.write(f"cfmseg sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result, report = workloads.run(workloads.WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), SRC, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in report["problems"]:
        sys.stderr.write(problem.rstrip() + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
