"""Run one dermfeat benchmark workload.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 38 --trace 0

Run from the repository root. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the lines before it
record the environment and per-pass samples.
"""

import os
import sys
from pathlib import Path

# One BLAS thread, pinned before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parents[1]


def _import_bench():
    """The benchmark package, with dermfeat taken from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "dermfeat" / "__init__.py").is_file():
        sys.exit(f"error: no dermfeat sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import bench
    return bench


if __name__ == "__main__":
    sys.exit(_import_bench().main())
