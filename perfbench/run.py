"""Benchmark of the shiryaev-qsd library, run from the root of a checkout:

    python3 perfbench/run.py --workload level-sweep --seed 1 --seconds 30 --trace 0

Prints each workload's named metrics, then as its last line one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  The library is imported from the checkout's
``src/``; without it the run fails.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "shiryaev_qsd" / "__init__.py").is_file():
        print(f"perfbench: no library source in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shiryaev_qsd

    if not Path(shiryaev_qsd.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {shiryaev_qsd.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], SRC)


if __name__ == "__main__":
    sys.exit(main())
