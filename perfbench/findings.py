"""Reproduce the inputs on which the program gives a wrong result.

    python3 perfbench/findings.py --seed 1

Runs every input of ``workloads.FINDINGS`` once, untimed, through the
same workload function and checks as ``run.py``, and prints each check
that failed.  Exits 1 while any of them fails, and 0 once the program
passes them all; then the input can join the timed slots.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs the src path above

    failing = 0
    for name, slot, kwargs in workloads.FINDINGS:
        (seed,) = workloads.slot_seeds(args.seed, 1)
        result = workloads.WORKLOADS[name](slot, seed, **kwargs)
        status = "FAILS" if result.problems or result.failed else "passes"
        label = f"{name} slot {slot}" + (f" {kwargs}" if kwargs else "")
        print(f"{label}: {status} "
              f"({result.failed} of {result.attempted} operations failed)")
        for problem in result.problems:
            print(f"  {problem}")
        failing += status == "FAILS"
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
