"""Process set-up shared by the benchmark and its set-up probes.

`configure` pins the numeric libraries to one thread and puts the checkout's
`src/` on the import path; it must run before numpy is imported.  `set_up`
is the timed set-up: import `santalo_lab` and run one warm-up op for each
input shape the workload uses.

Run as a script, this file is one set-up sample in a fresh interpreter:

    python3 perfbench/prepare.py --workload sweep --seed 1

It prints the raw set-up time in seconds and the speed factor as its last
line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# One process, one caller: BLAS and OpenMP pools would otherwise take the
# second core and make timings depend on what else runs on the machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Speed probes after a set-up; about 50 ms.
SETUP_PROBES = 25


class MissingSource(RuntimeError):
    """The working directory is not a checkout with `src/santalo_lab`."""


def configure(root: Path) -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = root / "src"
    if not (src / "santalo_lab" / "__init__.py").is_file():
        raise MissingSource(f"no src/santalo_lab under {root}; "
                            "run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def set_up(name: str, seed: int):
    """Import the package and warm up one op per input shape.

    Returns (workload, raw seconds, speed factor); the factor comes from
    probes taken right after the set-up (see `speed.py`).
    """
    start = time.perf_counter()
    import santalo_lab  # noqa: F401  (the import is part of the set-up cost)

    import workloads

    workload = workloads.WORKLOADS[name]
    for x in workload.warmup_inputs(seed):
        workload.op(x)
    seconds = time.perf_counter() - start
    import speed

    probe = speed.SpeedProbe()
    probe.probe(SETUP_PROBES)
    return workload, seconds, probe.factor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    configure(Path.cwd())
    _, seconds, factor = set_up(args.workload, args.seed)
    print(repr(seconds), repr(factor))
    return 0


if __name__ == "__main__":
    sys.exit(main())
