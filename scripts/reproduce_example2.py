#!/usr/bin/env python3
"""Reproduce the kernel-mode data-driven simulation experiment.

Runs the default regime (N=750, L=50, sigma=1, lambda=0.1, noise
U(-0.05, 0.05)) for one seed, then a 10-seed sweep.  The whole run takes
a few seconds with one BLAS thread.  Pass a directory to override
./runs/example2.
"""

import os
import sys
from pathlib import Path

# One BLAS thread unless the environment already sets one: the kernel
# solves run several times faster than with threaded BLAS on a small
# machine, and the results do not depend on its core count.  Set
# before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from flatdd.experiments import example2_defaults, run_example2, run_sweep  # noqa: E402


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/example2")
    single = run_example2(example2_defaults(seed=5, out_dir=str(out / "seed_005")))
    print(f"seed 5: y_err_2 = {single['y_err_2']:.4f}, converged = {single['converged']}")
    sweep = run_sweep(example2_defaults(seed=5, out_dir=str(out / "sweep")), count=10)
    print(f"10-seed sweep: median y_err_2 = {sweep['median_y_err_2']:.4f}")
    print(f"plot data and metrics under {out}/")


if __name__ == "__main__":
    main()
