#!/usr/bin/env python3
"""Reproduce the noisy output-matching experiment.

Runs the default regime (N=500, L=50, noise U(-0.025, 0.025), lambda=0.1)
for one seed, then a 20-seed sweep, and prints where the plot CSVs and
metrics landed.  Pass a directory to override ./runs/example1.
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

from flatdd.experiments import ExperimentConfig, run_example1, run_sweep  # noqa: E402


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/example1")
    single = run_example1(ExperimentConfig(seed=5, out_dir=str(out / "seed_005")))
    print(f"seed 5: y_err_2 = {single['y_err_2']:.4f}, u_err_2 = {single['u_err_2']:.4f}")
    sweep = run_sweep(ExperimentConfig(seed=5, out_dir=str(out / "sweep")), count=20)
    print(
        f"20-seed sweep: median y_err_2 = {sweep['median_y_err_2']:.4f}, "
        f"median u_err_2 = {sweep['median_u_err_2']:.4f}"
    )
    print(f"plot data and metrics under {out}/")


if __name__ == "__main__":
    main()
