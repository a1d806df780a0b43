"""Test-session settings.

One BLAS thread unless the environment already sets one: the kernel
solves run several times faster than with threaded BLAS on a small
machine, and results move in the last digits with the thread count.
Set before any test module imports numpy.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
