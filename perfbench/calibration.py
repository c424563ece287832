"""Machine-speed calibration kernels.

On a shared host the speed one process gets drifts by up to 1.5x over
minutes, as other tenants load the same cores; every op, set-up and
first op of a run slows alike.  Fixed kernels that do the same kind of
work as the program are timed in the same process, after every op, so
their mean over a run follows the speed the run's ops got:

* ``ode``: the benchmark's own reference integration of the mode
  equations (scipy's DOP853 calling a Python right-hand side), the
  interpreter-bound kind of work of ``casimir`` ops and of imports;
* ``blas``: a chain of dense 800 x 800 matrix products, the kind of
  work of assembling the Fock-space Hamiltonian in ``fock-check`` ops.

The kernels never call the program, so a change to the program can
reach them only through the state of the process they share; the matrix
products allocate nothing, so the program's use of the heap does not
reach them.  ``run.py`` scales each timing by ``REFERENCE_S[kernel]`` over the
run's mean kernel time, which reads as seconds on the reference host:
set-up by ``ode``, ops by the kernel ``workloads.CALIBRATION_KERNEL``
names.
"""

from __future__ import annotations

import math
import time

import numpy as np

import reference

# Mean kernel seconds on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS with 2 threads) in
# a quiet spell.  They set the unit of the scaled timings only.
REFERENCE_S = {"ode": 0.15, "blas": 0.1}

_MATRIX = np.random.default_rng(0).standard_normal((800, 800)) / 28.0
# Products go into these two buffers in turn, so the kernel allocates
# nothing and the program's use of the heap cannot change its time.
_BUFFERS = (_MATRIX.copy(), np.empty_like(_MATRIX))


def _ode():
    reference.final_densities(1.5, 1.0, math.pi / 2, 0.4, [0.98], 36.0)


def _blas():
    for i in range(8):
        np.matmul(_MATRIX, _BUFFERS[i % 2], out=_BUFFERS[1 - i % 2])


KERNELS = {"ode": _ode, "blas": _blas}


def time_kernels(names):
    """Seconds each kernel named in ``names`` takes now, by kernel name."""
    out = {}
    for name in names:
        t0 = time.perf_counter()
        KERNELS[name]()
        out[name] = time.perf_counter() - t0
    return out
