"""Spectral laboratory for pseudo-relativistic NLS/NLH ground states and
their large-c limit toward the nonrelativistic equation.

BLAS threads.  Every BLAS call nrlimit makes stays under OpenBLAS's
single-thread limit, yet OpenBLAS starts a worker thread when numpy loads,
and that thread spins for about 60 ms of CPU time.  So if numpy is not yet
imported and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS is set, importing nrlimit sets OPENBLAS_NUM_THREADS=1 in
os.environ; the `nrlimit` command always imports it before numpy.  For a
library user this means that numpy, and every other library in the process
that uses OpenBLAS, runs on one BLAS thread, and that child processes inherit
the variable.  To keep more threads, set one of the three variables or
import numpy first.  nrlimit's results do not depend on the thread count.

Process exit.  The `nrlimit` command, `python -m nrlimit` and `python -m
nrlimit.cli` all run `cli.entry`, which runs `cli.main`, calls gc.freeze()
once it has returned and then exits with its code.  By then every artifact is
written and closed, and about 22,000 numpy and nrlimit objects are still
alive; without the freeze the interpreter's shutdown collections walk them
all, which took about 30 ms of every process, nearly as long as the default
1D report itself.  atexit handlers and the stdio flushes still run.  A
library caller, one that calls `cli.main`, `cli.run` or any other function in
its own process, keeps the collector as it was: nothing is frozen.
"""

import os as _os
import sys as _sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# decided before the first submodule import, which loads numpy and with it OpenBLAS
if "numpy" not in _sys.modules and not any(name in _os.environ for name in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

# the public API is the union of the modules' __all__ lists, in import order
from .grid import *
from .snapshots import *
from .operators import *
from .nonlinearity import *
from .ground_state import *
from .limit_lab import *
from . import grid, ground_state, limit_lab, nonlinearity, operators, snapshots

__all__ = [
    name for module in (grid, snapshots, operators, nonlinearity, ground_state, limit_lab) for name in module.__all__
]

__version__ = "0.1.0"
