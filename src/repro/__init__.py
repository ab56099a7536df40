"""Balanced Scheduling (Kerns & Eggers, PLDI 1993) -- full reproduction.

Import each name from the module that defines it.  See README.md for
the architecture overview and a quick start, and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

import os

# numpy's bundled OpenBLAS starts worker threads (one per extra CPU)
# when it loads, and each spins for ~60 ms of CPU before it sleeps: on
# a 2-CPU host `import numpy` costs ~200 ms of CPU with its worker and
# ~120-140 ms without (docs/performance.md section 5n).  Nothing in
# this package calls a BLAS routine (no dot, matmul, `@`, linalg,
# einsum or tensordot), so the thread count cannot change any result.
# A caller's own setting wins, and so does a numpy imported before
# this package.  It sits here because every `repro.*` import runs this
# init first, before any module can import numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"
