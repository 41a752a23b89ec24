"""podd: discrete-event laboratory for power-of-D load balancing."""

import os

# One BLAS thread per process, set before numpy loads OpenBLAS: its pthreads
# build starts a thread per extra core when numpy is imported, and those
# threads spin even though podd makes no BLAS call.  podd's parallelism is
# its `--workers` processes.  A value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
