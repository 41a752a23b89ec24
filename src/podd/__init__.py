"""podd: discrete-event laboratory for power-of-D load balancing."""

import os

# One BLAS thread per process, set before numpy loads OpenBLAS: its pthreads
# build starts a thread per extra core when numpy is imported, and those
# threads spin even though podd makes no BLAS call.  podd's parallelism is
# its `--workers` processes.  A value the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .core import (Configuration, Discipline, FIFO, LIFO_PR, PS, RngStream,
                   ServiceDistribution, TailCounts)
from .rates import (BoundInputs, arrival_rate_closed,
                    arrival_rate_hyper, arrival_rate_plus_one,
                    asymptotic_tail, cavity_rate, chaos_bound,
                    chaos_bound_limit, clan_intersection_bound,
                    clan_size_bound, monotone_threshold,
                    tail_count_cov_bound, uniform_rate_bound)
from .engine import ArrivalEvent, EventLog, Trajectory, run, snapshot
from .ancestry import ClanStats, clan_monte_carlo
from .cavity import (CoupledPair, level_distribution, run_cavity, run_coupled,
                     tv_distance)
from .estimators import EstimateRow, cov_mk, stationary_tail
