"""sha256 of the event kernel's return objects at fixed inputs.

The CSV pins in `test_cli.py` see only what the subcommands write.  These
cover what no CSV keeps: departure logs of `run` under each discipline (at
D = 2 both by rejection sampling and by permutation), both trajectories and
both arrival logs of the coupled pair over several sample times (including
simultaneous departures under deterministic service), the coupled pair's
D = 2 path without event logs, and a cavity
trajectory driven by the stationary tail.  Every float is hashed through
its exact `repr`, and every array with its dtype.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from podd.cavity import run_cavity, run_coupled
from podd.core import (Configuration, FIFO, LIFO_PR, PS, RngStream,
                       ServiceDistribution)
from podd.engine import run

EXP = ServiceDistribution.exponential()
DET = ServiceDistribution.deterministic()
ERL4 = ServiceDistribution.erlang(4)
HYP = ServiceDistribution.hyperexponential_cv2(4.0)


def canon(x):
    """A nested tuple of Python scalars that determines `x` exactly."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tolist())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,
                tuple((f.name, canon(getattr(x, f.name)))
                      for f in dataclasses.fields(x)))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, tuple(canon(v) for v in x))
    if isinstance(x, dict):
        return ("dict", tuple((k, canon(v)) for k, v in x.items()))
    return x


def digest(x):
    return hashlib.sha256(repr(canon(x)).encode()).hexdigest()


def all_at_2(n, dist, seed):
    return Configuration.from_lengths([2] * n, dist, RngStream(seed).child("init"))


def geometric(n, lam, dist, seed):
    gen = RngStream(seed).child("init-lengths").generator()
    lengths = gen.geometric(1.0 - lam, size=n) - 1
    return Configuration.from_lengths([int(v) for v in lengths], dist,
                                      RngStream(seed).child("init"))


def _run_ps_erlang():
    return run(12, 3, 0.8, ERL4, PS, geometric(12, 0.8, ERL4, 1), 40.0,
               np.linspace(0.0, 40.0, 21), RngStream(41).child("run"),
               record_departures=True)


def _run_fifo_det():
    # unit jobs two deep everywhere: every server departs at t = 1 and 2
    return run(6, 2, 0.7, DET, FIFO, all_at_2(6, DET, 2), 12.0,
               [0.0, 1.0, 1.0, 2.0, 6.5, 12.0],
               RngStream(42).child("run"), record_departures=True)


def _run_lifo_permutation():
    return run(4, 3, 0.9, HYP, LIFO_PR, Configuration.empty(4), 30.0,
               np.linspace(0.0, 30.0, 7), RngStream(43).child("run"),
               record_departures=True)


def _run_d2_ps_hyperexp():
    # D = 2 and N > 4: candidates drawn by rejection, not by permutation
    return run(9, 2, 0.85, HYP, PS, geometric(9, 0.85, HYP, 6), 25.0,
               np.linspace(0.0, 25.0, 11), RngStream(48).child("run"),
               record_departures=True)


def _run_d2_lifo_erlang():
    return run(7, 2, 0.75, ERL4, LIFO_PR, all_at_2(7, ERL4, 7), 25.0,
               np.linspace(0.0, 25.0, 11), RngStream(49).child("run"),
               record_departures=True)


def _run_d2_fifo_det():
    # ties in queue lengths on arrival and in departure times
    return run(10, 2, 0.8, DET, FIFO, all_at_2(10, DET, 8), 20.0,
               [0.0, 1.0, 2.0, 3.0, 10.0, 20.0],
               RngStream(50).child("run"), record_departures=True)


def _run_d2_permutation():
    # N = 4 is the largest N at which D = 2 samples by permutation
    return run(4, 2, 0.7, EXP, FIFO, all_at_2(4, EXP, 9), 25.0,
               np.linspace(0.0, 25.0, 6), RngStream(51).child("run"),
               record_departures=True)


def _coupled_erlang_geometric():
    return run_coupled(10, 2, 0.8, ERL4, PS, geometric(10, 0.8, ERL4, 3), 30.0,
                       RngStream(44).child("pair"),
                       sample_times=np.linspace(0.0, 30.0, 16),
                       record_events=True)


def _coupled_det_all_at_2():
    return run_coupled(8, 3, 0.7, DET, FIFO, all_at_2(8, DET, 4), 15.0,
                       RngStream(45).child("pair"),
                       sample_times=[0.0, 1.0, 2.0, 2.0, 7.5, 15.0],
                       record_events=True)


def _coupled_lifo_d1():
    return run_coupled(5, 1, 0.6, ERL4, LIFO_PR, all_at_2(5, ERL4, 5), 20.0,
                       RngStream(46).child("pair"),
                       sample_times=np.linspace(0.0, 20.0, 9),
                       record_events=True)


def _coupled_d2_fifo_exp():
    # D = 2 and N > 4: the pair's candidates drawn by rejection, as `run` does
    return run_coupled(40, 2, 0.7, EXP, FIFO, Configuration.empty(40), 10.0,
                       RngStream(52).child("pair"),
                       sample_times=np.linspace(0.0, 10.0, 11))


def _cavity_stationary():
    return run_cavity(2, 0.7, ERL4, PS, 30.0, RngStream(47).child("cavity"),
                      sample_times=np.linspace(0.0, 30.0, 31))


CASES = {
    "run-ps-erlang-geometric":
        (_run_ps_erlang,
         "dd830794d32c1c0408b678f927a269176d31412a09db9e50bb65b54b7616eabc"),
    "run-fifo-det-all-at-2":
        (_run_fifo_det,
         "5daa4827527f53a801f553fdbe3c3b5bfee641ec832d72b6c61c25f6daef8af6"),
    "run-lifo-hyperexp-permutation":
        (_run_lifo_permutation,
         "32bc58c616078c5bc56a8a43126acf745d7573ddbc9f56c59f31bbf636020f3c"),
    "run-d2-ps-hyperexp-geometric":
        (_run_d2_ps_hyperexp,
         "64f0e6a09ceedee34bb34bb45b380ffef81ecccf12df1ce9320d3466a9302aaf"),
    "run-d2-lifo-erlang-all-at-2":
        (_run_d2_lifo_erlang,
         "d3120b7cbe4681ad530ebaa9c513d5d26cd6871808a27d81d30d2ad3e9cbb1a7"),
    "run-d2-fifo-det-all-at-2":
        (_run_d2_fifo_det,
         "34ccd95e3ea56a2e3715b236c839221e1c934d65850b58246c56926338f776eb"),
    "run-d2-n4-permutation":
        (_run_d2_permutation,
         "ac6f453248be4f743f5d4116f2e9906cfb56f60584322352416e1101b3022a19"),
    "coupled-ps-erlang-geometric":
        (_coupled_erlang_geometric,
         "a9a23b80c44c00f04e481c7e00f42f7b8c31c477e394ab8df9020b77bebbeb85"),
    "coupled-fifo-det-all-at-2":
        (_coupled_det_all_at_2,
         "a2177a168d476207e2a097ca17cb8fad9ada665aed9f715f32187fd4ddd9bdf5"),
    "coupled-lifo-d1-yellow-blue":
        (_coupled_lifo_d1,
         "d56c6201487f57036cb308633d09d500a7c82aa99a2f0f758830600707dc1c5f"),
    "coupled-d2-fifo-exp":
        (_coupled_d2_fifo_exp,
         "1496c0de5c60ff9828adae70858bebd9b22d7b1175041093541625a45d354bbd"),
    "cavity-stationary":
        (_cavity_stationary,
         "d48155c71f9461067a5b91d71981b3b3ca78ea3dd6e5b05b498942f67477d66d"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_kernel_output_digest(name):
    make, want = CASES[name]
    assert digest(make()) == want
