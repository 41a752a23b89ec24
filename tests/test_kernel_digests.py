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
         "44dfaa0dbb0ecb6538b0d1332e0b68d5de86584bc0412c058ef722885c177a7f"),
    "run-fifo-det-all-at-2":
        (_run_fifo_det,
         "a8b711ca93e2fe4c835045f6801fc36ac2e37b8e3bd40a8ad357c72cd768e497"),
    "run-lifo-hyperexp-permutation":
        (_run_lifo_permutation,
         "c8236e99eab88b8da93505d67d8156a366774c20a346ba42f985579d3655b6f2"),
    "run-d2-ps-hyperexp-geometric":
        (_run_d2_ps_hyperexp,
         "86ed0af6fd57c436cb5080f8444949ffb1a4a63609d5a1cc748a376bc1b26082"),
    "run-d2-lifo-erlang-all-at-2":
        (_run_d2_lifo_erlang,
         "dd93a8846c7e245cf88b945bd76c31c34469a677636933ea4cf70629dc723b61"),
    "run-d2-fifo-det-all-at-2":
        (_run_d2_fifo_det,
         "6343cf3184bb53c175dbdc7ae9516271999a28c5a8ba006b986774089063da7e"),
    "run-d2-n4-permutation":
        (_run_d2_permutation,
         "9bfa5fd7e55a98e9a82287b5ebe808b96cbe8fe2aca645ea556fe274af2879b2"),
    "coupled-ps-erlang-geometric":
        (_coupled_erlang_geometric,
         "267267c36307347b5cb1cf4cd494d905878ba16ebec2b2be1ea95f9cfaf44e05"),
    "coupled-fifo-det-all-at-2":
        (_coupled_det_all_at_2,
         "3c98ab2dd984367d7e98eb23c846f239e0b747219b512f29bd4f2d41cc065f5b"),
    "coupled-lifo-d1-yellow-blue":
        (_coupled_lifo_d1,
         "2eb421a5866c1852e7d822a1a52ed4a6cb52578baed4382918a3abcc16563be1"),
    "coupled-d2-fifo-exp":
        (_coupled_d2_fifo_exp,
         "8855b586109383ab3266257617f69ea2f8c2c0d28b980f4c7245f2bbb98e1379"),
    "cavity-stationary":
        (_cavity_stationary,
         "f1b7e35abd3e7b05bf7c09cc178250faa79ed97c73c85b3ee0aeafbdaffa1ae9"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_kernel_output_digest(name):
    make, want = CASES[name]
    assert digest(make()) == want
