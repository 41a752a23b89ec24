"""sha256 of the event kernel's return objects at fixed inputs.

The CSV pins in `test_cli.py` see only what the subcommands write.  These
cover what no CSV keeps: departure logs of `run` under each discipline (at
D = 2 both by rejection sampling and by permutation), both trajectories and
both arrival logs of the coupled pair over several sample times (including
simultaneous departures under deterministic service), and a cavity
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
                       enable=("yellow", "blue"), record_events=True)


def _cavity_stationary():
    return run_cavity(2, 0.7, ERL4, PS, 30.0, RngStream(47).child("cavity"),
                      sample_times=np.linspace(0.0, 30.0, 31))


CASES = {
    "run-ps-erlang-geometric":
        (_run_ps_erlang,
         "b5c66535d2c0a2a5f5ea9ce01670c2239270a227189aeb50b4e881077264fd99"),
    "run-fifo-det-all-at-2":
        (_run_fifo_det,
         "430c6820a10cd57a79797362cd65d4e30318a66b4a442a0f3568cd36993c842a"),
    "run-lifo-hyperexp-permutation":
        (_run_lifo_permutation,
         "c867fae4a49bc404d5f36fc0febacd252c6a6bd648638c2c53f359be3b49a7aa"),
    "run-d2-ps-hyperexp-geometric":
        (_run_d2_ps_hyperexp,
         "328956800c7733b36d67261d1c2577b590d75e6ed19e0b90d635c98c02a9accb"),
    "run-d2-lifo-erlang-all-at-2":
        (_run_d2_lifo_erlang,
         "9b46eefbc0d02b7e788bf271d8cf86284959998c487c96b5cc9938e81e08f0ff"),
    "run-d2-fifo-det-all-at-2":
        (_run_d2_fifo_det,
         "9338e9649cdbb60b18b48d6e3fa27299f05be60db07d60d0882a54b3c866ffaa"),
    "run-d2-n4-permutation":
        (_run_d2_permutation,
         "cf6d9a2c252832f3648ba21c77564dc2b88bc5d93dfe9c48f634b39024b39f8c"),
    "coupled-ps-erlang-geometric":
        (_coupled_erlang_geometric,
         "0231d0e0622d5a3f9d0a103cece50a82eba732306ff8db2a2adcd445af8d36e5"),
    "coupled-fifo-det-all-at-2":
        (_coupled_det_all_at_2,
         "d24e681209059a5ed4ae2dfff72db648c9a169b1bea0b9fd475e82605ef20772"),
    "coupled-lifo-d1-yellow-blue":
        (_coupled_lifo_d1,
         "8dc4c53d730e0994fd33c919746ac9b0dac46330c93b43cc764542016ba8abb8"),
    "cavity-stationary":
        (_cavity_stationary,
         "631080daaaa2b583536f93f8793d410c91634fa98b10d57b4d599271a2c03312"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_kernel_output_digest(name):
    make, want = CASES[name]
    assert digest(make()) == want
