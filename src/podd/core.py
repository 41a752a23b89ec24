"""Core domain types: system state, queue-length summaries, service-time
distributions, scheduling disciplines, and the reproducible-randomness contract.
"""
from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

try:
    # hashlib.blake2b itself; importing hashlib also loads OpenSSL, which
    # costs every run about 3.5 MB of resident memory
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------

# Master seeds and child indices lie in [0, RNG_KEY_LIMIT).
RNG_KEY_LIMIT = 2**64


@dataclass(frozen=True)
class RngStream:
    """Counter-based, splittable random stream.

    A stream is named by a master seed plus a path of (label, index) pairs.
    Distinct paths give statistically independent substreams; the same
    (seed, path) reproduces the same sequence on every platform.  Substreams
    can therefore be handed to replications in any schedule without changing
    the numbers each replication sees.

    Each path step adds a fixed number of 32-bit words to the spawn key: four
    from a 128-bit blake2b digest of the label, then the index as two words.
    Fixed widths keep two different paths from flattening into one key.  The
    master seed and every index must lie in [0, 2**64); a `ValueError` says
    otherwise, instead of a reduction that would alias two streams.
    """

    master_seed: int
    path: tuple = ()

    def child(self, label: str, index: int = 0) -> "RngStream":
        return RngStream(self.master_seed, self.path + ((label, index),))

    def generator(self) -> np.random.Generator:
        seed = int(self.master_seed)
        if not 0 <= seed < RNG_KEY_LIMIT:
            raise ValueError("master seed must lie in [0, 2**64)")
        key = []
        for label, index in self.path:
            index = int(index)
            if not 0 <= index < RNG_KEY_LIMIT:
                raise ValueError("stream index must lie in [0, 2**64)")
            digest = blake2b(str(label).encode("utf-8"),
                             digest_size=16).digest()
            key += struct.unpack("<4I", digest)
            key += (index & 0xFFFFFFFF, index >> 32)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
        return np.random.Generator(np.random.Philox(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or an already-built numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


# ---------------------------------------------------------------------------
# System state
# ---------------------------------------------------------------------------

class Configuration:
    """Initial state of the N-server system: for each server, the residual
    work of its jobs in arrival order, each positive and finite."""

    __slots__ = ("queues", "N")

    def __init__(self, queues):
        queues = list(queues)
        if not queues:
            raise ValueError("a configuration needs at least one server")
        if not all(0 < r < math.inf for r in chain.from_iterable(queues)):
            raise ValueError("job residual must be positive and finite")
        self.queues = queues
        self.N = len(queues)

    @classmethod
    def empty(cls, n: int) -> "Configuration":
        return cls([[] for _ in range(n)])

    @classmethod
    def from_lengths(cls, lengths, dist=None, rng=None) -> "Configuration":
        """Build a configuration with the given queue lengths.  Initial jobs
        need residual work: one `dist.sample` call draws all of it (`dist` is
        required when any queue is non-empty), split server by server."""
        lengths = list(lengths)
        if any(ln < 0 for ln in lengths):
            raise ValueError("queue lengths must be non-negative")
        total = sum(lengths)
        if total > 0 and (dist is None or rng is None):
            raise ValueError("non-empty initial queues need a service distribution and rng")
        work = dist.sample(as_generator(rng), total).tolist() if total else []
        ends = np.cumsum(lengths).tolist()
        return cls([work[end - ln:end] for ln, end in zip(lengths, ends)])

    def lengths(self):
        return [len(q) for q in self.queues]


# ---------------------------------------------------------------------------
# Occupancy summaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCounts:
    """pi[k] = number of servers whose queue length is at least k."""

    pi: tuple

    @property
    def N(self) -> int:
        return self.pi[0]

    def get(self, k: int) -> int:
        return self.pi[k] if k < len(self.pi) else 0


def tail_counts_from_lengths(lengths, k_max: int) -> TailCounts:
    counts = Counter(lengths)
    pi = [0] * (k_max + 1)
    above = 0    # servers with at least k jobs, summed down from the top
    for k in range(max(max(counts, default=0), k_max), -1, -1):
        above += counts.get(k, 0)
        if k <= k_max:
            pi[k] = above
    return TailCounts(tuple(pi))


# ---------------------------------------------------------------------------
# Service-time distributions (all normalized to mean exactly 1)
# ---------------------------------------------------------------------------

# kind -> its config keys, in constructor order.  The hyperexponential also
# takes the form {"cv2": ...} alone (`hyperexponential_cv2`).
SERVICE_KEYS = {
    "exponential": (),
    "deterministic": (),
    "erlang": ("shape",),
    "hyperexponential": ("weights", "rates"),
    "lognormal": ("sigma",),
    "weibull": ("shape",),
}


@dataclass(frozen=True)
class ServiceDistribution:
    """A mean-1 service-time distribution.

    Construction rescales the natural parameterization into `params` so the
    analytic mean is exactly 1, and rejects parameters that are not finite.
    Each constructor keeps its arguments in `args`, which `to_json` writes
    back under the kind's `SERVICE_KEYS`; so `from_json` rebuilds the same
    params, where rescaling the rescaled params could move them by an ulp.
    """

    kind: str
    params: tuple = ()
    args: tuple = field(default=(), compare=False, repr=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def exponential(cls):
        return cls("exponential")

    @classmethod
    def deterministic(cls):
        return cls("deterministic")

    @classmethod
    def erlang(cls, shape: int):
        if isinstance(shape, bool) or not isinstance(shape, int) or shape < 1:
            raise ValueError("erlang shape must be a positive integer")
        return cls("erlang", (shape,), (shape,))

    @classmethod
    def hyperexponential(cls, weights, rates):
        weights = tuple(float(w) for w in weights)
        rates = tuple(float(r) for r in rates)
        if len(weights) != len(rates) or not weights:
            raise ValueError("weights and rates must be equal-length, non-empty")
        if not all(0 < v < math.inf for v in weights + rates):
            raise ValueError("hyperexponential weights and rates must be "
                             "positive and finite")
        total = sum(weights)
        norm = tuple(w / total for w in weights)
        mean = sum(w / r for w, r in zip(norm, rates))
        scaled = tuple(r * mean for r in rates)  # rescale to mean 1
        return cls("hyperexponential", (norm, scaled), (weights, rates))

    @classmethod
    def hyperexponential_cv2(cls, cv2: float):
        """Two-phase balanced-means hyperexponential with the given squared
        coefficient of variation (> 1)."""
        if not 1 < cv2 < math.inf:
            raise ValueError("hyperexponential needs a finite cv^2 > 1")
        x = math.sqrt((cv2 - 1.0) / (cv2 + 1.0))
        p1 = 0.5 * (1.0 + x)
        p2 = 1.0 - p1
        return cls.hyperexponential((p1, p2), (2.0 * p1, 2.0 * p2))

    @classmethod
    def lognormal(cls, sigma: float):
        if not 0 < sigma < math.inf:
            raise ValueError("lognormal sigma must be positive and finite")
        return cls("lognormal", (float(sigma),), (float(sigma),))

    @classmethod
    def weibull(cls, shape: float):
        if not 0 < shape < math.inf:
            raise ValueError("weibull shape must be positive and finite")
        # A draw is E**(1/shape) / Gamma(1 + 1/shape) for a standard
        # exponential E, which numpy draws as small as about 2**-53.  Below
        # the smallest subnormal such a draw rounds to a 0.0 service time
        # (shape < ~0.052); Gamma itself overflows only deeper in that range.
        low = -math.lgamma(1.0 + 1.0 / shape) + math.log(2.0**-53) / shape
        if low < math.log(5e-324):
            raise ValueError("weibull shape too small: a service time can "
                             "round to 0")
        return cls("weibull", (float(shape),), (float(shape),))

    # -- sampling -----------------------------------------------------------

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """`size` service times as an array, from one vectorized draw."""
        if self.kind == "exponential":
            return gen.exponential(1.0, size)
        if self.kind == "deterministic":
            return np.ones(size)
        if self.kind == "erlang":
            (shape,) = self.params
            return gen.gamma(shape, 1.0 / shape, size)
        if self.kind == "hyperexponential":
            weights, rates = self.params
            comp = gen.choice(len(rates), size=size, p=weights)
            return gen.exponential(1.0, size) / np.asarray(rates)[comp]
        if self.kind == "lognormal":
            (sigma,) = self.params
            return gen.lognormal(-0.5 * sigma * sigma, sigma, size)
        if self.kind == "weibull":
            (shape,) = self.params
            # times 1/Gamma: dividing by Gamma can move a draw by an ulp
            scale = 1.0 / math.gamma(1.0 + 1.0 / shape)
            return scale * gen.weibull(shape, size)
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    # -- config-file form ---------------------------------------------------

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for key, arg in zip(SERVICE_KEYS[self.kind], self.args):
            doc[key] = list(arg) if isinstance(arg, tuple) else arg
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ServiceDistribution":
        kind = doc.get("kind")
        if kind not in SERVICE_KEYS:
            raise ValueError(f"unknown service distribution kind {kind!r}")
        keys, build = SERVICE_KEYS[kind], getattr(cls, kind)
        if kind == "hyperexponential" and "cv2" in doc:
            keys, build = ("cv2",), cls.hyperexponential_cv2
        for key in doc:
            if key != "kind" and key not in keys:
                raise ValueError(f"unexpected key {key!r}; {kind} takes "
                                 f"{list(keys)}")
        for key in keys:
            if key not in doc:
                raise ValueError(f"missing key {key!r}; {kind} takes "
                                 f"{list(keys)}")
        return build(*(doc[key] for key in keys))


# ---------------------------------------------------------------------------
# Scheduling disciplines
# ---------------------------------------------------------------------------

DISCIPLINE_KINDS = ("FIFO", "PS", "LIFO_PR")


@dataclass(frozen=True)
class Discipline:
    """A work-conserving local scheduling policy.

    FIFO serves the head of the line at rate 1; PS splits rate 1 equally;
    LIFO_PR serves the latest arrival at rate 1, preempting and later
    resuming earlier jobs.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in DISCIPLINE_KINDS:
            raise ValueError(f"unknown discipline {self.kind!r}")


FIFO = Discipline("FIFO")
PS = Discipline("PS")
LIFO_PR = Discipline("LIFO_PR")

