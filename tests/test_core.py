import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podd.core import (Configuration, Discipline, FIFO, LIFO_PR, PS,
                       RngStream, ServiceDistribution,
                       tail_counts_from_lengths)


def variance(dist: ServiceDistribution) -> float:
    """The analytic variance of a mean-1 service distribution."""
    if dist.kind == "exponential":
        return 1.0
    if dist.kind == "deterministic":
        return 0.0
    if dist.kind == "erlang":
        (shape,) = dist.params
        return 1.0 / shape
    if dist.kind == "hyperexponential":
        weights, rates = dist.params
        second = sum(2.0 * w / (r * r) for w, r in zip(weights, rates))
        return second - 1.0
    if dist.kind == "lognormal":
        (sigma,) = dist.params
        return math.exp(sigma * sigma) - 1.0
    if dist.kind == "weibull":
        (shape,) = dist.params
        scale = 1.0 / math.gamma(1.0 + 1.0 / shape)
        return scale * scale * math.gamma(1.0 + 2.0 / shape) - 1.0
    raise ValueError(f"unknown distribution kind {dist.kind!r}")


def config_from_lengths(lengths):
    return Configuration.from_lengths(
        lengths, ServiceDistribution.exponential(), RngStream(0))


class TestTailCounts:
    def test_all_empty(self):
        tc = tail_counts_from_lengths(Configuration.empty(3).lengths(), 2)
        assert tc.pi == (3, 0, 0)

    def test_hand_count(self):
        # lengths (3, 1, 2): one server >= 3, two >= 2, all >= 1
        tc = tail_counts_from_lengths(config_from_lengths([3, 1, 2]).lengths(), 3)
        assert tc.pi == (3, 3, 2, 1)

    def test_uniform_level(self):
        k = 4
        tc = tail_counts_from_lengths(config_from_lengths([k] * 7).lengths(), 6)
        assert tc.pi == (7, 7, 7, 7, 7, 0, 0)

    def test_get_past_end_is_zero(self):
        tc = tail_counts_from_lengths(Configuration.empty(3).lengths(), 1)
        assert tc.get(17) == 0

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=20))
    def test_monotone_and_top(self, lengths):
        tc = tail_counts_from_lengths(config_from_lengths(lengths).lengths(), 8)
        assert tc.pi[0] == len(lengths)
        assert all(a >= b for a, b in zip(tc.pi, tc.pi[1:]))

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=15))
    def test_level_counts(self, lengths):
        # integer identity: pi_k - pi_{k+1} is the number of servers at level k
        tc = tail_counts_from_lengths(config_from_lengths(lengths).lengths(), 7)
        for k in range(8):
            assert tc.get(k) - tc.get(k + 1) == lengths.count(k)


class TestJobs:
    def test_residual_positive(self):
        class Zero:
            def sample(self, gen, size):
                return np.zeros(size)

        with pytest.raises(ValueError, match="residual must be positive"):
            Configuration.from_lengths([0, 1], Zero(), RngStream(0))

    def test_residuals_drawn_server_by_server(self):
        dist = ServiceDistribution.exponential()
        cfg = Configuration.from_lengths([2, 0, 1], dist, RngStream(3))
        gen = RngStream(3).generator()
        want = [float(dist.sample(gen, 1)[0]) for _ in range(3)]
        assert cfg.queues == [want[:2], [], want[2:]]
        assert cfg.lengths() == [2, 0, 1]

    def test_config_needs_dist_for_jobs(self):
        with pytest.raises(ValueError):
            Configuration.from_lengths([1, 0])

    # the constructor took these, and the run started with the job gone
    # (its due time clamped to 0) or, for 0.0, still queued at t = 0
    @pytest.mark.parametrize("queues", [[[math.nan], []], [[-1.0], []],
                                        [[0.0], [2.0]], [[1.0], [math.inf]]],
                             ids=["nan", "negative", "zero", "inf"])
    def test_constructor_rejects_bad_residual(self, queues):
        with pytest.raises(ValueError, match="positive and finite"):
            Configuration(queues)


DISTS = [
    ServiceDistribution.exponential(),
    ServiceDistribution.deterministic(),
    ServiceDistribution.erlang(4),
    ServiceDistribution.hyperexponential_cv2(4.0),
    ServiceDistribution.hyperexponential([0.9, 0.1], [2.0, 0.4]),
    ServiceDistribution.lognormal(0.8),
    ServiceDistribution.weibull(1.7),
]


class TestServiceDistributions:
    # the only constructor whose mean-1 rescale is not exact by construction
    @pytest.mark.parametrize(
        "dist", [d for d in DISTS if d.kind == "hyperexponential"],
        ids=lambda d: d.kind)
    def test_analytic_mean_is_one(self, dist):
        weights, rates = dist.params
        assert abs(sum(w / r for w, r in zip(weights, rates)) - 1.0) < 1e-12

    def test_deterministic_is_exact(self):
        d = ServiceDistribution.deterministic()
        assert d.sample(RngStream(1).generator(), 1)[0] == 1.0

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_sample_is_sized_array(self, dist):
        x = dist.sample(RngStream(15).generator(), 7)
        assert isinstance(x, np.ndarray) and x.shape == (7,)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_initial_work_is_one_draw(self, dist):
        # one sized draw split server by server, so the initial work of a
        # law has the same stream as its service times in a run
        cfg = Configuration.from_lengths([3, 0, 2, 1], dist, RngStream(16))
        work = dist.sample(RngStream(16).generator(), 6).tolist()
        assert cfg.queues == [work[:3], [], work[3:5], work[5:]]

    def test_exponential_sample_mean(self):
        gen = RngStream(11).child("mean").generator()
        x = ServiceDistribution.exponential().sample(gen, 10**6)
        assert 0.99 < x.mean() < 1.01

    def test_erlang_variance(self):
        gen = RngStream(12).child("var").generator()
        x = ServiceDistribution.erlang(4).sample(gen, 10**6)
        assert abs(x.var() - 0.25) < 0.01
        assert variance(ServiceDistribution.erlang(4)) == 0.25

    def test_hyperexponential_cv2(self):
        d = ServiceDistribution.hyperexponential_cv2(4.0)
        assert abs(variance(d) - 4.0) < 1e-9
        gen = RngStream(13).generator()
        x = d.sample(gen, 10**6)
        assert abs(x.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_sample_mean_matches(self, dist):
        gen = RngStream(14).child(dist.kind).generator()
        x = dist.sample(gen, 200_000)
        tol = 0.01 + 0.02 * math.sqrt(max(variance(dist), 1.0))
        assert abs(float(np.mean(x)) - 1.0) < tol

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    def test_json_round_trip(self, dist):
        assert ServiceDistribution.from_json(dist.to_json()) == dist

    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
                    min_size=1, max_size=4))
    def test_hyperexponential_round_trip_is_fixed(self, phases):
        # the config form a manifest writes must parse back to the same
        # params and write the same config form again
        dist = ServiceDistribution.hyperexponential(*zip(*phases))
        doc = json.loads(json.dumps(dist.to_json()))
        again = ServiceDistribution.from_json(doc)
        assert again.params == dist.params
        assert again.to_json() == doc

    @pytest.mark.parametrize("doc,want", [
        ({"kind": "exponential"}, {"kind": "exponential"}),
        ({"kind": "deterministic"}, {"kind": "deterministic"}),
        ({"kind": "erlang", "shape": 4}, {"kind": "erlang", "shape": 4}),
        ({"kind": "hyperexponential", "cv2": 4},
         {"kind": "hyperexponential",
          "weights": [0.8872983346207417, 0.1127016653792583],
          "rates": [1.7745966692414834, 0.2254033307585166]}),
        ({"kind": "hyperexponential", "weights": [1, 3], "rates": [2, 0.5]},
         {"kind": "hyperexponential", "weights": [1.0, 3.0],
          "rates": [2.0, 0.5]}),
        ({"kind": "lognormal", "sigma": 1}, {"kind": "lognormal", "sigma": 1.0}),
        ({"kind": "weibull", "shape": 2}, {"kind": "weibull", "shape": 2.0}),
    ], ids=["exponential", "deterministic", "erlang", "hyperexp-cv2",
            "hyperexp-phases", "lognormal", "weibull"])
    def test_config_form(self, doc, want):
        # the values and key order a manifest's spec has always held
        got = ServiceDistribution.from_json(doc).to_json()
        assert got == want and list(got) == list(want)
        assert all(type(got[k]) is type(want[k]) for k in want)

    @pytest.mark.parametrize("doc,key", [
        ({"kind": "erlang", "shape": 4, "sigma": 1.0}, "sigma"),
        ({"kind": "exponential", "rate": 2.0}, "rate"),
        ({"kind": "hyperexponential", "cv2": 4, "weights": [1],
          "rates": [5]}, "weights"),
    ], ids=["erlang-sigma", "exponential-rate", "hyperexp-cv2-and-phases"])
    def test_unexpected_key_rejected(self, doc, key):
        with pytest.raises(ValueError, match=f"unexpected key '{key}'"):
            ServiceDistribution.from_json(doc)

    @pytest.mark.parametrize("doc,key", [
        ({"kind": "erlang"}, "shape"),
        ({"kind": "hyperexponential", "weights": [1]}, "rates"),
    ], ids=["erlang-shape", "hyperexp-rates"])
    def test_missing_key_rejected(self, doc, key):
        with pytest.raises(ValueError,
                           match=f"missing key '{key}'; {doc['kind']} takes"):
            ServiceDistribution.from_json(doc)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ServiceDistribution.erlang(0)
        with pytest.raises(ValueError):
            ServiceDistribution.hyperexponential([1.0], [-2.0])
        with pytest.raises(ValueError):
            ServiceDistribution.hyperexponential_cv2(0.5)
        for doc in ({"kind": "lognormal", "sigma": math.nan},
                    {"kind": "erlang", "shape": 2.5},
                    {"kind": "erlang", "shape": True},
                    {"kind": "hyperexponential", "cv2": math.inf},
                    {"kind": "hyperexponential", "cv2": math.nan},
                    {"kind": "hyperexponential", "weights": [1.0],
                     "rates": [math.inf]},
                    {"kind": "weibull", "shape": 0.005}):
            with pytest.raises(ValueError):
                ServiceDistribution.from_json(doc)


class TestRngStream:
    def test_replay(self):
        a = RngStream(99).child("x", 3).generator().random(32)
        b = RngStream(99).child("x", 3).generator().random(32)
        assert (a == b).all()

    def test_distinct_paths_differ(self):
        a = RngStream(99).child("x", 3).generator().random(8)
        b = RngStream(99).child("x", 4).generator().random(8)
        c = RngStream(99).child("y", 3).generator().random(8)
        assert not (a == b).all()
        assert not (a == c).all()

    def test_schedule_independence(self):
        # children can be created in any order without changing their draws
        root = RngStream(5)
        first = root.child("rep", 7).generator().random(4)
        _ = root.child("rep", 2).generator().random(4)
        again = root.child("rep", 7).generator().random(4)
        assert (first == again).all()

    @pytest.mark.parametrize("a,b", [
        # crc32 of both labels is 0x4ddb0c25
        (RngStream(1).child("plumless"), RngStream(1).child("buckeroo")),
        (RngStream(1).child("a", 0), RngStream(1).child("a", 2**32)),
    ], ids=["crc32-collision", "index-past-32-bits"])
    def test_paths_that_used_to_alias(self, a, b):
        assert a.generator().random() != b.generator().random()

    # RngStream(2**64 + 5) drew the numbers of RngStream(5)
    @pytest.mark.parametrize("stream", [
        RngStream(2**64 + 5), RngStream(-1),
        RngStream(5).child("a", 2**64), RngStream(5).child("a", -1),
    ], ids=["seed-2**64+5", "seed-negative", "index-2**64", "index-negative"])
    def test_keys_outside_64_bits_rejected(self, stream):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            stream.generator()

    def test_largest_keys_accepted(self):
        RngStream(2**64 - 1).child("a", 2**64 - 1).generator()


class TestDiscipline:
    def test_known_kinds(self):
        assert Discipline("PS") == PS
        assert FIFO.kind == "FIFO" and LIFO_PR.kind == "LIFO_PR"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Discipline("ROS")
