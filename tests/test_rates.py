import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from podd.rates import (PLUS_ONE_SHIFT, BoundInputs, arrival_rate_closed,
                        arrival_rate_hyper, arrival_rate_plus_one,
                        asymptotic_tail, cavity_rate, chaos_bound,
                        clan_growth_factor, clan_intersection_bound,
                        clan_size_bound, exact_dtype, monotone_threshold,
                        tail_count_cov_bound, uniform_rate_bound)

HALF = Fraction(1, 2)


def selection_sum(d: int, a: int, b: int):
    """Sum over split points of falling-factorial products of a and b.

    Term i multiplies the first i falling factors of a with the trailing
    d-1-i factors of b; it satisfies d! * C(b,d) = d! * C(a,d)
    + (b-a) * selection_sum(d, a, b), which is how the closed-form rate
    collapses to a difference of binomials.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    total = 0
    for i in range(d):
        term = 1
        for j in range(i):
            term *= a - j
        for j in range(i + 1, d):
            term *= b - j
        total += term
    return total


def rate(kernel, lam, *args):
    """The rate lam * P / Q of a kernel's (P, Q)."""
    return lam * Fraction(*kernel(*args))


class TestSelectionSum:
    def test_d1_is_one(self):
        assert selection_sum(1, 0, 5) == 1
        assert selection_sum(1, 3, 9) == 1

    def test_d2_hand(self):
        assert selection_sum(2, 3, 6) == 8  # (6-1) + 3

    def test_d3_hand(self):
        assert selection_sum(3, 3, 6) == 38  # 20 + 12 + 6

    @given(st.integers(1, 6), st.integers(0, 25), st.integers(1, 12))
    def test_binomial_identity(self, d, a, delta):
        b = a + delta
        assert factorial(d) * comb(b, d) == (factorial(d) * comb(a, d)
                                             + (b - a) * selection_sum(d, a, b))

    def test_invalid(self):
        with pytest.raises(ValueError):
            selection_sum(0, 1, 2)
        with pytest.raises(ValueError):
            selection_sum(2, 4, 4)


class TestArrivalRate:
    def test_everyone_at_level(self):
        # all servers hold at least k jobs, none above: per-server rate is lam
        for d in (1, 2, 3, 5):
            assert rate(arrival_rate_hyper, HALF, 8, d, 8, 0) == HALF
            assert rate(arrival_rate_closed, HALF, 8, d, 8, 0) == HALF

    def test_d2_closed_form(self):
        # lam/(N-1) * (pi_k + pi_{k+1} - 1)
        for kernel in (arrival_rate_hyper, arrival_rate_closed):
            assert math.isclose(rate(kernel, 0.5, 10, 2, 6, 3), 4 / 9,
                                rel_tol=1e-12)

    def test_enumeration_value(self):
        # N=5, D=2, pi=(3,1): direct pair enumeration gives 3/4 at lam -> 1;
        # here with lam = 1/2 the exact value is 3/8
        assert rate(arrival_rate_closed, HALF, 5, 2, 3, 1) == Fraction(3, 8)

    def test_lone_server_no_rate_without_ties(self):
        # only the tagged server sits at >= k and D > pi_k: sampling can
        # never make it the shortest candidate
        assert rate(arrival_rate_closed, HALF, 5, 2, 1, 0) == 0

    def test_exact_identity_small_grid(self):
        for n in range(2, 21):
            for d in range(1, min(6, n - 1) + 1):
                for pi_k in range(1, n + 1):
                    for pi_k1 in range(pi_k):
                        args = (n, d, pi_k, pi_k1)
                        assert (rate(arrival_rate_hyper, HALF, *args)
                                == rate(arrival_rate_closed, HALF, *args))

    def test_selection_sum_form_agrees(self):
        # lam*N*(N-D)!/N! * S^D(pi_{k+1}, pi_k) when pi_{k+1} >= D
        for n, d, pk, pk1 in [(10, 2, 7, 4), (12, 3, 9, 5), (9, 4, 8, 6)]:
            via_sum = (HALF * n * selection_sum(d, pk1, pk)
                       * Fraction(factorial(n - d), factorial(n)))
            assert rate(arrival_rate_closed, HALF, n, d, pk, pk1) == via_sum


class TestArrayKernels:
    """On integer arrays the kernels give, element by element, the ints they
    give on each row as ints: in int64 where `exact_dtype` allows it, and
    in Python ints (dtype object) at any (n, d)."""

    @given(st.integers(2, 20), st.integers(1, 20),
           st.sampled_from(["closed", "hyper", *PLUS_ONE_SHIFT]))
    def test_array_call_is_scalar_call(self, n, d, form):
        d = min(d, n)
        if form in PLUS_ONE_SHIFT:
            def kernel(*args):
                return arrival_rate_plus_one(*args, form)
        else:
            kernel = {"closed": arrival_rate_closed,
                      "hyper": arrival_rate_hyper}[form]
        rows = np.tril_indices(n + 1, -1)
        want = [kernel(n, d, k, k1)
                for k, k1 in zip(*(a.tolist() for a in rows))]
        for dtype in {exact_dtype(n, d), np.dtype(object)}:
            p, q = kernel(n, d, *(a.astype(dtype) for a in rows))
            assert all(v.dtype == dtype for v in (p, q)
                       if isinstance(v, np.ndarray))
            assert list(zip(*(np.broadcast_to(v, rows[0].shape).tolist()
                              for v in (p, q)))) == want


class TestUniformBound:
    def test_values(self):
        assert rate(uniform_rate_bound, HALF, 1) == HALF
        assert uniform_rate_bound(2) == (4, 1)
        assert uniform_rate_bound(3) == (27, 2)

    @given(st.integers(2, 25), st.integers(1, 5))
    @settings(max_examples=60)
    def test_dominates_rate(self, n, d):
        d = min(d, n)
        cap = rate(uniform_rate_bound, HALF, d)
        for pi_k in range(1, n + 1):
            for pi_k1 in range(pi_k):
                assert rate(arrival_rate_closed, HALF, n, d, pi_k, pi_k1) <= cap


class TestPlusOneRate:
    def test_worked_example_above(self):
        # at lam -> 1 the three relations give 1.0 / 0.8 / 0.6; scaled by 1/2
        for rel, want in [("above", Fraction(1, 2)), ("equal", Fraction(2, 5)),
                          ("below", Fraction(3, 10))]:
            assert rate(arrival_rate_plus_one, HALF, 5, 2, 3, 1, rel) == want

    def test_consistency_with_closed_at_n_plus_one(self):
        for n in range(2, 25):
            for d in range(1, min(5, n) + 1):
                for pi_k in range(1, n + 1):
                    for pi_k1 in range(pi_k):
                        for rel, (up_k, up_k1) in PLUS_ONE_SHIFT.items():
                            assert (rate(arrival_rate_plus_one, HALF,
                                         n, d, pi_k, pi_k1, rel)
                                    == rate(arrival_rate_closed, HALF, n + 1, d,
                                            pi_k + up_k, pi_k1 + up_k1)), \
                                (n, d, pi_k, pi_k1, rel)

    def test_stream_rate_identity(self):
        # shared + private-large stream rates total lam*(N+1)
        lam, n, d = Fraction(3, 10), 17, 4
        assert lam * n - (d - 1) * lam + lam * d == lam * (n + 1)

    def test_above_monotone(self):
        assert (rate(arrival_rate_plus_one, HALF, 10, 2, 6, 5, "above")
                >= rate(arrival_rate_closed, HALF, 10, 2, 6, 5))

    def test_equal_can_decrease(self):
        # documented counterexample: the added server dilutes the sampling
        # pool faster than the extra stream compensates
        assert rate(arrival_rate_closed, HALF, 10, 2, 6, 5) == Fraction(5, 9)
        assert (rate(arrival_rate_plus_one, HALF, 10, 2, 6, 5, "equal")
                == Fraction(11, 20))

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            arrival_rate_plus_one(5, 2, 3, 1, "sideways")


def brute_force_rate(lengths, tagged, d, lam):
    """Arrival rate to `tagged` by enumeration: lam * len(lengths) arrivals per
    unit time, each samples a uniform d-subset and joins its shortest queue,
    ties split uniformly."""
    n = len(lengths)
    hit = Fraction(0)
    for subset in combinations(range(n), d):
        if tagged not in subset:
            continue
        low = min(lengths[s] for s in subset)
        if lengths[tagged] == low:
            hit += Fraction(1, sum(lengths[s] == low for s in subset))
    return lam * n * hit / comb(n, d)


def occupancy_lengths(n, pi_k, pi_k1):
    """Explicit queue lengths for an occupancy at tagged level k = 2, tagged
    server first; servers off the level sit at mixed heights above or below."""
    above = [3 + s % 2 for s in range(pi_k1)]
    below = [s % 2 for s in range(n - pi_k)]
    return [2] * (pi_k - pi_k1) + above + below


class TestBruteForceOracle:
    # ground truth that shares no formula with the kernels: every d-subset
    # of an explicit length vector, exact Fractions throughout
    EXTRA_LENGTH = {"above": 3, "equal": 2, "below": 1}

    def test_kernels_match_enumeration(self):
        checked = 0
        for n in range(2, 8):
            for d in range(1, n + 1):
                for pi_k in range(1, n + 1):
                    for pi_k1 in range(pi_k):
                        args = (n, d, pi_k, pi_k1)
                        lengths = occupancy_lengths(n, pi_k, pi_k1)
                        want = brute_force_rate(lengths, 0, d, HALF)
                        assert rate(arrival_rate_closed, HALF, *args) == want, args
                        for rel, extra in self.EXTRA_LENGTH.items():
                            want = brute_force_rate(lengths + [extra], 0, d, HALF)
                            assert (rate(arrival_rate_plus_one, HALF, *args, rel)
                                    == want), (*args, rel)
                        checked += 1
        assert checked == sum(n * n * (n + 1) // 2 for n in range(2, 8))


class TestMonotoneThreshold:
    def test_values(self):
        assert monotone_threshold(2) == 2
        assert monotone_threshold(3) == 5
        assert monotone_threshold(4) == 8

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            monotone_threshold(1)


class TestClanBounds:
    B = BoundInputs(100, 2, 0.5, 1.0)

    def test_growth_at_zero(self):
        assert clan_growth_factor(BoundInputs(100, 2, 0.5, 0.0)) == 1.0

    def test_growth_value(self):
        assert math.isclose(clan_growth_factor(self.B), math.exp(200 / 98),
                            rel_tol=1e-15)
        assert math.isclose(clan_growth_factor(self.B), 7.696889810370731,
                            rel_tol=1e-12)

    def test_size_bound_value(self):
        assert clan_size_bound(BoundInputs(100, 2, 0.5, 0.0)) == 1.0
        assert math.isclose(clan_size_bound(self.B), 7.213790227672229,
                            rel_tol=1e-12)

    def test_size_bound_ceiling(self):
        for t in (0.1, 1.0, 10.0, 100.0):
            v = clan_size_bound(BoundInputs(50, 3, 0.9, t))
            assert 1.0 <= v <= 50.0

    def test_growth_monotone_in_t(self):
        vals = [clan_growth_factor(BoundInputs(100, 2, 0.5, t))
                for t in (0.0, 0.5, 1.0, 2.0)]
        assert vals == sorted(vals)

    def test_intersection_value(self):
        assert clan_intersection_bound(BoundInputs(100, 2, 0.5, 0.0)) == 0.0
        assert math.isclose(clan_intersection_bound(self.B),
                            0.6162062830068538, rel_tol=1e-12)

    def test_intersection_vanishes_in_n(self):
        vals = [clan_intersection_bound(BoundInputs(n, 2, 0.5, 1.0))
                for n in (100, 1000, 10000)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("t", [352.0, 354.0])
    def test_growth_near_float_range(self, t):
        # e^704.7 and e^708.7 are finite, but n u passes the float range at
        # n = 2000: the size bound is n, and no bound is negative
        inp = BoundInputs(2000, 2, 0.5, t)
        assert math.isfinite(clan_growth_factor(inp))
        assert clan_size_bound(inp) == 2000.0
        assert clan_intersection_bound(inp) > 0
        assert chaos_bound(inp) > 0
        assert tail_count_cov_bound(inp) > 0

    @pytest.mark.parametrize("t", [352.0, 354.0])
    def test_log_bracket_past_float_range(self, t):
        # n u passes the float range though u does not; against the bounds
        # in 60-digit decimal arithmetic
        n, d = 2000, 2
        inp = BoundInputs(n, d, 0.5, t)
        with localcontext() as ctx:
            ctx.prec = 60
            u = (2 ** (d - 1) * Decimal("0.5") * d * n * Decimal(t)
                 / (n - d)).exp()
            bracket = (n * ((n + u - 1) / n).ln()
                       - (n - 1) * (u - 1) / (n + u - 1))
            bound = Decimal("1.5") ** d * n / (n - d) * bracket
            intersect = float(bound)
            tail = float(2 * n * (n - 1) * bound + n)
        assert math.isclose(clan_intersection_bound(inp), intersect,
                            rel_tol=1e-12)
        assert math.isclose(chaos_bound(inp), 1 / n + 2 * intersect,
                            rel_tol=1e-12)
        assert math.isclose(tail_count_cov_bound(inp), tail, rel_tol=1e-12)

    # u near 1, where the two terms of the log bracket share their leading
    # digits: n ln((n+u-1)/n) and (n-1)(u-1)/(n+u-1) in floats read the
    # first bound 5.4% high and the third 1.2e-6 low; the tolerance allows
    # the digits that cancelling x against x (1 - 1/n) costs at n = 10^6
    @pytest.mark.parametrize("n,d,t", [(10**6, 2, 1e-3), (10**4, 3, 1e-6),
                                       (200, 2, 1e-6), (2000, 2, 1.0)])
    def test_intersection_near_u_1(self, n, d, t):
        with localcontext() as ctx:
            ctx.prec = 80
            u = (2 ** (d - 1) * Decimal("0.5") * d * n * Decimal(t)
                 / (n - d)).exp()
            bracket = (n * ((n + u - 1) / n).ln()
                       - (n - 1) * (u - 1) / (n + u - 1))
            want = float(Decimal("1.5") ** d * n / (n - d) * bracket)
        got = clan_intersection_bound(BoundInputs(n, d, 0.5, t))
        assert math.isclose(got, want, rel_tol=1e-9)

    def test_needs_room(self):
        with pytest.raises(ValueError):
            clan_size_bound(BoundInputs(3, 3, 0.5, 1.0))

    # every bound needs n > d >= 1, so the inputs refuse to be built
    @pytest.mark.parametrize("n,d", [(3, 3), (2, 5), (5, 0)])
    def test_inputs_need_room(self, n, d):
        with pytest.raises(ValueError, match="n > d >= 1"):
            BoundInputs(n, d, 0.5, 1.0)


class TestChaosBounds:
    def test_at_zero(self):
        assert chaos_bound(BoundInputs(100, 2, 0.5, 0.0)) == 1 / 100

    def test_value(self):
        v = chaos_bound(BoundInputs(100, 2, 0.5, 1.0))
        assert math.isclose(v, 1.2424125660137075, rel_tol=1e-12)
        assert v > 1.0  # vacuous at small N, as expected

    def test_tail_cov_bound(self):
        assert tail_count_cov_bound(BoundInputs(100, 2, 0.5, 0.0)) == 100.0
        v = tail_count_cov_bound(BoundInputs(100, 2, 0.5, 1.0))
        # same bracket as the normalized bound, scaled by N^2(N-1)/N, plus N
        bracket = (chaos_bound(BoundInputs(100, 2, 0.5, 1.0)) - 1 / 100) / 2
        assert math.isclose(v, 2 * bracket * 100 * 99 + 100, rel_tol=1e-12)

    # n + 2 n (n-1) (3/2)^d n/(n-d) [bracket] in 80-digit decimal, at the
    # float loads' exact values; the intersection bound's error near u = 1
    # (5.7e-13 at n = 10^6) is the tail bound's
    @pytest.mark.parametrize("n,d,lam,t", [
        (10**6, 2, 0.5, 1e-3), (10**4, 3, 0.5, 1e-6), (2000, 2, 0.5, 1.0),
        (20, 2, 0.3, 1.0), (5, 3, 0.9, 0.5), (1000, 5, 0.7, 0.01)])
    def test_tail_cov_bound_against_decimal(self, n, d, lam, t):
        with localcontext() as ctx:
            ctx.prec = 80
            u = (2 ** (d - 1) * Decimal(lam) * d * n * Decimal(t)
                 / (n - d)).exp()
            bracket = (n * ((n + u - 1) / n).ln()
                       - (n - 1) * (u - 1) / (n + u - 1))
            want = float(n + 2 * n * (n - 1) * Decimal("1.5") ** d * n
                         / (n - d) * bracket)
        got = tail_count_cov_bound(BoundInputs(n, d, lam, t))
        assert math.isclose(got, want, rel_tol=1e-11)


class TestAsymptoticTail:
    def test_base(self):
        assert asymptotic_tail(2, 0.5, 0) == 1.0

    def test_known_values(self):
        assert asymptotic_tail(2, 0.5, 1) == 0.5
        assert asymptotic_tail(2, 0.5, 2) == 0.125
        assert asymptotic_tail(2, 0.5, 3) == 0.0078125
        assert math.isclose(asymptotic_tail(2, 0.7, 2), 0.343, rel_tol=1e-12)

    def test_d1_is_geometric(self):
        assert asymptotic_tail(1, 0.7, 3) == 0.7**3

    def test_deep_levels_vanish(self):
        # the exponent (3^40 - 1)/2 is about 6e18: the power underflows to 0
        assert asymptotic_tail(3, 0.9, 40) == 0.0

    @given(st.integers(2, 5), st.floats(0.05, 0.95), st.integers(0, 6))
    @example(4, 0.5873926739235202, 5)   # p_6 = 3.8675636e-316, subnormal
    @settings(max_examples=80)
    def test_recursion(self, d, lam, k):
        # a subnormal carries fewer digits, so there the two sides may
        # differ by one subnormal spacing, far past rel_tol
        p_k = asymptotic_tail(d, lam, k)
        p_k1 = asymptotic_tail(d, lam, k + 1)
        assert math.isclose(p_k1, lam * p_k**d, rel_tol=1e-9,
                            abs_tol=2 * math.ulp(0.0))


class TestCavityRate:
    def test_full_tail(self):
        for d in (1, 2, 4):
            assert cavity_rate(d, 0.5, 1.0, 0.0) == 0.5

    def test_hand_value(self):
        assert math.isclose(cavity_rate(2, 0.5, 0.5, 0.125), 0.3125, rel_tol=1e-12)

    def test_diagonal_extension(self):
        assert cavity_rate(2, 0.5, 1.0, 1.0) == 1.0  # 2 * lam * p

    @given(st.integers(1, 5), st.floats(0.05, 0.95),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_range_and_cap(self, d, lam, x, y):
        p_k, p_k1 = max(x, y), min(x, y)
        v = cavity_rate(d, lam, p_k, p_k1)
        assert 0.0 <= v <= lam * d + 1e-12
        assert v <= lam * d * p_k ** (d - 1) + 1e-12

    def test_flux_identity_exact(self):
        lam = Fraction(7, 10)
        for d in range(2, 6):
            for k in range(0, 8):
                e = lambda j: lam ** ((d**j - 1) // (d - 1))
                pk, pk1, pk2 = e(k), e(k + 1), e(k + 2)
                assert cavity_rate(d, lam, pk, pk1) * (pk - pk1) == pk1 - pk2
