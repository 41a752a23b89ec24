"""Closed-form arrival rates and correlation bounds for JSQ(D) systems.

Every function here is a pure function of its inputs.  Each rate formula is
one function of (n, d, pi_k, pi_k1) that reduces its combinatorial sum to one
ratio (P, Q) with Q > 0 (the 1/i terms share the denominator L = lcm(1..d)),
so the rate at load lam is lam * P / Q.  n and d are ints; pi_k and pi_k1 are
ints, giving P and Q as Python ints, or integer arrays of one shape, on which
the same formula runs elementwise (`_comb` looks C(x, r) up in a cached
table) and gives P and Q in the arrays' dtype.  The rate functions check
nothing: callers keep 1 <= d <= n and 0 <= pi_k1 < pi_k <= n.  Since lam > 0
scales both sides, two rates at one load compare exactly as P1 * Q2 against
P2 * Q1.  lam * Fraction(P, Q) is the rate exactly for a `Fraction` load,
which the test suite uses as its arbitrary-precision oracle; for a float
load, lam * (P / Q) rounds the ratio once to the nearest float and then
multiplies by lam, so it is within two roundings (relative error below
2.3e-16) of the exact rate at that load.

An int64 array wraps silently on overflow, so `exact_dtype(n, d)` picks int64
for a cell only where the bound below keeps every value under 2**63, and
dtype object (Python ints, exact at any size) elsewhere.  With C = C(n+1, d),
every term the formulas add is non-negative, so each partial sum is at most
the P or Q it builds, and by Vandermonde's identity:
- closed form, n servers: P, Q <= n C(n, d) <= n C; at n+1: P, Q <= (n+1) C;
- hypergeometric form: P <= n L C(pi_k - 1, d - 1) <= n L C, Q = L C(n, d);
- (n+1)-system form: Q <= n L C(n, d) and, as its extra sum is at most
  L C(pi_k - 1, d - 2) and (n-d+1) n C(n-1, d-2) = d (d-1) C(n, d),
  P <= L C(n, d) (n + (d-1)^2) <= n (n+1) L C.
So every cross product of two rates is at most n (n+1)^2 L C^2, and one with
the uniform bound (d^d, (d-1)!) at most d^d (n+1) C.  A comb-table entry is
C(v, r) with v <= n+1 and r <= d: at most C where 2d <= n+1, and elsewhere at
most 2^(n+1) <= 2^(d-1) 4^k <= L C^2 with k = n+1-d >= 1, as
lcm(1..d) >= 2^(d-1) and C = C(n+1, k) >= 2^k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import comb

import numpy as np

# Shift of (pi_k, pi_k1) when the (n+1)-th server is counted at its position
# relative to the tagged level: below it, at it or above it.
PLUS_ONE_SHIFT = {"below": (0, 0), "equal": (1, 0), "above": (1, 1)}


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of the correlation / clan bounds at a time horizon.  Every
    bound needs n > d, so building the inputs checks it."""

    n: int
    d: int
    lam: float
    t: float

    def __post_init__(self):
        if not self.n > self.d >= 1:
            raise ValueError("need n > d >= 1")
        if not 0 < self.lam < 1:
            raise ValueError("load must lie in (0, 1)")
        if self.t < 0:
            raise ValueError("time must be non-negative")


# ---------------------------------------------------------------------------
# Per-server arrival rates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _lcm_upto(d: int) -> int:
    return math.lcm(*range(1, d + 1))


@lru_cache(maxsize=256)
def _comb_table(r: int, size: int, dtype: np.dtype) -> np.ndarray:
    return np.array([comb(v, r) for v in range(size)], dtype=dtype)


def _comb(x, r: int):
    """C(x, r) for an int x >= 0, or elementwise, in x's dtype, for an
    array x of ints >= 0 (int64, or object holding Python ints)."""
    if not isinstance(x, np.ndarray):
        return comb(x, r)
    idx = x.astype(np.intp, copy=False)
    return _comb_table(r, int(idx.max(initial=0)) + 1, x.dtype)[idx]


def exact_dtype(n: int, d: int) -> np.dtype:
    """The dtype that keeps the (n, d) cell's rates, and every cross product
    of them that rates-check forms, exact: int64 where the bounds in the
    module docstring are below 2**63, else object (Python ints)."""
    c = comb(n + 1, d)
    bound = max(n * (n + 1) ** 2 * _lcm_upto(d) * c * c, d**d * (n + 1) * c)
    return np.dtype(np.int64 if bound < 2**63 else object)


def arrival_rate_hyper(n: int, d: int, pi_k: int, pi_k1: int) -> tuple[int, int]:
    """Arrival rate to the tagged server, as the explicit sum over how many of
    the d sampled servers sit at the tagged level (hypergeometric weights).

    `pi_k` / `pi_k1` are the numbers of servers at level >= k and >= k+1 (the
    tagged server sits at exactly level k, so pi_k1 < pi_k).  Returns (P, Q)
    with the rate lam * P / Q."""
    gap = pi_k - pi_k1
    top = _lcm_upto(d)      # sum_i w_i / i = total / top
    total = 0
    for i in range(1, d + 1):
        total += _comb(gap - 1, i - 1) * _comb(pi_k1, d - i) * (top // i)
    return n * total, comb(n, d) * top


def arrival_rate_closed(n: int, d: int, pi_k: int, pi_k1: int) -> tuple[int, int]:
    """Same rate via the binomial-difference form, valid for every admissible
    occupancy under the convention C(n, r) = 0 outside 0 <= r <= n; (P, Q)
    with the rate lam * P / Q."""
    return n * (_comb(pi_k, d) - _comb(pi_k1, d)), comb(n, d) * (pi_k - pi_k1)


def uniform_rate_bound(d: int) -> tuple[int, int]:
    """(d^d, (d-1)!): lam * d^d / (d-1)! dominates the arrival rate for every
    system size and occupancy."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return d**d, math.factorial(d - 1)


def monotone_threshold(d: int) -> int:
    """System size 3d - 4 from which the (n+1)-system rate is claimed to
    dominate the n-system rate when the extra server sits above the tagged
    level.  The claim is for that placement only: an extra server at or below
    the tagged level can lower the rate at any system size."""
    if d < 2:
        raise ValueError("threshold is defined for d >= 2")
    return 3 * d - 4


def arrival_rate_plus_one(n: int, d: int, pi_k: int, pi_k1: int,
                          relation: str) -> tuple[int, int]:
    """Arrival rate to the tagged server in the (n+1)-server system, written
    in terms of the first n servers' occupancy plus the relation ("below",
    "equal" or "above") of the extra server's queue length to the tagged
    level; (P, Q) with the rate lam * P / Q.

    The shared-stream ("yellow") term is always present; an extra term is
    added when the new server sits strictly above the tagged level or exactly
    at it.  A strictly shorter extra server absorbs every arrival that samples
    it, so it contributes nothing.

    The yellow term is the n-system rate times (n-d+1)/n, and the extra term
    carries d / C(n, d-1) = (n-d+1) / C(n, d), so with Delta = C(pi_k, d) -
    C(pi_k1, d), gap g and extra sum E the rate is
    lam * (n-d+1) * (Delta/g + E) / C(n, d).
    """
    gap = pi_k - pi_k1
    delta = _comb(pi_k, d) - _comb(pi_k1, d)
    if relation == "below":
        return (n - d + 1) * delta, comb(n, d) * gap
    top = _lcm_upto(d)      # E = extra / top
    extra = 0
    if relation == "above":
        # i = d would need C(pi_k1, -1), which vanishes by convention
        for i in range(1, d):
            extra += (_comb(gap - 1, i - 1) * _comb(pi_k1, d - 1 - i)
                      * (top // i))
    elif relation == "equal":
        for i in range(2, d + 1):
            extra += (_comb(gap - 1, i - 2) * _comb(pi_k1, d - i)
                      * (top // i))
    else:
        raise ValueError(f"relation must be one of {tuple(PLUS_ONE_SHIFT)}")
    return ((n - d + 1) * (delta * top + extra * gap),
            comb(n, d) * gap * top)


# ---------------------------------------------------------------------------
# Clan and correlation bounds
# ---------------------------------------------------------------------------

def _inf_past_float_range(bound):
    """The bounds' one overflow rule: where a step (`math.exp`,
    `math.ldexp`, a float power) leaves the float range, the bound reads
    inf.  It wraps the growth factor and the intersection bound, and the
    size, covariance and tail bounds read their inf from those two.  Where
    the (3/2)^d factor multiplies 0, as at t = 0, the intersection bound
    skips it: from d = 1751 the factor is past the float range."""
    @wraps(bound)
    def checked(inp):
        try:
            return bound(inp)
        except OverflowError:
            return math.inf
    return checked


def _growth_exponent(inp: BoundInputs) -> float:
    # ldexp scales by 2^(d-1) exactly; the int 2 ** (d - 1) is past the
    # float range from d = 1025, even at t = 0
    return math.ldexp(inp.lam * inp.d * inp.n * inp.t / (inp.n - inp.d),
                      inp.d - 1)


@_inf_past_float_range
def clan_growth_factor(inp: BoundInputs) -> float:
    """Exponential envelope exp(2^(d-1) * lam * d * n * t / (n-d)) driving the
    clan-size logistic bound."""
    return math.exp(_growth_exponent(inp))


def clan_size_bound(inp: BoundInputs) -> float:
    """Logistic ceiling on the expected number of servers whose history can
    influence a given server over the last t time units."""
    u = clan_growth_factor(inp)
    if math.isinf(inp.n * u):    # then n u / (n + u - 1) rounds to n
        return float(inp.n)
    return inp.n * u / (inp.n + u - 1.0)


def _log_bracket(inp: BoundInputs) -> float:
    """n ln((n+u-1)/n) - (n-1)(u-1)/(n+u-1) for the growth factor u, as
    n ln(1 + x/n) - (n-1)/(1 + n/x) in x = u - 1 taken from `math.expm1`:
    where u is near 1, u - 1 and ln of a ratio near 1 would lose most of
    their digits, and where n u passes the float range no step here does.
    Raises OverflowError where u is past the float range."""
    x = math.expm1(_growth_exponent(inp))
    if x == 0.0:    # t = 0
        return 0.0
    n = inp.n
    return n * math.log1p(x / n) - (n - 1.0) / (1.0 + n / x)


@_inf_past_float_range
def clan_intersection_bound(inp: BoundInputs) -> float:
    """Upper bound on the probability that the influence clans of two distinct
    servers overlap."""
    bracket = _log_bracket(inp)
    if bracket == 0.0:    # t = 0
        return 0.0
    return (1.5 ** inp.d) * float(inp.n) / (inp.n - inp.d) * bracket


def chaos_bound(inp: BoundInputs) -> float:
    """Bound on the covariance of two entries of the empirical measure:
    1/n plus twice the clan-intersection bound."""
    return 1.0 / inp.n + 2.0 * clan_intersection_bound(inp)


def tail_count_cov_bound(inp: BoundInputs) -> float:
    """Covariance bound for the raw (non-normalized) tail counts:
    n + 2 n (n-1) times the clan-intersection bound."""
    n = inp.n
    return n + 2.0 * n * (n - 1.0) * clan_intersection_bound(inp)


# ---------------------------------------------------------------------------
# Large-system limits
# ---------------------------------------------------------------------------

def asymptotic_tail(d: int, lam: float, k: int):
    """Limiting fraction of servers with at least k jobs:
    lam^((d^k - 1)/(d - 1)), degenerating to lam^k for plain random routing."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < lam < 1:
        raise ValueError("load must lie in (0, 1)")
    if k < 0:
        raise ValueError("level must be non-negative")
    if d == 1:
        return lam ** k
    try:
        return lam ** ((d**k - 1) // (d - 1))
    except OverflowError:
        # a float load: the exponent is past float range, where the true
        # tail underflows anyway
        return 0.0


def cavity_rate(d: int, lam, p_k, p_k1):
    """Limiting per-server arrival rate at a level with tail fractions p_k and
    p_{k+1}: lam * (p_k^d - p_{k+1}^d) / (p_k - p_{k+1}), continuously
    extended to lam * d * p^(d-1) on the diagonal.

    The quotient is summed as sum_{i<d} p_k^i p_{k+1}^(d-1-i) rather than
    divided out: the difference form cancels near the diagonal and, with
    subnormal tails, rounds lam * (p_k^d - p_{k+1}^d) before the division,
    so it can exceed the cap lam * d * p_k^(d-1). The sum is monotone in both
    arguments in floating point and exact on Fractions."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 <= p_k1 <= p_k <= 1:
        raise ValueError("need 0 <= p_k1 <= p_k <= 1")
    s = pw = 1
    for _ in range(d - 1):
        pw = pw * p_k
        s = s * p_k1 + pw
    return lam * s
