"""Acceptance gate: twelve numbered end-to-end checks.

Each test prints a single [PASS]/[FAIL] line (visible under `pytest -s`).
Criterion 2 compares the N- and (N+1)-server rates for each placement of the
added server: dominance when it sits above level k, the exact ratio
(N+1-D)/N when it sits below, and an exact condition on the sign of the
difference when it sits at level k.

Heavy shared work (the exhaustive rate scan, the long stationary runs) lives
in module-scoped fixtures.  Total runtime is a few minutes.
"""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from podd.ancestry import clan_monte_carlo
from podd.cavity import level_distribution, run_cavity, tv_distance
from podd.cli import main
from podd.core import Configuration, FIFO, PS, RngStream, ServiceDistribution
from podd.engine import run, snapshot
from podd.estimators import cov_mk, stationary_tail
from podd.rates import (PLUS_ONE_SHIFT, BoundInputs, arrival_rate_closed,
                        arrival_rate_hyper, arrival_rate_plus_one,
                        asymptotic_tail, cavity_rate, chaos_bound,
                        clan_intersection_bound, clan_size_bound,
                        monotone_threshold, uniform_rate_bound)

from test_estimators import fit_exp_decay

EXP = ServiceDistribution.exponential()
DET = ServiceDistribution.deterministic()
HYPER = ServiceDistribution.hyperexponential_cv2(4.0)
ERL4 = ServiceDistribution.erlang(4)


def verdict(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def rate(kernel, lam, *args):
    """The rate lam * P / Q of a kernel's (P, Q)."""
    return lam * Fraction(*kernel(*args))


# ---------------------------------------------------------------------------
# criteria 1-4: exhaustive scan over the finite rate grid


@pytest.fixture(scope="module")
def rate_scan():
    """One pass over N <= 60 computing everything criteria 1-4 need.

    Exact rational arithmetic throughout (lambda = 1/2); the float identity
    leg for 20 < N <= 40 is checked separately inside the loop.
    """
    lam = Fraction(1, 2)
    out = {
        "identity_exact_bad": 0, "identity_float_max_rel": 0.0,
        "identity_checked": 0,
        "consistency_bad": 0, "consistency_checked": 0,
        "uniform_bad": 0, "uniform_checked": 0,
        "mono_bad": {"above": 0, "equal": 0, "below": 0},
        "mono_first": {},
        "mono_checked": 0,
        "below_ratio_bad": 0, "equal_sign_bad": 0,
    }
    for n in range(2, 61):
        for d in range(1, min(6, n - 1 if n > 2 else 1) + 1):
            bound = rate(uniform_rate_bound, lam, d)
            for pik in range(1, n + 1):
                for pik1 in range(pik):
                    occ = (n, d, pik, pik1)
                    closed = rate(arrival_rate_closed, lam, *occ)
                    if closed > bound:
                        out["uniform_bad"] += 1
                    out["uniform_checked"] += 1
                    if n <= 20:
                        if rate(arrival_rate_hyper, lam, *occ) != closed:
                            out["identity_exact_bad"] += 1
                        out["identity_checked"] += 1
                    elif n <= 40:
                        h = rate(arrival_rate_hyper, 0.5, *occ)
                        c = rate(arrival_rate_closed, 0.5, *occ)
                        rel = abs(h - c) / c if c else abs(h)
                        out["identity_float_max_rel"] = max(
                            out["identity_float_max_rel"], rel)
                        out["identity_checked"] += 1
                    if d > 5:
                        continue
                    compared = d >= 2 and n >= monotone_threshold(d)
                    np1 = {}
                    for rel_name in ("above", "equal", "below"):
                        np1[rel_name] = rate(arrival_rate_plus_one, lam,
                                             *occ, rel_name)
                        up_k, up_k1 = PLUS_ONE_SHIFT[rel_name]
                        adj = rate(arrival_rate_closed, lam, n + 1, d,
                                   pik + up_k, pik1 + up_k1)
                        if np1[rel_name] != adj:
                            out["consistency_bad"] += 1
                        out["consistency_checked"] += 1
                        if np1[rel_name] > bound:
                            out["uniform_bad"] += 1
                        out["uniform_checked"] += 1
                        if compared and np1[rel_name] < closed:
                            out["mono_bad"][rel_name] += 1
                            out["mono_first"].setdefault(
                                rel_name, (n, d, pik, pik1, closed, np1[rel_name]))
                    if not compared:
                        continue
                    out["mono_checked"] += 1
                    if np1["below"] != closed * Fraction(n + 1 - d, n):
                        out["below_ratio_bad"] += 1
                    if (np1["equal"] >= closed) != equal_dominates(n, d, pik, pik1):
                        out["equal_sign_bad"] += 1
    return out


# Exact N vs N+1 relations, from the closed form alone.  With a = pi_k,
# b = pi_{k+1}, g = a - b and Delta = C(a,D) - C(b,D),
#     R_N = lam N Delta / (C(N,D) g),
# and C(N+1,D) = C(N,D) (N+1)/(N+1-D) turns the prefactor of R_{N+1} into
# lam (N+1-D) / C(N,D).
# below: the extra server leaves a and b as they are, so
#     R_{N+1} = lam (N+1-D) Delta / (C(N,D) g) = R_N (N+1-D)/N.
# equal: a grows by one, and Pascal's rule C(a+1,D) = C(a,D) + C(a,D-1) gives
#     R_{N+1} = lam (N+1-D) (Delta + C(a,D-1)) / (C(N,D) (g+1)),
# so R_{N+1} >= R_N iff g (N+1-D) (Delta + C(a,D-1)) >= N (g+1) Delta, i.e.
#     (N+1-D) g C(a,D-1) >= Delta (N + (D-1) g).
# For D = 2 and g = 1 this is a <= (N+1)/2.
def equal_dominates(n, d, pik, pik1):
    g = pik - pik1
    delta = math.comb(pik, d) - math.comb(pik1, d)
    return (n + 1 - d) * g * math.comb(pik, d - 1) >= delta * (n + (d - 1) * g)


def test_criterion_1_rate_identity(rate_scan):
    ok = (rate_scan["identity_exact_bad"] == 0
          and rate_scan["identity_float_max_rel"] <= 1e-12)
    verdict(1, "hypergeometric and closed rate forms agree", ok,
            f"{rate_scan['identity_checked']} occupancies, "
            f"max rel err {rate_scan['identity_float_max_rel']:.2e}")


def test_criterion_2_monotone_above(rate_scan):
    bad = rate_scan["mono_bad"]["above"]
    verdict(2, "N+1 rate dominates when the added server sits above level k",
            bad == 0, f"{rate_scan['mono_checked']} occupancies, {bad} violations")


def test_criterion_2_monotone_equal(rate_scan):
    # An added server at level k raises the rate iff equal_dominates holds,
    # so the rate can strictly decrease: first at N=3, D=2, pi=(3,1), where
    # it falls from 3/4 to 2/3.  Dense-gap example: N=10, D=2, lambda=1/2,
    # pi=(6,5) gives 5/9 at N but only 11/20 at N+1.
    bad = rate_scan["equal_sign_bad"]
    first = rate_scan["mono_first"].get("equal")
    half = Fraction(1, 2)
    pinned = (first == (3, 2, 3, 1, Fraction(3, 4), Fraction(2, 3))
              and rate(arrival_rate_closed, half, 10, 2, 6, 5) == Fraction(5, 9)
              and rate(arrival_rate_plus_one, half, 10, 2, 6, 5, "equal")
              == Fraction(11, 20))
    verdict(2, "N+1 rate rises exactly when the sign condition holds, "
               "added server at level k", bad == 0 and pinned,
            f"{rate_scan['mono_checked']} occupancies, "
            f"{rate_scan['mono_bad']['equal']} decreases, {bad} mismatches, "
            f"first decrease at (N,D,pi_k,pi_k+1)={first[:4] if first else None}")


def test_criterion_2_monotone_below(rate_scan):
    # An added server below level k takes every sample that contains it, so
    # R_{N+1} = R_N (N+1-D)/N: a strict decrease whenever R_N > 0, first at
    # N=3, D=2, pi=(2,0), where it falls from 1/4 to 1/6.
    bad = rate_scan["below_ratio_bad"]
    first = rate_scan["mono_first"].get("below")
    pinned = first == (3, 2, 2, 0, Fraction(1, 4), Fraction(1, 6))
    verdict(2, "N+1 rate equals the N rate times (N+1-D)/N, "
               "added server below level k", bad == 0 and pinned,
            f"{rate_scan['mono_checked']} occupancies, "
            f"{rate_scan['mono_bad']['below']} decreases, {bad} mismatches, "
            f"first decrease at (N,D,pi_k,pi_k+1)={first[:4] if first else None}")


def test_criterion_3_coupling_consistency(rate_scan):
    verdict(3, "N+1 rate equals the closed form at N+1 with shifted counts",
            rate_scan["consistency_bad"] == 0,
            f"{rate_scan['consistency_checked']} exact comparisons")


def test_criterion_4_uniform_bound(rate_scan):
    verdict(4, "every computed rate respects lambda D^D/(D-1)!",
            rate_scan["uniform_bad"] == 0,
            f"{rate_scan['uniform_checked']} values")


# ---------------------------------------------------------------------------
# criterion 5: clan growth and intersection bounds


def test_criterion_5_clan_bounds():
    grid = (0.25, 0.5, 1.0)
    lam, reps = 0.5, 10_000
    root = RngStream(1005)
    bad = []
    for n in (50, 200):
        for d in (2, 3):
            st = clan_monte_carlo(n, d, lam, grid, reps,
                                  root.child(f"clan{n}.{d}"))
            for i, t in enumerate(grid):
                inp = BoundInputs(n, d, lam, t)
                if st.mean_size[i] > clan_size_bound(inp) + st.size_ci[i]:
                    bad.append(("size", n, d, t))
                if st.p_intersect[i] > (clan_intersection_bound(inp)
                                        + st.p_ci[i]):
                    bad.append(("intersect", n, d, t))
    verdict(5, "clan size and intersection stay under their analytic ceilings",
            not bad, f"24 cells, violations: {bad}")


# ---------------------------------------------------------------------------
# criterion 6: covariance decay of the empirical measure


def test_criterion_6_chaos():
    lam, t, reps = 0.5, 1.0, 500
    totals = {}
    bad = []
    for n in (200, 400, 800):
        root = RngStream(1006)
        snaps = []
        for r in range(reps):
            traj, _ = run(n, 2, lam, EXP, FIFO, Configuration.empty(n), t,
                          [t], root.child(f"chaos{n}", r), record_events=False)
            snaps.append(snapshot(traj, t))
        bound = chaos_bound(BoundInputs(n, 2, lam, t))
        s = 0.0
        for k in range(3):
            for l in range(3):
                row = cov_mk(snaps, k, l)
                s += row.estimate
                if row.estimate > bound + 3 * row.half_width:
                    bad.append((n, k, l))
        totals[n] = s
    ratio = totals[200] / totals[800]
    ok = not bad and 2.0 <= ratio <= 8.0
    verdict(6, "empirical-measure covariances obey the 1/N chaos bound",
            ok, f"ratio N=200/N=800 {ratio:.2f}, bound violations: {bad}")


# ---------------------------------------------------------------------------
# criteria 7-8: stationary tail and insensitivity


def _stationary_rows(disc, dist, seed):
    n, lam = 500, 0.7
    warm = 10 / (1 - lam)
    horizon = warm + 5000.0
    times = np.linspace(0.0, horizon, int(horizon) + 1)
    traj, _ = run(n, 2, lam, dist, disc, Configuration.empty(n), horizon,
                  times, RngStream(seed).child(f"{disc.kind}.{dist.kind}"),
                  record_events=False)
    return stationary_tail(traj, warmup=warm, n_batches=20, k_max=4)


@pytest.fixture(scope="module")
def stationary_runs():
    runs = {}
    for seed, (disc, dist) in enumerate([(FIFO, EXP), (PS, EXP), (PS, DET),
                                         (PS, HYPER), (FIFO, HYPER)],
                                        start=1007):
        runs[(disc.kind, dist.kind)] = _stationary_rows(disc, dist, seed)
    return runs


def test_criterion_7_stationary_tail(stationary_runs):
    lam = 0.7
    worst = 0.0
    bad = []
    for key in (("FIFO", "exponential"), ("PS", "exponential")):
        for k, row in enumerate(stationary_runs[key]):
            err = abs(row.estimate - lam ** (2 ** k - 1))
            worst = max(worst, err)
            if err > max(0.015, 3 * row.half_width):
                bad.append((key[0], k))
    verdict(7, "double-exponential stationary tail matches simulation",
            not bad, f"worst abs err {worst:.4f}")


def test_criterion_8_insensitivity(stationary_runs):
    ps = [stationary_runs[("PS", d)] for d in
          ("exponential", "deterministic", "hyperexponential")]
    bad = []
    for a in range(len(ps)):
        for b in range(a + 1, len(ps)):
            for k, (ra, rb) in enumerate(zip(ps[a], ps[b])):
                joint = math.hypot(ra.half_width, rb.half_width)
                if abs(ra.estimate - rb.estimate) > 3 * joint:
                    bad.append((a, b, k))
    # control: FIFO is not symmetric, so the hyperexponential run is reported
    # without a pass/fail judgement
    ctrl = stationary_runs[("FIFO", "hyperexponential")]
    ref = stationary_runs[("PS", "exponential")]
    diffs = {k: round(r.estimate - s.estimate, 4)
             for k, (r, s) in enumerate(zip(ctrl, ref))}
    print(f"  control FIFO+hyperexponential tail shift vs PS+exp: {diffs}")
    verdict(8, "PS stationary tail is insensitive to the service law",
            not bad, f"violations: {bad}")


# ---------------------------------------------------------------------------
# criterion 9: cavity fixed point


def test_criterion_9_cavity_fixed_point():
    worst = 0.0
    for d in range(2, 6):
        for lam in (0.3, 0.5, 0.7, 0.9):
            for k in range(11):
                pk = asymptotic_tail(d, lam, k)
                pk1 = asymptotic_tail(d, lam, k + 1)
                pk2 = asymptotic_tail(d, lam, k + 2)
                lhs = cavity_rate(d, lam, pk, pk1) * (pk - pk1)
                rhs = pk1 - pk2
                scale = max(abs(lhs), abs(rhs), 1e-300)
                worst = max(worst, abs(lhs - rhs) / scale)
    alg_ok = worst <= 1e-12

    # Monte Carlo leg: long cavity run under the fixed-point profile
    d, lam = 2, 0.7
    warm, horizon = 100.0, 4100.0
    traj = run_cavity(d, lam, EXP, FIFO, horizon, RngStream(1009).child("mc"),
                      sample_times=np.linspace(0.0, horizon, int(horizon) + 1))
    mc_bad = [k for k, row in enumerate(stationary_tail(traj, warm, 20,
                                                        k_max=4))
              if abs(row.estimate - asymptotic_tail(d, lam, k))
              > 3 * max(row.half_width, 1e-4)]
    verdict(9, "tail recursion is an exact flux balance and simulates true",
            alg_ok and not mc_bad,
            f"max rel defect {worst:.2e}, MC misses: {mc_bad}")


# ---------------------------------------------------------------------------
# criterion 10: tagged-queue convergence to the cavity law


def _transient_cavity_law(d, lam, t_end, K=40, dt=1e-3):
    """Law of the limiting tagged queue at t_end, from empty.

    Integrates the limiting tail-fraction flow with classic RK4.  From an
    empty start the tagged queue's law is the limiting empirical measure,
    q_k = p_k - p_{k+1}: with the cavity rate at level k,
    lam * (p_k^d - p_{k+1}^d) / (p_k - p_{k+1}), the tagged queue's forward
    equations are the tail flow's differences.  dp_0 = 0, so p_0 stays 1.
    """
    p = np.zeros(K + 2)
    p[0] = 1.0

    def fp(p):
        dp = np.zeros_like(p)
        dp[1:K + 1] = (lam * (p[0:K] ** d - p[1:K + 1] ** d)
                       - (p[1:K + 1] - p[2:K + 2]))
        return dp

    for _ in range(int(round(t_end / dt))):
        k1 = fp(p)
        k2 = fp(p + dt / 2 * k1)
        k3 = fp(p + dt / 2 * k2)
        k4 = fp(p + dt * k3)
        p = p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return p[:-1] - p[1:]


def test_criterion_10_tagged_convergence():
    d, lam, t, reps, k_max = 2, 0.5, 2.0, 2000, 6
    q = _transient_cavity_law(d, lam, t)
    ref = np.zeros(k_max + 1)
    ref[:k_max] = q[:k_max]
    ref[k_max] = q[k_max:].sum()
    # by exchangeability the tagged marginal equals the mean empirical
    # measure, so pooling all servers is the Rao-Blackwellized estimator
    root = RngStream(304)
    tvs = []
    for n in (50, 100, 200, 400):
        levels = []
        for r in range(reps):
            traj, _ = run(n, d, lam, EXP, FIFO, Configuration.empty(n), t,
                          [], root.child(f"sys{n}", r), record_events=False)
            levels.extend(traj.final_lengths.tolist())
        tvs.append(tv_distance(level_distribution(levels, k_max), ref))
    ok = all(a > b for a, b in zip(tvs, tvs[1:])) and tvs[-1] < 0.05
    verdict(10, "tagged-queue law approaches the cavity law as N grows",
            ok, "TV " + ", ".join(f"{v:.5f}" for v in tvs))


# ---------------------------------------------------------------------------
# criterion 11: exponential relaxation of the cavity queue


def _bd_generator(rates_up, K):
    gen = np.zeros((K + 1, K + 1))
    for k in range(K):
        gen[k, k + 1] = rates_up[k]
    for k in range(1, K + 1):
        gen[k, k - 1] = 1.0
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


def _erlang_generator(rates_up, K, shape):
    """States: 0 = empty, then (level k, remaining phases j) row-major."""
    size = 1 + K * shape

    def idx(k, j):
        return 1 + (k - 1) * shape + (j - 1)

    gen = np.zeros((size, size))
    gen[0, idx(1, shape)] = rates_up[0]
    mu = float(shape)
    for k in range(1, K + 1):
        for j in range(1, shape + 1):
            s = idx(k, j)
            if k < K:
                gen[s, idx(k + 1, j)] = rates_up[k]
            if j > 1:
                gen[s, idx(k, j - 1)] = mu
            else:
                gen[s, idx(k - 1, shape) if k > 1 else 0] = mu
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


def _stationary_law(gen):
    size = gen.shape[0]
    a = np.vstack([gen.T, np.ones(size)])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(pi, 0.0, None) / pi.sum()


def _level_law(gen, t, level_of, n_levels):
    """Law of the level at time t from state 0: the forward equations
    q' = qG are linear, so q(t) is the first row of expm(tG), exactly."""
    q_lvl = np.zeros(n_levels)
    np.add.at(q_lvl, level_of, np.clip(expm(t * gen)[0], 0.0, None))
    return q_lvl / q_lvl.sum()


def _tv_series(gen, ts, level_of, n_levels):
    pi = _stationary_law(gen)
    pi_lvl = np.zeros(n_levels)
    np.add.at(pi_lvl, level_of, pi)
    return [0.5 * float(np.abs(_level_law(gen, t, level_of, n_levels)
                               - pi_lvl).sum()) for t in ts]


def test_criterion_11_cavity_tv_decay():
    d, lam, K, shape = 2, 0.7, 25, 4
    rates_up = [cavity_rate(d, lam, asymptotic_tail(d, lam, k),
                            asymptotic_tail(d, lam, k + 1)) for k in range(K)]
    ts = list(range(1, 21))
    fits = {}

    gen = _bd_generator(rates_up, K)
    tvs = _tv_series(gen, ts, np.arange(K + 1), K + 1)
    fits["exponential"] = fit_exp_decay(ts, tvs)

    gen_e = _erlang_generator(rates_up, K, shape)
    level_of = np.concatenate([[0], np.repeat(np.arange(1, K + 1), shape)])
    tvs_e = _tv_series(gen_e, ts, level_of, K + 1)
    fits["erlang4"] = fit_exp_decay(ts, tvs_e)

    # cross-check the event simulator against the phase-type forward solve
    t_probe = 3.0
    root = RngStream(1011)
    term = []
    for r in range(4000):
        traj = run_cavity(d, lam, ERL4, FIFO, t_probe, root.child("erl", r),
                          sample_times=[t_probe])
        term.append(int(traj.final_lengths[0]))
    q_lvl = _level_law(gen_e, t_probe, level_of, K + 1)
    k_max = 6
    solver = np.zeros(k_max + 1)
    solver[:k_max] = q_lvl[:k_max]
    solver[k_max] = q_lvl[k_max:].sum()
    sim_gap = tv_distance(level_distribution(term, k_max), solver)

    ok = all(f.rate > 0 and f.r_squared >= 0.9 for f in fits.values())
    ok = ok and sim_gap < 0.03
    detail = ", ".join(f"{name} rate {f.rate:.3f} R2 {f.r_squared:.3f}"
                       for name, f in fits.items())
    verdict(11, "cavity law relaxes exponentially fast",
            ok, detail + f", simulator gap {sim_gap:.4f}")


# ---------------------------------------------------------------------------
# criterion 12: reproducibility of the command-line suite


CANNED = {
    "bounds": {"N": [50], "D": [2], "lambda": [0.5], "t": [0.5, 1.0],
               "seed": 7},
    "rates-check": {"N": [6, 9], "D": [2, 3], "lambda": [0.5], "seed": 7},
    "simulate": {"N": [20], "D": [2], "lambda": [0.5], "horizon": 5.0,
                 "replications": 4, "record_events": True, "seed": 7},
    "chaos": {"N": [30], "D": [2], "lambda": [0.5], "t": [1.0], "k": [0, 1],
              "l": [0, 1], "replications": 40, "seed": 7},
    "clan": {"N": [30], "D": [2], "lambda": [0.5], "t": [0.5, 1.0],
             "replications": 300, "seed": 7},
    "tagged": {"N": [30], "D": [2], "lambda": [0.5], "t": [2.0],
               "replications": 60, "seed": 7},
    "stationary": {"N": [25], "D": [2], "lambda": [0.5], "horizon": 150.0,
                   "k_max": 3, "seed": 7},
    "coupled": {"N": [15], "D": [2], "lambda": [0.5], "horizon": 4.0,
                "replications": 10, "seed": 7},
}


def _run_suite(tmp_path, tag, workers=None):
    blobs = {}
    for kind, doc in CANNED.items():
        cfg = tmp_path / f"{tag}-{kind}.json"
        cfg.write_text(json.dumps({"kind": kind, **doc}))
        out = tmp_path / f"{tag}-{kind}"
        argv = [kind, "--config", str(cfg), "--out", str(out)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        assert main(argv) == 0, kind
        for p in sorted(out.iterdir()):
            if p.suffix == ".csv":
                blobs[f"{kind}/{p.name}"] = p.read_bytes()
    return blobs


def test_criterion_12_determinism(tmp_path):
    first = _run_suite(tmp_path, "a")
    second = _run_suite(tmp_path, "b")
    third = _run_suite(tmp_path, "c", workers=2)
    same = first == second == third
    verdict(12, "same seed reproduces every CSV byte for byte",
            same, f"{len(first)} files across {len(CANNED)} commands")
