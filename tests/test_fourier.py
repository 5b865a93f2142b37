import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fraczeta import arith, cli, explicit, fourier
from fraczeta.bernpoly import ik_envelope, integral_ik_array, sdot_array
from fraczeta.zeta import zeta_deriv
from fraczeta.explicit import SUM_BLOCK, UNIT_ROUNDOFF, TruncatedSum, lhs_theorem1, weighted_sums
from fraczeta.fourier import (
    COS_FACTOR_MAX,
    COS_MINUS_ONE_FACTOR_MAX,
    COS_TERMS,
    SDOT_FACTOR_MAX,
    SDOT_MAX,
    TWO_PI_SQ,
    ZETA_PRIME_2,
    InsufficientDataError,
    lhs_weighted_sdot,
    rh_decay_profile,
    rh_slope,
    rhs_th2_log,
    rhs_th2_mu,
    rhs_th4_upsilon,
)

GAMMA_B = SUM_BLOCK * UNIT_ROUNDOFF / (1.0 - SUM_BLOCK * UNIT_ROUNDOFF)


def replay(points, coef, factor, xs, factor_max):
    """The blocks of one weighted_sums call, formed again: per x, per block,
    the coefficients and the factors, in buffers of the block's length."""
    for lo in range(0, len(points), SUM_BLOCK):
        n = np.asarray(points[lo : lo + SUM_BLOCK], dtype=np.float64)
        c = coef(n, slice(lo, lo + len(n)))
        for x in xs:
            y, v = np.empty((2, len(n)))
            yield x, c, np.broadcast_to(factor(n, x, y, v), n.shape).copy()


def termwise_bound(call):
    """gamma_B sum |v_i| + u |value| over the terms of a one-x call: the
    summation bound weighted_sums gave before it took factor_max."""
    blocks = [c * f for _, c, f in replay(*call)]
    value = math.fsum(float(np.sum(v)) for v in blocks)
    return GAMMA_B * math.fsum(float(np.sum(np.abs(v))) for v in blocks) + UNIT_ROUNDOFF * abs(value)


class TestLhsWeightedSdot:
    def test_mu_closed_form_oracle_at_x2(self, table_1e6):
        # only odd n contribute (sdot(n/2) = -1/8 there), and
        # sum over odd n of mu(n)/n^2 = (6/pi^2)/(1 - 1/4) = 8/pi^2,
        # so the sum is exactly -1/pi^2
        ts = lhs_weighted_sdot(table_1e6, "mu", 2.0, 2.0, 10**6)
        assert abs(ts.value - (-1.0 / math.pi**2)) <= 5e-7

    def test_lambda_at_integer_arguments(self, table_1e6):
        # x = 1 puts every n/x at an integer where sdot vanishes identically
        ts = lhs_weighted_sdot(table_1e6, "lambda", 2.0, 1.0, 10**6)
        assert ts.value == 0.0

    def test_mubar_tail_bound(self, table_1e7):
        ts = lhs_weighted_sdot(table_1e7, "mubar", 2.0, 50.0, 10**7)
        assert math.isfinite(ts.value)
        assert ts.tail_bound <= 2e-3

    @pytest.mark.parametrize("weight,p", [("lambda", 2.0), ("mu", 2.0), ("mu", 1.5), ("mubar", 2.0)])
    def test_blocked_sum_matches_fsum(self, table_1e6, weight, p):
        t, x = table_1e6, 3.7
        if weight == "lambda":
            idx = t.prime_powers
            w = t.lam
        elif weight == "mu":
            idx = np.nonzero(t.mu)[0]
            w = t.mu[idx].astype(np.float64)
        else:
            idx = np.arange(1, t.n_max + 1)
            w = t.mubar_arr[1:]
        nf = idx.astype(np.float64)
        vals = w * nf ** (-p) * sdot_array(nf / x)
        ts = lhs_weighted_sdot(t, weight, p, x, t.n_max)
        assert 0.0 < ts.round_bound <= 1e-10
        assert abs(ts.value - math.fsum(vals.tolist())) <= ts.round_bound

    def test_unsupported_pair(self, table_small):
        with pytest.raises(ValueError):
            lhs_weighted_sdot(table_small, "lambda", 1.5, 2.0, 10**4)
        with pytest.raises(ValueError):
            lhs_weighted_sdot(table_small, "upsilon", 2.0, 2.0, 10**4)

    def test_bad_x_and_n(self, table_small):
        with pytest.raises(ValueError):
            lhs_weighted_sdot(table_small, "mu", 2.0, 0.0, 10**4)
        with pytest.raises(ValueError):
            lhs_weighted_sdot(table_small, "mu", 2.0, 2.0, 10**6)

    def test_infinite_x_rejected(self, table_small):
        # Every n/x would be 0, so the sum would be 0 exactly, like its right side.
        with pytest.raises(ValueError, match="finite"):
            lhs_weighted_sdot(table_small, "mu", 2.0, math.inf, 10**4)


class TestRhsTheorem2Log:
    def test_infinite_x_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rhs_th2_log(math.inf, 10**4)

    def test_large_x_termwise_vanishing(self):
        ts = rhs_th2_log(1e9, 10**3)
        assert abs(ts.value) <= 1e-12

    def test_tail_bound_formula(self):
        ts = rhs_th2_log(3.7, 10**6)
        assert ts.tail_bound <= 1.6e-5

    def test_empty_sum(self):
        assert rhs_th2_log(2.0, 1).value == 0.0

    def test_blocked_sum_matches_fsum(self):
        # The 10^6-term sum of cos - 1 is the oracle.  It stops at N, so it
        # sits within its own tail (log N + 1)/(N pi^2) of the series that
        # the split route bounds by its Abel tail.
        N = 10**6
        n = np.arange(2, N + 1, dtype=np.float64)
        vals = np.log(n) / n**2 * (np.cos(2.0 * np.pi * n / 3.7) - 1.0)
        oracle = math.fsum(vals.tolist()) / TWO_PI_SQ
        oracle_tail = (math.log(N) + 1.0) / (N * math.pi**2)
        ts = rhs_th2_log(3.7, N)
        assert 0.0 < ts.round_bound <= 1e-12
        budget = oracle_tail + math.ulp(oracle) + ts.tail_bound + ts.round_bound
        assert abs(ts.value - oracle) <= budget

    @pytest.mark.parametrize("x", [1.5, 2.2, 2.5, 3.7, 10.25, 11.9])
    def test_abel_tail_bound_holds(self, x):
        n = np.arange(2, 10**6 + 1, dtype=np.float64)
        terms = np.log(n) / n**2 * np.cos(2.0 * np.pi * n / x)
        for N in (100, 10**6):
            ts = rhs_th2_log(x, N)
            M = ts.terms_used + 1
            assert M == min(N, COS_TERMS)
            assert abs(math.fsum(terms[M - 1 :].tolist())) / TWO_PI_SQ <= ts.tail_bound, (x, N)

    @pytest.mark.parametrize("x", [1.0, 0.5, 1e9])
    def test_full_sum_where_sin_vanishes_or_x_is_large(self, x):
        # sin(pi/x) is 0 (up to rounding) at x = 1 and 1/2 and ~3e-9 at
        # x = 1e9, so the Abel tail is not below the full sum's tail: the
        # result is the capped sum of cos - 1, bit for bit.
        N = 10**3
        [(value, err)] = weighted_sums(
            range(2, N + 1),
            lambda n, at: np.log(n) / n**2,
            lambda n, x, y, v: np.cos(2.0 * np.pi * n / x) - 1.0,
            [x],
            COS_MINUS_ONE_FACTOR_MAX,
        )
        tail = (math.log(N) + 1.0) / (N * math.pi**2)
        assert rhs_th2_log(x, N) == TruncatedSum(value / TWO_PI_SQ, N - 1, tail, err / TWO_PI_SQ)

    def test_zeta_prime_2_constant(self):
        assert abs(ZETA_PRIME_2 - zeta_deriv(2.0).real) <= 1e-12
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = mpmath.zeta(2, derivative=1)
            # correctly rounded: within the half ulp round_bound counts
            assert abs(mpmath.mpf(ZETA_PRIME_2) - exact) <= 0.5 * math.ulp(ZETA_PRIME_2)


class TestRhsTheorem2Mu:
    def test_x2(self):
        assert rhs_th2_mu(2.0) == pytest.approx(-1.0 / math.pi**2, rel=1e-15)

    def test_x1(self):
        assert abs(rhs_th2_mu(1.0)) <= 1e-16

    def test_x4(self):
        assert rhs_th2_mu(4.0) == pytest.approx(-1.0 / (2.0 * math.pi**2), rel=1e-12)

    def test_infinite_x_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rhs_th2_mu(math.inf)


class TestRhsTheorem4:
    def test_x1_vanishes(self, table_1e6):
        assert abs(rhs_th4_upsilon(table_1e6, 1.0, 10**6).value) <= 1e-12

    def test_infinite_x_rejected(self, table_small):
        with pytest.raises(ValueError, match="finite"):
            rhs_th4_upsilon(table_small, math.inf, 10**4)

    def test_single_term(self, table_1e6):
        ts = rhs_th4_upsilon(table_1e6, 3.0, 1)
        expected = (math.cos(2.0 * math.pi / 3.0) - 1.0) / (2.0 * math.pi**2)
        assert ts.value == pytest.approx(expected, rel=1e-14)

    def test_forms_upsilon_once(self, monkeypatch):
        # The table's first upsilon read sieves it; a second call reuses it.
        t = arith.build_sieve(10**4)
        sieves, sieve = [], arith._sieve

        def recording(*args, **kwargs):
            sieves.append(kwargs)
            return sieve(*args, **kwargs)

        monkeypatch.setattr(arith, "_sieve", recording)
        first = rhs_th4_upsilon(t, 4.6, 10**4)
        upsilon = t.upsilon_arr
        assert rhs_th4_upsilon(t, 4.6, 10**4).value == first.value
        assert sieves == [{"upsilon": True}] and t.upsilon_arr is upsilon

    def test_other_sums_leave_upsilon_unformed(self):
        # Only th4 reads upsilon: the mubar profile, every sdot weight and
        # Theorem 1's sum never make the table sieve it.
        t, N = arith.build_sieve(10**4), 10**4
        rh_decay_profile(t, 5.0, 20.0, 6, N)
        for weight, p in sorted(fourier._SUPPORTED):
            lhs_weighted_sdot(t, weight, p, 7.5, N)
        for k in (1, 2, 3, 4):
            lhs_theorem1(t, k, 7.5, N)
        assert "upsilon_arr" not in t.__dict__

    def test_tail_bound(self, table_1e6):
        ts = rhs_th4_upsilon(table_1e6, 4.6, 10**6)
        assert ts.tail_bound <= 6e-3

    def test_blocked_sum_matches_fsum(self, table_1e6):
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        vals = table_1e6.upsilon_arr[1:] / n**2 * (np.cos(2.0 * np.pi * n / 4.6) - 1.0)
        ts = rhs_th4_upsilon(table_1e6, 4.6, 10**6)
        assert 0.0 < ts.round_bound <= 1e-10
        assert abs(ts.value - math.fsum(vals.tolist()) / TWO_PI_SQ) <= ts.round_bound


    @pytest.mark.parametrize("x", [1.0, 2.5, 4.6, 9.5, 1e9])
    def test_rotation_matches_np_cos(self, table_1e6, x, weighted_sums_calls):
        coef = lambda n, at: table_1e6.upsilon_arr[1:][at] / n**2  # at: positions in points
        for N in (1, 2, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 3 * SUM_BLOCK + 5, 10**6):
            [(value, _)] = weighted_sums(
                range(1, N + 1),
                coef,
                lambda n, x, y, v: np.cos(2.0 * np.pi * n / x) - 1.0,
                [x],
                COS_MINUS_ONE_FACTOR_MAX,
            )
            ts = rhs_th4_upsilon(table_1e6, x, N)
            # Not ts.round_bound, which factor_max widens: the allowance
            # stays gamma_B sum |v_i| + u |value| over the rotation's terms.
            allowed = termwise_bound(weighted_sums_calls.pop()) / TWO_PI_SQ
            if x == 1.0:
                allowed = 1e-12
            elif x == 1e9:
                # cos - 1 of the first terms lies below the spacing of
                # doubles near 1, where each route's per-term error (at
                # most 2u, outside round_bound) dominates.
                n = np.arange(1, N + 1, dtype=np.float64)
                allowed += 4.0 * 2.0**-53 * float(np.sum(np.abs(coef(n, slice(0, N))))) / TWO_PI_SQ
            assert abs(ts.value - value / TWO_PI_SQ) <= allowed, (x, N)


class TestTheorem2Identities:
    @pytest.mark.parametrize("x", [2.5, 3.7, 10.25])
    def test_lambda_form(self, table_1e6, x):
        lhs = lhs_weighted_sdot(table_1e6, "lambda", 2.0, x, 10**6)
        rhs = rhs_th2_log(x, 10**6)
        budget = lhs.tail_bound + rhs.tail_bound
        assert abs(lhs.value - rhs.value) <= budget + 1e-7

    @pytest.mark.parametrize("x", [2.5, 3.7, 10.25])
    def test_lambda_form_rejects_printed_constant(self, table_1e6, x):
        lhs = lhs_weighted_sdot(table_1e6, "lambda", 2.0, x, 10**6)
        rhs = rhs_th2_log(x, 10**6)
        budget = lhs.tail_bound + rhs.tail_bound + 1e-7
        if abs(rhs.value) > 20.0 * budget:
            assert abs(lhs.value - 2.0 * rhs.value) >= 10.0 * budget

    @pytest.mark.parametrize("x", [2.0, 3.5, 10.25])
    def test_mu_form(self, table_1e6, x):
        lhs = lhs_weighted_sdot(table_1e6, "mu", 2.0, x, 10**6)
        assert abs(lhs.value - rhs_th2_mu(x)) <= 5e-7


class TestTheorem4Identity:
    @pytest.mark.parametrize("x", [1.0, 4.6, 9.5])
    def test_match(self, table_1e6, x):
        lhs = lhs_weighted_sdot(table_1e6, "mu", 1.5, x, 10**6)
        rhs = rhs_th4_upsilon(table_1e6, x, 10**6)
        assert abs(lhs.value - rhs.value) <= lhs.tail_bound + rhs.tail_bound


class TestRearrangementOracle:
    def test_desk_scale_replay(self, table_small):
        # exchange the order of summation through the cosine expansion of
        # sdot: sum_n w(n) n^-2 sdot(n/x)
        #     = (1/(2 pi^2)) sum_m m^-2 [sum_n w(n) n^-2 (cos(2 pi m n/x) - 1)]
        N, x, M = 10**3, 3.3, 2 * 10**5
        lhs = lhs_weighted_sdot(table_small, "lambda", 2.0, x, N)
        m = np.arange(1, M + 1, dtype=np.float64)
        inv_m2 = 1.0 / m**2
        pp = table_small.prime_powers
        total = 0.0
        for n, lam in zip(pp[pp <= N], table_small.lam):
            w = lam / float(n) ** 2
            inner = np.sum((np.cos(2.0 * np.pi * m * (float(n) / x)) - 1.0) * inv_m2)
            total += w * float(inner)
        total /= 2.0 * math.pi**2
        assert abs(total - lhs.value) <= 1e-6


class TestRhSlope:
    def test_exact_power_law(self):
        pts = [(float(x), x**-1.0, 0.0) for x in range(10, 101, 5)]
        fit = rh_slope(pts)
        assert abs(fit.slope - (-1.0)) <= 1e-12
        assert abs(fit.delta_prime) <= 1e-12
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.dropped == 0

    def test_scaled_power_law(self):
        pts = [(float(x), 7.0 * x**-0.5, 1e-12) for x in np.geomspace(10, 100, 12)]
        fit = rh_slope(pts)
        assert abs(fit.slope - (-0.5)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(-2.0, -0.1, allow_nan=False),
        st.floats(0.1, 50.0, allow_nan=False),
    )
    def test_recovers_random_exponents(self, slope, scale):
        pts = [(float(x), scale * float(x) ** slope, 0.0) for x in np.geomspace(5, 500, 9)]
        fit = rh_slope(pts)
        assert abs(fit.slope - slope) <= 1e-9

    def test_noise_floor_dropping(self):
        pts = [(float(x), x**-1.0, 0.0) for x in range(10, 110, 10)]
        pts += [(1000.0, 1e-9, 1e-3)]  # drowned point
        fit = rh_slope(pts)
        assert fit.dropped == 1
        assert abs(fit.slope - (-1.0)) <= 1e-12

    def test_insufficient_points(self):
        pts = [(10.0, 0.1, 0.0), (20.0, 0.05, 0.0)]
        with pytest.raises(InsufficientDataError):
            rh_slope(pts)

    def test_too_many_dropped(self):
        good = [(float(x), x**-1.0, 0.0) for x in range(10, 70, 10)]
        drowned = [(float(x), 1e-12, 1.0) for x in range(100, 800, 100)]
        with pytest.raises(InsufficientDataError):
            rh_slope(good + drowned)

    def test_half_dropped_is_allowed(self):
        good = [(float(x), x**-1.0, 0.0) for x in range(10, 70, 10)]
        drowned = [(float(x), 1e-12, 1.0) for x in range(100, 700, 100)]
        assert len(good) == len(drowned)
        fit = rh_slope(good + drowned)
        assert fit.dropped == len(drowned)


class TestDecayProfile:
    def test_profile_shape_small(self, table_1e6):
        prof = rh_decay_profile(table_1e6, x_min=5.0, x_max=20.0, points=6, N=10**6)
        assert len(prof) == 6
        xs = [p[0] for p in prof]
        assert xs == sorted(xs)
        assert all(f > 0 for _, _, f in prof)

    def test_matches_single_sums(self, table_1e6):
        # The whole grid in one pass gives each single sum bit for bit, with
        # a short last block (or only one) at every N.
        for N in (1, SUM_BLOCK - 1, 3 * SUM_BLOCK + 5, 10**6):
            for x, value, floor in rh_decay_profile(table_1e6, x_min=5.0, x_max=20.0, points=4, N=N):
                ts = lhs_weighted_sdot(table_1e6, "mubar", 2.0, x, N)
                assert value == ts.value, (N, x)
                assert floor == ts.tail_bound + ts.round_bound, (N, x)

    def test_one_cpu_route_matches(self, table_1e6):
        # With two CPUs a helper thread sweeps the odd-indexed blocks; pinned
        # to one, the caller sweeps them all.  The profiles agree bit for bit.
        cpus = explicit._usable_cpus()
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        ns = (1, SUM_BLOCK - 1, 3 * SUM_BLOCK + 5, 10**6)
        script = (
            "import os\n"
            f"os.sched_setaffinity(0, {{{cpus[0]}}})\n"
            "from fraczeta import cli, explicit\n"
            "from fraczeta.fourier import rh_decay_profile\n"
            "assert len(explicit._usable_cpus()) == 1\n"
            "t = cli.get_table(10**6)\n"
            f"print(repr([rh_decay_profile(t, 5.0, 20.0, 5, N) for N in {ns}]))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr([rh_decay_profile(table_1e6, 5.0, 20.0, 5, N) for N in ns])

    def test_rejects_nonpositive_x(self, table_small):
        with pytest.raises(ValueError, match="x must be > 0"):
            rh_decay_profile(table_small, x_min=-20.0, x_max=-5.0, points=4, N=10**4)
        argv = ["rh-explore", "--xmin", "-20", "--xmax", "-5", "--points", "4", "--nterms", "10000"]
        assert cli.main(argv) == cli.EXIT_VERIFY


class TestStreamedMemory:
    # tracemalloc sees numpy's buffers.  At N = 10^6 one N-length float64
    # temporary alone is 8 MB; the streamed kernel holds four SUM_BLOCK-term
    # block arrays per thread (0.46 MB each).
    def test_profile_peak(self, table_1e6, traced_peak_bytes):
        assert traced_peak_bytes(lambda: rh_decay_profile(table_1e6, 5.0, 20.0, 6, 10**6)) <= 4e6

    def test_single_sum_peak(self, table_1e6, traced_peak_bytes):
        assert traced_peak_bytes(lambda: lhs_weighted_sdot(table_1e6, "mubar", 2.0, 7.5, 10**6)) <= 4e6

    def test_th2_log_peak(self, traced_peak_bytes):
        assert traced_peak_bytes(lambda: rhs_th2_log(3.7, 10**6)) <= 4e6

    def test_th4_peak(self, table_1e6, traced_peak_bytes):
        # upsilon is sieved on the table's first read of it, 8 MB here,
        # once per table (the VmHWM test in test_arith bounds that); this
        # bounds what each th4 call holds.
        table_1e6.upsilon_arr
        assert traced_peak_bytes(lambda: rhs_th4_upsilon(table_1e6, 4.6, 10**6)) <= 4e6


def near_half():
    """1/2 and the 1000 doubles on either side of it."""
    return (np.float64(0.5).view(np.int64) + np.arange(-1000, 1001)).view(np.float64)


def assert_factors_within(calls):
    """Every factor each recorded weighted_sums call computes is within its factor_max."""
    assert calls
    for call in calls:
        for x, _, f in replay(*call):
            assert np.max(np.abs(f), initial=0.0) <= call[4], (x, call[4])


class TestFactorMax:
    """factor_max, the bound on |factor| each sum passes to weighted_sums,
    holds for the computed factors, rounding included."""

    def test_sdot_near_half(self):
        # fr - fr^2 peaks at fr = 1/2, where the rounding of fr^2 can add u.
        for m in (0.0, 1.0, 2.0, 7.0, 2.0**20):
            assert np.max(np.abs(sdot_array(m + near_half()))) <= SDOT_FACTOR_MAX, m
        assert np.all(sdot_array(np.array([0.5, 2.5])) == -SDOT_MAX)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ik_near_extrema(self, k):
        # I_k peaks inside (0, 1) for k >= 2; the grid step is 1e-6.
        grid = np.linspace(0.0, 1.0, 10**6, endpoint=False)
        y = np.concatenate([grid, near_half(), [np.nextafter(1.0, 0.0), 2.0**-1074]])
        assert np.max(np.abs(integral_ik_array(k, y))) <= ik_envelope(k)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e18, allow_nan=False), min_size=1, max_size=50))
    def test_sdot_and_ik_at_any_argument(self, ys):
        y = np.array(ys)
        assert np.max(np.abs(sdot_array(y))) <= SDOT_FACTOR_MAX
        for k in (1, 2, 3, 4):
            assert np.max(np.abs(integral_ik_array(k, y))) <= ik_envelope(k), k

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 1e9, allow_nan=False) | st.sampled_from([0.5, 1.0, 2.0, 3.0, 1e9]))
    def test_cosine_factors(self, x):
        n = np.arange(1.0, 4097.0)
        y, v = np.empty((2, n.size))
        assert np.max(np.abs(fourier._cos(n, x, y, v))) <= COS_FACTOR_MAX
        assert np.max(np.abs(fourier._cos_minus_one(n, x, y, v))) <= COS_MINUS_ONE_FACTOR_MAX

    @pytest.mark.parametrize("x", [1.0, 2.0, 2.5, 4.6, 10.25, 1e9])
    def test_callers_at_n_1e6(self, table_1e6, x, weighted_sums_calls):
        # th2-log takes its full cos - 1 route at x = 1 and 1e9, and its
        # cosine route elsewhere.
        t, N = table_1e6, 10**6
        for weight, p in (("lambda", 2.0), ("mu", 2.0), ("mu", 1.5), ("mubar", 2.0)):
            lhs_weighted_sdot(t, weight, p, x, N)
        rhs_th2_log(x, N)
        rhs_th4_upsilon(t, x, N)
        if x != math.floor(x):
            for k in (1, 2, 3, 4):
                lhs_theorem1(t, k, x, N)
        assert_factors_within(weighted_sums_calls)

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.floats(1e-3, 1e9, allow_nan=False))
    def test_callers_at_any_x(self, table_small, weighted_sums_calls, x):
        weighted_sums_calls.clear()
        N = table_small.n_max
        lhs_weighted_sdot(table_small, "mubar", 2.0, x, N)
        rhs_th2_log(x, N)
        rhs_th4_upsilon(table_small, x, N)
        if 1.0 < x < N and x != math.floor(x):
            lhs_theorem1(table_small, 4, x, N)
        assert_factors_within(weighted_sums_calls)

    def test_profile_matches_blockwise_reference(self, table_1e6):
        # The 20-point profile over three full blocks and a short one: each
        # value is the fsum of the per-block einsum of w/(2 n^2) against
        # fr^2 - fr = 2 sdot, and its floor the tail plus the factor_max
        # bound, bit for bit.
        t, N = table_1e6, 3 * SUM_BLOCK + 5
        n = np.arange(1, N + 1, dtype=np.float64)
        c = t.mubar_arr[1 : N + 1] / (2.0 * n**2)
        blocks = [slice(lo, lo + SUM_BLOCK) for lo in range(0, N, SUM_BLOCK)]
        coef_mass = math.fsum(float(np.sum(np.abs(c[b]))) for b in blocks)
        gamma = (SUM_BLOCK + 1) * UNIT_ROUNDOFF / (1.0 - (SUM_BLOCK + 1) * UNIT_ROUNDOFF)
        profile = rh_decay_profile(t, 10.0, 100.0, 20, N)
        assert len(profile) == 20
        for x, value, floor in profile:
            fr = n / x - np.floor(n / x)
            f = fr * fr - fr
            ref = math.fsum(float(np.einsum("i,i->", c[b], f[b])) for b in blocks)
            bound = gamma * (2.0 * SDOT_FACTOR_MAX) * coef_mass / (1.0 - gamma) + UNIT_ROUNDOFF * abs(ref)
            assert value == ref, x
            assert floor == lhs_weighted_sdot(t, "mubar", 2.0, x, N).tail_bound + bound, x
