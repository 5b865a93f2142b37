import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraczeta import explicit
from fraczeta.bernpoly import integral_ik_array
from fraczeta.explicit import (
    SUM_BLOCK,
    UNIT_ROUNDOFF,
    TruncatedSum,
    lhs_theorem1,
    printed_Pk,
    residue_at,
    rhs_theorem1,
    trivial_sum,
    weighted_sums,
    zero_sum,
)
from fraczeta.zeta import Hk_closed, Hk_quadrature, ZeroEntry, ZeroTable, hk_limit_at_zero


# Every entry point that takes k, called at a k outside zeta.K_VALUES.
K_ENTRY_POINTS = {
    "Hk_closed": lambda k, tab, zeros: Hk_closed(k, 2.5),
    "Hk_quadrature": lambda k, tab, zeros: Hk_quadrature(k, 2.5),
    "lhs_theorem1": lambda k, tab, zeros: lhs_theorem1(tab, k, 10.5, 1000),
    "residue_at": lambda k, tab, zeros: residue_at(k, 10.5, 1.0),
    "zero_sum": lambda k, tab, zeros: zero_sum(k, 10.5, zeros),
    "trivial_sum": lambda k, tab, zeros: trivial_sum(k, 10.5),
}


@pytest.mark.parametrize("k", [0, 2.5, 5, 2.0, True])
@pytest.mark.parametrize("entry", list(K_ENTRY_POINTS))
def test_k_outside_1_to_4_rejected(entry, k, table_small, zeros100):
    # One rule: a non-integer k fails it too, before it reaches range(k).
    # 2.0 == 2 and True == 1, yet neither is an integer order.
    with pytest.raises(ValueError, match=r"^k must be in 1\.\.4$"):
        K_ENTRY_POINTS[entry](k, table_small, zeros100)


def test_numpy_integer_k_accepted():
    assert Hk_closed(np.int64(2), 2.5) == Hk_closed(2, 2.5)


# Every piece of theorem 1's right side, called at x.
RHS_ENTRY_POINTS = {
    "residue_at": lambda x, zeros: residue_at(1, x, 1.0),
    "zero_sum": lambda x, zeros: zero_sum(1, x, zeros),
    "trivial_sum": lambda x, zeros: trivial_sum(1, x),
    "rhs_theorem1": lambda x, zeros: rhs_theorem1(1, x, zeros),
    "printed_Pk": lambda x, zeros: printed_Pk(2, x),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", list(RHS_ENTRY_POINTS))
def test_rhs_infinite_x_rejected(entry, zeros100):
    # x^(s-1-k) at x = inf gave 0.0 (or nan) after numpy's invalid-value
    # warning; the domain is 1 < x < inf, as on the left side.
    with pytest.raises(ValueError, match=r"^x must be > 1 and finite$"):
        RHS_ENTRY_POINTS[entry](math.inf, zeros100)


class TestTruncatedSum:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedSum(math.nan, 1, 0.0)
        with pytest.raises(ValueError):
            TruncatedSum(1.0, 1, -1e-3)
        with pytest.raises(ValueError):
            TruncatedSum(1.0, 1, 0.0, round_bound=-1e-20)
        with pytest.raises(ValueError):
            TruncatedSum(1.0, 1, 0.0, round_bound=math.inf)
        ts = TruncatedSum(1.0, 3, 0.5)
        assert ts.terms_used == 3
        assert ts.round_bound == 0.0


GAMMA_B = SUM_BLOCK * UNIT_ROUNDOFF / (1.0 - SUM_BLOCK * UNIT_ROUNDOFF)


def exact_excess(value, terms):
    """value minus the exact sum of terms, rounded once."""
    return math.fsum([value] + [-float(v) for v in terms])


def unit_factor(n, x, y, v):
    return 1.0


class TestBlockedSum:
    """weighted_sums, the blocked summation kernel."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=40),
        st.sampled_from([1, 7, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 3 * SUM_BLOCK + 5]),
    )
    def test_within_bound_of_fsum(self, xs, n):
        v = np.resize(np.array(xs), n)
        [(value, bound)] = weighted_sums(range(n), lambda m, at: v[at], unit_factor, [0.0], 1.0)
        assert abs(exact_excess(value, v)) <= bound

    @pytest.mark.parametrize("reps", [1, SUM_BLOCK // 3, SUM_BLOCK // 3 + 1, SUM_BLOCK])
    def test_cancellation(self, reps):
        v = np.tile([1e16, 1.0, -1e16], reps)
        [(value, bound)] = weighted_sums(range(len(v)), lambda m, at: v[at], unit_factor, [0.0], 1.0)
        assert abs(value - reps) <= bound  # the exact sum is reps

    @pytest.mark.parametrize("n", [1, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1])
    def test_lengths_and_block_sizes(self, n):
        # A range and an index array over the same points give the same
        # blocks, the same position slices and the same sum.
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n)
        w = np.arange(n, dtype=np.float64)
        results = []
        for points in (range(n), np.arange(n)):
            seen = []

            def coef(m, at):
                seen.append(len(m))
                return v[at]

            [(value, bound)] = weighted_sums(points, coef, lambda m, x, y, out: m, [0.0], float(n))
            assert seen == [SUM_BLOCK] * (n // SUM_BLOCK) + ([n % SUM_BLOCK] if n % SUM_BLOCK else [])
            assert abs(exact_excess(value, v * w)) <= bound
            assert bound > 0.0 or not np.any(v * w)
            results.append((value, bound))
        assert results[0] == results[1]

    @pytest.mark.parametrize("n", [1, 7, SUM_BLOCK + 1])
    def test_buffers_64_byte_aligned(self, n):
        # The vector loops over the block buffers ran ~15% slower on a
        # 16-byte offset, so both rows must start on a 64-byte boundary.
        offsets = []

        def factor(m, x, y, v):
            offsets.extend([y.ctypes.data % 64, v.ctypes.data % 64])
            return m

        keep = []
        for size in range(1, 9):  # under several allocator states
            weighted_sums(range(n), lambda m, at: m, factor, [0.0], float(n))
            keep.append(np.empty(size))
        assert set(offsets) == {0}

    @pytest.mark.parametrize("n", [0, 1, SUM_BLOCK + 1])
    def test_one_pair_per_output(self, n):
        # Every x, swept over each block in the shared buffers, gets the
        # (value, bound) a single-x call gives; an empty point set gives
        # (0, 0) for each.
        v = np.random.default_rng(n).standard_normal(n)
        scales = [1.0, -3.0, 0.5]

        def sums(xs):
            return weighted_sums(
                range(n),
                lambda m, at: v[at],
                lambda m, s, y, out: np.multiply(np.add(m, s, out=y), s, out=out),
                xs,
                3.0 * (n + 3.0),  # |(m + s) s| for m < n and |s| <= 3
            )

        assert sums(scales) == [sums([s])[0] for s in scales]
        if n == 0:
            assert sums(scales) == [(0.0, 0.0)] * len(scales)

    @staticmethod
    def dot(c, f):
        """weighted_sums over range(len(c)) of c against the factor f."""
        return weighted_sums(
            range(len(c)), lambda m, at: c[at], lambda m, x, y, v: f[int(m[0]) : int(m[0]) + len(m)],
            [0.0], float(np.max(np.abs(f), initial=0.0)),
        )[0]

    @pytest.mark.parametrize("n", [1001, SUM_BLOCK])
    def test_block_sum_independent_of_alignment(self, n):
        # One block: its sum is the same with c and the factor at each of
        # the 8 byte offsets (multiples of 8) from a 64-byte boundary.
        rng = np.random.default_rng(n)
        values = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n))
        width = -(-n // 8) * 8 + 8
        raw = np.empty(2 * width + 8)
        base = (-raw.ctypes.data % 64) // 8
        sums = set()
        for oc in range(8):
            for of in range(8):
                c = raw[base + oc : base + oc + n]
                f = raw[base + width + of : base + width + of + n]
                c[:], f[:] = values
                assert (c.ctypes.data % 64, f.ctypes.data % 64) == (8 * oc, 8 * of)
                sums.add(self.dot(c, f)[0])
        assert len(sums) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=40),
        st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=1, max_size=7),
        st.sampled_from([1, 7, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 3 * SUM_BLOCK + 5]),
    )
    def test_fused_sum_within_gamma_b(self, cs, fs, n):
        # Each block's fused product-sum lies within gamma_B sum |c_i f_i| of
        # the exact sum (Higham sec. 3.1), and fsum of the blocks adds u |value|.
        # Factors of 0, +-1 and +-2 keep every product c_i f_i exact.
        c, f = np.resize(np.array(cs), n), np.resize(np.array(fs), n)
        value, _ = self.dot(c, f)
        products = c * f
        allowed = GAMMA_B * math.fsum(np.abs(products)) + UNIT_ROUNDOFF * abs(value)
        assert abs(exact_excess(value, products)) <= allowed

    @pytest.mark.parametrize("reps", [1, SUM_BLOCK // 3, SUM_BLOCK // 3 + 1, SUM_BLOCK])
    def test_fused_sum_cancellation(self, reps):
        c, f = np.tile([1e16, 1.0, -1e16], reps), np.tile([2.0, 1.0, 2.0], reps)
        value, _ = self.dot(c, f)
        # The exact sum is reps.
        assert abs(value - reps) <= GAMMA_B * math.fsum(np.abs(c * f)) + UNIT_ROUNDOFF * abs(value)


class TestHelperThread:
    """weighted_sums hands the odd-indexed blocks to one helper thread when
    there are two or more x and two or more usable CPUs."""

    N = 3 * SUM_BLOCK + 5

    @staticmethod
    def sums(xs, factor=lambda m, x, y, v: np.multiply(m, x, out=v)):
        # |m x| < 5 N for the x below.
        n = TestHelperThread.N
        return weighted_sums(range(n), lambda m, at: 1.0 / (m + 1.0), factor, xs, 5.0 * n)

    def test_single_x_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise RuntimeError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        self.sums([1.0])
        # Nor does a single block, which leaves the helper nothing to sweep.
        weighted_sums(range(SUM_BLOCK), lambda m, at: m, unit_factor, [1.0, 2.0], 1.0)
        if len(explicit._usable_cpus()) > 1:
            with pytest.raises(RuntimeError, match="thread started"):
                self.sums([1.0, 2.0])

    def test_helper_buffers_own_and_aligned(self):
        # Each thread sweeps in its own buffer pair, every row 64-byte aligned.
        rows = {}

        def factor(m, x, y, v):
            rows.setdefault(threading.get_ident(), set()).update([y.ctypes.data, v.ctypes.data])
            return np.multiply(m, x, out=v)

        self.sums([1.0, 2.0, 3.0], factor)
        assert len(rows) == (2 if len(explicit._usable_cpus()) > 1 else 1)
        addresses = [a for pair in rows.values() for a in pair]
        assert len(set(addresses)) == 2 * len(rows)
        assert all(a % 64 == 0 for a in addresses)

    def test_threads_on_separate_cpus(self):
        # Each thread runs on CPUs of its own during the call; the caller's
        # CPUs are restored and the helper joined after it, also when factor
        # raises.
        cpus = explicit._usable_cpus()
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        baseline = threading.active_count()
        seen = {}

        def factor(m, x, y, v):
            seen[threading.get_ident()] = frozenset(os.sched_getaffinity(0))
            if x == 4.0:
                raise ValueError("last x")
            return np.multiply(m, x, out=v)

        self.sums([1.0, 2.0, 3.0], factor)
        assert len(seen) == 2
        assert set(seen.values()) == {frozenset(cpus[:-1]), frozenset(cpus[-1:])}
        assert explicit._usable_cpus() == cpus
        with pytest.raises(ValueError, match="last x"):
            self.sums([1.0, 2.0, 3.0, 4.0], factor)
        assert explicit._usable_cpus() == cpus
        assert threading.active_count() == baseline

    def test_helper_exception_reaches_caller(self):
        raised_in = []

        def factor(m, x, y, v):
            if m[0] // SUM_BLOCK % 2 == 1:  # an odd block: the helper's half
                raised_in.append(threading.current_thread())
                raise ZeroDivisionError("helper block")
            return np.multiply(m, x, out=v)

        with pytest.raises(ZeroDivisionError, match="helper block"):
            self.sums([1.0, 2.0, 3.0], factor)
        if len(explicit._usable_cpus()) > 1:
            assert raised_in[0] is not threading.main_thread()

    def test_caller_error_stops_helper(self):
        # The caller raises on its first block; the helper, which reads the
        # flag before each of its blocks, stops after the one it is in
        # instead of sweeping all eight.  Its first call waits for the
        # caller's, so a caller slow to start cannot let it run ahead.
        if len(explicit._usable_cpus()) < 2:
            pytest.skip("needs two usable CPUs")
        caller, raising, helper_blocks = threading.get_ident(), threading.Event(), set()

        def factor(m, x, y, v):
            if threading.get_ident() == caller:
                raising.set()
                raise ZeroDivisionError("caller block")
            helper_blocks.add(int(m[0]) // SUM_BLOCK)
            raising.wait(timeout=60)
            return np.multiply(m, x, out=v)

        with pytest.raises(ZeroDivisionError, match="caller block"):
            weighted_sums(range(16 * SUM_BLOCK), lambda m, at: m, factor, [0.5 * j for j in range(1, 21)], 1.0)
        assert len(helper_blocks) <= 2, sorted(helper_blocks)

    def test_concurrent_calls_under_fast_switching(self):
        # Four callers at once, each with its helper: more threads than
        # CPUs, switching every microsecond; each sum matches its
        # single-x value.
        xs = [0.5 * j for j in range(1, 10)]
        expected = [self.sums([x])[0] for x in xs]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: results.append(self.sums(xs))) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [expected] * 4

    def test_threads_joined(self):
        baseline = threading.active_count()
        self.sums([1.0, 2.0])
        assert threading.active_count() == baseline

        def factor(m, x, y, v):
            raise ValueError("any x")

        with pytest.raises(ValueError):
            self.sums([1.0, 2.0], factor)
        assert threading.active_count() == baseline


class TestLhsTheorem1:
    def test_tail_bound_k1(self, table_1e6):
        ts = lhs_theorem1(table_1e6, 1, 10.5, 10**6)
        assert 0.0 < ts.tail_bound <= 2.5e-6
        assert ts.terms_used > 70000  # prime powers up to 1e6

    def test_tail_bound_k2(self, table_1e6):
        ts = lhs_theorem1(table_1e6, 2, 5.5, 10**6)
        assert ts.tail_bound <= 1e-11

    def test_empty_range(self, table_1e6):
        with pytest.raises(ValueError):
            lhs_theorem1(table_1e6, 1, 10.5, 10)

    def test_integer_x_rejected(self, table_1e6):
        with pytest.raises(ValueError):
            lhs_theorem1(table_1e6, 1, 10.0, 10**4)

    def test_infinite_x_rejected(self, table_1e6):
        with pytest.raises(ValueError, match="finite"):
            lhs_theorem1(table_1e6, 1, math.inf, 10**4)

    def test_k_range(self, table_1e6):
        with pytest.raises(ValueError):
            lhs_theorem1(table_1e6, 5, 10.5, 10**4)

    @pytest.mark.parametrize("k,x", [(1, 10.5), (2, 5.5)])
    def test_blocked_sum_matches_fsum(self, table_1e6, k, x):
        ts = lhs_theorem1(table_1e6, k, x, 10**6)
        above = table_1e6.prime_powers > x
        pf = table_1e6.prime_powers[above].astype(np.float64)
        vals = table_1e6.lam[above] * pf ** (-(k + 1)) * integral_ik_array(k, pf / x)
        assert 0.0 < ts.round_bound <= 1e-12
        assert abs(exact_excess(ts.value, vals)) <= ts.round_bound

    def test_lower_cut_at_a_prime(self, table_small):
        # The cut n > x is taken at floor(x): 7 is prime, so it is summed
        # just below x = 7 and not just above.
        below = lhs_theorem1(table_small, 1, 6.9999999, 10**4)
        above = lhs_theorem1(table_small, 1, 7.0000001, 10**4)
        assert below.terms_used == above.terms_used + 1
        assert below.terms_used == np.count_nonzero(table_small.prime_powers >= 7)

    def test_truncation_consistency(self, table_1e6):
        # enlarging N can only move the value by at most the smaller tail bound
        a = lhs_theorem1(table_1e6, 1, 10.5, 10**5)
        b = lhs_theorem1(table_1e6, 1, 10.5, 10**6)
        assert abs(a.value - b.value) <= a.tail_bound

    def test_peak_memory(self, table_1e6, traced_peak_bytes):
        # Lambda(n) and n are gathered one 2^16-term block at a time.
        assert traced_peak_bytes(lambda: lhs_theorem1(table_1e6, 2, 5.5, 10**6)) <= 4e6


class TestResidueAt:
    def test_p1_consistency(self):
        for x in (5.0, 10.0, 50.0):
            assert abs(residue_at(1, x, 1.0, 0.25) - printed_Pk(1, x)) <= 1e-9

    def test_k2_simple_pole_prediction(self):
        # adjudicates the pole order at s = 1: H_2(0) x^-2 / 2, no log term
        got = residue_at(2, 5.0, 1.0, 0.25)
        assert abs(got - hk_limit_at_zero(2) / 2.0 / 25.0) <= 1e-10

    def test_k2_s2_regular_point(self):
        assert abs(residue_at(2, 5.0, 2.0, 0.25)) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            residue_at(1, 10.0, 2.0, 0.25)  # s0 beyond k
        with pytest.raises(ValueError):
            residue_at(1, 10.0, 1.0, 0.35)  # radius cap
        with pytest.raises(ValueError):
            residue_at(1, 0.5, 1.0, 0.25)  # x <= 1


class TestZeroSum:
    def test_magnitudes_k1(self, zeros100):
        ts = zero_sum(1, 10.5, zeros100)
        assert abs(ts.value) <= 0.05
        # table-certified majorant with its 2x margin
        assert ts.tail_bound <= 2e-4

    def test_unrefined_rejected(self):
        raw = ZeroTable(entries=(ZeroEntry(1, 14.134725),), source="raw")
        with pytest.raises(ValueError):
            zero_sum(1, 10.5, raw)

    def test_unrefined_rejected_at_every_call(self, zeros100):
        # The residual check lives in the cached _zero_values, which keeps no
        # exception: an unrefined table raises again, a refined one still sums.
        entries = list(zeros100.entries)
        entries[7] = ZeroEntry(entries[7].index, entries[7].gamma)
        raw = ZeroTable(entries=tuple(entries), source="one raw zero")
        for _ in range(3):
            with pytest.raises(ValueError, match="refined"):
                zero_sum(2, 5.5, raw)
            with pytest.raises(ValueError, match="refined"):
                explicit.zero_pair_terms(2, 5.5, raw)
        assert math.isfinite(zero_sum(2, 5.5, zeros100).value)

    def test_table_hashed_once(self, zeros100, monkeypatch):
        # A new table equal to a cached one hashes its entries on its first
        # zero sum only; later sums find the cache without rehashing.
        hashed = []
        entry_hash = ZeroEntry.__hash__
        monkeypatch.setattr(ZeroEntry, "__hash__", lambda e: hashed.append(e) or entry_hash(e))
        table = ZeroTable(entries=zeros100.entries, source=zeros100.source)
        zero_sum(2, 5.5, zeros100)
        hashed.clear()
        for x in (5.5, 9.5, 13.5):
            assert zero_sum(2, x, table) == zero_sum(2, x, zeros100)
        assert len(hashed) == len(table.entries)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            zero_sum(1, 10.5, ZeroTable(entries=(), source="empty"))

    def test_tail_decreases_with_more_zeros(self, zeros100):
        # A shorter sum is a shorter table; its A_k is taken over its own 20 zeros.
        zeros20 = ZeroTable(entries=zeros100.entries[:20], source=zeros100.source)
        t20 = zero_sum(1, 10.5, zeros20)
        t100 = zero_sum(1, 10.5, zeros100)
        assert (t20.terms_used, t100.terms_used) == (40, 200)
        assert t100.tail_bound < t20.tail_bound


class TestTrivialSum:
    def test_leading_term_k1_x10(self, zeros100):
        # first term: sign * x^-4 H_1(3)/4, with H_1(3) = -(zeta(3)-1)/3
        ts = trivial_sum(1, 10.0)
        h13 = Hk_closed(1, 3.0).real
        leading = -1.0 * 10.0**-4.0 * h13 / 4.0
        assert abs(leading) == pytest.approx(1.68e-6, rel=0.01)
        assert abs(ts.value - leading) <= 3e-8  # later terms are x^-2 down
        assert ts.tail_bound < 1e-18 / (1 - 0.01)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            trivial_sum(1, 0.9)

    def test_fast_decay_k4(self):
        ts = trivial_sum(4, 100.0)
        assert abs(ts.value) <= 1e-12


class TestSignNegation:
    def test_zero_and_trivial_sums_negate_exactly(self, zeros100):
        # th1's sign adjudication forms sigma = +1 by negating these sums.
        for k in range(1, 5):
            for x in (5.5, 10.5):
                for plus, minus in (
                    (zero_sum(k, x, zeros100, sign=+1.0), zero_sum(k, x, zeros100, sign=-1.0)),
                    (trivial_sum(k, x, sign=+1.0), trivial_sum(k, x, sign=-1.0)),
                ):
                    assert plus.value == -minus.value, (k, x)
                    assert (plus.terms_used, plus.tail_bound) == (minus.terms_used, minus.tail_bound)


class TestRhsAssembly:
    def test_k1_structure(self, zeros100):
        rhs = rhs_theorem1(1, 10.5, zeros100)
        assert len(rhs.residues) == 1  # Q_1 structurally absent
        assert rhs.residues[0][0] == 1.0
        parts = [v for _, v in rhs.residues] + [rhs.zero_sum.value, rhs.trivial_sum.value]
        assert abs(rhs.total - math.fsum(parts)) <= 1e-15

    def test_k2_structure(self, zeros100):
        rhs = rhs_theorem1(2, 5.5, zeros100)
        assert [s0 for s0, _ in rhs.residues] == [1.0, 2.0]
        assert rhs.budget >= rhs.zero_sum.tail_bound


class TestFixedValues:
    """The caches of theorem 1's x-independent values (explicit._circle,
    _zero_values and _trivial_run)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_warm_equals_cold(self, zeros100, theorem1_caches, k):
        cold = [rhs_theorem1(k, 7.5, zeros100, sign=s) for s in (-1.0, 1.0)]
        for c in theorem1_caches:
            c.cache_clear()
        rhs_theorem1(k, 20.25, zeros100)
        assert all(c.cache_info().currsize for c in theorem1_caches)
        assert [rhs_theorem1(k, 7.5, zeros100, sign=s) for s in (-1.0, 1.0)] == cold

    def test_cached_arrays_read_only(self, zeros100, theorem1_caches):
        rhs_theorem1(2, 5.5, zeros100)
        arrays = [explicit._circle(2, float(s0), explicit.RESIDUE_RADIUS) for s0 in (1, 2)]
        arrays.append(explicit._zero_values(2, zeros100)[:3])
        assert [c.cache_info().misses for c in theorem1_caches[:2]] == [2, 1]
        arrays = [a for values in arrays for a in values]
        assert len(arrays) == 2 * 4 + 3  # two circles, one zero table
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_each_radius_evaluated_once(self, hk_batch_sizes):
        for radius in (0.25, 0.15, 0.3):
            residue_at(2, 5.5, 1.0, radius)
            residue_at(2, 9.5, 1.0, radius)
            assert hk_batch_sizes == [explicit.RESIDUE_NODES]
            hk_batch_sizes.clear()

    def test_bounded(self, theorem1_caches):
        radii = [0.3 - 0.002 * i for i in range(explicit._CACHE_ENTRIES + 3)]
        for r in radii:
            residue_at(1, 10.5, 1.0, r)
        circle = explicit._circle
        assert circle.cache_info().currsize == explicit._CACHE_ENTRIES
        misses = circle.cache_info().misses
        residue_at(1, 10.5, 1.0, radii[-1])
        assert circle.cache_info().misses == misses
        residue_at(1, 10.5, 1.0, radii[0])
        assert circle.cache_info().misses == misses + 1


class TestPrintedPk:
    def test_values(self):
        assert printed_Pk(1, 10.0) == pytest.approx((math.log(2 * math.pi) - 2) / 20.0, rel=1e-15)
        assert printed_Pk(2, 10.0) == pytest.approx(0.0070196, abs=1e-7)

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            printed_Pk(3, 10.0)


class TestExplicitFormulaMatch:
    @pytest.mark.parametrize("x", [10.5, 20.25])
    def test_k1(self, table_1e6, zeros100, x):
        lhs = lhs_theorem1(table_1e6, 1, x, 10**6)
        rhs = rhs_theorem1(1, x, zeros100)
        budget = lhs.tail_bound + rhs.budget
        assert abs(lhs.value - rhs.total) <= max(1e-3, budget)

    @pytest.mark.parametrize("x", [5.5, 9.5])
    def test_k2(self, table_1e6, zeros100, x):
        lhs = lhs_theorem1(table_1e6, 2, x, 10**6)
        rhs = rhs_theorem1(2, x, zeros100)
        budget = lhs.tail_bound + rhs.budget
        assert abs(lhs.value - rhs.total) <= max(1e-6, budget)

    def test_sign_adjudication_k1(self, table_1e6, zeros100):
        x = 10.5
        lhs = lhs_theorem1(table_1e6, 1, x, 10**6)
        rhs_minus = rhs_theorem1(1, x, zeros100, sign=-1.0)
        rhs_plus = rhs_theorem1(1, x, zeros100, sign=+1.0)
        d_minus = abs(lhs.value - rhs_minus.total)
        d_plus = abs(lhs.value - rhs_plus.total)
        budget = lhs.tail_bound + rhs_minus.budget
        # conditional form: when the zero sum rises clearly above the
        # budget, flipping the sign must strictly worsen the match
        if abs(rhs_minus.zero_sum.value) > 10.0 * budget:
            assert d_plus > d_minus
        # in any configuration the adopted sign must not lose
        assert d_minus <= d_plus

    def test_printed_p2_adjudication(self, table_1e6, zeros100):
        # the report must be able to state which P_2 candidate matches;
        # the contour residue (simple pole, no log x) is the winner
        x = 5.5
        lhs = lhs_theorem1(table_1e6, 2, x, 10**6)
        rhs = rhs_theorem1(2, x, zeros100)
        with_printed = printed_Pk(2, x) + rhs.residues[1][1] + rhs.zero_sum.value + rhs.trivial_sum.value
        assert abs(lhs.value - rhs.total) < abs(lhs.value - with_printed)
