import dataclasses
import hashlib
import inspect
import math
import os
import random
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fraczeta import arith
from fraczeta.arith import CapacityError, build_sieve, dirichlet_convolve


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def lam_at(t, n):
    """Lambda(n) from the table's sparse Lambda: 0 unless n is a prime power."""
    i = np.searchsorted(t.prime_powers, n)
    return t.lam[i] if i < len(t.prime_powers) and t.prime_powers[i] == n else 0.0


class TestBuildSieve:
    def test_prime_power_and_two_prime_cases(self, table_small):
        assert lam_at(table_small, 8) == pytest.approx(math.log(2), abs=1e-15)
        assert table_small.mu[10] == 1

    def test_trivial_table(self):
        t = build_sieve(1)
        assert lam_at(t, 1) == 0.0 and t.prime_powers.size == 0
        assert t.mu[1] == 1
        assert t.mubar_arr[1] == 1.0
        assert t.upsilon_arr[1] == 1.0

    def test_mu_partial_series_vs_basel(self, table_1e6):
        n = np.arange(1, 10**6 + 1, dtype=np.float64)
        partial = math.fsum((table_1e6.mu[1:].astype(np.float64) / n**2).tolist())
        assert abs(partial - 6.0 / math.pi**2) <= 2e-6  # 1/N tail on top of the reference

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            build_sieve(0)
        with pytest.raises(CapacityError):
            build_sieve(2 * 10**8)
        with pytest.raises(CapacityError):
            build_sieve(5 * 10**7)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_peak_memory_within_estimate(self):
        # A fresh process's peak RSS, VmHWM in KiB, grows past its imports by
        # what one build adds.  ru_maxrss would not do: on Linux a child
        # keeps its parent's peak across exec, and hides the build under it.
        # At 10^7 the dense mu, mubar and upsilon (17 B/index) and the sparse
        # Lambda (~1 B/index) dominate, and a build adds ~20 B/index; 24
        # catches a table-long smooth part or a dense Lambda (29.5 B/index).
        src = os.path.dirname(os.path.dirname(arith.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for n_max, bytes_per_index in [(10**6, arith._BYTES_PER_INDEX), (10**7, 24)]:
            script = (
                "from fraczeta.arith import build_sieve\n"
                "def peak():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
                "base = peak()\n"
                f"build_sieve({n_max})\n"
                "print(peak() - base)\n"
            )
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True, timeout=120)
            assert int(out.stdout) * 1024 <= n_max * bytes_per_index, n_max

    def test_small_tables_match_large(self):
        # Every n_max crosses the sqrt(n_max) boundary where the large-prime
        # pass takes over from the loop (49, 121, 169, ...); the next three
        # end just before, on and after 23^3, where 23 moves from the
        # scattered primes (p^3 > n_max) to the strided ones; the next four
        # end just before, on and after an edge of its 2^15-index slices,
        # and the last four just before, on and after the first SEGMENT.
        ref = build_sieve(3 * 10**5)
        assert arith.SEGMENT == 2**18 < ref.n_max
        # The reference's Lambda, across both its segments, against the
        # oracle Lambda * 1 = log.
        lam = np.zeros(ref.n_max + 1)
        lam[ref.prime_powers] = ref.lam
        log_n = np.log(np.arange(1, ref.n_max + 1, dtype=np.float64))
        assert np.max(np.abs(dirichlet_convolve(lam, np.ones(ref.n_max + 1))[1:] - log_n)) <= 1e-12
        for n_max in [*range(1, 401), 23**3 - 1, 23**3, 23**3 + 1, 2**16 - 1, 2**16, 2**16 + 1,
                      2**17 + 3, 2**18 - 1, 2**18, 2**18 + 1, 2**18 + 7]:
            t = build_sieve(n_max)
            # The sparse Lambda of the smaller table is the prefix of the
            # reference's that stops at n_max.
            end = np.searchsorted(ref.prime_powers, n_max, side="right")
            assert np.array_equal(t.prime_powers, ref.prime_powers[:end]), n_max
            assert np.array_equal(t.lam, ref.lam[:end]), n_max
            assert np.array_equal(t.mu, ref.mu[: n_max + 1]), n_max
            assert np.max(np.abs(t.mubar_arr - ref.mubar_arr[: n_max + 1])) <= 1e-12, n_max
            assert np.max(np.abs(t.upsilon_arr - ref.upsilon_arr[: n_max + 1])) <= 1e-12, n_max

    def test_no_runtime_warning(self):
        # No strided update reaches index 0, whose products would overflow
        # (upsilon's, from n_max ~4e6 on): in every segment the updates for
        # d start at the first multiple of d that is >= max(d, lo).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_sieve(3 * 10**5)
        for lo in (0, 1, arith.SEGMENT, 3 * arith.SEGMENT):
            for d in (2, 7, 49, 343, 2**17, 2**18 + 1):
                first = lo + arith._first(d, lo)
                assert first % d == 0 and max(d, lo) <= first < max(d, lo) + d, (lo, d)


# The CPUs this process may run on, read before any test runs: a build
# that failed to restore its caller's CPUs would leave fewer behind.
CPUS = arith._usable_cpus()


def _digest(t):
    """sha256 over the table's five arrays, names and bytes."""
    h = hashlib.sha256()
    for name, a in t.arrays().items():
        h.update(name.encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestSieveThreads:
    """Two segments or more are split between the caller and one pinned
    helper thread; one segment, or one usable CPU, starts no thread."""

    def test_one_cpu_route_matches(self):
        cpus = CPUS
        if len(cpus) < 2:
            pytest.skip("needs two usable CPUs")
        sizes = (2**18 + 1, 2**19 + 7, 10**6 + 3)
        script = (
            "import hashlib, os\n"
            f"os.sched_setaffinity(0, {{{cpus[0]}}})\n"
            "from fraczeta import arith\n"
            "assert len(arith._usable_cpus()) == 1\n"
            f"{inspect.getsource(_digest)}\n"
            f"print([_digest(arith.build_sieve(n)) for n in {sizes}])\n"
        )
        src = os.path.dirname(os.path.dirname(arith.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr([_digest(build_sieve(n)) for n in sizes])

    def test_one_segment_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        # Slots 0..n_max: one segment up to n_max = SEGMENT - 1.
        build_sieve(10**5)
        build_sieve(arith.SEGMENT - 1)
        assert started == []
        build_sieve(arith.SEGMENT)
        assert len(started) == (1 if len(CPUS) > 1 else 0)
        assert arith._usable_cpus() == CPUS

    def test_helper_exception_reaches_caller(self, monkeypatch):
        # The helper sieves the odd segments; a failure there is raised in the
        # caller, whose CPUs are restored, and the helper is joined.
        if len(CPUS) < 2:
            pytest.skip("needs two usable CPUs")
        first = arith._first

        def failing(d, lo):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("helper segment")
            return first(d, lo)

        baseline = threading.active_count()
        monkeypatch.setattr(arith, "_first", failing)
        with pytest.raises(ZeroDivisionError, match="helper segment"):
            build_sieve(2 * arith.SEGMENT)
        assert arith._usable_cpus() == CPUS
        assert threading.active_count() == baseline

    def test_concurrent_builds_under_fast_switching(self):
        # Three builds at once, each with its helper: more threads than
        # CPUs, switching every microsecond; each table matches a lone build.
        n_max = 2**19 + 7
        expected = _digest(build_sieve(n_max))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=lambda: results.append(_digest(build_sieve(n_max))))
                       for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [expected] * 3
        assert arith._usable_cpus() == CPUS

    def test_pinned_helper(self):
        cpus = CPUS
        baseline = threading.active_count()
        with arith.pinned_helper() as submit:
            if len(cpus) < 2:
                assert submit is None
                return
            assert submit(os.sched_getaffinity, 0)() == set(cpus[-1:])
            assert os.sched_getaffinity(0) == set(cpus[:-1])
            wait = submit(math.sqrt, -1.0)
            with pytest.raises(ValueError):
                wait()
        assert arith._usable_cpus() == cpus
        assert threading.active_count() == baseline
        with pytest.raises(KeyError):
            with arith.pinned_helper() as submit:
                submit(math.sqrt, 4.0)
                raise KeyError("caller")
        assert arith._usable_cpus() == cpus
        assert threading.active_count() == baseline


class TestVonMangoldt:
    def test_prime_square(self, table_small):
        assert lam_at(table_small, 9) == pytest.approx(math.log(3), abs=1e-15)

    def test_two_distinct_primes(self, table_small):
        assert lam_at(table_small, 12) == 0.0

    def test_divisor_sum_is_log(self, table_small):
        s = math.fsum(lam_at(table_small, d) for d in brute_divisors(12))
        assert abs(s - math.log(12)) <= 1e-12


class TestMoebius:
    def test_examples(self, table_small):
        assert table_small.mu[1] == 1
        assert table_small.mu[12] == 0
        assert table_small.mu[30] == -1


class TestDirichletConvolve:
    def test_divisor_count_at_6(self):
        one = np.ones(11)
        h = dirichlet_convolve(one, one)
        assert h[6] == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_convolve(np.ones(5), np.ones(6))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 60), st.data())
    def test_matches_brute_force(self, n, data):
        f = np.array([0.0] + data.draw(st.lists(
            st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n)))
        g = np.array([0.0] + data.draw(st.lists(
            st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n)))
        h = dirichlet_convolve(f, g)
        for m in range(1, n + 1):
            ref = math.fsum(f[d] * g[m // d] for d in brute_divisors(m))
            assert h[m] == pytest.approx(ref, abs=1e-10)


class TestMubarUpsilon:
    def test_products_in_increasing_p(self):
        # Each index takes its local factors in increasing p from 1.0, and a
        # cube of p sets mubar to +0.0 before the larger primes multiply in:
        # the same steps in Python floats give every value bit for bit,
        # signed zeros included.  At 2^19 + 7 (three segments, two threads
        # where there are two CPUs) 83 is the first prime with p^3 > n_max.
        n_max = 2**19 + 7
        t = build_sieve(n_max)
        rng = random.Random(7)
        for n in [*range(1, 3000), *rng.sample(range(3000, n_max + 1), 3000)]:
            mu, mubar, upsilon, m, p = 1, 1.0, 1.0, n, 2
            while m > 1:
                if p * p > m:
                    p = m
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                if a:
                    s = math.sqrt(p)
                    mu *= -1 if a == 1 else 0
                    mubar = mubar * -(1.0 + s) if a == 1 else mubar * s if a == 2 else 0.0
                    upsilon *= 1.0 - s
                p += 1
            assert t.mu[n] == mu, n
            assert t.mubar_arr[n].tobytes() == np.float64(mubar).tobytes(), n
            assert t.upsilon_arr[n].tobytes() == np.float64(upsilon).tobytes(), n

    def test_mubar_examples(self, table_small):
        assert table_small.mubar_arr[1] == 1.0
        assert table_small.mubar_arr[2] == pytest.approx(-1.0 - math.sqrt(2.0), abs=1e-14)
        assert table_small.mubar_arr[4] == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_upsilon_examples(self, table_small):
        assert table_small.upsilon_arr[1] == 1.0
        assert table_small.upsilon_arr[3] == pytest.approx(1.0 - math.sqrt(3.0), abs=1e-14)
        assert table_small.upsilon_arr[6] == pytest.approx(
            (1.0 - math.sqrt(2.0)) * (1.0 - math.sqrt(3.0)), abs=1e-12
        )

    def test_divisor_enumeration_oracle(self, table_small):
        for n in range(1, 300):
            mb = math.fsum(
                table_small.mu[d] * math.sqrt(d) * table_small.mu[n // d]
                for d in brute_divisors(n)
            )
            up = math.fsum(
                table_small.mu[d] * math.sqrt(d) for d in brute_divisors(n)
            )
            assert table_small.mubar_arr[n] == pytest.approx(mb, abs=1e-11)
            assert table_small.upsilon_arr[n] == pytest.approx(up, abs=1e-11)

    def test_upsilon_prime_factor_product(self, table_small):
        # upsilon(n) = prod over distinct primes p | n of (1 - sqrt(p))
        for n in (2, 9, 30, 210, 1024, 9972):
            primes = [p for p in range(2, n + 1) if n % p == 0 and len(brute_divisors(p)) == 2]
            prod = math.prod(1.0 - math.sqrt(p) for p in primes)
            assert table_small.upsilon_arr[n] == pytest.approx(prod, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 1000))
    def test_multiplicativity(self, table_1e6, m, n):
        assume(math.gcd(m, n) == 1)
        for w in (table_1e6.mubar_arr, table_1e6.upsilon_arr):
            assert w[m * n] == pytest.approx(w[m] * w[n], abs=1e-12 * max(1.0, abs(w[m * n])))

    def test_size_bounds(self, table_small):
        for n in range(1, 10**4 + 1):
            assert abs(table_small.upsilon_arr[n]) <= math.sqrt(n) + 1e-9
            sigma_half = math.fsum(math.sqrt(d) for d in brute_divisors(n)) if n <= 300 else None
            if sigma_half is not None:
                assert abs(table_small.mubar_arr[n]) <= sigma_half + 1e-9


class TestTableInvariants:
    def test_squarefree_index_list(self, table_small):
        sf = table_small.squarefree
        assert sf.dtype == np.int32 and not sf.flags.writeable
        assert np.array_equal(sf, np.flatnonzero(table_small.mu))
        assert table_small.squarefree is sf

    def test_squarefree_by_segments(self, table_1e6, traced_peak_bytes):
        # Over four segments the list is the same, and building it holds the
        # int32 result and one segment's int64 indices, not an int64 list of
        # all of them (4.9 MB here).
        t = dataclasses.replace(table_1e6)
        peak = traced_peak_bytes(lambda: t.squarefree)
        assert np.array_equal(t.squarefree, np.flatnonzero(t.mu))
        assert t.squarefree.dtype == np.int32 and not t.squarefree.flags.writeable
        assert peak <= t.squarefree.nbytes + 8 * arith.SEGMENT

    def test_sparse_lambda_checked(self, table_small):
        # A table, built or loaded, keeps prime_powers int64, increasing and
        # in [2, n_max], and lam float64, aligned with it and positive.
        arrays = table_small.arrays()
        pp, lam = arrays["prime_powers"], arrays["lam"]
        assert pp.dtype == np.int64 and lam.dtype == np.float64
        assert not pp.flags.writeable and not lam.flags.writeable
        swapped = pp.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        for bad in [
            dict(prime_powers=swapped),
            dict(prime_powers=np.concatenate([[1], pp[1:]])),
            dict(prime_powers=np.concatenate([pp[:-1], [table_small.n_max + 1]])),
            dict(prime_powers=pp.astype(np.int32)),
            dict(lam=np.concatenate([[0.0], lam[1:]])),
            dict(lam=lam[:-1]),
            dict(lam=lam.astype(np.float32)),
        ]:
            with pytest.raises(ValueError):
                arith.ArithmeticTable(table_small.n_max, **dict(arrays, **bad))
        arith.ArithmeticTable(table_small.n_max, **arrays)

    def test_dirichlet_series_cross_check(self, table_1e6):
        from fraczeta.zeta import zeta_em

        N = 10**6
        n = np.arange(1, N + 1, dtype=np.float64)
        partial = math.fsum((table_1e6.mubar_arr[1:] / n**3).tolist())
        target = 1.0 / (zeta_em(3.0).real * zeta_em(2.5).real)
        tail = 2.8 / N**1.5  # split of sum_{n>N} sigma_{1/2}(n)/n^3 at d = N
        assert abs(partial - target) <= 1e3 * tail

        partial_u = math.fsum((table_1e6.upsilon_arr[1:] / n**3).tolist())
        target_u = zeta_em(3.0).real / zeta_em(2.5).real
        assert abs(partial_u - target_u) <= 1e3 * tail
