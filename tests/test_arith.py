import dataclasses
import hashlib
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


def _digest(t):
    """sha256 over the table's four arrays and upsilon, names and bytes."""
    h = hashlib.sha256()
    for name, a in [*t.arrays().items(), ("upsilon_arr", t.upsilon_arr)]:
        h.update(name.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 of mu, mubar_arr and upsilon_arr at each n_max, taken from the
# sieve that still formed upsilon with the table, and at the edges of the
# small-prime wheel (the cubes of 2, 3 and 5 and one below, the period
# 30^3 alone and past the first SEGMENT) from the sieve that strided
# every prime with p^3 <= n_max in every segment.  Lambda is left out:
# libm and numpy log may differ by an ulp across platforms.
_PINNED_DIGESTS = {
    2: (
        "26a66b061e8f48f39927c312f25293959729eee95978e2892d49d3512a5cc092",
        "17fe7746811364de31d9bc37bf93557b78dd9c20dc35f1bea685785833c76410",
        "ac2f7f160fbe7b43b1035fdbe532fff56fc2b477e2f2286da0a17557f35dc96c",
    ),
    3: (
        "a6e2d3a090c0fafbc927e4fa9b68bda495eb93a471fc60145213e2a27f198c52",
        "1450bf5daa9d9f83d570d16ce90fd8847f6f0562e64d193fff8a6717b49c0490",
        "d3a6db808ff727ed6ece0512d08dda6ed58fee4e0875e3a0709e5917deac806e",
    ),
    7: (
        "3df8873346960a9b8ee58b0ff07b177b0095740c74db83add7007b8e48fdeccf",
        "64500dc4d7ea196669b101adac4ad8745fbbe3d1c64e9e791f73ecbf03adbbf2",
        "3c2e549f1f2a45bc273684f2234af6f840f4b355739729211c21cc02cd6c5055",
    ),
    8: (
        "093c1033692d3c935f454c723ca5ca1dbe2a0dc05730107ccefbd47eb5b01add",
        "aa27ba770697b40d82c364d672a439d696e42ecbbe356a8f5641d9e566cad87e",
        "9f3765639a1a543b56332a8a6dcf48e10d4ad3a4e2970acaca253da5f8ee69eb",
    ),
    26: (
        "1e90f398a651fdd54bd359f230717bea114de7df70777dcf91ef9e9c56c16e61",
        "d96bd54471506b53700608177d1bc7622ee0b9a03953714132eba27327b63632",
        "d216e409f89750bdeb78fead018da1184cabce1cd2f26bb789e57b94e326435b",
    ),
    27: (
        "3d5bef86d00383a2c42693ce23bcc1ce9652d4912a1411ac5a437582818606f5",
        "1a21f995043dab800b856c26e9eea565abc8e45dae94836cc3dd4f892dfff144",
        "2b212e63b7aaee5d9fa124b71183f25606ccf2df37b75385b548c8c87cc76ff5",
    ),
    100: (
        "92fb6073cdb1ae73bfb75b1848fb3b45da7cc9fd6ff50f4a1e08c7ec86245282",
        "a195a807fc60a0960546ee65f72182382c589115dab0c9a3e4ef1001b1bf1dad",
        "51e6f4ba6e0591d7317e94f33a6a733d71ec918d6b72c198968a938b46bece9a",
    ),
    124: (
        "082aef2f6bfb7d084808e22bff403056707e0e65713d481abc7189dd8cbac3c6",
        "0d9b0b2a2d5678da812618fdbde68d4e6b517fb9f3b233133b305f93f50b0782",
        "9db6c59448209c653fa7a5fb65b48e5e8fa500b5399664bd7f7e7686c997fd7a",
    ),
    125: (
        "3963224900e98a9d238f2b6892c21640466f02e38bd686ae8886f899e2eaed0d",
        "ff9eabccd534e0b31805cc7121026a203ca2df8e7fae50a1025464c64f8ca042",
        "cc072ae6a2ddb43c7685b2d0111233282c6f1c390f9ad253a943c195e3d65f30",
    ),
    23**3: (
        "b5120d6e6764dd5025a5fce88010a160fcbf3f44f30972d274038c8dd270e765",
        "2e0c0e54f6d17e0ed880b0bbd01b66f6067c393549a3906881d74d8c7a6c12d8",
        "a1952d510f69cba42f8691877f7036f26c4e7be933efa3322b304b7da5ff05af",
    ),
    30**3 - 1: (
        "c32fd0bb84f41b7b66cd4d1f829b31c86e7af21b79767d067896b40497ea579f",
        "3a8655d9cc6a633a26814d09434f4b1aa421c9c5f7d2f3d1687c319b5a5486bb",
        "2cc0a5804804b0933c14c4927f78877cf466a359cef7df5dcb60a42cb76fe8db",
    ),
    30**3: (
        "ad69309c334e68916f2cc21c6b670bf06003235160e09d21fc815f3ccef2c0a6",
        "276732008e5632e32320fb080c06b45549d6318b44ea494ea6a6b01354bd31ea",
        "999db8750a54ddcea347c7962726260a0ae5f4ce54321c118bcf0389cff2cfe1",
    ),
    30**3 + 1: (
        "5c552d062669baf3e4caa93ea02f618fc55c0e08109c6fae625d03c3598d8d60",
        "1cb0ed50216f8806f55f5100dd9d2601ba135324b6c2270c556663b6e019f6b3",
        "7fb940bf36335d354389d46b6ddf3c928a86f4724dd23d0bc73d83548163ec48",
    ),
    2**18 - 1: (
        "b93cf65b18c3f5cd28e1cc03bd021ee3c95da39ff9fad35a8206c37ffea7699d",
        "67c7daa64ba48a2ec90484eeb88b96b2b3d4a9b40280683756e2227a8e547425",
        "f99cb65d419a6be017de673bf44d7bbfb02f7c931b3dc21bce2718a647ced936",
    ),
    2**18: (
        "4592ee22893f827ce0bfb8bb4a57cac576c40ae8491c21f5d161fa0f409972ec",
        "6ccd752d650fbb5735559add8ea13658fa129fe6a39c12b7a76efcad9d353914",
        "4c3da415298596c62e1518379f3c328a88941bd106b58c223fe2e43c18076eb1",
    ),
    2**18 + 1: (
        "f664eb3d607436270d302a3b92999ec9acb344fbf0528097525f1ecd5e060d5c",
        "f6f77df74e4d7ab2a1f09daaf272838486927375a46e59d22c167202babee468",
        "6a8bd588caef2d79cb0daf9578b9d7640981a967d4b164ddc3fd9b263cb44852",
    ),
    2**18 + 30**3: (
        "fda74a10214e6f3717d4f929eb361b14b8bc920f65e09970771203ae20814be9",
        "d0b1e8b604f6c79783be32a1d48e6cbc66e70831596164d32974a7e3ec774d3a",
        "c7562e62b013e229f749a4191cc57ddae6b6454c1ef9c1591b484509041d3995",
    ),
    10**6 + 3: (
        "24be3a59a45fbfac7e5662b6046d1d641a86863e6442d8e1e0193b6ee7e8ad72",
        "0dad16ba6e948dbe8b41d984538bb1263b3b4ea665c81538a085a5bc705a53fa",
        "e8b72bcfbc922992bc5ab56781cc28495cccf962c437c8ef578de034ab700d4f",
    ),
}


def _peak_growth_kib(setup, measured=None):
    """How far a fresh process's VmHWM grows, in KiB, over running setup
    (from its imports on), or, given measured, over running measured after
    setup."""
    src = os.path.dirname(os.path.dirname(arith.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "from fraczeta.arith import build_sieve\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        + (f"{setup}\nbase = peak()\n{measured}\n" if measured else f"base = peak()\n{setup}\n")
        + "print(peak() - base)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return int(out.stdout)


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
        # At 10^7 the dense mu and mubar (9 B/index) and the sparse Lambda
        # (~1 B/index) dominate, and a build adds ~10.4 B/index; 11 catches
        # per-segment prime-power pieces held until a join (11.1), a
        # table-long smooth part (14.1), a dense Lambda (19.1) or an upsilon
        # formed with the table (19.1).  At 10^6 a build adds ~13.6 B/index,
        # the sieve's ~2 MB of fixed buffers included; 14 catches ~0.4 MB
        # more of them (a per-build wheel pattern of period 27000 is 0.35 MB).
        for n_max, bytes_per_index in [(10**6, 14), (10**7, 11)]:
            grown = _peak_growth_kib(f"build_sieve({n_max})")
            assert grown * 1024 <= n_max * bytes_per_index, n_max

    def test_upsilon_sieve_traced_peak(self, traced_peak_bytes):
        # The upsilon route's working set beyond its 8 B/index output: the
        # smooth part (1 MB), the template, the slice buffers and their
        # transients.  The sieve that strided 2, 3 and 5 in every segment,
        # with int64 template indices and per-slice factor copies, peaked
        # 2,078,368 B beyond it.
        n_max = 10**6
        peak = traced_peak_bytes(lambda: arith._sieve(n_max, upsilon=True))
        assert peak <= 8 * (n_max + 1) + 2_078_368

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_upsilon_on_demand_peak(self):
        # A table's first upsilon read adds upsilon (8 B/index) and the
        # sieve's buffers (~1.6 MB at 10^7) to the peak the build left.
        n_max = 10**7
        grown = _peak_growth_kib(f"t = build_sieve({n_max})", "t.upsilon_arr")
        assert grown * 1024 <= 8 * (n_max + 1) + 2 * 2**20

    @pytest.mark.parametrize("n_max", sorted(_PINNED_DIGESTS))
    def test_pinned_digests(self, n_max):
        # Across every segment and slice edge these cross, each value, upsilon
        # sieved on its first read included, is bit for bit the pinned one.
        t = build_sieve(n_max)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (t.mu, t.mubar_arr, t.upsilon_arr))
        assert digests == _PINNED_DIGESTS[n_max]

    def test_pinned_digests_1e7(self, table_1e7):
        # The session's 10^7 table, built or loaded from its cache: mu and
        # mubar across all 39 segments, pinned without a second build.
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (table_1e7.mu, table_1e7.mubar_arr))
        assert digests == (
            "1f95bb925dc59b5fd3629d0430615db0876a73228766803b5f5db0e05107e7b7",
            "fb2a748a532a3ba47d85cd648834fc38e9b572141bc845fa298acac6fb5f192e",
        )

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
        # Index 0 takes only the wheel's factors (2, 3 and 5) and a large-prime
        # quotient 0; more would overflow (upsilon's, from n_max ~4e6 on, which
        # CI checks at 10^7): past the wheel, in every segment the updates
        # for d start at the first multiple of d that is >= max(d, lo).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_sieve(3 * 10**5).upsilon_arr
        for lo in (0, 1, arith.SEGMENT, 3 * arith.SEGMENT):
            for d in (2, 7, 49, 343, 2**17, 2**18 + 1):
                first = lo + arith._first(d, lo)
                assert first % d == 0 and max(d, lo) <= first < max(d, lo) + d, (lo, d)

    def test_builds_start_no_thread(self, monkeypatch):
        # The segments run in order on the caller's thread, one or many.
        def refuse(thread):
            raise RuntimeError("thread started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        build_sieve(arith.SEGMENT + 1).upsilon_arr
        build_sieve(10**6).upsilon_arr

    def test_concurrent_builds_under_fast_switching(self):
        # Three builds at once, switching every microsecond, each also
        # reading upsilon of one shared table that has not sieved it yet;
        # each table, and each read, matches a lone build.
        n_max = 2**19 + 7
        lone = build_sieve(n_max)
        expected = _digest(lone)
        shared = build_sieve(n_max)
        results, reads = [], []

        def build_and_read():
            results.append(_digest(build_sieve(n_max)))
            reads.append(shared.upsilon_arr.tobytes() == lone.upsilon_arr.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=build_and_read) for _ in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [expected] * 3 and reads == [True] * 3


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
        # signed zeros included.  At 2^19 + 7 (three segments) 83 is the
        # first prime with p^3 > n_max.
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
