"""Sieves and Dirichlet-convolution machinery for arithmetic weights.

Builds the tables of the four weights used by the series identities:

- Lambda(n): log p if n = p^a, else 0 (von Mangoldt), stored sparsely as
  the prime powers n <= n_max and Lambda at each
- mu(n): Moebius function
- mubar(n) = sum_{d|n} mu(d) sqrt(d) mu(n/d), Dirichlet series 1/(zeta(s) zeta(s-1/2))
- upsilon(n) = sum_{d|n} mu(d) sqrt(d) = prod_{p|n} (1 - sqrt(p)),
  Dirichlet series zeta(s)/zeta(s-1/2)

mu, mubar and upsilon are multiplicative, so one sieve over the primes
p <= sqrt(n_max) multiplies in their local factors at p^a.  A table holds
Lambda, mu and mubar; the same sieve forms upsilon on the table's first
read of it, as only Theorem 4 and the selftest read it.  sqrt(p) is
taken in binary64, which keeps every downstream tolerance (>= 1e-8) with
several orders of headroom.  The sieve runs over SEGMENT-index segments
in order on the calling thread (the usual segmented layout, as in
Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014)), so its
working state, the smooth part of each index, is one segment long.  The
factors of the wheel primes 2, 3 and 5 (those with p^3 <= n_max) depend
on n mod 2^3 3^3 5^3 = 27000 alone: a segment forms its first 27000
indices and copies them over the rest.  The other primes with
p^3 <= n_max update strided slices one prime at a time.  The others
divide an index at most twice, and each 2^15-index slice takes all of
them in one np.multiply.at per array, over a template that lists their
multiples prime by prime with their factors, formed once per build; a
slice patches only the entries at p^2 and past its end, and restores
them after.  Every route gives each index its factors in increasing
order of p, and floating products are rounded in that order, so the
values depend neither on the segment size nor on the route a prime
takes.  A last pass per slice takes the one prime factor q > sqrt(n_max)
of n as the binary64 quotient q = n / (smooth part), exact as the smooth
part divides n < 2^31.  Lambda is log p at the powers of the primes
p <= sqrt(n_max) and log n at the n > sqrt(n_max) whose smooth part is
1; each segment writes its prime powers and Lambda straight into the
table's arrays, allocated once at a bound on their count and trimmed in
place, so pages past the last one written are never touched.
dirichlet_convolve is the independent O(N log N) oracle the selftest
and the tests check the sieve against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, log, prod, sqrt

import numpy as np

__all__ = [
    "ArithmeticTable",
    "CapacityError",
    "build_sieve",
    "dirichlet_convolve",
]

# Peak resident bytes per table index.  A build holds mu(1) + mubar(8)
# and the sparse Lambda, 16 bytes for each of the ~6.7% of indices that
# are prime powers at 10^7: 10.  upsilon, formed on its first read, adds
# 8.  The sieve's buffers, ~2 MB at full segments, do not grow with
# n_max: a build's VmHWM grows by 13.6 B/index at 10^6 and 10.4 at 10^7,
# the prime powers written in place, never joined.  44 stays: it leaves
# room for the allocator, numpy's buffers and a later upsilon, and keeps
# the largest table under MEM_BUDGET (below) where it is.
_BYTES_PER_INDEX = 44

# 2 GiB: the largest table is n_max = 48806446 (~4.88e7).  It also keeps
# every index below 2^31, as the int32 smooth part needs.
MEM_BUDGET = 2 * 2**30

# Indices per sieve segment; its smooth part takes 1 MB.  At
# 10^6, 2^16-index segments doubled the build time (per-prime Python
# work), and 2^20-index ones peaked above the unsegmented build's 61 MB.
SEGMENT = 2**18

# The arrays every ArithmeticTable holds, and their dtypes.
_DTYPES = {"prime_powers": np.int64, "lam": np.float64, "mu": np.int8, "mubar_arr": np.float64}


class CapacityError(ValueError):
    """Requested table exceeds the supported size or memory budget."""


@dataclass(frozen=True, eq=False)
class ArithmeticTable:
    """Immutable sieve output.

    prime_powers lists the n <= n_max with Lambda(n) > 0, increasing, and
    lam holds Lambda at each: lam[i] = Lambda(prime_powers[i]).  mu (the
    Moebius function, int8), mubar_arr and upsilon_arr (the two
    sqrt-weighted convolutions, float64) are indexed 0..n_max, slot 0
    unused; upsilon_arr is sieved on its first read.  Callers index the
    read-only arrays directly, singly or by slice.
    """

    n_max: int
    prime_powers: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    mubar_arr: np.ndarray

    def __post_init__(self):
        # Loaded tables pass through here too: a wrong dtype or length, or
        # prime powers out of order or range, raises, and every array
        # becomes read-only.
        pp = self.prime_powers
        for name, dtype in _DTYPES.items():
            a = getattr(self, name)
            want = pp.shape if name in ("prime_powers", "lam") else (self.n_max + 1,)
            if a.dtype != dtype or a.ndim != 1 or a.shape != want:
                raise ValueError(f"{name} is {a.dtype}{a.shape}, want {np.dtype(dtype)}{want}")
            a.setflags(write=False)
        if len(pp) and not (pp[0] >= 2 and pp[-1] <= self.n_max and np.all(pp[1:] > pp[:-1])):
            raise ValueError(f"prime_powers must increase strictly within [2, {self.n_max}]")
        if not np.all(self.lam > 0.0):
            raise ValueError("lam must be > 0")

    def check_n(self, N: int) -> None:
        """Raise ValueError unless 1 <= N <= n_max, the term counts the table covers."""
        if not 1 <= N <= self.n_max:
            raise ValueError(f"N must be in 1..{self.n_max}")

    def arrays(self) -> dict[str, np.ndarray]:
        """The four arrays the table holds, by field name."""
        return {name: getattr(self, name) for name in _DTYPES}

    @cached_property
    def squarefree(self) -> np.ndarray:
        """Ascending indices n with mu(n) != 0, as read-only int32 (cached),
        found a segment at a time: no int64 list of them all is held."""
        out, end = np.empty(np.count_nonzero(self.mu), dtype=np.int32), 0
        for lo in range(0, len(self.mu), SEGMENT):
            found = np.flatnonzero(self.mu[lo : lo + SEGMENT])
            end += len(np.add(found, lo, out=out[end : end + len(found)], casting="unsafe"))
            del found  # before the next segment's is formed
        out.setflags(write=False)
        return out

    @cached_property
    def upsilon_arr(self) -> np.ndarray:
        """upsilon indexed 0..n_max, slot 0 unused, read-only float64 (cached)."""
        up, _, _ = _sieve(self.n_max, upsilon=True)
        up[0] = 0.0
        up.setflags(write=False)
        return up


def dirichlet_convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Dirichlet convolution h(n) = sum_{d|n} f(d) g(n/d) for n = 1..N.

    Inputs are 1-indexed arrays of equal length N+1 (slot 0 ignored).
    The divisor loop is split at sqrt(N) so that both passes run as
    strided numpy slice updates; the work is the usual O(N log N) and
    the accumulation order is fixed, so results are deterministic.
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 1:
        raise ValueError("f and g must be 1-d arrays of the same length")
    n = f.shape[0] - 1
    if n < 1:
        raise ValueError("arrays must cover at least index 1")
    h = np.zeros(n + 1)
    d0 = isqrt(n)
    for d in range(1, d0 + 1):
        fd = f[d]
        if fd != 0.0:
            h[d::d] += fd * g[1 : n // d + 1]
    for m in range(1, n // (d0 + 1) + 1):
        gm = g[m]
        if gm != 0.0:
            top = n // m
            h[m * (d0 + 1) : m * top + 1 : m] += gm * f[d0 + 1 : top + 1]
    return h


def _primes_upto(m: int) -> list[int]:
    """The primes <= m, by the sieve of Eratosthenes."""
    composite = np.zeros(m + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(m) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).tolist()


def _first(d: int, lo: int) -> int:
    """Offset from lo of the first multiple of d that is >= max(d, lo)."""
    return max(d, -(-lo // d) * d) - lo


def build_sieve(n_max: int) -> ArithmeticTable:
    """Sieve Lambda, mu and mubar up to n_max (upsilon waits for its first read).

    Raises CapacityError, before allocating, when n_max < 1 or the
    estimated peak memory would exceed MEM_BUDGET.
    """
    if n_max < 1:
        raise CapacityError(f"n_max must be >= 1, got {n_max}")
    if n_max * _BYTES_PER_INDEX > MEM_BUDGET:
        raise CapacityError(
            f"n_max={n_max} needs ~{n_max * _BYTES_PER_INDEX / 2**30:.2f} GiB, "
            f"budget is {MEM_BUDGET / 2**30:.2f} GiB"
        )
    mu, mubar, prime_powers, lam = _sieve(n_max)
    mu[0] = 0
    mubar[0] = 0.0
    return ArithmeticTable(n_max=n_max, prime_powers=prime_powers, lam=lam, mu=mu, mubar_arr=mubar)


def _ranks(runs: np.ndarray) -> np.ndarray:
    """0, 1, ..., runs[i] - 1 for each i in turn."""
    return np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)


def _sieve(n_max: int, upsilon: bool = False):
    """The dense arrays, slot 0 not yet reset: mu and mubar, or upsilon
    alone if upsilon; then the prime powers and Lambda at each, empty if
    upsilon.  The smooth part and the large-prime pass run either way."""
    dense = [np.empty(n_max + 1)] if upsilon else [np.empty(n_max + 1, dtype=np.int8), np.empty(n_max + 1)]
    primes = _primes_upto(isqrt(n_max))
    # The powers p^a <= n_max of these primes, ascending, and Lambda at each.
    small = sorted((p**a, log(p)) for p in primes for a in range(1, n_max.bit_length()) if p**a <= n_max)
    small_pp = np.array([pa for pa, _ in small], dtype=np.int64)
    small_lam = np.array([lam for _, lam in small])
    # Room for every prime power: pi(x) < 1.25506 x / log x (Rosser and
    # Schoenfeld, 1962) and the powers of the small primes.  Pages past
    # the last one written are never touched, and the arrays are trimmed
    # in place at the end.
    cap = 0 if upsilon or n_max < 2 else int(1.25506 * n_max / log(n_max)) + 1 + len(small)
    prime_powers, lam = np.empty(cap, dtype=np.int64), np.empty(cap)
    cubed = sum(p**3 <= n_max for p in primes)
    strided = primes[:cubed]
    # The wheel: the strided primes among 2, 3 and 5, whose factors at an
    # index depend on it modulo period = prod p^3 alone.
    wheel = [p for p in strided if p <= 5]
    period = prod(p**3 for p in wheel)
    # The primes with p^3 > n_max divide an index at most twice.  In a
    # width-index slice each has at most runs = ceil(width/p) multiples:
    # entry e of the template is the j-th of them, step[e] = j p past the
    # first, for the prime big[which[e]].  2^15-index slices keep the slice
    # buffers near 0.5 MB; 2^16 ran no faster at 10^7.
    big = np.array(primes[cubed:], dtype=np.int64)
    big_root = np.sqrt(big.astype(np.float64))
    width = min(2**15, n_max + 1)
    runs = -(-width // big)
    which = np.repeat(np.arange(len(big), dtype=np.int32), runs)
    step = (big[which] * _ranks(runs)).astype(np.int32)
    # A slice holds at most ceil(width/p^2) multiples of p^2, p entries apart.
    sq = big * big
    which2 = np.repeat(np.arange(len(big)), -(-width // sq))
    step2 = big[which2] * _ranks(-(-width // sq))
    starts2, runs2 = (np.cumsum(runs) - runs)[which2], runs[which2]
    # The factors of the template's entries, formed once per build: smooth
    # part p, mubar -(1 + sqrt(p)) (upsilon 1 - sqrt(p)) and mu -1.  A slice
    # patches the entries at p^2 and past its end and then restores them.
    per_prime = [big.astype(np.int32), 1.0 - big_root if upsilon else -(big_root + 1.0)]
    per_prime += [] if upsilon else [np.full(len(big), -1, np.int8)]
    tpl = [v[which] for v in per_prime]
    iota = np.arange(width, dtype=np.int32)
    # The segment's smooth part; the large-prime pass's quotient and q = 1 flags.
    smooth = np.empty(min(SEGMENT, n_max + 1), dtype=np.int32)
    quot, ones = np.empty(width), np.empty(width, dtype=bool)

    def scatter(lo, d, sm):
        """Multiply in the big primes' factors at the slice lo:lo + len(sm).

        np.multiply.at applies the entries in template order, so each index
        takes its factors in increasing p.  Entries past the slice's end
        point at its first index with factor 1, which changes nothing.
        """
        first = np.maximum(-(-lo // big) * big, big) - lo
        idx = np.repeat(first, runs)
        idx += step
        past = np.flatnonzero(idx >= len(sm))
        idx[past] = 0
        # The first multiple of p^2 in the slice is the j0-th of p's entries.
        j = ((np.maximum(-(-lo // sq), 1) * sq - lo - first) // big)[which2] + step2
        at = (starts2 + j)[j < runs2]
        # At p^2: smooth part p^2, mubar sqrt(p), mu 0; upsilon 1 - sqrt(p) at both.
        tpl[0][at] *= tpl[0][at]
        if not upsilon:
            tpl[1][at], tpl[2][at] = big_root[which[at]], 0
        for factor in tpl:
            factor[past] = 1
        for target, factor in zip([sm, *d[::-1]], tpl):
            np.multiply.at(target, idx, factor)
        del idx  # before the restores, which a short last slice makes long
        for factor, v in zip(tpl, per_prime):
            factor[at] = v[which[at]]
            factor[past] = v[which[past]]

    def large_primes(lo, d, sm):
        """Multiply in the factor at the one prime q > sqrt(n_max) of each n, if any.

        What is left of n = lo + i is q = n / sm, 1 or that prime, exact in
        binary64 as sm divides n < 2^31.  Each factor is exactly 1 where
        q = 1: 1.0 * x and x + 0.0 (x != 0) are exact, so the values equal
        those of multiplying only where q > 1.  Slot 0 (q = 0) is reset by
        the caller.
        """
        q, one = quot[: len(sm)], ones[: len(sm)]
        np.divide(np.add(iota[: len(sm)], float(lo), out=q), sm, out=q)
        np.equal(q, 1.0, out=one)
        # upsilon (1 - sqrt(q)) + [q = 1]; mu 2 [q = 1] - 1, made in one's
        # place; mubar ((1 + sqrt(q)) - [q = 1]) (2 [q = 1] - 1).
        if upsilon:
            np.add(np.subtract(1.0, np.sqrt(q, out=q), out=q), one, out=q)
            np.multiply(d[0], q, out=d[0])
            return
        m, mb = d
        np.subtract(np.add(1.0, np.sqrt(q, out=q), out=q), one, out=q)
        sign = np.subtract(np.multiply(one.view(np.int8), 2, out=one.view(np.int8)), 1, out=one.view(np.int8))
        np.multiply(m, sign, out=m)
        np.multiply(mb, np.multiply(q, sign, out=q), out=mb)

    def local(d, p, first, end):
        """Multiply in p's local factors at d[:end], from the offsets first(p^a):
        mu -1, then 0 from a = 2; upsilon 1 - sqrt(p); mubar -(1 + sqrt(p)),
        then sqrt(p) at a = 2 and 0 from a = 3.  quot holds mubar's values at
        the multiples of p^2 meanwhile, at most end/p^2 + 1 <= width of them:
        a segment longer than width has the wheel, so end <= 27000 or p >= 7."""
        s = sqrt(p)
        a1, a2, a3 = first(p), first(p * p), first(p**3)
        if upsilon:
            d[0][a1:end:p] *= 1.0 - s
            return
        m, mb = d
        m[a1:end:p] *= -1
        m[a2:end : p * p] = 0
        kept = np.multiply(mb[a2:end : p * p], s, out=quot[: len(range(a2, end, p * p))])
        mb[a1:end:p] *= -(1.0 + s)
        mb[a2:end : p * p] = kept
        mb[a3:end : p**3] = 0.0

    def sieve(lo):
        """Segment [lo, lo + SEGMENT) of the dense arrays and its smooth part."""
        hi = min(lo + SEGMENT, n_max + 1)
        d, sm = [a[lo:hi] for a in dense], smooth[: hi - lo]
        # The wheel primes' factors, and their powers up to p^3 in the smooth
        # part, are formed in the segment's first period from their first
        # multiples >= lo (0 included) and copied over the rest; the other
        # factors from the first multiples of p^a that are >= max(p^a, lo).
        pat = min(period, hi - lo)
        for a in (*d, sm):
            a[:pat].fill(1)
        for p in wheel:
            local(d, p, lambda pa: -lo % pa, pat)
            for pa in (p, p * p, p**3):
                sm[-lo % pa : pat : pa] *= p
        for a in (*d, sm):
            whole = len(a) // pat * pat
            a[pat:whole].reshape(-1, pat)[:] = a[:pat]
            a[whole:] = a[: len(a) - whole]
        for p in strided[len(wheel) :]:
            local(d, p, lambda pa: _first(pa, lo), hi - lo)
        for p in strided:
            pa = p**4 if p in wheel else p
            while pa < hi:
                sm[_first(pa, lo) :: pa] *= p
                pa *= p
        for a in range(0, hi - lo, width):
            part = slice(a, a + width)
            scatter(lo + a, [x[part] for x in d], sm[part])
            large_primes(lo + a, [x[part] for x in d], sm[part])

    def collect(lo, end):
        """Write the segment's prime powers and Lambda from index end on, and
        return the new end: the n > 1 whose smooth part is 1, Lambda log n,
        and the powers of the smaller primes in it, marked alike, log p."""
        sm = smooth[: min(SEGMENT, n_max + 1 - lo)]
        inside = slice(*np.searchsorted(small_pp, (lo, lo + SEGMENT)))
        sm[small_pp[inside] - lo] = 1
        if lo == 0:
            sm[:2] = 0
        found = np.flatnonzero(sm == 1)
        n = np.add(found, lo, out=prime_powers[end : end + len(found)])
        np.log(n, out=lam[end : end + len(found)])
        lam[end + np.searchsorted(n, small_pp[inside])] = small_lam[inside]
        return end + len(found)

    end = 0
    for lo in range(0, n_max + 1, SEGMENT):
        sieve(lo)
        if not upsilon:
            end = collect(lo, end)
    prime_powers.resize(end, refcheck=False)
    lam.resize(end, refcheck=False)
    return *dense, prime_powers, lam
