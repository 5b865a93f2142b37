"""Sieves and Dirichlet-convolution machinery for arithmetic weights.

Builds the tables of the four weights used by the series identities:

- Lambda(n): log p if n = p^a, else 0 (von Mangoldt), stored sparsely as
  the prime powers n <= n_max and Lambda at each
- mu(n): Moebius function
- mubar(n) = sum_{d|n} mu(d) sqrt(d) mu(n/d), Dirichlet series 1/(zeta(s) zeta(s-1/2))
- upsilon(n) = sum_{d|n} mu(d) sqrt(d) = prod_{p|n} (1 - sqrt(p)),
  Dirichlet series zeta(s)/zeta(s-1/2)

mu, mubar and upsilon are multiplicative, so one sieve over the primes
p <= sqrt(n_max) multiplies in their local factors at p^a; sqrt(p) is
taken in binary64, which keeps every downstream tolerance (>= 1e-8) with
several orders of headroom.  The sieve runs over SEGMENT-index segments
(the usual segmented layout, as in Oliveira e Silva, Herzog and Pardi,
Math. Comp. 83 (2014)), so its working state, the smooth part of each
index, is one segment long.  In a segment the primes with p^3 <= n_max
update strided slices one prime at a time.  The others divide an index
at most twice, and each 2^15-index slice takes all of them in one
np.multiply.at per array, over a template that lists their multiples
prime by prime, just before the slice's pass for the one prime factor
above sqrt(n_max).  Both routes give each index its factors in
increasing order of p, and floating products are rounded in that order,
so the values depend neither on the segment size nor on the route a
prime takes.

With two segments or more and two usable CPUs, the caller sieves the
even segments and the one worker of a pinned ThreadPoolExecutor
(pinned_helper) the odd ones, each with buffers of its own that the
caller allocates once.  Segments write disjoint slices of the tables
and keep the order of factors within each index, so the split changes
no value either.  Lambda is log p at the powers of the primes
p <= sqrt(n_max), listed up front, and log n at the n > sqrt(n_max)
whose smooth part is 1, which the large-prime pass marks.
dirichlet_convolve is the independent O(N log N) oracle the selftest
and the tests check the sieve against.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from math import isqrt, log, sqrt

import numpy as np

__all__ = [
    "ArithmeticTable",
    "CapacityError",
    "build_sieve",
    "dirichlet_convolve",
    "pinned_helper",
]

# Peak resident bytes per table index during construction.  Live at the
# peak are mu(1) + mubar(8) + upsilon(8) and the sparse Lambda, 16 bytes
# for each of the ~6.7% of indices that are prime powers at 10^7: 18.
# Each thread's buffers, ~1.5 MB at full segments, do not grow with
# n_max.  The VmHWM of a fresh process grows by 19.2 B/index at 10^7 and
# by 23.3 at 10^6, where the buffers of two threads weigh more (19.1 and
# 21.7 pinned to one CPU).  44 stays: it leaves room for the allocator
# and numpy's buffers, and keeps the largest table under MEM_BUDGET
# (below) where it is.
_BYTES_PER_INDEX = 44

# 2 GiB: the largest table is n_max = 48806446 (~4.88e7).  It also keeps
# every index below 2^31, as the int32 smooth part needs.
MEM_BUDGET = 2 * 2**30

# Indices per sieve segment; its smooth part takes 1 MB per thread.  At
# 10^6, 2^16-index segments doubled the build time (per-prime Python
# work), and 2^20-index ones peaked above the unsegmented build's 61 MB.
SEGMENT = 2**18

# The arrays every ArithmeticTable holds, and their dtypes.
_DTYPES = {"prime_powers": np.int64, "lam": np.float64,
           "mu": np.int8, "mubar_arr": np.float64, "upsilon_arr": np.float64}


class CapacityError(ValueError):
    """Requested table exceeds the supported size or memory budget."""


@dataclass(frozen=True, eq=False)
class ArithmeticTable:
    """Immutable sieve output.

    prime_powers lists the n <= n_max with Lambda(n) > 0, increasing, and
    lam holds Lambda at each: lam[i] = Lambda(prime_powers[i]).  mu (the
    Moebius function, int8), mubar_arr and upsilon_arr (the two
    sqrt-weighted convolutions, float64) are indexed 0..n_max, slot 0
    unused.  Callers index the read-only arrays directly, singly or by
    slice.
    """

    n_max: int
    prime_powers: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    mubar_arr: np.ndarray
    upsilon_arr: np.ndarray

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
        """The five arrays by field name."""
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


def _usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on now, ascending; [] where the
    platform cannot set a thread's CPUs (no os.sched_setaffinity)."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


@contextmanager
def pinned_helper():
    """One helper thread on the last of the caller's CPUs, the caller on the others.

    Yields submit(fn, *args), which hands fn(*args) to a one-worker
    ThreadPoolExecutor and returns wait(): wait blocks until that call is
    done and returns its value or raises its exception.  The helper runs
    calls in the order submitted.  On exit it finishes what is queued and
    stops, and the caller's CPUs are restored, also when the body raises.
    With one usable CPU, or on a platform without os.sched_setaffinity, it
    yields None, starts no thread and imports no executor.  Left to the
    scheduler, the helper was often woken on the caller's CPU, where the
    two take turns; so each has CPUs of its own.
    """
    cpus = _usable_cpus()
    if len(cpus) < 2:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as pool:
        # Pinned by its first call rather than an initializer, so that a
        # failure raises its own OSError here, not BrokenThreadPool.
        pool.submit(os.sched_setaffinity, 0, cpus[-1:]).result()
        os.sched_setaffinity(0, cpus[:-1])
        try:
            yield lambda fn, *args: pool.submit(fn, *args).result
        finally:
            os.sched_setaffinity(0, cpus)


class _Scratch:
    """One sieve thread's buffers, allocated once per build: the segment's
    smooth part, the scatter's indices and past-the-end flags (one per
    template entry), and three arrays that a slice's scatter and
    large-prime pass use in turn."""

    def __init__(self, segment: int, entries: int, slots: int):
        self.smooth = np.empty(segment, dtype=np.int32)
        self.idx, self.past = np.empty(entries, dtype=np.intp), np.empty(entries, dtype=bool)
        self.ints, self.flags, self.floats = (np.empty(slots, dtype=t) for t in (np.int32, bool, np.float64))

    def slot_views(self, length: int) -> tuple[np.ndarray, ...]:
        """ints, flags and floats cut to length."""
        return self.ints[:length], self.flags[:length], self.floats[:length]


def _first(d: int, lo: int) -> int:
    """Offset from lo of the first multiple of d that is >= max(d, lo)."""
    return max(d, -(-lo // d) * d) - lo


def build_sieve(n_max: int) -> ArithmeticTable:
    """Sieve all four weights up to n_max.

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
    # Each list is rebound to its concatenation at once, so the pieces of
    # one go before the other is joined; the sieve's buffers went with
    # _sieve's frame.
    mu, mubar, upsilon, prime_powers, lam = _sieve(n_max)
    prime_powers = np.concatenate(prime_powers, dtype=np.int64)
    lam = np.concatenate(lam)
    mu[0] = 0
    mubar[0] = upsilon[0] = 0.0
    return ArithmeticTable(n_max=n_max, prime_powers=prime_powers, lam=lam, mu=mu, mubar_arr=mubar,
                           upsilon_arr=upsilon)


def _sieve(n_max: int):
    """mu, mubar and upsilon, slot 0 not yet reset, and the prime powers
    and Lambda at each as lists of per-segment arrays."""
    # Each segment sets its own slices to 1, so the two threads share the
    # first touch of the pages too.
    mu = np.empty(n_max + 1, dtype=np.int8)
    mubar = np.empty(n_max + 1)
    upsilon = np.empty(n_max + 1)
    primes = _primes_upto(isqrt(n_max))
    # The powers p^a <= n_max of these primes, ascending, and Lambda at each.
    small = sorted((p**a, log(p)) for p in primes for a in range(1, n_max.bit_length()) if p**a <= n_max)
    small_pp = np.array([pa for pa, _ in small], dtype=np.int32)
    small_lam = np.array([lam for _, lam in small])
    cubed = sum(p**3 <= n_max for p in primes)
    strided = primes[:cubed]
    # The primes with p^3 > n_max divide an index at most twice.  In a
    # width-index slice each has at most ceil(width/p) multiples: entry e
    # of the template is the j-th of them, step[e] = j p past the first,
    # for the prime big[which[e]].  2^15-index slices keep a thread's slice
    # buffers near 0.5 MB; 2^16 ran no faster at 10^7 and, on two threads,
    # lifted a 10^6 build's peak above the one-thread sieve's.
    big = np.array(primes[cubed:], dtype=np.int64)
    big_root = np.sqrt(big.astype(np.float64))
    width = min(2**15, n_max + 1)
    runs = -(-width // big)
    which = np.repeat(np.arange(len(big)), runs)
    step = (big[which] * (np.arange(len(which)) - np.repeat(np.cumsum(runs) - runs, runs))).astype(np.int32)
    sq_e = (big * big).astype(np.int32)[which]
    iota = np.arange(width, dtype=np.int32)

    def scatter(lo, m, mb, up, sm, buf):
        """Multiply in the big primes' factors at the slice lo:lo + len(m).

        np.multiply.at applies the entries in template order, so each index
        takes its factors in increasing p.  Entries past the slice's end
        point at its first index with factor 1, which changes nothing.
        """
        idx, past = buf.idx, buf.past
        ints, flags, floats = buf.slot_views(len(which))
        first = np.maximum(-(-lo // big) * big, big) - lo
        np.add(np.take(first, which, out=idx, mode="clip"), step, out=idx)
        np.greater_equal(idx, len(m), out=past)
        np.copyto(idx, 0, where=past)
        np.equal(np.remainder(np.add(idx, lo, out=ints), sq_e, out=ints), 0, out=flags)
        at = np.flatnonzero(flags)
        # At p^2: mu 0, smooth part p^2, mubar sqrt(p); at p: -1, p, -(1 + sqrt(p)).
        signs = np.subtract(flags.view(np.int8), 1, out=flags.view(np.int8))
        np.take(big, which, out=ints, mode="clip")
        ints[at] *= ints[at]
        for target, factor in ((m, signs), (sm, ints)):
            np.copyto(factor, 1, where=past)
            np.multiply.at(target, idx, factor)
        np.negative(np.take(big_root + 1.0, which, out=floats, mode="clip"), out=floats)
        floats[at] = big_root[which[at]]
        np.copyto(floats, 1.0, where=past)
        np.multiply.at(mb, idx, floats)
        np.subtract(1.0, np.take(big_root, which, out=floats, mode="clip"), out=floats)
        np.copyto(floats, 1.0, where=past)
        np.multiply.at(up, idx, floats)

    def large_primes(lo, m, mb, up, sm, buf):
        """Multiply in the factor at the one prime q > sqrt(n_max) of each n, if any.

        What is left of n = lo + i is 1 or that q.  Each factor is exactly 1
        where q = 1: 1.0 * x and x + 0.0 (x != 0) are exact, so the values
        equal those of multiplying only where q > 1.  Slot 0 (q = 0) is
        reset by the caller.  sm is left -1 where n > 1 is itself prime
        (its smooth part was 1, so q = n) and q elsewhere.
        """
        n, one, f = buf.slot_views(len(m))
        np.add(iota[: len(m)], lo, out=n)
        q = np.floor_divide(n, sm, out=sm)
        np.equal(q, 1, out=one)
        # upsilon (1 - sqrt(q)) + [q = 1]; mu 2 [q = 1] - 1, made in one's
        # place; mubar ((1 + sqrt(q)) - [q = 1]) (2 [q = 1] - 1).
        np.add(np.subtract(1.0, np.sqrt(q, out=f), out=f), one, out=f)
        np.multiply(up, f, out=up)
        np.subtract(np.add(1.0, np.sqrt(q, out=f), out=f), one, out=f)
        sign = np.subtract(np.multiply(one.view(np.int8), 2, out=one.view(np.int8)), 1, out=one.view(np.int8))
        np.multiply(m, sign, out=m)
        np.multiply(mb, np.multiply(f, sign, out=f), out=mb)
        np.equal(q, n, out=one)
        if lo == 0:
            one[:2] = False
        np.copyto(sm, -1, where=one)

    def sieve(lo, buf):
        """Segment [lo, lo + SEGMENT): mu, mubar and upsilon, and in buf.smooth
        -1 at the primes > sqrt(n_max)."""
        hi = min(lo + SEGMENT, n_max + 1)
        m, mb, up, sm = mu[lo:hi], mubar[lo:hi], upsilon[lo:hi], buf.smooth[: hi - lo]
        for a in (m, mb, up):
            a.fill(1)
        # Local factors at p^a: mu -1, then 0 from a = 2; upsilon 1 - sqrt(p);
        # mubar -(1 + sqrt(p)), then sqrt(p) at a = 2 and 0 from a = 3.  Until
        # the smooth part is formed below, its buffer holds mubar's values at
        # the multiples of p^2: at most len/4 + 1 of them, in len//2 float64.
        at_p2 = buf.smooth[: len(buf.smooth) // 2 * 2].view(np.float64)
        for p in strided:
            s = sqrt(p)
            a1, a2, a3 = _first(p, lo), _first(p * p, lo), _first(p**3, lo)
            m[a1::p] *= -1
            m[a2 :: p * p] = 0
            up[a1::p] *= 1.0 - s
            kept = np.multiply(mb[a2 :: p * p], s, out=at_p2[: len(range(a2, hi - lo, p * p))])
            mb[a1::p] *= -(1.0 + s)
            mb[a2 :: p * p] = kept
            mb[a3 :: p**3] = 0.0
        sm.fill(1)
        for p in strided:
            pa = p
            while pa < hi:
                sm[_first(pa, lo) :: pa] *= p
                pa *= p
        for a in range(0, hi - lo, width):
            part = slice(a, a + width)
            scatter(lo + a, m[part], mb[part], up[part], sm[part], buf)
            large_primes(lo + a, m[part], mb[part], up[part], sm[part], buf)

    def collect(lo, smooth):
        """Append the segment's prime powers, int32 until they are joined: its
        primes > sqrt(n_max), with Lambda = log n, and the powers of the
        smaller primes that fall in it."""
        n = np.flatnonzero(smooth[: min(SEGMENT, n_max + 1 - lo)] == -1).astype(np.int32) + np.int32(lo)
        inside = slice(*np.searchsorted(small_pp, (lo, lo + SEGMENT)))
        at = np.searchsorted(n, small_pp[inside])
        prime_powers.append(np.insert(n, at, small_pp[inside]))
        lam.append(np.insert(np.log(n), at, small_lam[inside]))

    segments = range(0, n_max + 1, SEGMENT)
    prime_powers, lam = [], []
    with pinned_helper() if len(segments) > 1 else nullcontext() as submit:
        threads = 2 if submit else 1
        # The helper allocates nothing large: its buffers come from here.
        bufs = [_Scratch(min(SEGMENT, n_max + 1), len(which), max(width, len(which))) for _ in range(threads)]
        for j in range(0, len(segments), threads):
            pair = segments[j : j + threads]
            odd = submit(sieve, pair[1], bufs[1]) if len(pair) > 1 else None
            sieve(pair[0], bufs[0])
            collect(pair[0], bufs[0].smooth)
            if odd is not None:
                odd()
                collect(pair[1], bufs[1].smooth)

    return mu, mubar, upsilon, prime_powers, lam
