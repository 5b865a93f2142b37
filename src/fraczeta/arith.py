"""Sieves and Dirichlet-convolution machinery for arithmetic weights.

Builds the tables of the four weights used by the series identities:

- Lambda(n): log p if n = p^a, else 0 (von Mangoldt), stored sparsely as
  the prime powers n <= n_max and Lambda at each
- mu(n): Moebius function
- mubar(n) = sum_{d|n} mu(d) sqrt(d) mu(n/d), Dirichlet series 1/(zeta(s) zeta(s-1/2))
- upsilon(n) = sum_{d|n} mu(d) sqrt(d) = prod_{p|n} (1 - sqrt(p)),
  Dirichlet series zeta(s)/zeta(s-1/2)

mu, mubar and upsilon are multiplicative, so one strided sieve over the
primes p <= sqrt(n_max) multiplies in their local factors at p^a; sqrt(p)
is taken in binary64, which keeps every downstream tolerance (>= 1e-8)
with several orders of headroom.  The sieve runs over SEGMENT-index
segments (the usual segmented layout, as in Oliveira e Silva, Herzog and
Pardi, Math. Comp. 83 (2014)), so its working state, the smooth part of
each index and the Lambda marks, is one segment long; each index still
takes its factors in increasing order of p, so the values do not depend
on the segment size.  dirichlet_convolve is the independent O(N log N)
oracle the selftest and the tests check the sieve against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt, log, sqrt

import numpy as np

__all__ = [
    "ArithmeticTable",
    "CapacityError",
    "build_sieve",
    "dirichlet_convolve",
]

# Peak resident bytes per table index during construction.  Live at the
# peak are mu(1) + mubar(8) + upsilon(8) and the sparse Lambda, 16 bytes
# for each of the ~6.7% of indices that are prime powers at 10^7: 18.
# The smooth part and the Lambda marks are one SEGMENT long, so they add
# nothing per index.  The peak RSS of a build grows by 19.6 B/index at
# 10^7 and 23.2 at 10^6, where the segment's buffers weigh more.  44
# stays: it leaves room for the allocator and numpy's buffers, and keeps
# the largest table under MEM_BUDGET (below) where it is.
_BYTES_PER_INDEX = 44

# 2 GiB: the largest table is n_max = 48806446 (~4.88e7).  It also keeps
# every index below 2^31, as the int32 smooth part needs.
MEM_BUDGET = 2 * 2**30

# Indices per sieve segment; its smooth part and Lambda marks take 3 MB.
# At 10^6, 2^16-index segments doubled the build time (per-prime Python
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
        """Ascending indices n with mu(n) != 0, as read-only int32 (cached)."""
        out = np.flatnonzero(self.mu).astype(np.int32)
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

    mu = np.ones(n_max + 1, dtype=np.int8)
    mubar = np.ones(n_max + 1)
    upsilon = np.ones(n_max + 1)
    primes = _primes_upto(isqrt(n_max))
    # Per segment [lo, hi): smooth[i] becomes the product of the p^a || lo + i
    # with p <= sqrt(n_max), and marks[i] Lambda(lo + i); both buffers are
    # reused, and the marks are cleared again once they are kept.
    smooth = np.empty(min(SEGMENT, n_max + 1), dtype=np.int32)
    marks = np.zeros(len(smooth))
    prime_powers, lam = [], []
    for lo in range(0, n_max + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_max + 1)
        m, mb, up, sm, lm = mu[lo:hi], mubar[lo:hi], upsilon[lo:hi], smooth[: hi - lo], marks[: hi - lo]
        sm.fill(1)
        # Local factors at p^a: mu -1, then 0 from a = 2; upsilon 1 - sqrt(p);
        # mubar -(1 + sqrt(p)), then sqrt(p) at a = 2 and 0 from a = 3.
        for p in primes:
            s = sqrt(p)
            a1, a2, a3 = _first(p, lo), _first(p * p, lo), _first(p**3, lo)
            m[a1::p] *= -1
            m[a2 :: p * p] = 0
            up[a1::p] *= 1.0 - s
            at_p2 = mb[a2 :: p * p] * s
            mb[a1::p] *= -(1.0 + s)
            mb[a2 :: p * p] = at_p2
            mb[a3 :: p**3] = 0.0
            pa = p
            while pa < hi:
                if pa >= lo:
                    lm[pa - lo] = log(p)
                sm[_first(pa, lo) :: pa] *= p
                pa *= p

        # What is left of n is 1 or a single prime q > sqrt(n_max), and n is
        # prime itself when its smooth part is 1.  Slices of 2^16 indices keep
        # this pass's temporaries small.
        for a in range(0, hi - lo, 2**16):
            part = slice(a, a + 2**16)
            n = np.arange(lo + a, min(lo + a + 2**16, hi), dtype=np.int32)
            large = (sm[part] == 1) & (n > 1)
            lm[part][large] = np.log(n[large].astype(np.float64))
            q = np.floor_divide(n, sm[part], out=sm[part])
            big = q > 1
            np.negative(m[part], out=m[part], where=big)
            r = np.sqrt(q)
            np.multiply(up[part], np.subtract(1.0, r, out=r), out=up[part], where=big)
            np.sqrt(q, out=r)
            np.multiply(mb[part], np.negative(np.add(1.0, r, out=r), out=r), out=mb[part], where=big)

        at = np.flatnonzero(lm)
        prime_powers.append(at + lo)
        lam.append(lm[at])
        lm[at] = 0.0

    mu[0] = 0
    mubar[0] = upsilon[0] = 0.0
    return ArithmeticTable(
        n_max=n_max,
        prime_powers=np.concatenate(prime_powers),
        lam=np.concatenate(lam),
        mu=mu,
        mubar_arr=mubar,
        upsilon_arr=upsilon,
    )
