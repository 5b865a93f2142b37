"""Sieves and Dirichlet-convolution machinery for arithmetic weights.

Builds flat tables of the four weights used by the series identities:

- Lambda(n): log p if n = p^a, else 0 (von Mangoldt)
- mu(n): Moebius function
- mubar(n) = sum_{d|n} mu(d) sqrt(d) mu(n/d), Dirichlet series 1/(zeta(s) zeta(s-1/2))
- upsilon(n) = sum_{d|n} mu(d) sqrt(d) = prod_{p|n} (1 - sqrt(p)),
  Dirichlet series zeta(s)/zeta(s-1/2)

mu, mubar and upsilon are multiplicative, so one strided sieve over the
primes p <= sqrt(n_max) multiplies in their local factors at p^a; sqrt(p)
is taken in binary64, which keeps every downstream tolerance (>= 1e-8)
with several orders of headroom.  dirichlet_convolve is the independent
O(N log N) oracle the selftest and the tests check the sieve against.
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
# peak are lam(8) + mu(1) + mubar(8) + upsilon(8) and the int32
# sqrt(n_max)-smooth part (4): 29.  The large-prime pass works on 2^16-index
# slices, so its temporaries add nothing per index.  The peak RSS of a
# build grows by 29.5 B/index at 10^7 and 30.6 at 10^6.  44 stays: it
# leaves room for the allocator and numpy's buffers, and keeps the
# largest table under MEM_BUDGET (below) where it is.
_BYTES_PER_INDEX = 44

# 2 GiB: the largest table is n_max = 48806446 (~4.88e7).  It also keeps
# every index, and so the int32 smooth part, below 2^31.
MEM_BUDGET = 2 * 2**30

# The arrays every ArithmeticTable holds, and their dtypes.
_DTYPES = {"lam": np.float64, "mu": np.int8, "mubar_arr": np.float64, "upsilon_arr": np.float64}


class CapacityError(ValueError):
    """Requested table exceeds the supported size or memory budget."""


@dataclass(frozen=True, eq=False)
class ArithmeticTable:
    """Immutable sieve output, arrays indexed 1..n_max (slot 0 unused).

    lam is Lambda(n); mu is the Moebius function in int8; mubar_arr and
    upsilon_arr are the two sqrt-weighted convolutions in float64.
    Callers index the read-only arrays directly, singly or by slice.
    """

    n_max: int
    lam: np.ndarray
    mu: np.ndarray
    mubar_arr: np.ndarray
    upsilon_arr: np.ndarray

    def __post_init__(self):
        # Loaded tables pass through here too: a wrong dtype or length
        # raises, and every array becomes read-only.
        for name, dtype in _DTYPES.items():
            a = getattr(self, name)
            if a.dtype != dtype or a.shape != (self.n_max + 1,):
                raise ValueError(f"{name} is {a.dtype}{a.shape}, want {np.dtype(dtype)}({self.n_max + 1},)")
            a.setflags(write=False)

    def arrays(self) -> dict[str, np.ndarray]:
        """The four weight arrays by field name."""
        return {name: getattr(self, name) for name in _DTYPES}

    @cached_property
    def prime_powers(self) -> np.ndarray:
        """Ascending indices n with Lambda(n) > 0 (cached)."""
        return np.nonzero(self.lam)[0]

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


def build_sieve(n_max: int) -> ArithmeticTable:
    """Sieve all four weight arrays up to n_max.

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

    lam = np.zeros(n_max + 1)
    mu = np.ones(n_max + 1, dtype=np.int8)
    mubar = np.ones(n_max + 1)
    upsilon = np.ones(n_max + 1)
    # smooth[n] is the product of the p^a || n with p <= sqrt(n_max); when p
    # is reached, smooth[p] == 1 exactly when no smaller prime divides p.
    smooth = np.ones(n_max + 1, dtype=np.int32)
    # Local factors at p^a: mu -1, then 0 from a = 2; upsilon 1 - sqrt(p);
    # mubar -(1 + sqrt(p)), then sqrt(p) at a = 2 and 0 from a = 3.
    for p in range(2, isqrt(n_max) + 1):
        if smooth[p] != 1:
            continue
        s = sqrt(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        upsilon[p::p] *= 1.0 - s
        at_p2 = mubar[p * p :: p * p] * s
        mubar[p::p] *= -(1.0 + s)
        mubar[p * p :: p * p] = at_p2
        mubar[p**3 :: p**3] = 0.0
        pa = p
        while pa <= n_max:
            lam[pa] = log(p)
            smooth[pa::pa] *= p
            pa *= p

    # What is left of n is 1 or a single prime q > sqrt(n_max), and n is
    # prime itself when its smooth part is 1.  Slices of 2^16 indices keep
    # this pass's temporaries small.
    for lo in range(0, n_max + 1, 2**16):
        n = np.arange(lo, min(lo + 2**16, n_max + 1), dtype=np.int32)
        part = slice(lo, lo + len(n))
        large_primes = n[(smooth[part] == 1) & (n > 1)]
        lam[large_primes] = np.log(large_primes.astype(np.float64))
        q = np.floor_divide(n, smooth[part], out=smooth[part])
        big = q > 1
        np.negative(mu[part], out=mu[part], where=big)
        r = np.sqrt(q)
        np.multiply(upsilon[part], np.subtract(1.0, r, out=r), out=upsilon[part], where=big)
        np.sqrt(q, out=r)
        np.multiply(mubar[part], np.negative(np.add(1.0, r, out=r), out=r), out=mubar[part], where=big)

    mu[0] = 0
    mubar[0] = upsilon[0] = 0.0
    return ArithmeticTable(n_max=n_max, lam=lam, mu=mu, mubar_arr=mubar, upsilon_arr=upsilon)
