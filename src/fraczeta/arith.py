"""Sieves and Dirichlet-convolution machinery for arithmetic weights.

Builds flat tables of the four weights used by the series identities:

- Lambda(n): log p if n = p^a, else 0 (von Mangoldt)
- mu(n): Moebius function
- mubar(n) = sum_{d|n} mu(d) sqrt(d) mu(n/d), Dirichlet series 1/(zeta(s) zeta(s-1/2))
- upsilon(n) = sum_{d|n} mu(d) sqrt(d) = prod_{p|n} (1 - sqrt(p)),
  Dirichlet series zeta(s)/zeta(s-1/2)

mubar and upsilon are produced by an O(N log N) divisor-loop convolution;
sqrt(d) is taken in binary64, which keeps every downstream tolerance
(>= 1e-8) with several orders of headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

__all__ = [
    "ArithmeticTable",
    "CapacityError",
    "build_sieve",
    "dirichlet_convolve",
]

# Peak resident bytes per table index during construction: the transient
# smallest-prime-factor sieve (4) + mu(1)
# + lambda(8) + mubar(8) + upsilon(8) + transient convolution inputs and
# the squarefree-product helper (~19).
_BYTES_PER_INDEX = 48

# 2 GiB: the largest table is n_max = 44739242 (~4.47e7).
MEM_BUDGET = 2 * 2**30


class CapacityError(ValueError):
    """Requested table exceeds the supported size or memory budget."""


@dataclass(frozen=True, eq=False)
class ArithmeticTable:
    """Immutable sieve output, arrays indexed 1..n_max (slot 0 unused).

    lam is Lambda(n); mu is the Moebius function in int8; mubar and
    upsilon are the two sqrt-weighted convolutions in float64.
    """

    n_max: int
    lam: np.ndarray
    mu: np.ndarray
    mubar_arr: np.ndarray
    upsilon_arr: np.ndarray
    _pp_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.n_max:
            raise IndexError(f"n={n} outside table range 1..{self.n_max}")

    def vonmangoldt(self, n: int) -> float:
        """Lambda(n)."""
        self._check(n)
        return float(self.lam[n])

    def moebius(self, n: int) -> int:
        """mu(n) in {-1, 0, 1}."""
        self._check(n)
        return int(self.mu[n])

    def mubar(self, n: int) -> float:
        """mubar(n) = sum_{d|n} mu(d) sqrt(d) mu(n/d)."""
        self._check(n)
        return float(self.mubar_arr[n])

    def upsilon(self, n: int) -> float:
        """upsilon(n) = sum_{d|n} mu(d) sqrt(d)."""
        self._check(n)
        return float(self.upsilon_arr[n])

    @property
    def prime_powers(self) -> np.ndarray:
        """Ascending indices n with Lambda(n) > 0 (cached)."""
        if "pp" not in self._pp_cache:
            self._pp_cache["pp"] = np.nonzero(self.lam)[0]
        return self._pp_cache["pp"]


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


def _spf_sieve(n: int) -> np.ndarray:
    """Smallest-prime-factor table; spf[1] = 1."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for i in range(2, isqrt(n) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
    idx = np.arange(n + 1, dtype=np.int32)
    rest = (spf == 0) & (idx >= 2)
    spf[rest] = idx[rest]
    if n >= 1:
        spf[1] = 1
    return spf


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

    spf = _spf_sieve(n_max)
    idx = np.arange(n_max + 1, dtype=np.int64)
    primes = idx[(spf == idx) & (idx >= 2)]
    del spf

    lam = np.zeros(n_max + 1)
    if primes.size:
        lam[primes] = np.log(primes.astype(np.float64))
        for p in primes[primes <= isqrt(n_max)]:
            p = int(p)
            logp = float(np.log(p))
            pk = p * p
            while pk <= n_max:
                lam[pk] = logp
                pk *= p

    # Moebius: flip sign per prime <= sqrt(n), kill square multiples, then
    # flip once more where a single prime factor > sqrt(n) remains (its
    # presence is detected by comparing the accumulated squarefree product
    # of small primes against n itself).
    mu = np.ones(n_max + 1, dtype=np.int8)
    prod = np.ones(n_max + 1, dtype=np.int64)
    for p in primes[primes <= isqrt(n_max)]:
        p = int(p)
        mu[p * p :: p * p] = 0
        mu[p::p] *= -1
        prod[p::p] *= p
    big_factor = (prod < idx) & (mu != 0) & (idx >= 2)
    mu[big_factor] *= -1
    mu[0] = 0
    if n_max >= 1:
        mu[1] = 1
    del prod, big_factor

    mu_sqrt = mu.astype(np.float64) * np.sqrt(idx.astype(np.float64))
    mubar = dirichlet_convolve(mu_sqrt, mu.astype(np.float64))
    upsilon = dirichlet_convolve(mu_sqrt, np.ones(n_max + 1))
    del mu_sqrt

    # Exact anchors at n = 1 regardless of float round-off in the loops.
    lam[1] = 0.0
    mubar[1] = 1.0
    upsilon[1] = 1.0

    for arr in (lam, mu, mubar, upsilon):
        arr.setflags(write=False)
    return ArithmeticTable(n_max=n_max, lam=lam, mu=mu, mubar_arr=mubar, upsilon_arr=upsilon)
