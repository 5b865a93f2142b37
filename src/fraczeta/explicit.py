"""Assembly and verification of the prime-power series over I_k against zeros.

The left side sum_{n>x} Lambda(n) n^-(k+1) I_k(n/x) is summed directly over
prime powers with a rigorous log-integral tail bound.  The right side is
rebuilt from the contour integrand

    G_k(s) = x^(s-1-k) H_k(1-s) (-zeta'(s)/zeta(s)) / (k+1-s),

as (a) numerical residues on small circles around s = 1..k, (b) the sum
over nontrivial zero pairs, and (c) the sum over trivial zeros.  The
explicit minus sign on zeta'/zeta implements sum Lambda(n) n^-w =
-zeta'(w)/zeta(w); the zero and trivial sums therefore carry a global
sign of -1, and the trivial-zero exponent is x^(-2j-1-k) (the residue of
G_k at s = -2j).  Both choices are treated as adjudicated output: the
harness can flip the sign and compare against the printed main terms to
report which variant the directly summed left side supports.

Contour quadrature on a circle is correct for any pole order (simple,
double, or none), so no pole-structure assumption enters the right side.
Only the powers x^(s-1-k) depend on x: the zeta-engine values beside
them are evaluated once per (k, circle), (k, zero table) or (k, run of
trivial zeros) and kept by functools.lru_cache (_circle, _zero_values,
_trivial_run).
"""

from __future__ import annotations

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .arith import ArithmeticTable, pinned_helper
from .bernpoly import ik_envelope, integral_ik_array
from .zeta import (
    EULER_GAMMA,
    ZERO_RESIDUAL_MAX,
    Hk_closed,
    ZeroTable,
    check_k,
    neg_zeta_log_deriv,
)

__all__ = [
    "TruncatedSum",
    "weighted_sums",
    "ExplicitFormulaRHS",
    "lhs_theorem1",
    "residue_at",
    "zero_sum",
    "zero_pair_terms",
    "trivial_sum",
    "rhs_theorem1",
    "printed_Pk",
]

RESIDUE_NODES = 64
RESIDUE_RADIUS = 0.25
# Per-residue quadrature allotment in the error budget.  The 64-node
# trapezoid on these circles is spectrally accurate; the allotment is
# dominated by zeta evaluation noise and cross-checked by the
# radius-independence invariant.
RESIDUE_QUAD_BOUND = 1e-10

SUM_BLOCK = 7 * 2**13  # see weighted_sums
_TRIVIAL_RUN = 16   # trivial zeros whose H_k one batch evaluates (x >= 4 needs one run)
UNIT_ROUNDOFF = 2.0**-53

# Theorem 1's right side depends on x only through the powers x^(s-1-k).
# _circle, _zero_values and _trivial_run return the zeta-engine values
# that do not, with read-only arrays; each cache keeps the _CACHE_ENTRIES
# most recently used.
_CACHE_ENTRIES = 64


def _check_k_x(k: int, x: float) -> None:
    """The right side's domain: k in zeta.K_VALUES and 1 < x < inf."""
    check_k(k)
    if not 1 < x < math.inf:
        raise ValueError("x must be > 1 and finite")


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class TruncatedSum:
    """A partial series value with rigorous bounds on its omitted tail and summation rounding."""

    value: float
    terms_used: int
    tail_bound: float
    round_bound: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("series value must be finite")
        if not all(math.isfinite(b) and b >= 0.0 for b in (self.tail_bound, self.round_bound)):
            raise ValueError("tail and rounding bounds must be finite and nonnegative")


def weighted_sums(points, coef, factor, xs, factor_max) -> list[tuple[float, float]]:
    """sum over n in points of coef(n) factor(n, x): one (value, round_bound) per x in xs.

    points is a range or an ascending index array, cut into SUM_BLOCK-point
    blocks.  Each block forms its points n as float64 and its coefficients
    once, as coef(n, at); at is the slice lo:lo+B of the block's positions
    in points, so it cuts the block from any array aligned with points
    (weights indexed by n itself are gathered at points[at]).  Every x then
    runs over the block while it is in cache: factor(n, x, y, v) returns
    the factor of each point (or one scalar) and may use the block buffers
    y and v of the thread that calls it as scratch and output.  One
    np.einsum, numpy's own loop and not BLAS, fuses the products with the
    block sum s_j = sum c_i f_i.

    With two or more x and two or more CPUs the caller may run on, one
    helper thread, started for the call, takes the odd blocks and the
    caller the even ones; each forms its blocks' n and coef and sweeps
    every x over them with a buffer pair of its own, and numpy releases
    the GIL inside the ufuncs, so the halves run at once.  For the call
    the helper runs on the last of the caller's CPUs and the caller on the
    others (arith.pinned_helper).  An exception factor raises in either
    thread reaches the caller.  A single x or block, one usable CPU, or a
    platform without os.sched_setaffinity starts no thread.  Each thread
    holds four block arrays (n, coef, y, v), so a 6-x profile at N = 10^6
    peaks near 3.7 MB traced, inside the 4 MB its per-call memory tests
    allow: SUM_BLOCK = 7 * 2^13 is the largest multiple of 2^13 that fits,
    and shorter blocks lose more to the GIL hand-off between ufunc calls.
    The split changes no value: each block sum is the same computation
    whichever thread forms it, and the fsum below is correctly rounded.

    factor_max is a proven bound on |factor| for every value factor
    computes (rounding included), at every x.  Each block also np.sums
    its |coef| to C_j, once for all x.  With u = 2^-53 and
    gamma_m = m u/(1 - m u), an inner product of at most B terms, formed
    in any order, with or without fused multiply-adds, lies within
    gamma_B sum |c_i f_i| of its exact value (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.1), barring underflow, and
    sum |c_i f_i| <= factor_max sum |c_i|.  C_j is a sum of nonnegative
    values, so sum |c_i| <= C_j/(1 - gamma_{B-1}), and
    sum_j C_j <= (1 + u) fsum(C_j).  Over all blocks, then,

        |sum_j s_j - sum_i c_i f_i|
            <= gamma_B (1 + u)/(1 - gamma_{B-1}) factor_max fsum(C_j)
            <= gamma_{B+1}/(1 - gamma_{B+1}) factor_max fsum(C_j),

    where B = SUM_BLOCK; the last step keeps a relative margin of ~1/B,
    which covers the few roundings in forming the bound itself.  fsum of
    the block sums s_j adds u |value|, so

        round_bound = gamma_{B+1} factor_max fsum(C_j)/(1 - gamma_{B+1}) + u |value|.

    round_bound covers that summation, not the error in evaluating each
    term.  Temporaries never outgrow one block per thread; an empty point
    set gives (0.0, 0.0) for each x.
    """
    starts = range(0, len(points), SUM_BLOCK)
    sums = [[0.0] * len(starts) for _ in xs]  # per x: the block sums
    coef_sums = [0.0] * len(starts)  # per block: np.sum of |coef|
    with pinned_helper() if len(xs) > 1 and len(starts) > 1 else nullcontext() as submit:
        threads = 2 if submit else 1
        # Each thread has its own buffer pair, every row on a 64-byte boundary.
        # Where the allocator left them 16 bytes off one, a 20-x mubar pass over
        # 10^7 terms ran ~15% slower, so its speed hung on the heap's history.
        width = -(-min(len(points), SUM_BLOCK) // 8) * 8
        raw = np.empty(2 * threads * width + 8)
        start = (-raw.ctypes.data % 64) // 8
        buffers = raw[start : start + 2 * threads * width].reshape(threads, 2, width)

        def sweep(part):
            """Thread part's blocks: those at positions part, part + threads, ... of starts."""
            for j in range(part, len(starts), threads):
                block = points[starts[j] : starts[j] + SUM_BLOCK]
                if isinstance(block, range):
                    n = np.arange(block.start, block.stop, dtype=np.float64)
                else:
                    n = block.astype(np.float64)
                c = coef(n, slice(starts[j], starts[j] + len(n)))
                y, v = buffers[part, :, : len(n)]
                coef_sums[j] = float(np.sum(np.abs(c, out=v)))
                for i, x in enumerate(xs):
                    f = factor(n, x, y, v)
                    sums[i][j] = float(np.einsum("i,i->" if np.ndim(f) else "i,->", c, f))
                del n, c  # before the next block's are formed

        helper = submit(sweep, 1) if submit else lambda: None
        sweep(0)
        helper()
    m = (SUM_BLOCK + 1) * UNIT_ROUNDOFF
    gamma = m / (1.0 - m)
    bound = gamma * factor_max * math.fsum(coef_sums) / (1.0 - gamma)
    return [(value, bound + UNIT_ROUNDOFF * abs(value)) for value in map(math.fsum, sums)]


@dataclass(frozen=True)
class ExplicitFormulaRHS:
    """Assembled right side: residues, zero sum, trivial sum, and budget."""

    residues: tuple[tuple[float, float], ...]   # (s0, residue value)
    zero_sum: TruncatedSum
    trivial_sum: TruncatedSum
    total: float
    budget: float


def lhs_theorem1(t: ArithmeticTable, k: int, x: float, N: int) -> TruncatedSum:
    """sum_{x < n <= N} Lambda(n) n^-(k+1) I_k(n/x) over prime powers, by weighted_sums.

    round_bound is weighted_sums' bound on the summation rounding, with
    factor_max = ik_envelope(k).  That bounds the computed I_k too: it is a
    grid maximum plus 1e-5 times a bound on |I_k'|, and a point lies within
    5e-6 of the grid, so the other 5e-6 times that bound (>= 1) covers the
    ~1e-15 of rounding in the grid values and in each computed I_k (for
    k = 1, sdot_array, within 1/8 + u/2; see fourier.SDOT_FACTOR_MAX).

    Tail bound: Lambda(n) <= log n and |I_k| <= M_k give
    M_k * integral_N^inf log(t) t^-(k+1) dt
        = M_k * (log(N)/(k N^k) + 1/(k^2 N^k)).
    """
    _check_k_x(k, x)
    if x == math.floor(x):
        raise ValueError("x must not be an integer")
    t.check_n(N)
    if N <= x:
        raise ValueError(f"empty summation range: N={N} <= x={x}")

    # Integer keys: x is not an integer, so n > x exactly when n > floor(x).
    lo, hi = np.searchsorted(t.prime_powers, [math.floor(x), N], side="right")
    pp, lam = t.prime_powers[lo:hi], t.lam[lo:hi]

    mk = ik_envelope(k)
    [(value, err)] = weighted_sums(
        pp,
        lambda n, at: lam[at] * n ** (-(k + 1)),
        lambda n, x, y, v: integral_ik_array(k, np.divide(n, x, out=y), out=v),
        [x],
        mk,
    )
    tail = mk * (math.log(N) / (k * N**k) + 1.0 / (k * k * N**k))
    return TruncatedSum(value, len(pp), tail, round_bound=err)


def residue_at(k: int, x: float, s0: float, radius: float = RESIDUE_RADIUS) -> float:
    """Real part of (1/2 pi i) times the contour integral of G_k around s0.

    64-node trapezoid on |s - s0| = radius.  Returns the residue for any
    pole order; a regular point yields ~0.  The nodes, H_k(1-z) and
    -zeta'/zeta(z) come from the cached _circle(k, s0, radius), so a call
    for a known (k, s0, radius) forms only the powers x^(z-1-k).
    """
    _check_k_x(k, x)
    if s0 not in tuple(float(i) for i in range(1, k + 1)):
        raise ValueError(f"s0 must be one of 1..{k}")
    if not 0.0 < radius <= 0.3:
        raise ValueError("radius must be in (0, 0.3]")

    z, turn, hk, nzld = _circle(k, s0, radius)
    g = np.exp((z - 1.0 - k) * math.log(x)) * hk * nzld / (k + 1.0 - z)
    vals = g * turn * (radius / RESIDUE_NODES)
    return math.fsum(vals.real.tolist())


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _circle(k: int, s0: float, radius: float):
    """Nodes z = s0 + radius e^(i theta), e^(i theta), H_k(1-z) and -zeta'/zeta(z)."""
    turn = np.exp(1j * (2.0 * np.pi * np.arange(RESIDUE_NODES) / RESIDUE_NODES))
    z = s0 + radius * turn
    return _read_only(z, turn, Hk_closed(k, 1.0 - z), neg_zeta_log_deriv(z))


def zero_pair_terms(k: int, x: float, zeros: ZeroTable) -> np.ndarray:
    """Complex per-pair contributions x^(rho-1-k) H_k(1-rho)/(k+1-rho) + (conjugate).

    One term per zero of the table.  Both members of each pair are
    evaluated explicitly, so the imaginary parts cancel only if the
    implementation is conjugate-symmetric; tests rely on that.
    H_k(1-rho) and H_k(1-conj(rho)) come from the cached
    _zero_values(k, zeros).
    """
    rho, hk, hk_conj, _ = _zero_values(k, zeros)
    return _pair_terms(k, x, rho, hk, hk_conj)


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _zero_values(k: int, zeros: ZeroTable):
    """rho, H_k(1-rho), H_k(1-conj(rho)) over the table, and the tail constant A_k.

    A_k = 2 * max over the table of |H_k(1-rho)/(k+1-rho)| * gamma^2, an
    empirical majorant constant (the 2x is the certification margin).
    An unrefined zero raises ValueError, at every call (lru_cache keeps none).
    """
    if any(e.residual > ZERO_RESIDUAL_MAX for e in zeros.entries):
        raise ValueError(f"zeros must be refined before use (residual <= {ZERO_RESIDUAL_MAX})")
    gam = np.array([e.gamma for e in zeros.entries])
    rho = 0.5 + 1j * gam
    hk = Hk_closed(k, 1.0 - rho)
    hk_conj = Hk_closed(k, 1.0 - rho.conj())
    a_k = 2.0 * float(np.max(np.abs(hk / (k + 1.0 - rho)) * gam**2, initial=0.0))
    return (*_read_only(rho, hk, hk_conj), a_k)


def _pair_terms(k: int, x: float, rho, hk_rho, hk_conj) -> np.ndarray:
    """zero_pair_terms from the zeros rho, H_k(1-rho) and H_k(1-conj(rho))."""
    out = np.zeros(rho.size, dtype=complex)
    for r, hk in ((rho, hk_rho), (rho.conj(), hk_conj)):
        out = out + np.exp((r - 1.0 - k) * math.log(x)) * hk / (k + 1.0 - r)
    return out


def zero_sum(k: int, x: float, zeros: ZeroTable, sign: float = -1.0) -> TruncatedSum:
    """Sum over every nontrivial zero pair of the table, with a zero-density tail majorant.

    A shorter sum takes a shorter table (cli.get_refined_zeros(count)).
    The tail above the table's last zero integrates the asymptotic density
    log(t/2pi)/(2pi) against A_k/t^2, where A_k is certified on the whole
    table and doubled; pairs contribute the leading factor 2.  H_k(1-rho),
    H_k(1-conj(rho)) and A_k come from the cached _zero_values(k, zeros),
    so only the first call for a table evaluates H_k and checks residuals;
    later calls, at any x or sign, form only the powers x^(rho-1-k).
    """
    _check_k_x(k, x)
    if not zeros.entries:
        raise ValueError("zero table is empty")

    rho, hk, hk_conj, a_k = _zero_values(k, zeros)
    pairs = _pair_terms(k, x, rho, hk, hk_conj)
    value = sign * math.fsum(pairs.real.tolist())

    gamma_cut = zeros.entries[-1].gamma
    tail = (
        x ** (-0.5 - k)
        * 2.0
        * (a_k / (2.0 * math.pi))
        * (math.log(gamma_cut / (2.0 * math.pi)) + 1.0)
        / gamma_cut
    )
    return TruncatedSum(value, 2 * len(zeros.entries), tail)


def trivial_sum(k: int, x: float, sign: float = -1.0) -> TruncatedSum:
    """Sum over trivial zeros: sign * sum_j x^(-2j-1-k) H_k(1+2j)/(k+1+2j).

    Terms decay geometrically in x^-2; summation stops when the next term
    drops below 1e-18 and that term, amplified by the geometric ratio,
    bounds the tail.  H_k(1+2j) comes in runs of _TRIVIAL_RUN values of j,
    each evaluated once per (k, first j) by the cached _trivial_run.
    """
    _check_k_x(k, x)
    terms: list[float] = []
    j0 = 1
    while True:
        for j, hk in enumerate(_trivial_run(k, j0), start=j0):
            term = sign * x ** (-2.0 * j - 1.0 - k) * hk / (k + 1.0 + 2.0 * j)
            if abs(term) < 1e-18:
                tail = abs(term) / (1.0 - x**-2.0)
                return TruncatedSum(math.fsum(terms), len(terms), tail)
            terms.append(term)
        j0 += _TRIVIAL_RUN


@functools.lru_cache(maxsize=_CACHE_ENTRIES)
def _trivial_run(k: int, j0: int) -> tuple[float, ...]:
    """H_k(1+2j) for j = j0 .. j0 + _TRIVIAL_RUN - 1, from one batch."""
    hks = Hk_closed(k, 1.0 + 2.0 * np.arange(j0, j0 + _TRIVIAL_RUN))
    return tuple(hks.real.tolist())


def rhs_theorem1(k: int, x: float, zeros: ZeroTable, sign: float = -1.0) -> ExplicitFormulaRHS:
    """Residues at s0 = 1..k plus the zero and trivial sums, budget aggregated.

    The residues do not depend on sign, and the zero and trivial sums
    negate exactly with it.
    """
    residues = tuple((float(s0), residue_at(k, x, float(s0))) for s0 in range(1, k + 1))
    zs = zero_sum(k, x, zeros, sign=sign)
    ts = trivial_sum(k, x, sign=sign)
    total = math.fsum([v for _, v in residues] + [zs.value, ts.value])
    budget = zs.tail_bound + ts.tail_bound + k * RESIDUE_QUAD_BOUND
    return ExplicitFormulaRHS(residues=residues, zero_sum=zs, trivial_sum=ts, total=total, budget=budget)


def printed_Pk(k: int, x: float) -> float:
    """The published main terms P_1, P_2, kept verbatim for adjudication.

    P_2 carries a log(x) term whose presence the contour residue at s = 1
    does not reproduce; reports state which candidate the directly summed
    left side supports.
    """
    _check_k_x(k, x)
    if k == 1:
        return (math.log(2.0 * math.pi) - 2.0) / (2.0 * x)
    if k == 2:
        return (8.0 - EULER_GAMMA - 3.0 * math.log(2.0 * math.pi) + math.log(x)) / (6.0 * x * x)
    raise ValueError("published main terms cover only k in {1, 2}")
