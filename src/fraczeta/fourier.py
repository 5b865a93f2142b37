"""Sawtooth-weighted Dirichlet sums, their cosine-series right sides, and
the decay-slope diagnostic.

The identities verified here pair sums of the form

    sum_n w(n) n^-p sdot(n/x),   w in {Lambda, mu, mubar},

with absolutely convergent cosine series.  The normalization of every
right side is 1/(2 pi^2); the widely quoted 1/pi^2 variant is off by a
factor of two, which the closed-form x = 2 oracle for the mu-weighted sum
pins down numerically (only odd n contribute sdot = -1/8 there, and
sum_{n odd} mu(n)/n^2 = 8/pi^2, so the left side is exactly -1/pi^2).
Report builders evaluate both constants and record which one matches.

Both cosine right sides form cos(2 pi n/x) one way, by angle addition
(_rotation): a table of cos and sin of 2 pi j/x per call turns each
block's first point into the block's cosines, with no cosine per term.
The Lambda form's sum_n log(n) n^-2 (cos(2 pi n/x) - 1) splits into
zeta'(2) and a cosine sum whose tail Abel summation bounds by
log(M+1)/(M+1)^2 / |sin(pi/x)|, so COS_TERMS terms replace 10^6 wherever
sin(pi/x) is not small.  The upsilon form keeps every term.

The decay explorer fits log|sum| against log x for the mubar-weighted
sum; a slope near -1 is the behavior consistent with the Riemann
Hypothesis, while slope <= -1/2 is guaranteed unconditionally.  No finite
computation can settle the asymptotic criterion, so the fit is a
diagnostic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import ArithmeticTable
from .explicit import SUM_BLOCK, UNIT_ROUNDOFF, TruncatedSum, weighted_sums

__all__ = [
    "SlopeFit",
    "InsufficientDataError",
    "lhs_weighted_sdot",
    "rhs_th2_log",
    "rhs_th2_mu",
    "rhs_th4_upsilon",
    "rh_slope",
    "rh_decay_profile",
]

TWO_PI_SQ = 2.0 * math.pi**2
SDOT_MAX = 0.125  # exact: max |({y}^2 - {y})/2| is 1/8 at half-integers
# Proven bounds on the computed factors, rounding included, which the sums
# pass to weighted_sums as factor_max (u = UNIT_ROUNDOFF).  sdot's is
# derived in lhs_weighted_sdot (the sdot sums pass twice it, for 2 sdot),
# the rotation's cosine and cosine minus one in _rotation.
SDOT_FACTOR_MAX = SDOT_MAX + UNIT_ROUNDOFF / 2
COS_FACTOR_MAX = 1.0 + 11.0 * UNIT_ROUNDOFF
ROTATION_FACTOR_MAX = 2.0 + 12.0 * UNIT_ROUNDOFF
ZETA_PRIME_2 = -0.9375482543158438  # zeta'(2), correctly rounded
COS_TERMS = 10**4  # cosine terms of rhs_th2_log's split route

_SUPPORTED = {("lambda", 2.0), ("mu", 2.0), ("mu", 1.5), ("mubar", 2.0)}


def _check_x(*xs: float) -> None:
    """The sums' domain: every x > 0 and finite."""
    if not all(0 < x < math.inf for x in xs):
        raise ValueError("x must be > 0 and finite")


class InsufficientDataError(ValueError):
    """Too few usable points for a slope fit."""


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log x, log |value|).

    delta_prime is the decay exponent implied by value ~ x^(-delta'-1).
    dropped counts points discarded for sitting at or below 3x their
    noise floor.
    """

    points: tuple[tuple[float, float], ...]
    slope: float
    r_squared: float
    dropped: int

    @property
    def delta_prime(self) -> float:
        return -self.slope - 1.0


def lhs_weighted_sdot(
    t: ArithmeticTable, weight: str, p: float, x: float, N: int
) -> TruncatedSum:
    """sum_{n<=N} w(n) n^-p sdot(n/x): _sdot_sums at one x.

    round_bound is explicit.weighted_sums' bound on the summation
    rounding, with factor_max = 2 SDOT_FACTOR_MAX = 1/4 + u, a bound on
    every fr^2 - fr that _sdot_sums computes (it halves the coefficient
    exactly instead).  For y >= 0, fr = y - floor(y) is exact (Sterbenz)
    and lies in [0, 1).  fl(fr^2) is within u fr^2 <= u of fr^2, so
    fl(fr^2) - fr lies in [-(fr - fr^2) - u, u], inside [-(1/4 + u), u];
    -(1/4 + u) is a double and rounding is monotone, so the difference
    rounds into that interval too, with slack u near fr = 1/2.

    Lambda and mu sum over their non-zero terms only, cut at
    N: the table's prime_powers, with lam aligned, and its cached
    squarefree list.

    Tail bounds use |sdot| <= 1/8 against a weight-specific majorant:
    log n for Lambda, 1 for mu at p = 2, and the divisor-sqrt family
    closed form 2 (log N + 2)/sqrt(N) for mubar and for p = 3/2
    (it majorizes both sum_{n>N} sigma_{1/2}(n)/n^2, which a split of the
    divisor sum at d = N bounds by 8/sqrt(N), and sum_{n>N} n^-3/2).
    """
    return _sdot_sums(t, weight, p, N, [x])[0]


def _sdot_sums(t: ArithmeticTable, weight: str, p: float, N: int, xs: list[float]) -> list[TruncatedSum]:
    """sum_{n<=N} w(n) n^-p sdot(n/x) for every x in xs, in one weighted_sums pass.

    The points are the n with w(n) != 0 (all n <= N for mubar), summed as
    w(n) n^-p/2 against fr^2 - fr = 2 sdot(n/x), which five ufunc calls form
    in the kernel's block buffers.  At p = 2, n <= n_max < 2^26.5
    (arith.MEM_BUDGET), so w/(2 n^2) rounds once.
    """
    p = float(p)
    if (weight, p) not in _SUPPORTED:
        raise ValueError(f"unsupported (weight, p) pair: ({weight!r}, {p})")
    t.check_n(N)
    _check_x(*xs)

    # w is aligned with the points, except for mu, which is gathered at them.
    if weight == "lambda":
        end = np.searchsorted(t.prime_powers, N, side="right")
        points, w = t.prime_powers[:end], t.lam[:end]
        tail = SDOT_MAX * (math.log(N) + 1.0) / N
    elif weight == "mu":
        # An int32 key: a Python int would make searchsorted copy the list to int64.
        points, w = t.squarefree[: np.searchsorted(t.squarefree, np.int32(N), side="right")], None
        tail = SDOT_MAX / N if p == 2.0 else SDOT_MAX * 2.0 * (math.log(N) + 2.0) / math.sqrt(N)
    else:
        points, w = range(1, N + 1), t.mubar_arr[1 : N + 1]
        tail = SDOT_MAX * 2.0 * (math.log(N) + 2.0) / math.sqrt(N)

    def coef(n, at):
        w_at = np.take(t.mu, points[at]) if w is None else w[at]
        if p != 2.0:  # one block temporary: w = +-1 and the halving are exact
            c = n**-p
            return np.multiply(np.multiply(c, w_at, out=c), 0.5, out=c)
        c = np.square(n)  # exact: n^2 < 2^53
        return np.divide(w_at, np.multiply(c, 2.0, out=c), out=c)

    def twice_sdot(n, at, x, y, v):
        np.divide(n, x, out=y)
        fr = np.subtract(y, np.floor(y, out=v), out=y)
        return np.subtract(np.square(fr, out=v), fr, out=v)

    sums = weighted_sums(points, coef, twice_sdot, xs, 2.0 * SDOT_FACTOR_MAX)
    return [TruncatedSum(value, len(points), tail, round_bound=err) for value, err in sums]


def _rotation(points: range, x: float, minus_one: bool):
    """The factor cos(2 pi n/x), or cos(2 pi n/x) - 1 with minus_one, of a
    weighted_sums call over the consecutive points at this x, by angle addition.

    With theta = 2 pi/x, a block starting at n0 = points[at.start] takes
    cos theta(n0 + j) = cos theta n0 cos theta j - sin theta n0 sin theta j,
    with cos theta j and sin theta j tabled here once for
    j < min(len(points), SUM_BLOCK) and cos theta n0, sin theta n0 formed
    per block.  The factor reads only len(n), so coef may write over n.
    The rotation adds a few u of rounding per term; that evaluation error
    is in no budget (round_bound covers the summation).

    Its bounds, COS_FACTOR_MAX = 1 + 11u and ROTATION_FACTOR_MAX = 2 + 12u:
    np.sin, np.cos, math.sin and math.cos are within 1 ulp of the correctly
    rounded value, so each tabled or per-block value is within 3u of the
    true one and the pairs (cos, sin) have norm at most 1 + 3 sqrt(2) u.
    By Cauchy-Schwarz, |cos_j C| + |sin_j S| <= (1 + 3 sqrt(2) u)^2, so the
    two products and their difference round to at most
    (1 + 3 sqrt(2) u)^2 (1 + u)^2 < 1 + 11u, and subtracting 1 rounds into
    [-(2 + 12u), 11u], as -(2 + 12u) is a double.
    """
    # One (2, B) array: the angles theta j in row 0, their sines into row 1,
    # then their cosines over the angles.
    rot = np.empty((2, min(len(points), SUM_BLOCK)))
    np.multiply(np.arange(rot.shape[1], dtype=np.float64), 2.0 * np.pi, out=rot[0])
    np.divide(rot[0], x, out=rot[0])
    sin_j = np.sin(rot[0], out=rot[1])
    cos_j = np.cos(rot[0], out=rot[0])

    def factor(n, at, _, y, v):
        a = 2.0 * math.pi * points[at.start] / x
        np.multiply(cos_j[: len(n)], math.cos(a), out=v)
        np.subtract(v, np.multiply(sin_j[: len(n)], math.sin(a), out=y), out=v)
        return np.subtract(v, 1.0, out=v) if minus_one else v

    return factor


def _log_over_square(n, at):
    """log(n)/n^2, formed over n beside one block temporary."""
    square = np.square(n)
    return np.divide(np.log(n, out=n), square, out=n)


def rhs_th2_log(x: float, N: int) -> TruncatedSum:
    """(1/(2 pi^2)) sum_{n>=2} log(n) n^-2 (cos(2 pi n/x) - 1), summed to at most N terms.

    Split route: the -1 part sums exactly to zeta'(2) = -sum_{n>=2} log(n)
    n^-2, taken from ZETA_PRIME_2, and the cosine part stops at
    M = min(N, COS_TERMS).  Its tail is bounded by Abel summation: every
    partial sum of e^{i n theta} is at most 1/|sin(theta/2)|, and log(n)/n^2
    decreases for n >= 2, so |sum_{n>M} log(n) n^-2 cos(2 pi n/x)| is at
    most log(M+1)/(M+1)^2 / |sin(pi/x)|.  round_bound adds half an ulp for
    the constant and for its addition to the cosine sum.

    Full route: sum cos - 1 over 2 <= n <= N, with the log-integral tail
    (log N + 1)/(N pi^2) from |cos - 1| <= 2.  It is taken when the split
    route's tail and constant error are not below that tail: near x = 1/k,
    where sin(pi/x) vanishes, and for very large x.
    """
    _check_x(x)
    if N < 1:
        raise ValueError("N must be >= 1")
    if N < 2:
        return TruncatedSum(0.0, 0, (math.log(2.0) + 1.0) / (math.pi**2))

    tail = (math.log(N) + 1.0) / (N * math.pi**2)
    M = min(N, COS_TERMS)
    s = abs(math.sin(math.pi / x))
    abel = math.log(M + 1.0) / ((M + 1.0) ** 2 * s) / TWO_PI_SQ if s > 0.0 else math.inf
    const_err = 0.5 * math.ulp(ZETA_PRIME_2)
    if abel + const_err / TWO_PI_SQ < tail:
        points = range(2, M + 1)
        [(value, err)] = weighted_sums(points, _log_over_square, _rotation(points, x, False), [x], COS_FACTOR_MAX)
        total = value + ZETA_PRIME_2
        err += const_err + 0.5 * math.ulp(total)
        return TruncatedSum(total / TWO_PI_SQ, M - 1, abel, round_bound=err / TWO_PI_SQ)

    points = range(2, N + 1)
    [(value, err)] = weighted_sums(points, _log_over_square, _rotation(points, x, True), [x], ROTATION_FACTOR_MAX)
    return TruncatedSum(value / TWO_PI_SQ, N - 1, tail, round_bound=err / TWO_PI_SQ)


def rhs_th2_mu(x: float) -> float:
    """(1/(2 pi^2)) (cos(2 pi/x) - 1), the closed-form right side."""
    _check_x(x)
    return (math.cos(2.0 * math.pi / x) - 1.0) / TWO_PI_SQ


def rhs_th4_upsilon(t: ArithmeticTable, x: float, N: int) -> TruncatedSum:
    """(1/(2 pi^2)) sum_{n<=N} upsilon(n) n^-2 (cos(2 pi n/x) - 1).

    |upsilon(n)| <= sqrt(n) makes both sides absolutely convergent, so the
    identity is checked unconditionally.  Its cosines come from _rotation,
    with factor_max ROTATION_FACTOR_MAX.
    """
    _check_x(x)
    t.check_n(N)
    upsilon = t.upsilon_arr[1 : N + 1]

    def coef(n, at):  # upsilon(n)/n^2 over n: each thread holds three block arrays beside the rotation's table
        return np.divide(upsilon[at], np.square(n, out=n), out=n)

    points = range(1, N + 1)
    [(value, err)] = weighted_sums(points, coef, _rotation(points, x, True), [x], ROTATION_FACTOR_MAX)
    # sqrt majorant
    tail = (2.0 / math.sqrt(N)) * (1.0 + math.log(N)) / math.pi**2
    return TruncatedSum(value / TWO_PI_SQ, N, tail, round_bound=err / TWO_PI_SQ)


def rh_slope(values: list[tuple[float, float, float]]) -> SlopeFit:
    """Least-squares slope of log|value| against log x.

    Input triples are (x, value, noise_floor); points with
    |value| <= 3 * noise_floor are dropped (they carry no signal), and
    the fit refuses to run on fewer than 5 survivors or when more than
    half of the points drop.
    """
    kept = [(x, v) for x, v, floor in values if abs(v) > 3.0 * floor]
    dropped = len(values) - len(kept)
    if len(kept) < 5:
        raise InsufficientDataError(
            f"only {len(kept)} of {len(values)} points above the noise floor"
        )
    if dropped > len(values) / 2.0:
        raise InsufficientDataError(
            f"{dropped} of {len(values)} points dropped; fit would be dominated by noise"
        )
    lx = np.array([math.log(x) for x, _ in kept])
    lv = np.array([math.log(abs(v)) for _, v in kept])
    slope, intercept = np.polyfit(lx, lv, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((lv - fitted) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(
        points=tuple(zip(lx.tolist(), lv.tolist())),
        slope=float(slope),
        r_squared=r_squared,
        dropped=dropped,
    )


def rh_decay_profile(
    t: ArithmeticTable, x_min: float, x_max: float, points: int, N: int
) -> list[tuple[float, float, float]]:
    """mubar-weighted sums on a log-spaced grid, with their noise floors (tail + round_bound).

    One _sdot_sums pass sweeps the whole grid over each block, forming
    mubar(n)/(2 n^2) once per block; the sums and floors are those
    lhs_weighted_sdot gives at each x, bit for bit, and nothing of length
    N is allocated.
    """
    _check_x(x_min, x_max)  # before the grid: np.geomspace warns on an infinite end
    xs = [float(x) for x in np.geomspace(x_min, x_max, points)]
    sums = _sdot_sums(t, "mubar", 2.0, N, xs)
    return [(x, ts.value, ts.tail_bound + ts.round_bound) for x, ts in zip(xs, sums)]
