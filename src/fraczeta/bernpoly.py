"""Bernoulli numbers and polynomials, the integrals I_k, and the sawtooth kernel.

Everything downstream leans on a handful of closed forms collected here:

- B_j under the B_1 = -1/2 convention, computed once by the exact rational
  recurrence sum_{i<=m} C(m+1,i) B_i = 0 and stored as binary64;
- B_k(t) = sum_i C(k,i) B_i t^(k-i), Horner-evaluated;
- I_k(x) = integral of B_k({t}) over [0,x], which collapses to
  (B_{k+1}({x}) - B_{k+1})/(k+1) because full periods integrate to zero;
- sdot(x) = ({x}^2 - {x})/2, the antiderivative of the sawtooth
  {x} - 1/2, which coincides with I_1.

The module also carries the classical Euler-Maclaurin self-check over a
small registry of test functions with hand-coded derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "BERNOULLI",
    "bernoulli_poly",
    "integral_Ik",
    "sdot",
    "em_identity_residual",
    "em_period_integrals",
    "EM_FUNCTIONS",
]


def _bernoulli_numbers(max_index: int) -> np.ndarray:
    """B_0..B_max_index, read-only.

    The recurrence is run in Fraction arithmetic, so the stored binary64
    values are correctly rounded; no float cancellation enters.  The zero
    B_i (odd i >= 3) are left out of its sums.
    """
    exact = [Fraction(1)]
    for m in range(1, max_index + 1):
        acc = sum((math.comb(m + 1, i) * b for i, b in enumerate(exact) if b), Fraction(0))
        exact.append(-acc / (m + 1))
    values = np.array([float(b) for b in exact])
    values.setflags(write=False)
    return values


_MAX_INDEX = 64
BERNOULLI = _bernoulli_numbers(_MAX_INDEX)

# The 32-node Gauss-Legendre rule on [0, 1], exact for polynomials of
# degree <= 63; every per-period quadrature in the package uses it.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
GL_X = 0.5 * (_GL_NODES + 1.0)
GL_W = 0.5 * _GL_WEIGHTS


def bernoulli_poly(k: int, t):
    """B_k(t), Horner-evaluated; t may be a scalar or ndarray."""
    if not 0 <= k <= _MAX_INDEX:
        raise ValueError(f"k={k} outside supported range 0..{_MAX_INDEX}")
    acc = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    for i in range(1, k + 1):
        acc = acc * t + math.comb(k, i) * BERNOULLI[i]
    return acc


def integral_Ik(k: int, x: float) -> float:
    """I_k(x) = integral of B_k({t}) dt over [0, x], in closed form.

    Full periods contribute nothing, so only the fractional part of x
    survives: I_k(x) = (B_{k+1}({x}) - B_{k+1})/(k+1).
    """
    if not 0 <= x < math.inf:
        raise ValueError("x must be finite and >= 0")
    return float(integral_ik_array(k, np.asarray(x, dtype=np.float64)))


def integral_ik_array(k: int, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized I_k over an array of nonnegative arguments.  As in
    sdot_array, with out the result is written there and y, a float64
    array of the same shape, is overwritten as scratch."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        # B_2(u) - B_2 = u^2 - u: the direct quadratic avoids the +-1/6
        # round trip
        return sdot_array(y, out=out)
    if out is None:
        y, out = y.astype(np.float64), np.empty(y.shape)
    fr = np.subtract(y, np.floor(y, out=out), out=out)
    acc = y  # B_{k+1}(fr) by Horner's rule, as in bernoulli_poly
    acc.fill(1.0)
    for i in range(1, k + 2):
        np.add(np.multiply(acc, fr, out=acc), math.comb(k + 1, i) * BERNOULLI[i], out=acc)
    return np.divide(np.subtract(acc, BERNOULLI[k + 1], out=out), k + 1, out=out)


def sdot(x: float) -> float:
    """Antiderivative of the sawtooth: ({x}^2 - {x})/2; equals I_1(x)."""
    return integral_Ik(1, x)


def sdot_array(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized sdot.  With out, the result is written there and y,
    a float64 array of the same shape, is overwritten as scratch."""
    if out is None:
        y, out = y.astype(np.float64), np.empty(y.shape)
    fr = np.subtract(y, np.floor(y, out=out), out=out)
    return np.multiply(np.subtract(np.multiply(fr, fr, out=y), fr, out=out), 0.5, out=out)


def _grid_majorant(values: Callable[[np.ndarray], np.ndarray], slope: float) -> float:
    """A proven bound on max over [0, 1] of |values(u)|: the maximum on a
    grid of step 1e-5 plus 1e-5 times slope, a bound on |d/du values|."""
    u = np.linspace(0.0, 1.0, 100_001)
    return float(np.max(np.abs(values(u))) + 1e-5 * slope)


def _abs_poly_bound(k: int) -> float:
    """sum_i |C(k,i) B_i| >= max over [0, 1] of |B_k(u)|."""
    return sum(abs(math.comb(k, i) * BERNOULLI[i]) for i in range(k + 1))


@functools.cache
def ik_envelope(k: int) -> float:
    """Upper bound on max_x |I_k(x)| = max_u |B_{k+1}(u) - B_{k+1}|/(k+1).

    Fine-grid maximum plus a derivative-based slack term, so the result
    is a true majorant (used in rigorous tail bounds); |d/du I_k| = |B_k(u)|.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _grid_majorant(
        lambda u: (bernoulli_poly(k + 1, u) - BERNOULLI[k + 1]) / (k + 1), _abs_poly_bound(k)
    )


@functools.cache
def bernoulli_envelope(j: int) -> float:
    """Upper bound on max_u |B_j(u)| over [0, 1], built like ik_envelope
    (B_j' = j B_{j-1})."""
    return _grid_majorant(lambda u: bernoulli_poly(j, u), j * _abs_poly_bound(j - 1))


# ---------------------------------------------------------------------------
# Euler-Maclaurin self-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _EMFunction:
    """Test function with hand-coded derivatives and exact integral."""

    deriv: Callable[[int, float], float]   # order m in 0..6, argument t
    integral: Callable[[float, float], float]


def _poly_deriv(m: int, t: float) -> float:
    if m == 0:
        return t * t
    if m == 1:
        return 2.0 * t
    if m == 2:
        return 2.0
    return 0.0


def _invsq_deriv(m: int, t: float) -> float:
    # d^m/dt^m t^(-2) = (-1)^m (m+1)! t^(-m-2)
    return (-1.0) ** m * math.factorial(m + 1) * t ** (-(m + 2))


def _expdec_deriv(m: int, t: float) -> float:
    return (-1.0) ** m * np.exp(-t)


EM_FUNCTIONS: dict[str, _EMFunction] = {
    "square": _EMFunction(_poly_deriv, lambda a, b: (b**3 - a**3) / 3.0),
    "inverse_square": _EMFunction(_invsq_deriv, lambda a, b: 1.0 / a - 1.0 / b),
    "exp_decay": _EMFunction(_expdec_deriv, lambda a, b: math.exp(-a) - math.exp(-b)),
}


def em_period_integrals(f_id: str, a: int, b: int, k: int) -> list[float]:
    """integral_n^(n+1) f^(k)(t) B_k({t}) dt for each n = a..b-1.

    On a period B_k({t}) = B_k(t - n) is a polynomial, so one sum of the
    32-node Gauss-Legendre rule (GL_X, GL_W) is exact for the polynomial
    test function and accurate to rounding for the other two, which are
    analytic around the period.
    """
    deriv = EM_FUNCTIONS[f_id].deriv
    bk_w = bernoulli_poly(k, GL_X) * GL_W
    return [float(np.sum(deriv(k, n + GL_X) * bk_w)) for n in range(a, b)]


def em_identity_residual(f_id: str, a: float, b: float, k: int) -> float:
    """Residual of the classical Euler-Maclaurin identity of order k.

    Compares ((-1)^k/k!) * integral_a^b f^(k)(t) B_k({t}) dt against
    integral_a^b f - sum_{a<n<=b} f(n)
    + sum_{l=1..k} ((-1)^l/l!) (f^(l-1)(b) - f^(l-1)(a)) B_l,
    with the left side summed with math.fsum over the unit periods of
    [a, b], each integrated by the 32-node Gauss-Legendre rule
    (em_period_integrals).  Both sides agree analytically; the returned
    |difference| is pure numerical error.
    """
    if f_id not in EM_FUNCTIONS:
        raise ValueError(f"unknown test function {f_id!r}; know {sorted(EM_FUNCTIONS)}")
    if not (1 <= a < b):
        raise ValueError("need 1 <= a < b")
    if a != math.floor(a) or b != math.floor(b):
        # with constant B_l boundary terms the classical identity needs
        # integer endpoints ({a} = {b} = 0)
        raise ValueError("endpoints must be integers")
    if not 1 <= k <= 6:
        raise ValueError("need 1 <= k <= 6")
    f = EM_FUNCTIONS[f_id]

    pieces = em_period_integrals(f_id, int(a), int(b), k)
    lhs = math.fsum(pieces) * (-1.0) ** k / math.factorial(k)

    rhs = f.integral(a, b)
    rhs -= math.fsum(f.deriv(0, float(n)) for n in range(math.floor(a) + 1, math.floor(b) + 1))
    for l in range(1, k + 1):
        bl = BERNOULLI[l]
        if bl != 0.0:
            rhs += (-1.0) ** l / math.factorial(l) * (f.deriv(l - 1, b) - f.deriv(l - 1, a)) * bl
    return float(abs(lhs - rhs))
