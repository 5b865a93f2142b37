"""Complex Riemann zeta engine and the nontrivial-zero table.

zeta(s) is evaluated by the Euler-Maclaurin expansion

    sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
        + sum_j B_{2j}/(2j)! (s)_{2j-1} N^(-s-2j+1) + R,

with N and the correction depth chosen adaptively until the classical
remainder bound drops below ~1e-14 of the accumulated value.  One pass
over a whole batch forms every n^-s as one (batch x N) array and returns
the pole-free part A(s) = zeta(s) - N^(1-s)/(s-1); asked for it, the
same pass differentiates each term as well, so A'(s) and hence zeta'(s)
come with the values, their truncation bounded by Cauchy's estimate of
the remainder.  Left of Re s = -1/2 zeta is pulled back through the
functional equation, its log Gamma a numpy Stirling series with a proven
error bound (no scipy); zeta' is computed only for Re s >= -1/2.  -zeta'/zeta
near the pole at s = 1 goes through the entire function
phi(s) = (s-1) zeta(s) = (s-1) A(s) + N^(1-s), whose derivative is formed
from A and A' with no pole in it.

zeta_em, zeta_deriv, neg_zeta_log_deriv and Hk_closed, the only entry
points, map a scalar s to a complex and a 1-d array to an array from one
pass.  That pass takes N from its largest |Im s|, whose rounding every
point shares (zeta'(-1/2) batched with 3+400i: 3.1e-12 off, 1.8e-13 alone).

The Mellin kernel

    H_k(s) = integral_1^inf t^(-s-k) B_k({t}) dt

is provided twice on purpose: in the closed form with the Bernoulli
bracket, and by compensated per-period quadrature.  The two routes share
no code path past B_k itself and adjudicate each other.

Zero ordinates ship as a seed CSV but are never trusted: every
zero-dependent computation re-validates them through unconstrained
complex Newton refinement, run on the whole table as one batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .bernpoly import BERNOULLI, GL_W, GL_X, bernoulli_envelope, bernoulli_poly

__all__ = [
    "DomainError",
    "PoleError",
    "PoleProximityError",
    "FormatError",
    "RefinementError",
    "EULER_GAMMA",
    "check_k",
    "zeta_em",
    "zeta_deriv",
    "neg_zeta_log_deriv",
    "Hk_closed",
    "Hk_quadrature",
    "ZeroEntry",
    "ZeroTable",
    "load_zero_table",
    "bundled_zeros_path",
    "refine_table",
]

EULER_GAMMA = 0.5772156649015329

RE_MIN = -10.0
IM_MAX = 500.0

K_VALUES = (1, 2, 3, 4)   # the orders k of H_k and of theorem 1
ZERO_RESIDUAL_MAX = 1e-8  # |zeta(rho)| a refined zero must reach before use

_POLE_SWITCH = 0.5  # |s-1| below this: -zeta'/zeta goes through phi = (s-1) zeta


class DomainError(ValueError):
    """Argument outside the supported evaluation region."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class PoleProximityError(DomainError):
    """zeta too close to zero for a stable logarithmic derivative."""


class FormatError(ValueError):
    """Zero-table file malformed."""


class RefinementError(RuntimeError):
    """Newton refinement of a seed ordinate drifted away or failed to converge."""


def check_k(k: int) -> None:
    """Raise ValueError unless k is one of K_VALUES, as an integer.

    2.0 == 2 and True == 1, so membership alone would let a float or a bool
    through, to fail later as a TypeError; numpy integers are integers.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k not in K_VALUES:
        raise ValueError(f"k must be in {K_VALUES[0]}..{K_VALUES[-1]}")


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------

def _b2j_over_fact() -> np.ndarray:
    out = np.zeros(32)
    for j in range(1, 32):
        out[j] = BERNOULLI[2 * j] / math.factorial(2 * j)
    return out


_B2J_FACT = _b2j_over_fact()
_MAX_J = 30


def _validate_domain(s: np.ndarray) -> None:
    if np.any(s == 1.0):
        raise PoleError("zeta has a pole at s = 1")
    if np.any(s.real < RE_MIN - 1e-12) or np.any(np.abs(s.imag) > IM_MAX + 1e-12):
        raise DomainError(
            f"supported region is Re s >= {RE_MIN}, |Im s| <= {IM_MAX}"
        )


def _as_batch(s):
    """(s as a 1-d complex array, whether s was a scalar)."""
    arr = np.asarray(s, dtype=complex)
    if arr.ndim > 1:
        raise ValueError("s must be a scalar or a 1-d array")
    return np.atleast_1d(arr), arr.ndim == 0


def _unbatch(values: np.ndarray, scalar: bool):
    return complex(values[0]) if scalar else values


def _log_sin(z: np.ndarray) -> np.ndarray:
    """log(sin z), stable for large |Im z| (asymptotic single-exponential form)."""
    out = np.empty_like(z)
    hi = z.imag > 20.0
    lo = z.imag < -20.0
    mid = ~(hi | lo)
    if np.any(hi):
        out[hi] = -1j * z[hi] + (0.5j * np.pi - math.log(2.0))
    if np.any(lo):
        out[lo] = 1j * z[lo] - 0.5j * np.pi - math.log(2.0)
    if np.any(mid):
        out[mid] = np.log(np.sin(z[mid]))
    return out


_LG_TERMS = 10  # K: Stirling's series keeps B_2 .. B_{2K-2}; B_{2K} bounds the rest
_LG_COEF = [BERNOULLI[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, _LG_TERMS + 1)]


def _loggamma(z: np.ndarray):
    """(log Gamma(z), a bound on its error) over a 1-d complex array, Re z > 0.

    All z share one shift m = max(0, ceil(15 - min Re z)) to w = z + m:
    log Gamma(z) = log Gamma(w) - sum_{j<m} log(z+j), and each z + j lies
    right of 0, so the principal logs give the branch real on the positive
    axis (scipy's loggamma).  Stirling's series at w,
    (w - 1/2) log w - w + log(2 pi)/2 + sum_{k<K} B_2k / (2k(2k-1) w^(2k-1)),
    leaves at most its first omitted term times
    sec^2K(ph(w)/2) = (2|w| / (|w| + Re w))^K (DLMF 5.11(ii)).

    Rounding, with u = 2^-53 and np.log(v) taken to err by <= 4u(1 + |log v|):
    forming z + j moves its log by <= 1.01u, so the shift errs by
    <= (m + 8)u sum_{j<m} (1 + |log(z+j)|), its sum and subtraction included.
    Rounding w moves log Gamma by <= u Re w |psi(w)| <= u|w|(1 + |log w|),
    (w - 1/2) log w errs by <= 8u|w - 1/2|(1 + |log w|), the series
    (|.| < 0.006) by < u and the other four additions by
    <= 4.01u(|w - 1/2||log w| + |w| + 1): <= 20u(|w| + 1)(1 + |log w|) in all.
    The bound, their sum, is mostly rounding: at |Im z| ~ 500, |log Gamma| ~ 2600,
    and any binary64 log Gamma (scipy's too) loses an ulp of Im, 4.5e-13.
    """
    if not np.all(z.real > 0.0):
        raise DomainError("log Gamma needs Re z > 0")
    m = max(0, math.ceil(15.0 - float(np.min(z.real))))
    shift = np.log(z[:, None] + np.arange(m))
    w = z + m
    logw, iw2, series = np.log(w), 1.0 / (w * w), 0.0
    for c in _LG_COEF[-2::-1]:
        series = series * iw2 + c
    value = (w - 0.5) * logw - w + 0.5 * math.log(2.0 * math.pi) + series / w - shift.sum(axis=1)
    aw, u = np.abs(w), 2.0**-53
    bound = (abs(_LG_COEF[-1]) * aw ** (1 - 2 * _LG_TERMS) * (2.0 * aw / (aw + w.real)) ** _LG_TERMS
             + 20.0 * u * (aw + 1.0) * (1.0 + np.abs(logw)) + (m + 8) * u * (1.0 + np.abs(shift)).sum(axis=1))
    return value, bound


def _zeta_batch(s: np.ndarray) -> np.ndarray:
    """zeta over a 1-d complex array (domain pre-validated).

    For Re s < -1/2 it is the expansion at 1-s pulled back through the
    functional equation zeta(s) = chi(s) zeta(1-s), chi in log space with
    _loggamma's log Gamma(1-s); direct summation there would cancel.
    _zeta_direct(s, True) gives (zeta, zeta') where Re s >= -1/2.
    """
    z = np.empty_like(s)
    left = s.real < -0.5
    if np.any(left):
        sl = s[left]
        chi = np.exp(
            sl * math.log(2.0)
            + (sl - 1.0) * math.log(math.pi)
            + _log_sin(0.5 * np.pi * sl)
            + _loggamma(1.0 - sl)[0]
        )
        z[left] = chi * _zeta_direct(1.0 - sl, False)[0]
    if not np.all(left):
        z[~left] = _zeta_direct(s[~left], False)[0]
    return z


def _zeta_direct(s: np.ndarray, deriv: bool):
    """(zeta, zeta' or None) from the pole-free part and the pole term N^(1-s)/(s-1)."""
    a, da, n_terms = _em_core(s, deriv)
    logn = math.log(n_terms)
    pole = np.exp((1.0 - s) * logn) / (s - 1.0)
    return a + pole, (da - pole * (logn + 1.0 / (s - 1.0)) if deriv else None)


def _em_core(s: np.ndarray, deriv: bool):
    """(A, A' or None, N): A(s) = zeta(s) - N^(1-s)/(s-1), the pole-free part.

    N grows with max |Im s| and doubles until the expansion converges.
    """
    t_max = float(np.max(np.abs(s.imag)))
    n_terms = int((t_max + 60.0) / 3.5) + 16
    for _ in range(6):
        result = _em_try(s, n_terms, deriv)
        if result is not None:
            return result + (n_terms,)
        n_terms *= 2
    raise DomainError("Euler-Maclaurin expansion failed to converge")


def _em_try(s: np.ndarray, n_terms: int, deriv: bool):
    """A(s) [and A'(s)] with N = n_terms, or None if the corrections did not converge.

    A = sum_{n<N} n^-s + N^-s/2 + sum_j B_{2j}/(2j)! (s)_{2j-1} N^(-s-2j+1),
    its terms differentiated alongside.  The remainder after term j is at
    most |B_{2j+2}/(2j+2)!| |(s)_{2j+1}| N^(-sigma-2j-1) |s+2j+1|/(sigma+2j+1).
    It is analytic in s, so Cauchy's estimate on the circle of radius
    r = 1/log N bounds the remainder of A' by the same bound with
    |s+i| -> |s+i| + r and sigma -> sigma - r, times N^r/r = e log N.
    """
    sigma = s.real
    logn = math.log(n_terms)
    logs = np.log(np.arange(1, n_terms + 1, dtype=np.float64))
    weights = np.ones(n_terms)
    weights[-1] = 0.5
    powers = np.exp(-s[:, None] * logs[None, :])     # n^-s, n = 1..N
    a = powers @ weights
    pole = np.exp((1.0 - s) * logn) / (s - 1.0)
    if deriv:
        r = 1.0 / logn
        da = -(powers @ (weights * logs))
        dpoch = np.ones_like(s)                      # d/ds (s)_{2j-1}
        poch_abs = np.abs(s) + r                     # prod_{i<2j-1} (|s+i| + r)

    poch = s.copy()                                  # (s)_{2j-1} for the current j
    npow = powers[:, -1] / n_terms                   # N^(-s-2j+1) for the current j
    n2 = float(n_terms) ** 2
    for j in range(1, _MAX_J + 1):
        c = _B2J_FACT[j] * npow
        a = a + c * poch
        step = (s + (2 * j - 1)) * (s + 2 * j)
        if deriv:
            da = da + c * (dpoch - logn * poch)
            dpoch = dpoch * step + poch * (2.0 * s + (4 * j - 1))
        poch = poch * step
        npow = npow / n2
        with np.errstate(over="ignore", invalid="ignore"):
            scale = abs(_B2J_FACT[j + 1]) * n_terms ** (-sigma - 2 * j - 1)
            denom = sigma + 2 * j + 1
            bound = np.where(
                denom > 0.5,
                scale * np.abs(poch) * np.abs(s + (2 * j + 1)) / np.maximum(denom, 0.5),
                np.inf,
            )
            done = np.all(bound <= 1e-14 * (1.0 + np.abs(a + pole)))
            if deriv:
                poch_abs = poch_abs * (np.abs(s + (2 * j - 1)) + r) * (np.abs(s + 2 * j) + r)
                dbound = np.where(
                    denom - r > 0.5,
                    math.e * logn * scale * poch_abs
                    * (np.abs(s + (2 * j + 1)) + r) / np.maximum(denom - r, 0.5),
                    np.inf,
                )
                done = done and np.all(dbound <= 1e-14 * (1.0 + np.abs(da)))
        if done:
            return a, (da if deriv else None)
    return None


def zeta_em(s):
    """zeta(s) by Euler-Maclaurin; relative error ~1e-13 for Re s >= -1/2.

    Left of that, chi(s) of the reflection rounds log Gamma(1-s) and adds
    up to ~2u |log Gamma(1-s)| (u = 2^-53): 4.55e-13 at s = -3+450i.

    Supported region: s != 1, Re s >= -10, |Im s| <= 500.
    """
    arr, scalar = _as_batch(s)
    _validate_domain(arr)
    return _unbatch(_zeta_batch(arr), scalar)


def _check_deriv_domain(s: np.ndarray) -> None:
    """The region of zeta' and -zeta'/zeta: Re s >= -1/2, |Im s| <= 500 - 0.05."""
    if np.any(s.real < -0.5) or np.any(np.abs(s.imag) > IM_MAX - 0.05):
        raise DomainError(f"zeta' needs Re s >= -1/2 and |Im s| <= {IM_MAX - 0.05}")


def zeta_deriv(s):
    """zeta'(s), differentiated term by term in the same Euler-Maclaurin pass as zeta.

    Requires |s - 1| > 0.1, Re s >= -1/2 and |Im s| <= 499.95.
    """
    arr, scalar = _as_batch(s)
    if np.any(np.abs(arr - 1.0) <= 0.1):
        raise DomainError("zeta_deriv needs |s - 1| > 0.1")
    _check_deriv_domain(arr)
    return _unbatch(_zeta_direct(arr, True)[1], scalar)


def _neg_zld_near_pole(s: np.ndarray) -> np.ndarray:
    """-zeta'/zeta for |s-1| <= 0.5 via phi(s) = (s-1) zeta(s) (entire, phi(1)=1).

    phi = (s-1) A + N^(1-s) and phi' = A + (s-1) A' - log N N^(1-s) hold
    no pole, so -zeta'/zeta = 1/(s-1) - phi'/phi loses nothing near s = 1.
    """
    a, da, n_terms = _em_core(s, deriv=True)
    logn = math.log(n_terms)
    npow = np.exp((1.0 - s) * logn)
    phi = (s - 1.0) * a + npow
    phi_prime = a + (s - 1.0) * da - logn * npow
    return 1.0 / (s - 1.0) - phi_prime / phi


def neg_zeta_log_deriv(s):
    """-zeta'(s)/zeta(s); for Re s > 1 this is sum Lambda(n) n^-s.

    zeta and zeta' come from one Euler-Maclaurin pass.  Within 1/2 of s = 1
    the pole part 1/(s-1) is split off analytically, so the value stays
    accurate right up to (but not at) the pole.  Like zeta_deriv, it needs
    Re s >= -1/2 and |Im s| <= 499.95.
    """
    arr, scalar = _as_batch(s)
    if np.any(arr == 1.0):
        raise PoleError("logarithmic derivative has a pole at s = 1")
    _check_deriv_domain(arr)
    out = np.empty_like(arr)
    near = np.abs(arr - 1.0) <= _POLE_SWITCH
    if np.any(near):
        out[near] = _neg_zld_near_pole(arr[near])
    far = ~near
    if np.any(far):
        zs, dzs = _zeta_direct(arr[far], True)
        if np.any(np.abs(zs) <= 1e-12):
            raise PoleProximityError("zeta(s) within 1e-12 of zero")
        out[far] = -dzs / zs
    return _unbatch(out, scalar)


# ---------------------------------------------------------------------------
# The Mellin kernel H_k: closed form and quadrature oracle
# ---------------------------------------------------------------------------

def _hk_bracket(k: int, s: np.ndarray) -> np.ndarray:
    """zeta(s) + 1/(1-s) + sum_{j=1..k} C(-s, j-1) B_j / j."""
    out = _zeta_batch(s) + 1.0 / (1.0 - s)
    binom = np.ones_like(s)            # C(-s, j-1), built incrementally
    for j in range(1, k + 1):
        if BERNOULLI[j] != 0.0:
            out = out + binom * (BERNOULLI[j] / j)
        binom = binom * (-s - (j - 1)) / j
    return out


def _hk_denominator(k: int, s: np.ndarray) -> np.ndarray:
    """(-1)^(k-1) C(-s, k) = -s(s+1)...(s+k-1)/k!."""
    prod = np.full_like(s, -1.0 / math.factorial(k))
    for i in range(k):
        prod = prod * (s + i)
    return prod


def hk_limit_at_zero(k: int) -> float:
    """H_k(0) where the closed form is 0/0, by L'Hopital.

    Both the bracket and the binomial vanish linearly at s = 0, so
    H_k(0) = -k * d/ds[bracket](0)
           = -k * (zeta'(0) + 1 - sum_{j=2..k} (-1)^j B_j/(j(j-1))).
    """
    zp0 = zeta_deriv(0.0).real
    corr = sum((-1.0) ** j * BERNOULLI[j] / (j * (j - 1)) for j in range(2, k + 1))
    return -k * (zp0 + 1.0 - corr)


def Hk_closed(k: int, s):
    """H_k(s) in closed form; the removable point s = 0 goes through the limit."""
    check_k(k)
    arr, scalar = _as_batch(s)
    out = np.empty_like(arr)
    at_zero = np.abs(arr) < 1e-6
    if np.any(at_zero):
        out[at_zero] = hk_limit_at_zero(k)
    rest = ~at_zero
    if np.any(rest):
        sr = arr[rest]
        _validate_domain(sr)
        out[rest] = _hk_bracket(k, sr) / _hk_denominator(k, sr)
    return _unbatch(out, scalar)


def Hk_quadrature(k: int, s: complex) -> complex:
    """H_k(s) by per-period 32-node quadrature of t^(-s-k) B_k({t}).

    With w = s + k, the periods [m, m+1] up to m = A - 1 are summed and
    two integrations by parts give the rest:

        integral_A^inf t^-w B_k({t}) dt = -B_{k+1}/(k+1) A^-w
            - w B_{k+2}/((k+1)(k+2)) A^(-w-1) + R,

    where one more integration by parts bounds

        |R| <= |w(w+1)|/((k+1)(k+2)) [|B_{k+3}|/(k+3)
               + |w+2| max_u |B_{k+3}(u)|/((k+3)(Re w+2))] A^(-Re w-2).

    A is the first integer >= 9 at which that bound is <= 1e-12.  Only
    one of the two kept terms is nonzero: the first for odd k, the second
    for even k.  Every s, real or not, takes the one complex route
    t^-w = exp(-w log t).  Needs Re(s) + k > 0.  This route never touches
    the closed form and is its independent oracle.
    """
    check_k(k)
    s = complex(s)
    w = s + k
    if w.real <= 0.0:
        raise DomainError("quadrature route needs Re(s) + k > 0")
    coef = abs(w * (w + 1.0)) / ((k + 1) * (k + 2)) * (
        abs(BERNOULLI[k + 3]) / (k + 3)
        + abs(w + 2.0) * bernoulli_envelope(k + 3) / ((k + 3) * (w.real + 2.0))
    )
    a = max(9, math.floor((coef / 1e-12) ** (1.0 / (w.real + 2.0))))
    while coef * float(a) ** (-w.real - 2.0) > 1e-12:
        a += 1

    bk_w = bernoulli_poly(k, GL_X) * GL_W
    partials_re: list[float] = []
    partials_im: list[float] = []
    chunk = 4096  # periods per step: each (chunk, 32) complex temporary is 2 MB
    for lo in range(1, a, chunk):
        hi = min(lo + chunk, a)
        m = np.arange(lo, hi, dtype=np.float64)
        t = m[:, None] + GL_X[None, :]
        vals = (np.exp(-w * np.log(t)) * bk_w[None, :]).sum(axis=1)
        partials_re.extend(vals.real.tolist())
        partials_im.extend(vals.imag.tolist())
    total = complex(math.fsum(partials_re), math.fsum(partials_im))

    log_a = math.log(a)
    total -= float(BERNOULLI[k + 1]) / (k + 1) * cmath.exp(-w * log_a)
    total -= w * float(BERNOULLI[k + 2]) / ((k + 1) * (k + 2)) * cmath.exp(-(w + 1.0) * log_a)
    return total


# ---------------------------------------------------------------------------
# Nontrivial zeros
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroEntry:
    """One nontrivial zero rho = 1/2 + i*gamma (ordered by height).

    residual is |zeta(rho)| after refinement and re_deviation is
    |Re rho - 1/2| from the unconstrained Newton iteration; both are
    +inf for raw seed entries.
    """

    index: int
    gamma: float
    residual: float = math.inf
    re_deviation: float = math.inf


@dataclass(frozen=True)
class ZeroTable:
    entries: tuple[ZeroEntry, ...]
    source: str = ""

    def __len__(self) -> int:
        return len(self.entries)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # taken once: explicit's caches key on the table at every call
        return hash((self.entries, self.source))


def _validate_ordinates(gammas: list[float], origin: str) -> None:
    if not gammas:
        raise FormatError(f"{origin}: no zero ordinates found")
    if not 14.0 < gammas[0] < 14.2:
        raise FormatError(f"{origin}: first ordinate {gammas[0]} not in (14, 14.2)")
    for a, b in zip(gammas[:-1], gammas[1:]):
        if b - a <= 0.1:
            raise FormatError(f"{origin}: ordinates not increasing with gap > 0.1 ({a} -> {b})")


def load_zero_table(path: str | Path) -> ZeroTable:
    """Parse a zeros CSV (header 'index,gamma'); no refinement is performed."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read zero table {path}: {exc}") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "index,gamma":
        raise FormatError(f"{path}: expected header 'index,gamma'")
    entries = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}: malformed row {ln!r}")
        try:
            idx, gamma = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}: malformed row {ln!r}") from exc
        entries.append(ZeroEntry(index=idx, gamma=gamma))
    entries.sort(key=lambda e: e.index)
    _validate_ordinates([e.gamma for e in entries], str(path))
    return ZeroTable(entries=tuple(entries), source=str(path))


def bundled_zeros_path() -> Path:
    """Location of the seed CSV shipped with the package."""
    return Path(__file__).parent / "data" / "zeros_seed.csv"


def refine_table(table: ZeroTable, count: int | None = None) -> ZeroTable:
    """Newton-refine the first `count` seeds (default: all) as one batch.

    Every iterate s <- s - zeta(s)/zeta'(s) starts at 1/2 + i*seed and
    moves unconstrained in the complex plane; each step takes zeta and
    zeta' at the zeros not yet done from one Euler-Maclaurin pass.  A zero
    is done once |zeta(s)| <= 1e-10, within 50 passes.  An iterate drifting
    more than 0.5 from its seed aborts: that seed was not near a zero.
    The refined ordinates are re-checked for order.
    """
    if count is not None and count < 1:
        raise ValueError(f"zero count must be at least 1, got {count}")
    take = table.entries if count is None else table.entries[:count]
    if not take:
        raise ValueError("zero table is empty")
    seeds = np.array([e.gamma for e in take])
    if not np.all((seeds > 0.0) & (seeds <= IM_MAX)):
        raise DomainError(f"seed ordinates must be in (0, {IM_MAX}]")
    start = 0.5 + 1j * seeds
    s = start.copy()
    residual = np.empty(seeds.size)
    todo = np.arange(seeds.size)
    for _ in range(50):
        z, dz = _zeta_direct(s[todo], True)
        residual[todo] = np.abs(z)
        more = residual[todo] > 1e-10
        todo, z, dz = todo[more], z[more], dz[more]
        if not todo.size:
            break
        s[todo] -= z / dz
        drift = ~(np.abs(s[todo] - start[todo]) <= 0.5)
        if np.any(drift):
            i = todo[np.argmax(drift)]
            raise RefinementError(f"no zero near ordinate {seeds[i]}: iterate drifted to {s[i]}")
        _validate_domain(s[todo])
    else:
        raise RefinementError(f"Newton did not converge from ordinate {seeds[todo[0]]}")
    deviation = np.abs(s.real - 0.5)
    refined = tuple(
        ZeroEntry(index=e.index, gamma=g, residual=r, re_deviation=d)
        for e, g, r, d in zip(take, s.imag.tolist(), residual.tolist(), deviation.tolist())
    )
    _validate_ordinates([e.gamma for e in refined], f"{table.source} (refined)")
    return ZeroTable(entries=refined, source=table.source + " (refined)")
