"""Command-line harness: identity verification runs, reports, and selftest.

Subcommands
-----------
selftest            run the invariants of INVARIANTS (exit 0 on success)
verify IDENTITY     run one identity check and print/emit the report
rh-explore          verify rh-slope with its grid flags (--xmin, --xmax, --points)
zeros refine        refine the bundled zero ordinates and print residuals
em-check            verify em-check

Every identity id, its parameters and their defaults live in one table,
IDENTITIES; run_identity is the one path that runs them.  A flag the
identity does not take is a usage error.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 IO/format
error.  Reports serialize to JSON or CSV, each float written as the
shortest string that reads back to it.  Sieve tables are cached on disk
as table_<n_max>.npz, checked on load and rebuilt when they fail
(override the location with FRACZETA_CACHE_DIR).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import time
import zipfile
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import arith, bernpoly, explicit, fourier, zeta
from .arith import ArithmeticTable, build_sieve
from .bernpoly import GL_W, GL_X
from .explicit import TruncatedSum

__all__ = ["IdentityReport", "run_identity", "emit_report", "selftest", "main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

RH_SLOPE_BAND = (-1.45, -0.55)
ZERO_COUNT = 100  # refined zeros th1, selftest and zeros refine use by default


class UsageError(ValueError):
    """Bad identity id or parameters."""


@dataclass
class IdentityReport:
    """One identity check: parameters, both sides, budget, verdict.

    lhs and rhs are the two sides as checked, each with its own tail and
    rounding bounds; rhs is the canonical right side.  Reports write it as
    rhs_canonical, with its tail_bound under the name budget.
    """

    identity_id: str
    params: dict
    lhs: TruncatedSum
    rhs: TruncatedSum
    abs_diff: float
    budget: float
    verdict: str                      # pass | fail | inconclusive
    adjudication: str = ""
    rhs_printed: float | None = None
    elapsed_s: float = 0.0


# ---------------------------------------------------------------------------
# Sieve table disk cache
# ---------------------------------------------------------------------------

_TABLES: dict[int, ArithmeticTable] = {}


def _cache_dir() -> Path:
    env = os.environ.get("FRACZETA_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "fraczeta"


def get_table(n_max: int) -> ArithmeticTable:
    """Sieve table for n_max, memoized in process and cached on disk.

    The cache file is an uncompressed .npz of the table's four arrays,
    written through a temporary file in the same directory and renamed
    into place; a failed write leaves no file behind.  A file that does
    not load (not an archive, truncated, a member failing its zip CRC) or
    does not make a table (a field missing or extra, a wrong dtype or
    length, prime powers out of order) is silently rebuilt; so is a file
    in an earlier layout, with a dense lam or with upsilon_arr (a table
    sieves upsilon on its first read).
    """
    if n_max in _TABLES:
        return _TABLES[n_max]
    path = _cache_dir() / f"table_{n_max}.npz"
    try:
        with np.load(path) as archive:
            t = ArithmeticTable(n_max, **{name: archive[name] for name in archive.files})
    except Exception:  # noqa: BLE001 - any unreadable file is a cache miss
        # Corrupt input raises whatever the zip, .npy header or table
        # check trips on: BadZipFile, ValueError, TypeError, EOFError, and
        # tokenize.TokenError from a flipped header byte.
        t = build_sieve(n_max)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # A name of this call's own, so concurrent builders never share
            # a partial file; it is renamed into place or removed.
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.stem}.", suffix=".tmp")
            try:
                # np.savez's layout, written straight from each array: into
                # a zip member np.savez copies the data in 16 MiB chunks.
                with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as archive:
                    for name, a in t.arrays().items():
                        with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                            np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(a))
                            member.write(a.data)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # cache is best-effort
    _TABLES[n_max] = t
    return t


_REFINED_ZEROS: dict[int, zeta.ZeroTable] = {}


def get_refined_zeros(count: int = ZERO_COUNT) -> zeta.ZeroTable:
    """Bundled seed table, Newton-refined; shipped digits are never trusted."""
    if count not in _REFINED_ZEROS:
        raw = zeta.load_zero_table(zeta.bundled_zeros_path())
        if not 1 <= count <= len(raw):
            raise UsageError(f"zero count must be in 1..{len(raw)}, got {count}")
        _REFINED_ZEROS[count] = zeta.refine_table(raw, count)
    return _REFINED_ZEROS[count]


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def _check(identity_id: str, params: dict, lhs: TruncatedSum, rhs: TruncatedSum,
           adjudication: str, printed: float | None) -> IdentityReport:
    """Report lhs against rhs; the budget is both sides' tail and rounding bounds.

    The check passes iff |lhs - rhs| <= budget.  Otherwise a right side
    within 3x the budget of 0 cannot adjudicate and the check is
    inconclusive; any other gap fails.
    """
    diff = abs(lhs.value - rhs.value)
    budget = lhs.tail_bound + lhs.round_bound + rhs.tail_bound + rhs.round_bound
    if diff <= budget:
        verdict = "pass"
    elif abs(rhs.value) <= 3.0 * budget:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return IdentityReport(
        identity_id=identity_id, params=params, lhs=lhs, rhs=rhs, abs_diff=diff,
        budget=budget, verdict=verdict, adjudication=adjudication, rhs_printed=printed,
    )


def _constant_adjudication(lhs: float, canonical: float) -> str:
    # The statement prints 1/pi^2 where the proof gives 1/(2 pi^2).
    d_can, d_pr = abs(lhs - canonical), abs(lhs - 2.0 * canonical)
    if d_can <= d_pr:
        return (f"proof constant 1/(2 pi^2) matches (|d|={d_can:.3e}); "
                f"statement constant 1/pi^2 misses by {d_pr:.3e}")
    return (f"statement constant 1/pi^2 matches (|d|={d_pr:.3e}); "
            f"proof constant misses by {d_can:.3e}")


def _th2_mu(x: float, N: int) -> IdentityReport:
    lhs = fourier.lhs_weighted_sdot(get_table(N), "mu", 2.0, x, N)
    rhs = fourier.rhs_th2_mu(x)
    return _check("th2-mu", {"x": x, "N": N}, lhs, TruncatedSum(rhs, 1, 0.0),
                  _constant_adjudication(lhs.value, rhs), 2.0 * rhs)


def _th2_log(x: float, N: int) -> IdentityReport:
    lhs = fourier.lhs_weighted_sdot(get_table(N), "lambda", 2.0, x, N)
    rhs = fourier.rhs_th2_log(x, N)
    return _check("th2-log", {"x": x, "N": N}, lhs, rhs,
                  _constant_adjudication(lhs.value, rhs.value), 2.0 * rhs.value)


def _th4(x: float, N: int) -> IdentityReport:
    tab = get_table(N)
    lhs = fourier.lhs_weighted_sdot(tab, "mu", 1.5, x, N)
    rhs = fourier.rhs_th4_upsilon(tab, x, N)
    adj = _constant_adjudication(lhs.value, rhs.value)
    adj += "; absolutely convergent, verified without RH assumption"
    return _check("th4", {"x": x, "N": N}, lhs, rhs, adj, 2.0 * rhs.value)


def _th1(k: int, x: float, N: int, zeros: int) -> IdentityReport:
    if k not in zeta.K_VALUES:
        raise UsageError(f"th1 needs k in {zeta.K_VALUES[0]}..{zeta.K_VALUES[-1]}")
    zero_table = get_refined_zeros(zeros)
    tab = get_table(N)
    lhs = explicit.lhs_theorem1(tab, k, x, N)
    rhs = explicit.rhs_theorem1(k, x, zero_table)
    diff = abs(lhs.value - rhs.total)

    # Sign adjudication against the right side with sigma = +1.
    diff_plus = abs(lhs.value - explicit.rhs_theorem1(k, x, zero_table, sign=+1.0).total)
    winner = "-1" if diff <= diff_plus else "+1"
    adj = (
        f"zero/trivial sum sign sigma={winner} wins "
        f"(|d|={min(diff, diff_plus):.3e} vs {max(diff, diff_plus):.3e}); "
        f"trivial-zero exponent -2j-1-k (printed 2j-1-k diverges for x>1); "
        f"zero multiplicities assumed 1 over the table range"
    )
    if abs(rhs.zero_sum.value) <= 10.0 * rhs.zero_sum.tail_bound:
        adj += "; note |zero_sum| within 10x of its tail bound"

    rhs_printed = None
    if k <= 2:
        # Published main term substituted for the contour residue at s = 1.
        rhs_printed = explicit.printed_Pk(k, x) + math.fsum(
            [v for s0, v in rhs.residues if s0 != 1.0]
            + [rhs.zero_sum.value, rhs.trivial_sum.value]
        )
        d_pr = abs(lhs.value - rhs_printed)
        if k == 2:
            which = "contour residue (simple pole, no log x)" if diff <= d_pr else "printed P_2 (log x term)"
            adj += (f"; P_2 adjudication: {which} matches "
                    f"(residue |d|={diff:.3e}, printed |d|={d_pr:.3e})")
        else:
            adj += f"; P_1: contour residue matches printed form (|d|={d_pr:.3e})"

    return _check("th1", {"k": k, "x": x, "N": N, "zeros": zeros,
                           "radius": explicit.RESIDUE_RADIUS}, lhs,
                  TruncatedSum(rhs.total, 0, rhs.budget), adj, rhs_printed)


EM_TOLERANCE = 1e-10
# (f, a, b, k, budget): the check passes iff the residual is <= the budget.
EM_CASES = (
    ("square", 1.0, 5.0, 2, 1e-12),
    ("inverse_square", 1.0, 10.0, 3, EM_TOLERANCE),
    ("exp_decay", 1.0, 4.0, 4, EM_TOLERANCE),
)


def _em_check() -> list[IdentityReport]:
    out = []
    for f_id, a, b, k, tol in EM_CASES:
        res = bernpoly.em_identity_residual(f_id, a, b, k)
        out.append(IdentityReport(
            identity_id="em-check", params={"f": f_id, "a": a, "b": b, "k": k},
            lhs=TruncatedSum(res, 0, 0.0), rhs=TruncatedSum(0.0, 0, tol),
            abs_diff=res, budget=tol, verdict="pass" if res <= tol else "fail",
            adjudication="classical Euler-Maclaurin right-hand identity",
        ))
    return out


def _rh_slope(x_min: float, x_max: float, points: int, N: int) -> IdentityReport:
    profile = fourier.rh_decay_profile(get_table(N), x_min, x_max, points, N)
    fit = fourier.rh_slope(profile)
    lo, hi = RH_SLOPE_BAND
    in_band = lo <= fit.slope <= hi
    adj = (
        f"slope={fit.slope:.4f} (delta'={fit.delta_prime:.4f}), r^2={fit.r_squared:.4f}, "
        f"dropped={fit.dropped}/{points}; calibration band [{lo}, {hi}] "
        f"{'contains' if in_band else 'does not contain'} the fit; "
        f"asymptotic criterion not decidable at finite x: diagnostic only"
    )
    return IdentityReport(
        identity_id="rh-slope", params={"x_min": x_min, "x_max": x_max, "points": points, "N": N},
        lhs=TruncatedSum(fit.slope, points - fit.dropped, 0.0),
        rhs=TruncatedSum(-1.0, 0, (hi - lo) / 2.0), abs_diff=abs(fit.slope - (-1.0)),
        budget=(hi - lo) / 2.0, verdict="inconclusive", adjudication=adj,
    )


def _int(v) -> int:
    """v as an int: an int, an integral float or an integer string, never truncated."""
    n = int(v)
    if not isinstance(v, str) and n != v:
        raise ValueError(f"{v!r} is not an integer")
    return n


# id -> (check, {param: (conversion, default)}).  The parameters say what to
# compute; none of them sets a budget.  Every budget is the sum of the
# bounds the computation returns (em-check's are the constants of EM_CASES).
IDENTITIES = {
    "th1": (_th1, {"k": (_int, 1), "x": (float, 10.5), "N": (_int, 10**6), "zeros": (_int, ZERO_COUNT)}),
    "th2-log": (_th2_log, {"x": (float, 3.7), "N": (_int, 10**6)}),
    "th2-mu": (_th2_mu, {"x": (float, 2.0), "N": (_int, 10**6)}),
    "th4": (_th4, {"x": (float, 4.6), "N": (_int, 10**6)}),
    "em-check": (_em_check, {}),
    "rh-slope": (_rh_slope, {"x_min": (float, 10.0), "x_max": (float, 100.0),
                             "points": (_int, 20), "N": (_int, 10**7)}),
}
IDENTITY_IDS = tuple(IDENTITIES)


def run_identity(identity_id: str, params: dict) -> IdentityReport | list[IdentityReport]:
    """Run one identity check, table defaults filling the missing params.

    An unknown id, a parameter the identity does not take or a value that
    does not convert (see _int) raises UsageError; errors of the
    computation propagate as they are.  elapsed_s times the whole check.
    """
    if identity_id not in IDENTITIES:
        raise UsageError(f"unknown identity id {identity_id!r}; know {IDENTITY_IDS}")
    check, spec = IDENTITIES[identity_id]
    unknown = [name for name in params if name not in spec]
    if unknown:
        raise UsageError(f"{identity_id} takes no {', '.join(unknown)}; it takes {', '.join(spec)}")
    try:
        kwargs = {name: convert(params[name]) if name in params else default
                  for name, (convert, default) in spec.items()}
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError(f"invalid parameters for {identity_id}: {exc}") from exc
    t0 = time.perf_counter()
    result = check(**kwargs)
    elapsed = time.perf_counter() - t0
    for r in result if isinstance(result, list) else [result]:
        r.elapsed_s = elapsed
    return result


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

# The report layout, in output order: (CSV column, JSON path, IdentityReport
# attribute).  A dotted JSON path nests the leaf under its leading keys.
REPORT_FIELDS = (
    ("identity_id", "identity_id", "identity_id"),
    ("params", "params", "params"),
    ("lhs_value", "lhs.value", "lhs.value"),
    ("lhs_terms_used", "lhs.terms_used", "lhs.terms_used"),
    ("lhs_tail_bound", "lhs.tail_bound", "lhs.tail_bound"),
    ("lhs_round_bound", "lhs.round_bound", "lhs.round_bound"),
    ("rhs_canonical", "rhs_canonical.value", "rhs.value"),
    ("rhs_budget", "rhs_canonical.budget", "rhs.tail_bound"),
    ("rhs_round_bound", "rhs_canonical.round_bound", "rhs.round_bound"),
    ("rhs_printed", "rhs_printed", "rhs_printed"),
    ("abs_diff", "abs_diff", "abs_diff"),
    ("budget", "budget", "budget"),
    ("verdict", "verdict", "verdict"),
    ("adjudication", "adjudication", "adjudication"),
    ("elapsed_s", "elapsed_s", "elapsed_s"),
)


def _report_dict(r: IdentityReport) -> dict:
    doc: dict = {}
    for _, path, attr in REPORT_FIELDS:
        *keys, leaf = path.split(".")
        node = doc
        for key in keys:
            node = node.setdefault(key, {})
        node[leaf] = attrgetter(attr)(r)
    return doc


def _csv_cell(v):
    """params as k=v;k=v, None empty; csv.writer writes each float as repr."""
    if isinstance(v, dict):
        return ";".join(f"{k}={val}" for k, val in v.items())
    return "" if v is None else v


def emit_report(reports: list[IdentityReport], fmt: str, path: str | Path) -> Path:
    """Serialize reports to JSON or CSV, each float in its shortest round-trip
    form (its repr); a nan or inf raises ValueError and writes no file."""
    path = Path(path)
    try:
        if fmt == "json":
            doc = json.dumps([_report_dict(r) for r in reports], indent=2, allow_nan=False) + "\n"
            path.write_text(doc, encoding="utf-8")
        elif fmt == "csv":
            rows = [[attrgetter(attr)(r) for _, _, attr in REPORT_FIELDS] for r in reports]
            json.dumps(rows, allow_nan=False)  # JSON's ValueError at a nan or inf, params included
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow([column for column, _, _ in REPORT_FIELDS])
                w.writerows([_csv_cell(v) for v in row] for row in rows)
        else:
            raise UsageError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise IOError(f"cannot write report to {path}: {exc}") from exc
    return path


def reports_exit_code(reports: list[IdentityReport]) -> int:
    """0 iff every verdict passes, or is the by-design inconclusive rh-slope."""
    for r in reports:
        if r.verdict == "pass":
            continue
        if r.verdict == "inconclusive" and r.identity_id == "rh-slope":
            continue
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# Selftest
# ---------------------------------------------------------------------------

SELFTEST_N = 10**5  # the table size of the sieve invariants


def _require(ok, msg: str) -> None:
    """Raise AssertionError unless ok; unlike assert, kept under python -O."""
    if not ok:
        raise AssertionError(msg)


def sieve_identities():
    tab = get_table(SELFTEST_N)
    N = 10**4
    one = np.ones(N + 1)
    nn = np.arange(1, N + 1, dtype=np.float64)
    lam = np.zeros(N + 1)
    end = np.searchsorted(tab.prime_powers, N, side="right")
    lam[tab.prime_powers[:end]] = tab.lam[:end]
    lam1 = arith.dirichlet_convolve(lam, one)
    _require(np.max(np.abs(lam1[1:] - np.log(nn))) <= 1e-12, "Lambda * 1 != log")
    mu1 = arith.dirichlet_convolve(tab.mu[: N + 1].astype(np.float64), one)
    _require(mu1[1] == 1.0 and np.max(np.abs(mu1[2:])) == 0.0, "mu * 1 != delta")
    musq = tab.mu[: N + 1].astype(np.float64) * np.sqrt(np.arange(N + 1, dtype=np.float64))
    mb = arith.dirichlet_convolve(musq, tab.mu[: N + 1].astype(np.float64))
    _require(np.max(np.abs(mb[1:] - tab.mubar_arr[1 : N + 1])) <= 1e-12, "mubar convolution")
    up = arith.dirichlet_convolve(musq, one)
    _require(np.max(np.abs(up[1:] - tab.upsilon_arr[1 : N + 1])) <= 1e-12, "upsilon convolution")
    _require(np.all(np.abs(tab.upsilon_arr[1 : N + 1]) <= np.sqrt(nn) + 1e-9), "|upsilon| <= sqrt n")


def sieve_determinism():
    a = build_sieve(3000)
    b = build_sieve(3000)
    for x, y in zip([*a.arrays().values(), a.upsilon_arr], [*b.arrays().values(), b.upsilon_arr]):
        _require(np.array_equal(x, y), "sieve not deterministic")


def dirichlet_series_cross_check():
    tab = get_table(SELFTEST_N)
    z3, z25 = zeta.zeta_em(np.array([3.0, 2.5])).real
    n3 = np.arange(1, SELFTEST_N + 1, dtype=np.float64) ** 3
    tail = 2.8 / SELFTEST_N**1.5
    partial = np.sum(tab.mubar_arr[1:] / n3)
    _require(abs(partial - 1.0 / (z3 * z25)) <= 1e3 * tail, "mubar Dirichlet series")
    partial_u = np.sum(tab.upsilon_arr[1:] / n3)
    _require(abs(partial_u - z3 / z25) <= 1e3 * tail, "upsilon Dirichlet series")


def bernoulli_periodicity():
    xs = np.linspace(0.0, 50.0, 1000)
    for k in range(1, 7):
        a = bernpoly.integral_ik_array(k, xs + 1.0)
        b = bernpoly.integral_ik_array(k, xs)
        _require(np.max(np.abs(a - b)) <= 1e-14, f"I_{k} periodicity")


def sdot_fourier_oracle():
    # Partial sums of (1/(2 pi^2)) sum (cos(2 pi n x) - 1)/n^2 converge to sdot.
    N = 10**4
    n = np.arange(1, N + 1, dtype=np.float64)
    inv = 1.0 / n**2
    for x in np.linspace(0.0, 3.0, 101):
        partial = float(np.sum((np.cos(2.0 * np.pi * n * x) - 1.0) * inv)) / (2.0 * math.pi**2)
        _require(abs(bernpoly.sdot(float(x)) - partial) <= 1.0 / (math.pi**2 * N) + 1e-12,
                 f"sdot Fourier normalization at x={x}")


def ik_period_integrals(k: int, x: float) -> list[float]:
    """integral of B_k({t}) over [j, min(j + 1, x)] for j = 0..ceil(x) - 1.

    On each piece B_k({t}) = B_k(t - j) is a polynomial of degree k, which
    the 32-node Gauss-Legendre rule integrates exactly.
    """
    pieces = []
    for j in range(math.ceil(x)):
        h = min(j + 1.0, x) - j
        pieces.append(h * float(np.sum(bernpoly.bernoulli_poly(k, h * GL_X) * GL_W)))
    return pieces


def ik_quadrature_oracle():
    for k in zeta.K_VALUES:
        for x in (0.3, 2.7, 9.25):
            quadrature = math.fsum(ik_period_integrals(k, x))
            _require(abs(quadrature - bernpoly.integral_Ik(k, x)) <= 1e-10, f"I_{k}({x}) quadrature")


def zeta_classical_values():
    _require(abs(zeta.zeta_em(2.0) - math.pi**2 / 6.0) <= 1e-12, "zeta(2) != pi^2/6")
    _require(abs(zeta.zeta_em(0.0) + 0.5) <= 1e-12, "zeta(0) != -1/2")
    _require(abs(zeta.zeta_em(-1.0) + 1.0 / 12.0) <= 1e-12, "zeta(-1) != -1/12")


def hk_oracle_equivalence():
    for k in zeta.K_VALUES:
        for s in (0.0, 2.5, 4.0):
            c = zeta.Hk_closed(k, s)
            q = zeta.Hk_quadrature(k, s)
            _require(abs(c - q) <= 1e-8 * abs(q), f"H_{k}({s}) oracle mismatch")


def pole_normalization():
    vals = [(1.0 + 10.0**-m) for m in (2, 3, 4)]
    prods = [((s - 1.0) * zeta.zeta_em(s)).real for s in vals]
    extrap = prods[2] + (prods[2] - prods[1]) / 9.0
    _require(abs(extrap - 1.0) <= 1e-6, "pole residue")
    s = 1.0 + 1e-6
    gamma_est = (zeta.zeta_em(s) - 1.0 / (s - 1.0)).real
    _require(abs(gamma_est - zeta.EULER_GAMMA) <= 1e-5, "Euler-Mascheroni")


def zero_table_validation():
    zeros = get_refined_zeros()
    _require(all(e.residual <= zeta.ZERO_RESIDUAL_MAX for e in zeros.entries), "zero residuals")
    _require(all(e.re_deviation <= 1e-9 for e in zeros.entries), "zeros off critical line")
    # Zeros come in reflected pairs: the mirror 1/2 - i gamma is a zero too.
    # (1 - conj(rho) is rho itself on the critical line.)
    gammas = np.array([e.gamma for e in zeros.entries[::10]])
    mirrored = np.abs(zeta.zeta_em(0.5 - 1j * gammas))
    _require(np.all(mirrored <= zeta.ZERO_RESIDUAL_MAX), f"zero reflection at {gammas[np.argmax(mirrored)]}")


def conjugate_pair_realness():
    pairs = explicit.zero_pair_terms(1, 10.5, get_refined_zeros())
    _require(pairs.shape == (ZERO_COUNT,), f"pair terms have shape {pairs.shape}")
    _require(float(np.max(np.abs(pairs.imag))) <= 1e-15, "pair terms not real")


def residue_radius_independence():
    a = explicit.residue_at(1, 10.5, 1.0, 0.15)
    b = explicit.residue_at(1, 10.5, 1.0, 0.30)
    _require(abs(a - b) <= 1e-10, "residue depends on radius")


def euler_maclaurin_check():
    bad = [r.params for r in _em_check() if r.verdict != "pass"]
    _require(not bad, f"Euler-Maclaurin residual over budget: {bad}")


# (name, check) in the order fraczeta selftest runs them; the test suite
# runs the same callables.  Each check raises AssertionError on failure.
INVARIANTS = (
    ("sieve-identities", sieve_identities),
    ("sieve-determinism", sieve_determinism),
    ("dirichlet-series-cross-check", dirichlet_series_cross_check),
    ("bernoulli-periodicity", bernoulli_periodicity),
    ("sdot-fourier-oracle", sdot_fourier_oracle),
    ("ik-quadrature-oracle", ik_quadrature_oracle),
    ("zeta-classical-values", zeta_classical_values),
    ("hk-oracle-equivalence", hk_oracle_equivalence),
    ("pole-normalization", pole_normalization),
    ("zero-table-validation", zero_table_validation),
    ("conjugate-pair-realness", conjugate_pair_realness),
    ("residue-radius-independence", residue_radius_independence),
    ("euler-maclaurin-check", euler_maclaurin_check),
)


def selftest(out=None) -> int:
    """Run every invariant of INVARIANTS; returns an exit code."""
    out = out if out is not None else sys.stdout
    failures = 0
    t_start = time.perf_counter()
    for name, check in INVARIANTS:
        t0 = time.perf_counter()
        try:
            check()
        except Exception as exc:  # noqa: B902 - named failure reporting
            failures += 1
            print(f"FAIL {name}: {exc}", file=out)
            continue
        print(f"ok   {name} ({time.perf_counter() - t0:.2f}s)", file=out)
    print(f"selftest: {'FAIL' if failures else 'ok'} ({time.perf_counter() - t_start:.1f}s)", file=out)
    return EXIT_VERIFY if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fraczeta",
        description="numerical verification of fractional-part arithmetic series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("selftest", help="run the invariant suite at reduced N")

    # Each dest is the identity parameter name; unset flags stay None and
    # take the IDENTITIES default.
    v = sub.add_parser("verify", help="verify one identity")
    v.add_argument("identity", choices=IDENTITY_IDS)
    v.add_argument("--x", type=float)
    v.add_argument("--k", type=int)
    v.add_argument("--nterms", dest="N", type=int, metavar="NTERMS")
    v.add_argument("--zeros", type=int)
    v.add_argument("--json", type=Path, metavar="PATH")
    v.add_argument("--csv", type=Path, metavar="PATH")

    r = sub.add_parser("rh-explore", help="decay-slope diagnostic (verify rh-slope)")
    r.set_defaults(identity="rh-slope")
    r.add_argument("--xmin", dest="x_min", type=float, metavar="XMIN")
    r.add_argument("--xmax", dest="x_max", type=float, metavar="XMAX")
    r.add_argument("--points", type=int)
    r.add_argument("--nterms", dest="N", type=int, metavar="NTERMS")
    r.add_argument("--json", type=Path, metavar="PATH")

    z = sub.add_parser("zeros", help="zero-table operations")
    zsub = z.add_subparsers(dest="zeros_command", required=True)
    zr = zsub.add_parser("refine", help="refine the bundled seed ordinates")
    zr.add_argument("--count", type=int, default=ZERO_COUNT)

    sub.add_parser("em-check", help="Euler-Maclaurin self-check (verify em-check)") \
        .set_defaults(identity="em-check")
    return ap


def _print_report(r: IdentityReport) -> None:
    print(f"[{r.identity_id}] params={r.params}")
    print(f"  lhs      = {r.lhs.value:+.12e}  (terms={r.lhs.terms_used}, tail<={r.lhs.tail_bound:.3e})")
    print(f"  rhs      = {r.rhs.value:+.12e}  (budget {r.rhs.tail_bound:.3e})")
    if r.rhs_printed is not None:
        print(f"  printed  = {r.rhs_printed:+.12e}")
    print(f"  |diff|   = {r.abs_diff:.3e}  budget={r.budget:.3e}  verdict={r.verdict}")
    print(f"  {r.adjudication}")
    print(f"  ({r.elapsed_s:.2f}s)")


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "selftest":
            return selftest()

        if args.command == "zeros":
            zeros = get_refined_zeros(args.count)
            for e in zeros.entries:
                print(f"{e.index:4d}  gamma={e.gamma:.15f}  |zeta|={e.residual:.2e}  |Re-1/2|={e.re_deviation:.2e}")
            worst = max(e.residual for e in zeros.entries)
            print(f"refined {len(zeros)} zeros, worst residual {worst:.2e}")
            return EXIT_OK if worst <= zeta.ZERO_RESIDUAL_MAX else EXIT_VERIFY

        # verify, rh-explore and em-check: every flag set is a parameter.
        params = {name: v for name, v in vars(args).items()
                  if name not in ("command", "identity", "json", "csv") and v is not None}
        result = run_identity(args.identity, params)
        reports = result if isinstance(result, list) else [result]
        for r in reports:
            _print_report(r)
        for fmt in ("json", "csv"):
            if getattr(args, fmt, None):
                emit_report(reports, fmt, getattr(args, fmt))
        return reports_exit_code(reports)

    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IOError, zeta.FormatError) as exc:
        print(f"io/format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, zeta.RefinementError) as exc:
        # ValueError covers CapacityError, DomainError and
        # InsufficientDataError.
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
