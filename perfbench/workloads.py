"""The benchmark workloads: inputs drawn from a seed, set-up, one pass, and
the correctness gate every pass must clear.

The seed only moves x values inside stated ranges; the work a pass does
(terms summed, zeros refined, zeta evaluations) does not depend on it.
The tolerances are those of tests/test_acceptance.py, restated here so
that a change to the library's own defaults cannot loosen the gate.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

from fraczeta import cli, explicit, zeta

TH2_MU_TOL = 5e-7                      # criterion 01, incl. the x = 2 oracle
TH1_TOL = {1: 1e-3, 2: 1e-6, 3: 1e-6, 4: 1e-6}  # criteria 04, 05 (floor under the budget)
RH_SLOPE_BAND = (-1.45, -0.55)         # criterion 09
ZERO_RESIDUAL = 1e-8                   # criterion 07
ZERO_RE_DEVIATION = 1e-9               # criterion 07
HK_REL_TOL = 1e-8                      # criterion 06


class Gate:
    """Counts checks attempted and failed; a check that raises has failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, fn) -> None:
        """Run fn(), which returns None when the output is correct and a
        reason otherwise."""
        self.attempted += 1
        try:
            reason = fn()
        except Exception as exc:  # a raising check is a failed check
            reason = f"raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{name}: {reason}")


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _non_integer(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform in [lo, hi] and at least 0.1 from every integer."""
    while True:
        x = _uniform(rng, lo, hi)
        if abs(x - round(x)) >= 0.1:
            return x


class Verify:
    """The mix `fraczeta verify` serves: 14 acceptance checks at N = 10^6,
    the JSON and CSV reports, and one selftest."""

    name = "verify-1e6"
    N = 10**6

    def setup(self) -> None:
        cli.get_table(self.N)
        cli.get_refined_zeros(100)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        u = lambda lo, hi: _uniform(rng, lo, hi)  # noqa: E731
        nx = lambda lo, hi: _non_integer(rng, lo, hi)  # noqa: E731
        return {
            "th2-mu": [2.0, u(3.0, 5.0), u(8.0, 12.0)],
            "th2-log": [u(2.2, 3.0), u(3.2, 4.5), u(8.0, 12.0)],
            "th4": [1.0, u(4.0, 5.2), u(8.5, 10.5)],
            "th1": [(1, nx(10.0, 11.0)), (1, nx(20.0, 21.0)), (2, nx(5.0, 6.0)), (2, nx(9.0, 10.0))],
        }

    def run_pass(self, inp: dict, gate: Gate, workdir: Path) -> None:
        reports: list = []

        def identity(ident: str, params: dict, extra=None) -> None:
            def run():
                res = cli.run_identity(ident, params)
                rs = res if isinstance(res, list) else [res]
                reports.extend(rs)
                bad = [r.verdict for r in rs if r.verdict != "pass"]
                if bad:
                    return f"verdicts {bad}"
                return extra(rs[0]) if extra else None

            gate.check(f"{ident} {params}", run)

        def closed_form(r):
            # Only odd n contribute at x = 2, so the sum is exactly -1/pi^2.
            d = abs(r.lhs.value + 1.0 / math.pi**2)
            return None if d <= TH2_MU_TOL else f"|lhs + 1/pi^2| = {d:.3e} > {TH2_MU_TOL}"

        for x in inp["th2-mu"]:
            identity("th2-mu", {"x": x, "N": self.N}, closed_form if x == 2.0 else None)
        for x in inp["th2-log"]:
            identity("th2-log", {"x": x, "N": self.N})
        for x in inp["th4"]:
            identity("th4", {"x": x, "N": self.N})
        for k, x in inp["th1"]:
            identity("th1", {"k": k, "x": x, "N": self.N, "zeros": 100})
        identity("em-check", {})

        for fmt in ("json", "csv"):
            path = workdir / f"reports.{fmt}"
            gate.check(f"emit_report {fmt}",
                       lambda: _check_emitted(cli.emit_report(reports, fmt, path), fmt, reports))

        out = io.StringIO()
        gate.check("selftest", lambda: None if cli.selftest(out=out) == 0 else out.getvalue()[-300:])


def _check_emitted(path: Path, fmt: str, reports: list):
    """The written report lists every check with its verdict and its
    difference to all 17 digits."""
    want = [(r.identity_id, r.verdict, r.abs_diff) for r in reports]
    if fmt == "json":
        rows = json.loads(path.read_text(encoding="utf-8"))
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    got = [(d["identity_id"], d["verdict"], float(d["abs_diff"])) for d in rows]
    return None if got == want else f"{fmt} report holds {got}, expected {want}"


class RhProfile:
    """The `rh-explore` diagnostic: mubar-weighted sums of 10^7 terms at 20
    log-spaced x, then the slope fit."""

    name = "rh-profile-1e7"
    N = 10**7
    POINTS = 20

    def setup(self) -> None:
        cli.get_table(self.N)

    def inputs(self, seed: int) -> dict:
        # Endpoints within 1% of 10 and 100: every grid point then stays on
        # the same side of its noise floor, so 10 of 20 points are kept.
        rng = random.Random(seed)
        return {"x_min": 10.0 * _uniform(rng, 0.99, 1.01), "x_max": 100.0 * _uniform(rng, 0.99, 1.01)}

    def run_pass(self, inp: dict, gate: Gate, workdir: Path) -> None:
        def run():
            params = dict(inp, points=self.POINTS, N=self.N)
            r = cli.run_identity("rh-slope", params)
            lo, hi = RH_SLOPE_BAND
            slope = r.lhs.value
            return None if lo <= slope <= hi else f"slope {slope} outside [{lo}, {hi}]"

        gate.check(f"rh-slope {inp}", run)


class ExplicitZeros:
    """The zeta engine without large sieves: refine 100 zeros from the raw
    seeds, rebuild the theorem-1 right side for k = 1..4 at five x with both
    signs, and run the H_k oracle grid."""

    name = "explicit-zeros"
    N = 10**5  # left-side oracle table; its sieve is negligible
    ZEROS = 100

    def setup(self) -> None:
        self.table = cli.get_table(self.N)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        return {"x": [_non_integer(rng, 5.0 + 4 * i, 9.0 + 4 * i) for i in range(5)]}

    def run_pass(self, inp: dict, gate: Gate, workdir: Path) -> None:
        refined = []

        def refine():
            raw = zeta.load_zero_table(zeta.bundled_zeros_path())
            zeros = zeta.refine_table(raw, self.ZEROS)
            refined.append(zeros)
            res = max(e.residual for e in zeros.entries)
            dev = max(e.re_deviation for e in zeros.entries)
            if len(zeros) != self.ZEROS or res > ZERO_RESIDUAL or dev > ZERO_RE_DEVIATION:
                return f"{len(zeros)} zeros, worst residual {res:.2e}, worst |Re-1/2| {dev:.2e}"
            return None

        gate.check("refine zeros", refine)

        def theorem1(k: int, x: float):
            if not refined:
                return "no refined zeros"
            lhs = explicit.lhs_theorem1(self.table, k, x, self.N)
            minus = explicit.rhs_theorem1(k, x, refined[0], sign=-1.0)
            plus = explicit.rhs_theorem1(k, x, refined[0], sign=+1.0)
            diff = abs(lhs.value - minus.total)
            allowed = max(TH1_TOL[k], lhs.tail_bound + minus.budget)
            if diff > allowed:
                return f"|lhs - rhs| = {diff:.3e} > {allowed:.3e}"
            # Sign +1 is the adjudication alternative.  Which sign wins is
            # not gated: at k = 4 both can sit within rounding of the left side.
            return None if math.isfinite(plus.total) else "sign +1 total is not finite"

        for x in inp["x"]:
            for k in range(1, 5):
                gate.check(f"theorem-1 k={k} x={x}", lambda: theorem1(k, x))

        def hk(k: int, s: float):
            c = zeta.Hk_closed(k, s)
            q = zeta.Hk_quadrature(k, s)
            rel = abs(c - q) / abs(q)
            return None if rel <= HK_REL_TOL else f"relative difference {rel:.2e}"

        for k in range(1, 5):
            for s in (0.0, 2.5, 4.0):
                gate.check(f"H_{k}({s})", lambda: hk(k, s))


WORKLOADS = {w.name: w for w in (Verify, RhProfile, ExplicitZeros)}
