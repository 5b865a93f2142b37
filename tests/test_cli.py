import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest

from fraczeta import cli, explicit
from fraczeta.arith import build_sieve
from fraczeta.bernpoly import bernoulli_poly
from fraczeta.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    IdentityReport,
    UsageError,
    emit_report,
    get_table,
    reports_exit_code,
    run_identity,
)
from fraczeta.explicit import TruncatedSum


class TestRunIdentity:
    def test_th2_mu_passes_with_adjudication(self, table_1e6):
        r = run_identity("th2-mu", {"x": 2.0, "N": 10**6})
        assert r.verdict == "pass"
        assert "1/(2 pi^2)" in r.adjudication
        assert r.abs_diff <= 5e-7
        # the printed variant is carried for comparison
        assert r.rhs_printed == pytest.approx(2.0 * r.rhs.value, rel=1e-15)

    def test_th1_k1_passes(self, table_1e6, zeros100):
        r = run_identity("th1", {"k": 1, "x": 10.5, "N": 10**6, "zeros": 100})
        assert r.verdict == "pass"
        assert r.abs_diff <= 1e-3
        assert "sigma=-1" in r.adjudication

    def test_th1_builds_each_sign_once(self, table_small, zeros100, monkeypatch):
        # The canonical sigma = -1 side, then the sigma = +1 side of the sign
        # adjudication, each from one rhs_theorem1 call.
        calls = []
        build = explicit.rhs_theorem1
        monkeypatch.setattr(explicit, "rhs_theorem1",
                            lambda *a, **kw: calls.append(kw) or build(*a, **kw))
        r = run_identity("th1", {"k": 1, "x": 10.5, "N": 10**4})
        assert calls == [{}, {"sign": 1.0}]
        d_plus = abs(r.lhs.value - build(1, 10.5, zeros100, sign=+1.0).total)
        assert f"{d_plus:.3e}" in r.adjudication

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_th1_plus_side_is_the_plus_build(self, table_small, zeros100, monkeypatch, k):
        # With the left side set to the sigma = +1 build's total, th1's own
        # sigma = +1 total must differ from it by exactly 0.
        for x in (5.5, 10.5):
            plus = explicit.rhs_theorem1(k, x, zeros100, sign=+1.0).total
            monkeypatch.setattr(explicit, "lhs_theorem1", lambda *a: TruncatedSum(plus, 1, 0.0))
            r = run_identity("th1", {"k": k, "x": x, "N": 10**4})
            assert "sigma=+1 wins (|d|=0.000e+00 vs " in r.adjudication, (k, x)

    def test_th2_mu_gap_over_budget_fails(self, table_1e6, monkeypatch):
        # A gap of 3e-7 is over the 1.25e-7 budget at x = 2, N = 10^6.
        rhs = cli.fourier.rhs_th2_mu
        monkeypatch.setattr(cli.fourier, "rhs_th2_mu", lambda x: rhs(x) + 3e-7)
        r = run_identity("th2-mu", {"x": 2.0, "N": 10**6})
        assert r.budget < 3e-7 < r.abs_diff
        assert r.verdict == "fail"

    def test_th1_gap_over_budget_does_not_pass(self, table_1e6, zeros100, monkeypatch):
        # A gap of 2e-7 is over the 5.8e-8 budget at k = 4, x = 7.5.  The
        # right side there is within 3x the budget of 0, so the check
        # cannot adjudicate.
        lhs = explicit.lhs_theorem1

        def shifted(*a):
            ts = lhs(*a)
            return dataclasses.replace(ts, value=ts.value + 2e-7)

        monkeypatch.setattr(explicit, "lhs_theorem1", shifted)
        r = run_identity("th1", {"k": 4, "x": 7.5, "N": 10**6})
        assert r.budget < 1e-7 < r.abs_diff
        assert abs(r.rhs.value) <= 3.0 * r.budget
        assert r.verdict == "inconclusive"

    def test_unknown_identity(self):
        with pytest.raises(UsageError):
            run_identity("bogus", {})

    def test_bad_params(self):
        with pytest.raises(UsageError):
            run_identity("th1", {"k": 9})
        with pytest.raises(UsageError):
            run_identity("th2-mu", {"x": "not a number"})

    @pytest.mark.parametrize("params", [
        {"k": 2.7}, {"N": 100000.9}, {"N": "1e5"}, {"N": math.inf}, {"zeros": math.nan},
    ])
    def test_non_integral_int_param_rejected(self, params):
        # An int parameter takes no fraction: int(2.7) would truncate it to 2.
        with pytest.raises(UsageError):
            run_identity("th1", params)

    def test_integral_float_accepted_as_int(self, monkeypatch):
        seen = {}
        _, spec = cli.IDENTITIES["th1"]
        monkeypatch.setitem(cli.IDENTITIES, "th1", (lambda **kw: seen.update(kw) or [], spec))
        assert run_identity("th1", {"k": 2.0, "N": 100000.0, "zeros": "10"}) == []
        assert (seen["k"], seen["N"], seen["zeros"]) == (2, 100000, 10)
        assert all(type(seen[name]) is int for name in ("k", "N", "zeros"))

    @pytest.mark.parametrize("ident,params", [
        ("th2-mu", {"zeros": 7}), ("th2-mu", {"k": 3}), ("em-check", {"x": 2.0}),
        ("rh-slope", {"tolerance": 1e-3}), ("th4", {"nterms": 10**6}),
    ])
    def test_param_not_taken(self, ident, params):
        with pytest.raises(UsageError, match="takes no"):
            run_identity(ident, params)

    def test_table_defaults_fill_params(self, monkeypatch):
        seen = {}
        _, spec = cli.IDENTITIES["rh-slope"]
        monkeypatch.setitem(cli.IDENTITIES, "rh-slope", (lambda **kw: seen.update(kw) or [], spec))
        assert run_identity("rh-slope", {"N": "5000", "x_max": 50}) == []
        assert seen == {"x_min": 10.0, "x_max": 50.0, "points": 20, "N": 5000}
        assert isinstance(seen["x_max"], float) and isinstance(seen["N"], int)

    @pytest.mark.parametrize("ident,params", [
        ("th2-mu", {"x": 3.5}), ("th2-log", {"x": 3.7}), ("th4", {"x": 4.6}),
        ("th1", {"k": 1, "x": 10.5}),
    ])
    def test_budget_includes_round_bounds(self, table_1e6, zeros100, ident, params):
        r = run_identity(ident, dict(params, N=10**6))
        assert r.lhs.round_bound > 0.0
        assert r.budget == r.lhs.tail_bound + r.lhs.round_bound + r.rhs.tail_bound + r.rhs.round_bound
        if ident in ("th2-log", "th4"):
            assert r.rhs.round_bound > 0.0

    def test_determinism(self, table_1e6):
        a = run_identity("th2-mu", {"x": 3.5, "N": 10**6})
        b = run_identity("th2-mu", {"x": 3.5, "N": 10**6})
        assert a.lhs.value == b.lhs.value
        assert a.abs_diff == b.abs_diff


class TestEmitReport:
    def _sample_report(self, verdict="pass"):
        return IdentityReport(
            identity_id="th2-mu",
            params={"x": 2.0, "N": 1000},
            lhs=TruncatedSum(-0.10132118364233778, 607, 1.25e-7),
            rhs=TruncatedSum(-0.10132118364233778, 1, 0.0),
            abs_diff=0.0,
            budget=1.25e-7,
            verdict=verdict,
            adjudication="test",
        )

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "r.json"
        emit_report([self._sample_report()], "json", p)
        doc = json.loads(p.read_text())
        assert doc[0]["verdict"] == "pass"
        assert doc[0]["lhs"]["value"] == -0.10132118364233778

    def test_round_bounds_and_elapsed_roundtrip(self, tmp_path):
        r = self._sample_report()
        r.lhs = TruncatedSum(-0.10132118364233778, 607, 1.25e-7,
                             round_bound=2.2737367544323206e-13)
        r.rhs = TruncatedSum(-0.10132118364233778, 1, 0.0, round_bound=1.1368683772161603e-17)
        r.elapsed_s = 0.12345678901234568
        emit_report([r], "json", tmp_path / "r.json")
        emit_report([r], "csv", tmp_path / "r.csv")
        doc = json.loads((tmp_path / "r.json").read_text())[0]
        with open(tmp_path / "r.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        for got in (
            (doc["lhs"]["round_bound"], doc["rhs_canonical"]["round_bound"], doc["elapsed_s"]),
            tuple(float(row[k]) for k in ("lhs_round_bound", "rhs_round_bound", "elapsed_s")),
        ):
            assert got == (r.lhs.round_bound, r.rhs.round_bound, r.elapsed_s)

    def test_csv_columns_are_the_json_leaves(self, tmp_path):
        # Every field set, rhs_printed both None and a value.
        r = self._sample_report()
        r.params = {"k": 2, "x": 5.5, "N": 1000, "radius": 0.25}
        r.lhs = TruncatedSum(0.012345678901234567, 607, 1.25e-7, round_bound=2.2737367544323206e-13)
        r.rhs = TruncatedSum(0.012345678901234569, 3, 3.3e-9, round_bound=1.1368683772161603e-17)
        r.abs_diff, r.budget = 2.0816681711721685e-18, 1.2830000000022737e-7
        r.adjudication, r.elapsed_s = 'a "quoted", comma; note', 0.12345678901234568
        printed = dataclasses.replace(r, rhs_printed=0.1)
        emit_report([r, printed], "json", tmp_path / "r.json")
        emit_report([r, printed], "csv", tmp_path / "r.csv")
        docs = json.loads((tmp_path / "r.json").read_text())
        with open(tmp_path / "r.csv", newline="") as fh:
            header, *rows = csv.reader(fh)

        def leaves(node, prefix=""):
            for key, val in node.items():
                if isinstance(val, dict) and key != "params":
                    yield from leaves(val, prefix + key + ".")
                else:
                    yield prefix + key, val

        column = {path: col for col, path, _ in cli.REPORT_FIELDS}
        assert [path for _, path, _ in cli.REPORT_FIELDS] == [p for p, _ in leaves(docs[0])]
        assert header == [column[p] for p, _ in leaves(docs[0])]

        def parse(cell, like):
            if like is None:
                return None if cell == "" else cell
            if isinstance(like, dict):
                return {k: json.loads(v) for k, v in (kv.split("=") for kv in cell.split(";"))}
            return type(like)(cell)

        assert [doc["rhs_printed"] for doc in docs] == [None, 0.1]
        for doc, row in zip(docs, rows, strict=True):
            for (path, leaf), cell in zip(leaves(doc), row, strict=True):
                assert parse(cell, leaf) == leaf, (path, cell)

    def test_numbers_shortest_round_trip(self, tmp_path):
        # 0.1 is written as 0.1, not 0.10000000000000001, and integral
        # floats read back as floats, not ints.
        r = self._sample_report()
        r.lhs = TruncatedSum(0.1, 607, 0.0)
        rh = dataclasses.replace(r, identity_id="rh-slope",
                                 params={"x_min": 5.0, "x_max": 20.0, "points": 6, "N": 1000})
        emit_report([r, rh], "json", tmp_path / "r.json")
        emit_report([r, rh], "csv", tmp_path / "r.csv")
        text = (tmp_path / "r.json").read_text()
        assert '"value": 0.1,' in text
        docs = json.loads(text)
        assert type(docs[0]["lhs"]["tail_bound"]) is float
        assert type(docs[1]["params"]["x_min"]) is float
        with open(tmp_path / "r.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert (row["lhs_value"], row["lhs_tail_bound"]) == ("0.1", "0.0")

    def test_non_finite_json_raises_and_writes_nothing(self, tmp_path):
        r = self._sample_report()
        r.abs_diff = math.nan
        p = tmp_path / "r.json"
        with pytest.raises(ValueError):
            emit_report([r], "json", p)
        assert not p.exists()

    def test_non_finite_csv_raises_and_writes_nothing(self, tmp_path):
        # A nan in a float column, or an inf among the params, as in JSON.
        r = self._sample_report()
        r.abs_diff = math.nan
        inf_param = dataclasses.replace(self._sample_report(), params={"x": math.inf})
        for i, reports in enumerate([[r], [self._sample_report(), inf_param]]):
            p = tmp_path / f"r{i}.csv"
            with pytest.raises(ValueError):
                emit_report(reports, "csv", p)
            assert not p.exists()

    def test_non_finite_report_exits_1(self, tmp_path, monkeypatch, capsys):
        r = self._sample_report()
        r.abs_diff = math.inf
        monkeypatch.setattr(cli, "run_identity", lambda identity_id, params: r)
        p = tmp_path / "r.json"
        assert cli.main(["verify", "th2-mu", "--json", str(p)]) == EXIT_VERIFY
        assert not p.exists()
        assert "verification error" in capsys.readouterr().err

    def test_non_finite_csv_report_exits_1(self, tmp_path, monkeypatch, capsys):
        r = self._sample_report()
        r.abs_diff = math.inf
        monkeypatch.setattr(cli, "run_identity", lambda identity_id, params: r)
        p = tmp_path / "r.csv"
        assert cli.main(["verify", "th2-mu", "--csv", str(p)]) == EXIT_VERIFY
        assert not p.exists()
        assert "verification error" in capsys.readouterr().err

    def test_empty_list(self, tmp_path):
        p = tmp_path / "empty.json"
        emit_report([], "json", p)
        assert json.loads(p.read_text()) == []
        assert reports_exit_code([]) == EXIT_OK

    def test_csv(self, tmp_path):
        p = tmp_path / "r.csv"
        emit_report([self._sample_report()], "csv", p)
        lines = p.read_text().strip().splitlines()
        assert lines[0].startswith("identity_id,")
        assert "pass" in lines[1]

    def test_unwritable_path(self):
        with pytest.raises(IOError):
            emit_report([self._sample_report()], "json", "/nonexistent-dir/r.json")

    def test_exit_codes(self):
        assert reports_exit_code([self._sample_report("pass")]) == EXIT_OK
        assert reports_exit_code([self._sample_report("fail")]) == EXIT_VERIFY
        assert reports_exit_code([self._sample_report("inconclusive")]) == EXIT_VERIFY
        rh = self._sample_report("inconclusive")
        rh.identity_id = "rh-slope"
        assert reports_exit_code([rh]) == EXIT_OK


def flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # inside a member's array data: its zip CRC must catch it
    path.write_bytes(bytes(raw))


def truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def other_n_max(path):
    get_table(2000)
    (path.parent / "table_2000.npz").replace(path)


def parent_format(path):
    # The earlier binary cache: magic, version, n_max, CRC, then the arrays.
    payload = b"".join(a.tobytes() for a in build_sieve(3000).arrays().values())
    path.write_bytes(b"FZTB" + struct.pack("<IQI", 3, 3000, zlib.crc32(payload)) + payload)


def save_npz(path, arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def missing_field(path):
    arrays = build_sieve(3000).arrays()
    del arrays["mubar_arr"]
    save_npz(path, arrays)


def five_member_file(path):
    # The earlier layout that stored upsilon with the table, here a wrong
    # one: a table sieves upsilon itself, so the file is rebuilt.
    t = build_sieve(3000)
    save_npz(path, dict(t.arrays(), upsilon_arr=2.0 * t.upsilon_arr))


def dense_lambda(path):
    # The earlier .npz layout: Lambda as a dense array, no prime_powers.
    arrays = build_sieve(3000).arrays()
    lam = np.zeros(3001)
    lam[arrays.pop("prime_powers")] = arrays["lam"]
    save_npz(path, dict(arrays, lam=lam))


def unsorted_prime_powers(path):
    arrays = build_sieve(3000).arrays()
    pp = arrays["prime_powers"].copy()
    pp[[3, 4]] = pp[[4, 3]]
    save_npz(path, dict(arrays, prime_powers=pp))


class TestTableCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACZETA_CACHE_DIR", str(tmp_path))
        cli._TABLES.clear()
        a = get_table(5000)
        assert (tmp_path / "table_5000.npz").exists()
        cli._TABLES.clear()

        def no_build(n_max):
            raise AssertionError("cached table was rebuilt")

        monkeypatch.setattr(cli, "build_sieve", no_build)
        b = get_table(5000)
        for name, arr in b.arrays().items():
            assert np.array_equal(arr, getattr(a, name))
            assert not arr.flags.writeable
        cli._TABLES.clear()

    @pytest.mark.parametrize("corrupt", [flip_byte, truncate, other_n_max, parent_format, missing_field,
                                         five_member_file, dense_lambda, unsorted_prime_powers])
    def test_corrupt_cache_rebuilt(self, tmp_path, monkeypatch, corrupt):
        monkeypatch.setenv("FRACZETA_CACHE_DIR", str(tmp_path))
        cli._TABLES.clear()
        get_table(3000)
        corrupt(tmp_path / "table_3000.npz")
        cli._TABLES.clear()
        t = get_table(3000)
        ref = build_sieve(3000)
        for name, arr in t.arrays().items():
            assert np.array_equal(arr, getattr(ref, name)), name
            assert not arr.flags.writeable
        assert abs(t.upsilon_arr[6] - (1 - math.sqrt(2)) * (1 - math.sqrt(3))) < 1e-12
        with np.load(tmp_path / "table_3000.npz") as archive:
            assert sorted(archive.files) == sorted(ref.arrays())
        cli._TABLES.clear()

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACZETA_CACHE_DIR", str(tmp_path))
        cli._TABLES.clear()

        def disk_full(*args, **kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli.np.lib.format, "write_array_header_1_0", disk_full)
        t = get_table(3000)
        ref = build_sieve(3000)
        for name, arr in t.arrays().items():
            assert np.array_equal(arr, getattr(ref, name)), name
        assert list(tmp_path.iterdir()) == []
        cli._TABLES.clear()


class TestMainEntry:
    def test_usage_error_exit(self, capsys):
        assert cli.main(["verify", "bogus"]) == EXIT_USAGE

    def test_verify_th2_mu(self, table_1e6, capsys):
        code = cli.main(["verify", "th2-mu", "--x", "2", "--nterms", "1000000"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict=pass" in out

    def test_verify_json_io_error(self, table_1e6):
        code = cli.main([
            "verify", "th2-mu", "--x", "2", "--nterms", "1000000",
            "--json", "/nonexistent-dir/report.json",
        ])
        assert code == EXIT_IO

    def test_em_check(self, capsys):
        assert cli.main(["em-check"]) == EXIT_OK

    def test_tolerance_flag_is_gone(self, capsys):
        assert cli.main(["verify", "th1", "--tolerance", "1e-3"]) == EXIT_USAGE

    def test_flag_not_taken_is_usage_error(self, capsys):
        assert cli.main(["verify", "th2-mu", "--zeros", "7", "--k", "3"]) == EXIT_USAGE
        assert "th2-mu takes no k, zeros" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "rh-slope", "--nterms", "2000"],
        ["rh-explore", "--nterms", "2000"],
        ["verify", "th1", "--x", "inf", "--nterms", "1000", "--zeros", "10"],
        ["verify", "th2-mu", "--x", "inf", "--nterms", "1000"],
        ["verify", "th2-log", "--x", "inf", "--nterms", "1000"],
        ["verify", "th4", "--x", "inf", "--nterms", "1000"],
        ["rh-explore", "--xmax", "inf", "--nterms", "10000"],
    ])
    def test_computation_error_is_verification_error(self, argv, capsys):
        # Too few terms leave no profile point above its noise floor; an
        # infinite x has no floor, and would make both sides of th2 and th4
        # exactly 0.
        assert cli.main(argv) == EXIT_VERIFY
        assert "verification error" in capsys.readouterr().err

    def test_infinite_grid_end_under_runtime_warning_filter(self, capsys):
        # The grid end is checked before np.geomspace, which warns on it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["rh-explore", "--xmax", "inf", "--nterms", "10000"]) == EXIT_VERIFY
        assert "verification error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,ident,params", [
        (["rh-explore", "--xmin", "12", "--xmax", "90", "--points", "15", "--nterms", "5000"],
         "rh-slope", {"x_min": 12.0, "x_max": 90.0, "points": 15, "N": 5000}),
        (["rh-explore"], "rh-slope", {}),
        (["em-check"], "em-check", {}),
        (["verify", "th1", "--k", "2", "--x", "5.5", "--nterms", "1000", "--zeros", "10"],
         "th1", {"x": 5.5, "k": 2, "N": 1000, "zeros": 10}),
    ])
    def test_routes_through_run_identity(self, monkeypatch, capsys, argv, ident, params):
        calls = []
        report = TestEmitReport()._sample_report()

        def fake(identity_id, p):
            calls.append((identity_id, p))
            return report

        monkeypatch.setattr(cli, "run_identity", fake)
        assert cli.main(argv) == EXIT_OK
        assert calls == [(ident, params)]

    def test_zeros_refine(self, capsys):
        assert cli.main(["zeros", "refine", "--count", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "14.134725" in out

    @pytest.mark.parametrize("count", ["0", "-95", "101"])
    def test_zeros_refine_count_out_of_range_is_usage_error(self, count, capsys):
        assert cli.main(["zeros", "refine", "--count", count]) == EXIT_USAGE
        assert "zero count must be in 1..100" in capsys.readouterr().err

    @pytest.mark.parametrize("zeros", ["0", "-90"])
    def test_verify_th1_zero_count_below_one_is_usage_error(self, zeros, capsys):
        argv = ["verify", "th1", "--zeros", zeros, "--nterms", "1000"]
        assert cli.main(argv) == EXIT_USAGE
        assert "zero count must be in 1..100" in capsys.readouterr().err


class TestSelftest:
    NAMES = [
        "sieve-identities", "sieve-determinism", "dirichlet-series-cross-check",
        "bernoulli-periodicity", "sdot-fourier-oracle", "ik-quadrature-oracle",
        "zeta-classical-values", "hk-oracle-equivalence", "pole-normalization",
        "zero-table-validation", "conjugate-pair-realness", "residue-radius-independence",
        "euler-maclaurin-check",
    ]

    def test_passes(self, capsys):
        assert cli.selftest() == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[:2] for ln in lines[:-1]] == [["ok", name] for name in self.NAMES]

    def test_invariant_names_pinned(self):
        assert [name for name, _ in cli.INVARIANTS] == self.NAMES

    def test_corrupted_zeros_file_detected(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "zeros_seed.csv"
        bad.write_text("index,gamma\n1,14.134725\n2,13.0\n")
        monkeypatch.setattr(cli.zeta, "bundled_zeros_path", lambda: bad)
        monkeypatch.setattr(cli, "_REFINED_ZEROS", {})
        code = cli.selftest()
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "zero-table-validation" in out

    def test_reflection_check_evaluates_no_refined_zero(self, monkeypatch):
        # On the critical line 1 - conj(rho) is rho itself, so evaluating
        # there would re-test |zeta(rho)| and no reflection.
        zeros = {complex(0.5, e.gamma) for e in cli.get_refined_zeros().entries}
        points = []
        zeta_em = cli.zeta.zeta_em

        def recording(s):
            points.extend(np.atleast_1d(s).tolist())
            return zeta_em(s)

        monkeypatch.setattr(cli.zeta, "zeta_em", recording)
        cli.zero_table_validation()
        assert points
        assert not zeros.intersection(points)

    def test_em_invariant_reads_em_cases(self, monkeypatch):
        cli.euler_maclaurin_check()
        monkeypatch.setattr(cli, "EM_CASES", (("square", 1.0, 5.0, 2, 0.0),))
        with pytest.raises(AssertionError, match="square"):
            cli.euler_maclaurin_check()

    def test_fault_caught_under_optimize(self):
        # python -O strips assert statements; the invariants must still fail.
        script = (
            "import sys\n"
            "from fraczeta import cli\n"
            "cli.EM_CASES = (('square', 1.0, 5.0, 2, 0.0),)\n"
            "sys.exit(cli.selftest())\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == EXIT_VERIFY, proc.stdout + proc.stderr
        assert "FAIL euler-maclaurin-check" in proc.stdout

    def test_ik_pieces_against_adaptive_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        for k in range(1, 5):
            for x in (0.3, 2.7, 9.25):
                pieces = cli.ik_period_integrals(k, x)
                assert len(pieces) == math.ceil(x)
                for j, got in enumerate(pieces):
                    ref, _ = quad(lambda t: bernoulli_poly(k, t - math.floor(t)), j, min(j + 1.0, x),
                                  epsabs=1e-13, epsrel=1e-13)
                    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (k, x, j)

    def test_missing_zeros_file_detected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.zeta, "bundled_zeros_path", lambda: tmp_path / "gone.csv")
        monkeypatch.setattr(cli, "_REFINED_ZEROS", {})
        code = cli.selftest()
        out = capsys.readouterr().out
        assert code == EXIT_VERIFY
        assert "zero-table-validation" in out


@pytest.mark.parametrize("check", [check for _, check in cli.INVARIANTS],
                         ids=[name for name, _ in cli.INVARIANTS])
def test_invariant(check):
    check()


def test_arith_imports_alone():
    # The package re-exports nothing, so the sieve loads no other module of it.
    script = (
        "import sys\n"
        "import fraczeta.arith\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'fraczeta')\n"
        "assert loaded == ['fraczeta', 'fraczeta.arith'], loaded\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_numpy_only_start_up():
    # With scipy unimportable, every command runs on numpy alone, the ones
    # that reach the reflected zeta (Re s < -1/2: selftest, th1 at k >= 2) too.
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fraczeta import cli\n"
        "runs = [['selftest']] + [['verify', 'th1', '--k', str(k)] for k in (1, 2, 3, 4)]\n"
        "runs += [['verify', 'th2-mu', '--nterms', '100000'], ['em-check'], ['zeros', 'refine'],\n"
        "         ['rh-explore', '--xmin', '5', '--xmax', '20', '--points', '6', '--nterms', '1000000']]\n"
        "codes = [cli.main(args) for args in runs]\n"
        "assert codes == [0] * len(runs), codes\n"
        "loaded = sorted(m for m, mod in sys.modules.items() if m.startswith('scipy') and mod is not None)\n"
        "assert not loaded, loaded[:5]\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_executor_loads_only_with_a_helper(tmp_path):
    # The sieve of a 10^6 table and one-x sums start no helper thread, so
    # they import neither concurrent.futures nor the logging it pulls in; a
    # 6-point profile on two usable CPUs starts one and loads both.
    script = (
        "import sys\n"
        "from fraczeta import cli, explicit\n"
        "runs = [['verify', 'th2-mu', '--nterms', '1000000'],\n"
        "        ['verify', 'th1', '--k', '2', '--x', '5.5', '--nterms', '100000'], ['selftest']]\n"
        "codes = [cli.main(args) for args in runs]\n"
        "assert codes == [0] * len(runs), codes\n"
        "names = ('concurrent.futures', 'logging')\n"
        "assert not any(m in sys.modules for m in names), [m for m in names if m in sys.modules]\n"
        "if len(explicit._usable_cpus()) > 1:\n"
        "    args = ['rh-explore', '--xmin', '5', '--xmax', '20', '--points', '6', '--nterms', '1000000']\n"
        "    assert cli.main(args) == 0\n"
        "    assert all(m in sys.modules for m in names), [m for m in names if m not in sys.modules]\n"
        "    print('helper')\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, FRACZETA_CACHE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if "helper" not in proc.stdout:
        pytest.skip("the helper half needs two usable CPUs")
