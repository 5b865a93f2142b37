"""The report corpus: each case of scripts/write_report_corpus.py, run
again, against its committed file under tests/data/reports/.

These must match exactly: the fields and their order, identity_id,
params, lhs.terms_used, verdict, and the adjudication with its measured
numbers (the %.3e and %.4f it quotes) masked, so the variant it names as
the winner.  Every other float may move by a few ulps across CPUs and
numpy builds (SIMD cos, exp and log), so it must lie within the report's
allowance, read from the corpus:

    lhs.round_bound + rhs_canonical.round_bound + 1e-12 * scale,
    scale = max(|lhs.value|, |rhs_canonical.value|, budget).

em-check's residuals (lhs.value and abs_diff) are rounding noise by
design, so only their verdict is checked.  To rewrite the corpus, run the
script; a rewrite is a data change to a check.
"""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "write_report_corpus.py"
_spec = importlib.util.spec_from_file_location("write_report_corpus", _SCRIPT)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

EXACT = ("identity_id", "params", "lhs.terms_used", "verdict")
MEASURED = re.compile(r"-?\d\.\d{3}e[-+]\d+|-?\d+\.\d{4}\b")
EM_RESIDUALS = ("lhs.value", "abs_diff")


def leaves(doc, prefix=""):
    for key, val in doc.items():
        if isinstance(val, dict) and key != "params":
            yield from leaves(val, prefix + key + ".")
        else:
            yield prefix + key, val


def mismatches(case: str, got: list[dict], corpus_dir: Path = corpus.CORPUS_DIR) -> list[str]:
    """Every way the reports got differ from the case's corpus file."""
    path = corpus_dir / f"{case}.json"
    if not path.exists():
        return [f"{case}: missing from the corpus"]
    want = json.loads(path.read_text(encoding="utf-8"))
    if len(got) != len(want):
        return [f"{case}: {len(got)} reports, the corpus holds {len(want)}"]
    out = []
    for i, (w, g) in enumerate(zip(want, got)):
        w, g = dict(leaves(w)), dict(leaves(g))
        if list(g) != list(w):
            out.append(f"{case}[{i}]: fields {list(g)}, the corpus holds {list(w)}")
            continue
        scale = max(abs(w["lhs.value"]), abs(w["rhs_canonical.value"]), w["budget"])
        allowance = w["lhs.round_bound"] + w["rhs_canonical.round_bound"] + 1e-12 * scale
        for field, wv in w.items():
            gv = g[field]
            if field == "adjudication":
                ok = MEASURED.sub("#", gv) == MEASURED.sub("#", wv)
            elif w["identity_id"] == "em-check" and field in EM_RESIDUALS:
                ok = True
            elif isinstance(wv, float) and field not in EXACT:
                ok = isinstance(gv, float) and abs(gv - wv) <= allowance
            else:
                ok = gv == wv
            if not ok:
                out.append(f"{case}[{i}] {field}: {gv!r}, the corpus holds {wv!r} (allowance {allowance:.3g})")
    return out


@pytest.mark.parametrize("case, identity_id, params", corpus.CASES, ids=[c[0] for c in corpus.CASES])
def test_case_matches_corpus(case, identity_id, params, table_1e6):
    assert mismatches(case, corpus.case_reports(identity_id, params)) == []


def test_corpus_holds_exactly_the_cases():
    assert sorted(p.stem for p in corpus.CORPUS_DIR.glob("*.json")) == sorted(c for c, _, _ in corpus.CASES)


def _move_lhs(docs):
    docs[0]["lhs"]["value"] += 1e-10


def _flip_verdict(docs):
    docs[0]["verdict"] = "fail"


def _flip_sign_winner(docs):
    docs[0]["adjudication"] = docs[0]["adjudication"].replace("sigma=-1 wins", "sigma=+1 wins")


# Mutated copies of one committed case; None leaves the case out.
MUTANTS = {
    "lhs-moved-1e-10": _move_lhs,
    "verdict-flipped": _flip_verdict,
    "sign-winner-flipped": _flip_sign_winner,
    "case-missing": None,
}
MUTATED_CASE = "th1-k2"


@pytest.mark.parametrize("mutant", MUTANTS)
def test_comparison_catches(mutant, tmp_path):
    committed = json.loads((corpus.CORPUS_DIR / f"{MUTATED_CASE}.json").read_text(encoding="utf-8"))
    if MUTANTS[mutant] is not None:
        mutated = copy.deepcopy(committed)
        MUTANTS[mutant](mutated)
        assert mutated != committed
        (tmp_path / f"{MUTATED_CASE}.json").write_text(json.dumps(mutated), encoding="utf-8")
    assert mismatches(MUTATED_CASE, committed, tmp_path)

