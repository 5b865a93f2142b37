#!/usr/bin/env python3
"""Rewrite the report corpus: tests/data/reports/<case>.json for each case of CASES.

Each file holds the case's reports as emit_report writes them in JSON,
without elapsed_s.  tests/test_report_corpus.py runs every case again and
compares it with its file.  Rewriting the corpus is a data change to a
check: say in CHANGES.md which fields moved, by how much and why.

Run from the repository root:

    PYTHONPATH=src python scripts/write_report_corpus.py
"""

import json
import tempfile
from pathlib import Path

from fraczeta.cli import emit_report, run_identity

CORPUS_DIR = Path(__file__).resolve().parents[1] / "tests" / "data" / "reports"

# (case, identity id, params); the case names its file.  th2-mu, th2-log
# and th4 run at their default x.
CASES = (
    ("th2-mu", "th2-mu", {"N": 10**6}),
    ("th2-log", "th2-log", {"N": 10**6}),
    ("th4", "th4", {"N": 10**6}),
    ("th1-k1", "th1", {"k": 1, "x": 10.5, "N": 10**6}),
    ("th1-k2", "th1", {"k": 2, "x": 5.5, "N": 10**6}),
    ("th1-k3", "th1", {"k": 3, "x": 5.5, "N": 10**6}),
    ("th1-k4", "th1", {"k": 4, "x": 7.5, "N": 10**6}),
    ("em-check", "em-check", {}),
    ("rh-slope", "rh-slope", {"x_min": 5.0, "x_max": 20.0, "points": 6, "N": 10**6}),
)


def case_reports(identity_id: str, params: dict) -> list[dict]:
    """The reports of one run as emit_report writes them in JSON, read
    back, without elapsed_s."""
    result = run_identity(identity_id, params)
    with tempfile.TemporaryDirectory() as tmp:
        path = emit_report(result if isinstance(result, list) else [result], "json", Path(tmp) / "r.json")
        docs = json.loads(path.read_text(encoding="utf-8"))
    for doc in docs:
        del doc["elapsed_s"]
    return docs


def main() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for case, identity_id, params in CASES:
        path = CORPUS_DIR / f"{case}.json"
        path.write_text(json.dumps(case_reports(identity_id, params), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
