"""Byte-identical golden file of ``rankagg verify``.

``tests/data/verify_reports.json`` holds the exit code, the JSON report and
the stderr of ``verify`` for every builtin rule, with the default and the
reversed tiebreak, on four profiles: the 7-alternative golden PP profile, a
4-alternative DP profile, a 5-alternative IP profile (where ``fstarstar``
exits 3) and a 6-alternative PP profile whose last individual evaluates
(a4, a6) and (a5, a6) alone and shares (a4, a5), so that ``fstar``'s first iia
counterexample falls on a shared pair with one tiebreak and on a pair only
the last individual evaluates with the other. The test recomputes the file and compares it byte for byte, so a
change to the verify kernel cannot alter a report unnoticed.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_verify_fixture.py
"""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from rankagg.cli import dumps, main

FIXTURE = Path(__file__).parent / "data" / "verify_reports.json"
RULES = ("fstar", "fstarstar", "constant", "majority", "dictatorship")


def _document(n, sets):
    alternatives = [f"a{i + 1}" for i in range(n)]
    return {
        "schema_version": 1,
        "alternatives": alternatives,
        "individuals": [
            {"id": f"v{v + 1}", "evaluates": [alternatives[a] for a in s]}
            for v, s in enumerate(sets)
        ],
    }


def _profiles():
    golden = resources.files("rankagg").joinpath("golden", "example_profile.json")
    return (
        ("golden-pp-7", json.loads(golden.read_text(encoding="utf-8"))),
        ("dp-4", _document(4, [[0, 1, 2, 3], [0, 2], [1, 3]])),
        ("ip-5", _document(5, [[0, 1, 2], [2, 3, 4], [0, 4]])),
        ("pp-6", _document(6, [[0, 1, 2], [2, 3], [3, 4], [3, 4, 5]])),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def render_fixture() -> str:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, document in _profiles():
            path = Path(tmp) / f"{name}.json"
            path.write_text(dumps(document), encoding="utf-8")
            reversed_tiebreak = ",".join(reversed(document["alternatives"]))
            for tiebreak in (None, reversed_tiebreak):
                for rule in RULES:
                    flags = [] if tiebreak is None else ["--tiebreak", tiebreak]
                    code, out, err = _run(["verify", "--rule", rule, *flags, str(path)])
                    report = json.loads(out) if out else None
                    # the stored report re-serialises to the exact stdout
                    assert (dumps(report) if out else "") == out
                    cases.append(
                        {
                            "profile": name,
                            "rule": rule,
                            "tiebreak": "default" if tiebreak is None else "reversed",
                            "exit": code,
                            "report": report,
                            "stderr": err,
                        }
                    )
    return dumps({"profiles": dict(_profiles()), "cases": cases})


def test_verify_reports_match_fixture_byte_for_byte():
    assert render_fixture() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(render_fixture(), encoding="utf-8")
