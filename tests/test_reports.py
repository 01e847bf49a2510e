"""Golden report digests: every report below must stay byte-identical,
minus elapsed_ms, to the one recorded in golden_reports.json.

The file holds, per instance (its CLI arguments), the sha256 of each
top-level key of the JSON report, serialized with sorted keys and with
elapsed_ms dropped, so a failure names the instance and the key.
generation_tests is kept: a change that moves a closure count edits the
file on purpose.  Regenerate it, only for such a change, with

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from singerlab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

_GL2 = [("2", "1"), ("3", "1"), ("2", "2"), ("5", "1"), ("7", "1"), ("2", "3"), ("3", "2")]
_GL2_ARGS = [("--n", "2", "--p", p, "--k", k) for p, k in _GL2]
_SMALL_GL3 = [("--n", "3", "--p", "2"), ("--n", "3", "--p", "3")]
_LARGER = [("--n", "4", "--p", "2"), ("--n", "5", "--p", "2"), ("--n", "3", "--p", "5")]

INSTANCES = (
    [("verify", "main1") + g for g in _GL2_ARGS + _SMALL_GL3]
    + [("verify", "main1", "--seed", "3") + g
       for g in [("--n", "2", "--p", "3"), ("--n", "2", "--p", "5"), ("--n", "3", "--p", "2")]]
    + [("verify", driver) + g for driver in ("main2", "gill")
       for g in _GL2_ARGS + _SMALL_GL3 + _LARGER]
    + [("verify", "main2", "--full") + g for g in _GL2_ARGS + _SMALL_GL3]
    + [("verify", "singer-equiv", "--n", "2", "--p", "2", "--k", "2"),
       ("verify", "singer-equiv", "--n", "3", "--p", "2"),
       ("verify", "length-oracle", "--n", "2", "--p", "3")]
    + [("example", name) for name in ("gl2f3", "gl2f5", "s4")]
    + [("factorize", "--matrix", "3,0;0,4", "--p", "5", "--all"),
       ("factorize", "--matrix", "0,1;1,3", "--p", "5", "--det-subgroup", "4")]
)


def report_digests(args) -> dict[str, str]:
    """The sha256 of each top-level key of the JSON report of args,
    elapsed_ms dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(args) + ["--output", "json"])
    report = json.loads(out.getvalue())
    report.pop("elapsed_ms", None)
    return {key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            for key, value in sorted(report.items())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_instances(golden):
    assert sorted(golden) == sorted(" ".join(args) for args in INSTANCES)


@pytest.mark.parametrize("args", INSTANCES, ids=" ".join)
def test_report_matches_golden_digests(args, golden):
    expected = golden[" ".join(args)]
    got = report_digests(args)
    assert sorted(got) == sorted(expected), f"{' '.join(args)}: report keys changed"
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{' '.join(args)}: report keys {changed} differ from the golden file"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(args): report_digests(args) for args in INSTANCES},
                                 indent=1, sort_keys=True) + "\n")
