"""Golden bytes: exit code, stdout and stderr of the census, check, arith, lob,
volume and bounds command lines.

tests/golden/generate.py wrote the files, the check inputs among them;
each case is replayed here through `cli.main` in-process with COLUMNS=80,
from the golden directory, where its input paths point.
"""

import json
import pathlib

import pytest

from raca.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def _golden(name, stream):
    return (GOLDEN / f"{name}.{stream}").read_bytes().decode()


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out == _golden(case["name"], "stdout")
    assert err == _golden(case["name"], "stderr")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


# an input error (exit 3) or a resource limit (exit 4) prints only to stderr,
# so it has no JSON to parse
@pytest.mark.parametrize("case", [case for case in CASES
                                  if "--json" in case["argv"] and case["exit"] in (0, 2)],
                         ids=lambda case: case["name"])
def test_golden_json_is_strict(case):
    json.loads(_golden(case["name"], "stdout"), parse_constant=_reject_constant)
