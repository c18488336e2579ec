"""Command line interface: output formats and exit codes."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from raca import catalog, cli, polyhedra
from raca.cli import main, parse_angle
from raca.errors import DomainError

TRI463 = {"size": 3, "m": [[1, 4, 3], [4, 1, 6], [3, 6, 1]]}
D444 = {"size": 4, "m": [[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 4], [2, 2, 4, 1]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in [
        ("p32", catalog.p32().to_dict()),
        ("lobell33", catalog.lobell(33).to_dict()),  # 132 vertices, over the cap
        ("cube", catalog.cube().to_dict()),
        ("tri463", TRI463),
        ("d444", D444),
        ("badpoly", {"vertex_count": 5, "faces": [[0, 1, 2], [0, 1, 3], [0, 1, 4]]}),
        ("textcount", {"vertex_count": "abc", "faces": [[0, 1, 2]]}),
        ("floatcount", {**catalog.p32().to_dict(), "vertex_count": 5.9}),
        ("floatsize", {"size": 2.5, "m": [[1, 3], [3, 1]]}),
        ("textsize", {"size": "2", "m": [[1, 3], [3, 1]]}),
        ("infcount", {"vertex_count": math.inf, "faces": [[0, 1, 2]]}),
        ("scalar_m", {"size": 2, "m": 7}),
        ("infsize", {"size": math.inf, "m": [[1]]}),
        ("k40", {"size": 40, "m": [[1 if i == j else 3 for j in range(40)]
                                   for i in range(40)]}),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))  # infinity is written as Infinity
        paths[name] = str(p)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")  # not UTF-8
    paths["binary"] = str(binary)
    return paths


def run(capsys, *args):
    rc = main(list(args))
    return rc, capsys.readouterr().out


def test_parse_angle():
    import math
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("-pi/6") == pytest.approx(-math.pi / 6)
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("0.25") == 0.25
    for text in ("pi/0", "-pi/0", "pi/00"):  # named as typed
        with pytest.raises(DomainError, match=f"^angle {text} is not a number$"):
            parse_angle(text)
    with pytest.raises(DomainError):
        parse_angle("two")
    for digits in (400, 5000):  # too large for a float, too long for int()
        with pytest.raises(DomainError):
            parse_angle("pi/" + "9" * digits)


def test_lob_defaults_to_twelve_places(capsys):
    rc, out = run(capsys, "lob", "pi/4")
    assert rc == 0 and out == "0.457982797089\n"


def test_lob_json(capsys):
    rc, out = run(capsys, "lob", "pi/4", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["value"] == pytest.approx(0.45798279708860950753, abs=1e-13)
    assert 0 < data["error_bound"] < 1e-12
    # canonical serialization: load/dump round-trip is the identity
    assert json.dumps(data, sort_keys=True) == out.strip()


def test_lob_large_argument(capsys):
    # mpmath: clsin(2, 2e16)/2 with 2e16 reduced mod 2*pi at 1400 bits
    rc, out = run(capsys, "lob", "1e16", "--json")
    assert rc == 0
    data = json.loads(out)
    assert abs(data["value"] - -0.41477835200533613022) <= data["error_bound"] < 1e-12


def test_lob_precision_flag(capsys):
    rc, out = run(capsys, "lob", "pi/6", "--precision", "6")
    assert rc == 0 and out == "0.507471\n"
    assert main(["lob", "pi/4", "--precision", "13"]) == 3
    capsys.readouterr()
    assert main(["lob", "pi/4", "--precision", "-1"]) == 3
    assert main(["lob", "pi/4", "--precision", "99"]) == 3
    assert main(["lob", "pi/4", "--json", "--precision", "99"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--json"], ["--precision", "3"]],
                         ids=["plain", "json", "precision"])
@pytest.mark.parametrize("angle", ["-pi/4", "-pi", "-1e3", "-0.5"])
def test_lob_negated_angle_needs_no_separator(capsys, angle, flags):
    assert run(capsys, "lob", angle, *flags) == run(capsys, "lob", *flags, "--", angle)
    assert run(capsys, "lob", *flags, angle)[0] == 0


def test_lob_bad_angle(capsys):
    assert main(["lob", "pi/0"]) == 3
    assert main(["lob", "about-tau"]) == 3
    capsys.readouterr()


def test_volume_named(capsys):
    rc, out = run(capsys, "volume", "named", "P32")
    assert rc == 0 and out == "0.915966  (2*L(pi/4))\n"
    rc, out = run(capsys, "volume", "named", "P32", "--json")
    data = json.loads(out)
    assert data["formula"] == "2*L(pi/4)"
    assert data["value"] == pytest.approx(0.91596559417721901505, abs=1e-12)
    assert main(["volume", "named", "P33"]) == 3
    assert main(["volume", "named", "P32", "--json", "--precision", "-3"]) == 3
    capsys.readouterr()


def test_volume_families_and_orthoscheme(capsys):
    rc, out = run(capsys, "volume", "lobell", "6", "--precision", "12")
    assert rc == 0 and out.startswith("6.023046020047")
    rc, out2 = run(capsys, "volume", "antiprism", "4", "--precision", "12")
    assert out2.split()[0] == out.split()[0]
    rc, out = run(capsys, "volume", "orthoscheme", "pi/4", "pi/3", "pi/4",
                  "--precision", "9")
    assert rc == 0 and out.startswith("0.000000000")
    assert main(["volume", "lobell", "4"]) == 3
    assert main(["volume", "orthoscheme", "pi/2", "pi/3", "pi/2"]) == 3
    capsys.readouterr()
    # a negated angle reaches the domain check instead of argparse
    assert main(["volume", "orthoscheme", "pi/3", "pi/4", "-pi/4"]) == 3
    assert "orthoscheme: gamma must lie in (0, pi/2]" in capsys.readouterr().err


def test_plain_and_json_agree(capsys):
    rc, plain = run(capsys, "volume", "named", "P28", "--precision", "9")
    rc, blob = run(capsys, "volume", "named", "P28", "--json")
    assert f"{json.loads(blob)['value']:.9f}" == plain.split()[0]


def test_bounds(capsys):
    rc, out = run(capsys, "bounds", "compact", "20")
    assert rc == 0 and out == "lower=1.373948 upper=6.343385\n"
    rc, out = run(capsys, "bounds", "ideal", "6")
    assert rc == 0 and "(lower bound attained)" in out
    rc, out = run(capsys, "bounds", "mixed", "1", "18", "--json")
    data = json.loads(out)
    assert data["lower"] == pytest.approx(1.6029397898101332763, abs=1e-12)
    assert data["lower_attained"] is False
    assert main(["bounds", "compact", "7"]) == 3
    assert main(["bounds", "ideal", "5"]) == 3
    assert main(["bounds", "mixed", "0", "8"]) == 3
    assert main(["bounds", "ideal", "6", "--json", "--precision", "50"]) == 3
    capsys.readouterr()


def test_check_stats(capsys, files):
    rc, out = run(capsys, "check", "stats", files["p32"])
    assert rc == 0
    assert out == "V=5 E=9 F=6 ideal=3 finite=2 p3=6 W=18 WI=12\n"
    rc, out = run(capsys, "check", "stats", files["p32"], "--json")
    data = json.loads(out)
    assert data["face_vector"] == {"3": 6}
    assert data["w"] == 18 and data["wi"] == 12


def test_check_stats_builds_one_sphere_map(capsys, monkeypatch, files):
    built, sphere_map = [], polyhedra._SphereMap

    def counting(*fields):
        built.append(fields[0])
        return sphere_map(*fields)

    monkeypatch.setattr(polyhedra, "_SphereMap", counting)
    assert main(["check", "stats", files["p32"]]) == 0
    assert len(built) == 1
    capsys.readouterr()


def test_check_andreev(capsys, files):
    rc, out = run(capsys, "check", "andreev", files["p32"])
    assert rc == 0 and out == "pass\n"

    rc, out = run(capsys, "check", "andreev", files["cube"])
    assert rc == 2 and out.startswith("fail: condition 4 witness")

    rc, out = run(capsys, "check", "andreev", files["p32"],
                  "--condition3-reading", "distinct_edges")
    assert rc == 2 and "condition 3" in out


def test_check_error_paths(capsys, files, tmp_path):
    assert main(["check", "stats", files["badpoly"]]) == 3
    assert main(["check", "andreev", files["badpoly"]]) == 3
    assert main(["check", "stats", str(tmp_path / "absent.json")]) == 3
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    assert main(["check", "stats", str(bad)]) == 3
    assert main(["check", "stats", files["textcount"]]) == 3
    capsys.readouterr()
    assert main(["check", "stats", files["floatcount"]]) == 3
    assert main(["check", "andreev", files["floatcount"]]) == 3
    assert capsys.readouterr().err == \
        "error: polyhedron input: vertex_count must be an integer, got 5.9\n" * 2
    assert main(["check", "stats", files["infcount"]]) == 3
    assert main(["check", "stats", files["binary"]]) == 3
    assert main(["check", "andreev", files["binary"]]) == 3
    assert main(["check", "stats", files["p32"], "--precision", "99"]) == 3
    capsys.readouterr()
    assert main(["check", "stats", files["lobell33"]]) == 4
    assert main(["check", "andreev", files["lobell33"]]) == 4
    assert "limited to 128 vertices" in capsys.readouterr().err


def test_census_enumerate(capsys):
    rc, out = run(capsys, "census", "enumerate", "--videal", "3", "--vfinite", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "pair (3,2): 1 realizable type(s)"
    assert lines[1].strip().startswith("c5|")
    assert "volume = 0.915966" in lines[2]

    rc, out = run(capsys, "census", "enumerate", "--videal", "2", "--vfinite", "4",
                  "--json")
    data = json.loads(out)
    assert data["count"] == 0 and data["volume"] is None

    assert main(["census", "enumerate", "--videal", "2", "--vfinite", "2"]) == 3
    capsys.readouterr()


def test_verify_theorem(capsys):
    rc, out = run(capsys, "census", "verify-theorem")
    assert rc == 0
    assert "verified" in out
    assert "0.915966" in out

    rc, blob = run(capsys, "verify-theorem", "--json")
    assert rc == 0
    data = json.loads(blob)
    assert data["verified"] is True
    assert data["minimal_volume"] == pytest.approx(0.91596559417721901505, abs=1e-9)
    assert data["uniqueness"] is True

    rc, out = run(capsys, "verify-theorem",
                  "--condition3-reading", "distinct_edges")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["verify-theorem"], ["census", "verify-theorem", "--json"],
    ["census", "enumerate", "--videal", "3", "--vfinite", "2"],
], ids=["verify-theorem", "census-verify-theorem-json", "census-enumerate"])
def test_bad_raca_threads_is_an_input_error(capsys, monkeypatch, argv):
    # the theorem checks its inputs before any work, as the census does
    monkeypatch.setenv("RACA_THREADS", "many")
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: RACA_THREADS must be an integer, got 'many'\n")


def test_arith(capsys, files):
    rc, out = run(capsys, "arith", "check", files["tri463"])
    assert rc == 2
    lines = out.splitlines()
    assert lines[0] == "not arithmetic: cycle [0, 1, 2] has product -sqrt(6)"
    assert lines[1].startswith("note: the criterion assumes a non-cocompact")

    rc, out = run(capsys, "arith", "check", files["tri463"], "--max-len", "2")
    assert rc == 0 and out.startswith("arithmetic (3 cyclic products checked)")

    rc, out = run(capsys, "arith", "check", files["d444"], "--json")
    data = json.loads(out)
    assert data["arithmetic"] is True and data["witness_cycle"] is None

    # the default check is polynomial; a long bounded enumeration stops with 4
    rc, out = run(capsys, "arith", "check", files["k40"], "--json")
    assert rc == 0 and json.loads(out)["cycles_checked"] == 40 * 39 - 40 + 1
    start = time.perf_counter()
    assert main(["arith", "check", files["k40"], "--max-len", "8"]) == 4
    assert time.perf_counter() - start < 10.0
    assert "error:" in capsys.readouterr().err

    assert main(["arith", "check", files["cube"]]) == 3
    assert main(["arith", "check", files["scalar_m"]]) == 3
    assert main(["arith", "check", files["infsize"]]) == 3
    capsys.readouterr()
    assert main(["arith", "check", files["floatsize"]]) == 3
    assert main(["arith", "check", files["textsize"]]) == 3
    assert capsys.readouterr().err == (
        "error: diagram input: size must be an integer, got 2.5\n"
        "error: diagram input: size must be an integer, got '2'\n")
    assert main(["arith", "check", files["binary"]]) == 3
    capsys.readouterr()


E400 = b'{"size": 2, "m": [[1, 1e400], [1e400, 1]]}'
INFINITY = b'{"size": 2, "m": [[1, Infinity], [Infinity, 1]]}'
DEEP = b"[" * 200_000
LONG_INT = b'{"vertex_count": ' + b"1" * 5000 + b', "faces": []}'


@pytest.mark.parametrize("payload", [E400, INFINITY, DEEP, LONG_INT,
                                     b'{"vertex_count": NaN, "faces": []}'],
                         ids=["1e400", "Infinity", "deep", "long_int", "NaN"])
@pytest.mark.parametrize("command", [["check", "stats"], ["arith", "check"]],
                         ids=["check", "arith"])
def test_unreadable_json_is_an_input_error(capsys, tmp_path, payload, command):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    assert main([*command, str(path)]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload,message", [
    (["check", "stats"], '{"vertex_count": 4, "faces": 5}',
     "polyhedron input: faces must be a list of faces, got int"),
    (["check", "andreev"], '{"vertex_count": 4, "faces": [[0, 1, 2], 7]}',
     "polyhedron input: face 1 must be a list of vertices, got int"),
    (["check", "stats"], "[1, 2]", "polyhedron input must be a JSON object, got list"),
    (["check", "andreev"], '"P32"', "polyhedron input must be a JSON object, got str"),
    (["check", "stats"], '{"faces": []}', "polyhedron input missing field: 'vertex_count'"),
    (["check", "stats"], '{"vertex_count": 4}', "polyhedron input missing field: 'faces'"),
    (["arith", "check"], "[1, 2]", "diagram input must be a JSON object, got list"),
    (["arith", "check"], "null", "diagram input must be a JSON object, got NoneType"),
    (["arith", "check"], '{"size": 2, "m": 7}', "diagram field m must be a list of rows, got int"),
    (["arith", "check"], '{"size": 2, "m": [[1, 3], 5]}',
     "diagram field m must be a list of rows, got row 1 of type int"),
    (["arith", "check"], '{"m": []}', "diagram input missing field: 'size'"),
], ids=["faces-int", "face-int", "list", "str", "no-vertex_count", "no-faces",
        "diagram-list", "diagram-null", "m-int", "row-int", "no-size"])
def test_loader_errors_name_the_field_and_its_type(capsys, tmp_path, command, payload, message):
    path = tmp_path / "input.json"
    path.write_text(payload)
    assert main([*command, str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


_LABELS = st.sampled_from([1, 2, 3, 4, 5, 6, "inf", "INF", "seven", 0, -3, 2.0, True, None])
_DIAGRAMS = st.integers(0, 6).flatmap(lambda n: st.fixed_dictionaries({
    "size": st.sampled_from([n, n + 1, "x"]),
    "m": st.lists(st.lists(_LABELS, min_size=n, max_size=n), min_size=n, max_size=n),
}))
_FACE_LISTS = st.fixed_dictionaries({
    "vertex_count": st.integers(-2, 12),
    "faces": st.lists(st.lists(st.integers(-1, 12), max_size=6), max_size=10),
})
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["size", "m", "vertex_count", "faces", "x"]),
                      inner, max_size=4),
    max_leaves=16)
_PAYLOADS = st.binary(max_size=64) | st.one_of(
    _DIAGRAMS, _FACE_LISTS, _ANY_JSON).map(lambda v: json.dumps(v).encode())


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_PAYLOADS, st.sampled_from([["check", "stats"], ["check", "andreev"],
                                   ["arith", "check"]]))
@example(E400, ["arith", "check"])
@example(INFINITY, ["arith", "check"])
@example(DEEP, ["check", "stats"])
@example(DEEP, ["arith", "check"])
def test_cli_fuzz_exit_codes(tmp_path, payload, command):
    path = tmp_path / "input.json"
    path.write_bytes(payload)
    assert main([*command, str(path)]) in (0, 2, 3, 4)


_TOKENS = st.one_of(
    st.integers(-10, 30).map(str),
    st.integers(-10**400, 10**400).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "pi", "-pi", "pi/0", "pi/4",
                     "-pi/3", "pi/" + "9" * 400, "pi/" + "9" * 5000, "", "0x10", "frob",
                     "P32", "P34", "DeltaPrime344", "Lobell(5)", "Lobell(4)",
                     "Antiprism(1000001)", "Lobell(" + "9" * 5000 + ")"]))
# census pairs: the valid ones, (2,4), (2,6), (3,2) and (3,4), are enumerated
# in well under a second each; (2,8) is left out for its time, not its risk
_CENSUS_COUNTS = st.one_of(st.integers(-3, 6).map(str),
                           st.sampled_from(["99999999999999999999", "nan", "x", "-1"]))
_FILELESS = st.one_of(
    st.tuples(st.just("lob"), _TOKENS),
    st.tuples(st.just("volume"), st.just("orthoscheme"), _TOKENS, _TOKENS, _TOKENS),
    st.tuples(st.just("volume"), st.sampled_from(["lobell", "antiprism", "named"]), _TOKENS),
    st.tuples(st.just("bounds"), st.sampled_from(["compact", "ideal"]), _TOKENS),
    st.tuples(st.just("bounds"), st.just("mixed"), _TOKENS, _TOKENS),
    st.tuples(st.just("census"), st.just("enumerate"), st.just("--videal"), _CENSUS_COUNTS,
              st.just("--vfinite"), _CENSUS_COUNTS, st.just("--condition3-reading"),
              st.sampled_from(["disjoint_endpoints", "distinct_edges", "other"])),
)
_FLAGS = st.lists(st.sampled_from(["--json", "--precision", "3", "-1", "13", "99999"]),
                  max_size=2)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILELESS, _FLAGS)
@example(("bounds", "compact", "1" + "0" * 400), [])
@example(("bounds", "mixed", "2", "1" + "0" * 400), [])
@example(("lob", "pi/" + "9" * 400), [])
@example(("lob", "-pi/" + "9" * 400), [])
@example(("volume", "orthoscheme", "-pi", "-1e3", "-inf"), ["--json"])
@example(("volume", "named", "Lobell(" + "9" * 5000 + ")"), [])
def test_cli_fuzz_fileless_exit_codes(capsys, argv, flags):
    assert main([*argv, *flags]) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


_VOLUME_KEYS = {"value", "formula", "error_bound"}
_BOUNDS_KEYS = {"lower", "upper", "lower_attained"}
_THEOREM_KEYS = {"minimal_volume", "witness", "uniqueness", "verified", "failures",
                 "condition3_reading", "branch_log"}
_COMMON = ["--json", "--precision"]
_READING = ["--condition3-reading", *_COMMON]
_LEAVES = [  # argv (file names are keys of the files fixture), JSON keys, options
    (["lob", "pi/4"], {"theta", "value", "error_bound"}, _COMMON),
    (["volume", "orthoscheme", "pi/5", "pi/3", "pi/4"], _VOLUME_KEYS, _COMMON),
    (["volume", "lobell", "5"], _VOLUME_KEYS, _COMMON),
    (["volume", "antiprism", "3"], _VOLUME_KEYS, _COMMON),
    (["volume", "named", "P32"], _VOLUME_KEYS, _COMMON),
    (["bounds", "compact", "20"], _BOUNDS_KEYS, _COMMON),
    (["bounds", "ideal", "6"], _BOUNDS_KEYS, _COMMON),
    (["bounds", "mixed", "3", "2"], _BOUNDS_KEYS, _COMMON),
    (["check", "stats", "p32"], {"vertex_count", "edges", "faces", "v_ideal", "v_finite",
                                 "face_vector", "w", "wi"}, _COMMON),
    (["check", "andreev", "p32"], {"passed", "condition", "witness", "reading"}, _READING),
    (["census", "enumerate", "--videal", "3", "--vfinite", "2"],
     {"pair", "count", "realizable_types", "volume", "condition3_reading"},
     ["--videal", "--vfinite", *_READING]),
    (["census", "verify-theorem"], _THEOREM_KEYS, _READING),
    (["arith", "check", "d444"], {"arithmetic", "witness_cycle", "witness_product",
                                  "cycles_checked", "max_len", "note"},
     ["--max-len", *_COMMON]),
    (["verify-theorem"], _THEOREM_KEYS, _READING),
]


def _leaf_path(argv):
    return argv[:1 if argv[0] in ("lob", "verify-theorem") else 2]


@pytest.mark.parametrize("argv,keys,options", _LEAVES,
                         ids=[" ".join(_leaf_path(argv)) for argv, _, _ in _LEAVES])
def test_leaf_contract(capsys, files, argv, keys, options):
    argv = [files.get(arg, arg) for arg in argv]
    assert main([*argv, "--precision", "13"]) == 3
    assert "--precision" in capsys.readouterr().err

    rc, out = run(capsys, *argv, "--json")
    assert rc == 0 and set(json.loads(out)) == keys
    assert run(capsys, *argv)[0] == rc

    rc, out = run(capsys, *argv, "--help")
    assert rc == 0
    # the option order of the help text, not its layout
    section = out.split("\noptions:\n")[1]
    assert re.findall(r"^  (?:-h, )?(--[\w-]+)", section, re.M) == ["--help", *options]


def _count_leaves(monkeypatch):
    """The names of the argparse leaf parsers main() builds from here on."""
    declared, leaf = [], cli._leaf

    def counting_leaf(kinds, name, *args, **kwargs):
        declared.append(name)
        leaf(kinds, name, *args, **kwargs)

    monkeypatch.setattr(cli, "_leaf", counting_leaf)
    return declared


_SPELLED = [[], ["--json"], ["--precision", "3"], ["--json", "--precision", "0"]]


@pytest.mark.parametrize("argv", [argv for argv, _, _ in _LEAVES],
                         ids=[" ".join(_leaf_path(argv)) for argv, _, _ in _LEAVES])
def test_well_formed_commands_build_no_parser(capsys, monkeypatch, files, argv):
    declared = _count_leaves(monkeypatch)
    argv = [files.get(arg, arg) for arg in argv]
    path = _leaf_path(argv)
    for flags in _SPELLED:
        assert main([*argv, *flags]) == 0
        # the options before the positionals, as argparse also reads them
        assert main([*path, *flags, *argv[len(path):]]) == 0
    capsys.readouterr()
    assert declared == []


# help and usage errors, which only argparse reads
_PARITY = [[*_leaf_path(argv), "--help"] for argv, _, _ in _LEAVES] + [
    ["volume"], ["bounds"], ["check"], ["census"], ["arith"],
    ["lob"], ["lob", "1", "--bogus"], ["volume", "lobell", "5", "extra"],
    ["census", "enumerate"], [], ["frobnicate"], ["-h"]]


def _shielded(argv):
    """argv as main() hands it to both readers."""
    return [" " + arg if cli._NEGATED.match(arg) else arg for arg in argv]


def _reader_agrees(argv):
    """Whether the direct reader accepts argv; when it does, its Namespace
    must be the one argparse returns."""
    direct = cli._direct(_shielded(argv))
    if direct is not None:
        try:
            parsed = cli.build_parser().parse_args(_shielded(argv))
        except SystemExit:  # not an Exception: hypothesis would not report it
            pytest.fail(f"argparse rejects {argv}, which the direct reader accepts")
        assert vars(direct) == vars(parsed)
    return direct is not None


def _main_without_the_direct_reader_agrees(capsys, monkeypatch, argv):
    both = main(list(argv)), capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_direct", lambda argv: None)
        assert (main(list(argv)), capsys.readouterr()) == both


_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_GOLDEN_ARGV = [case["argv"] for case in json.loads((_GOLDEN / "cases.json").read_text())]


def test_direct_reader_matches_argparse_on_the_golden_battery(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(_GOLDEN)
    accepted = [argv for argv in _GOLDEN_ARGV if _reader_agrees(argv)]
    # every plain and --json command of the battery, and no help or --bogus
    assert 200 < len(accepted) < len(_GOLDEN_ARGV)
    assert not any(word in argv for argv in accepted for word in ("--help", "--bogus", "--prec"))
    for argv in _GOLDEN_ARGV:
        _main_without_the_direct_reader_agrees(capsys, monkeypatch, argv)


@pytest.mark.parametrize("argv", [argv for argv, _, _ in _LEAVES] + _PARITY,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_direct_reader_matches_argparse_on_the_leaves(capsys, monkeypatch, files, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [files.get(arg, arg) for arg in argv]
    assert _reader_agrees(argv) == ("--help" not in argv and argv in [
        [files.get(arg, arg) for arg in leaf] for leaf, _, _ in _LEAVES])
    _main_without_the_direct_reader_agrees(capsys, monkeypatch, argv)


_VALUES = {"--precision": "3", "--condition3-reading": "distinct_edges", "--max-len": "2",
           "--videal": "3", "--vfinite": "2"}


def _vocabulary(options):
    """Runs of words a command line of a leaf with these options may hold:
    each option with a good value, which the direct reader reads, and runs
    that argparse alone reads."""
    good = [[option, _VALUES[option]] if option in _VALUES else [option] for option in options]
    other = [[word] for word in ("extra", "3", "13", "-1", "x", "", "-", "--", "-h", "--help",
                                 "--bogus", "-pi/4", "distinct_edges")]
    for option in options:
        other += [[option], [option[:-2], "3"], [option[:5]], [f"{option}=3"],
                  [f"{option}=distinct_edges"], [option, "-pi/4"], [option, "13"]]
    return good, other


@st.composite
def _command_lines(draw):
    """A leaf's well-formed argv with runs of its vocabulary inserted: good
    ones at most once each, then up to two others."""
    argv, _, options = draw(st.sampled_from(_LEAVES))
    good, other = _vocabulary(options)
    words = argv[len(_leaf_path(argv)):]
    runs = draw(st.lists(st.sampled_from(good), unique_by=lambda run: run[0]))
    for run in runs + draw(st.lists(st.sampled_from(other), max_size=2)):
        at = draw(st.integers(0, len(words)))
        words[at:at] = run
    return [*_leaf_path(argv), *words]


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_command_lines())
@example(["lob", "pi/4", "--precision", "3", "--precision", "5"])
@example(["lob", "--json", "pi/4"])
@example(["volume", "orthoscheme", "pi/3", "--precision", "2", "pi/4", "-pi/4"])
@example(["census", "enumerate", "--vfinite", "2", "--videal", "3", "--condition3-reading",
          "distinct_edges"])
@example(["check", "andreev", "--condition3-reading", "--json", "p32"])
@example(["verify-theorem", "--condition3-reading", "other"])
@example(["lob", "-h"])
@example(["lob", "-"])
@example(["volume lobell", "5"])
def test_direct_reader_matches_argparse_on_any_spelling(capsys, monkeypatch, files, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [files.get(arg, arg) for arg in argv]
    _reader_agrees(argv)
    _main_without_the_direct_reader_agrees(capsys, monkeypatch, argv)


def test_usage_errors_map_to_input_code(capsys):
    assert main([]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["volume"]) == 3
    assert main(["lob"]) == 3
    capsys.readouterr()


# the golden battery leaves these out: Python releases differ in how they
# quote the list of choices
@pytest.mark.parametrize("argv,word", [
    (["frobnicate"], "frobnicate"),
    (["volume", "frobnicate", "5"], "frobnicate"),
    (["verify-theorem", "--condition3-reading", "other"], "other"),
    (["census", "enumerate", "--videal", "3", "--vfinite", "2",
      "--condition3-reading", "other"], "other"),
], ids=["root", "group", "verify-theorem", "census-enumerate"])
def test_invalid_choice_is_a_usage_error(capsys, argv, word):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: raca")
    assert "error: argument" in err and "invalid choice:" in err and word in err


def test_runs_without_scipy_numpy_or_networkx():
    # scipy is blocked, so even a lazy import inside a function fails loudly
    script = """
import sys
sys.modules["scipy"] = None
from raca.cli import main
from raca.lobachevsky import lobachevsky_quadrature
lobachevsky_quadrature(0.7)
assert main(["lob", "pi/4"]) == 0
loaded = sorted(name for name, mod in sys.modules.items() if mod is not None
                and name.split(".")[0] in ("scipy", "numpy", "networkx"))
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.457982797089\n"


def test_import_loads_only_the_standard_library():
    # the README promises no runtime dependencies; the test extra installs
    # networkx, mpmath and hypothesis, so an import of one would pass unseen
    script = """
import sys
before = set(sys.modules)
import raca.cli
print("\\n".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "raca" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"raca"}


_HELP_MACHINERY = {"argparse", "gettext", "locale"}


def _help_machinery_loaded(*args):
    """(exit code, stderr, which of argparse, gettext and locale a fresh
    `python -X importtime ARGS` imports); pytest itself has loaded argparse
    here, so only a new interpreter can tell."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stderr, imported & _HELP_MACHINERY


def test_well_formed_commands_do_not_import_argparse():
    code, _, bare = _help_machinery_loaded("-c", "pass")
    assert code == 0
    code, _, loaded = _help_machinery_loaded("-c", "import raca, raca.cli")
    assert (code, loaded) == (0, bare)
    code, _, loaded = _help_machinery_loaded("-m", "raca.cli", "lob", "1", "--json")
    assert (code, loaded) == (0, bare)
    # a usage error still goes to argparse
    code, err, loaded = _help_machinery_loaded("-m", "raca.cli", "lob", "--bogus")
    assert code == 3 and "raca lob: error: the following arguments are required: theta" in err
    assert "argparse" in loaded
