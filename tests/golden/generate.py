"""Write the golden outputs of the census, check, arith, lob, volume and
bounds commands.

Each case runs `raca.cli.main` in-process with COLUMNS=80, from this
directory, and records its exit code (in cases.json), stdout
(<name>.stdout) and stderr (<name>.stderr).  The cases cover plain and
--json output of `verify-theorem` and `census enumerate` (the five pairs
of the candidate region) under both readings of condition 3, of
`check stats` and `check andreev` (both readings) on the polyhedron files
in inputs/: catalog shapes, Lobell(12), Antiprism(16) and one input per
validation error code, of `arith check` on the Coxeter diagrams in
inputs/ under several --max-len bounds, all written here, and of every
`lob`, `volume` and `bounds` leaf on the arguments in PRICES, with
--precision 0 and 12 on each leaf's first arguments.  The --json files
pin every value and error bound to the bit.  The argparse side is pinned
too: --help on every leaf, group and the root, --bogus, --precision 13,
--precision 3, its abbreviation --prec 3 and --precision=3 on every leaf,
and the usage errors in USAGE.  LOADER holds two malformed inputs, and
UNREADABLE the input files that `check stats`, `check andreev` and `arith
check` each reject before any check runs.  tests/test_golden.py replays
them.  From the repository root:

    PYTHONPATH=src python tests/golden/generate.py
"""

import contextlib
import io
import json
import os
import pathlib
import re

from raca import catalog
from raca.cli import main
from raca.polyhedra import dual_graph

HERE = pathlib.Path(__file__).resolve().parent
READINGS = ("disjoint_endpoints", "distinct_edges")
PAIRS = ((2, 4), (2, 6), (2, 8), (3, 2), (3, 4))
FORMS = (("plain", []), ("json", ["--json"]))

# one input per validation error code, in the order the checks run
REJECTS = {
    "bad_index": (4, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 9)]),
    "bad_face": (4, [(0, 1), (0, 3, 1), (1, 3, 2), (2, 3, 0)]),
    "edge_face_count": (5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    "multi_adjacent_faces": (4, [(0, 1, 2, 3), (1, 0, 3, 2)]),
    "disconnected": (8, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0),
                         (4, 5, 6), (4, 7, 5), (5, 7, 6), (6, 7, 4)]),
    "not_3_connected": (7, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0),
                            (0, 4, 5), (0, 6, 4), (4, 6, 5), (5, 6, 0)]),
    "bad_degree": (7, [(0, 1, 5), (1, 0, 6), (1, 2, 5), (2, 1, 6), (2, 3, 5),
                       (3, 2, 6), (3, 4, 5), (4, 3, 6), (4, 0, 5), (0, 4, 6)]),
    "euler": (9, [(0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5),
                  (3, 4, 7, 6), (4, 5, 8, 7), (5, 3, 6, 8),
                  (6, 7, 1, 0), (7, 8, 2, 1), (8, 6, 0, 2)]),
}


# a 9-node diagram with every label; its triangle (0, 5, 8) and its
# 4-cycle (0, 1, 3, 2) have irrational products
NONARITH9 = [[1, 3, 4, 2, 2, 3, 3, 2, 4],
             [3, 1, 2, 4, 3, 2, "inf", 3, 2],
             [4, 2, 1, 4, 2, 2, 2, 2, 2],
             [2, 4, 4, 1, 2, 2, 6, 4, 2],
             [2, 3, 2, 2, 1, 2, 4, 2, 6],
             [3, 2, 2, 2, 2, 1, 2, 2, "inf"],
             [3, "inf", 2, 6, 4, 2, 1, 2, 2],
             [2, 3, 2, 4, 2, 2, 2, 1, 2],
             [4, 2, 2, 2, 6, "inf", 2, 2, 1]]

# diagram file -> the --max-len bounds it runs under (None: the default);
# k40 under --max-len 8 stops at the cycle walk's step limit (exit 4), and
# a diagonal `true` is not the label 1 (exit 3)
ARITH = {"coxeter_P32": (None, 3, 1),
         "coxeter_nonarith9": (None, 4, 3, 2),
         "coxeter_asymmetric": (None,),
         "coxeter_k40": (8,),
         "coxeter_true-diagonal": (None,)}

# each lob, volume and bounds leaf -> its argument lists; the last of
# lobell, named, compact and mixed, and the last three of lob, are input
# errors (exit 3)
PRICES = {
    "lob": ("pi/4", "-pi/3", "0", "1e16", "nan", "-pi/0", "pi/00"),
    "volume orthoscheme": ("pi/3 pi/4 pi/4", "pi/4 pi/4 pi/4"),
    "volume lobell": ("5", "12", "1000000", "4"),
    "volume antiprism": ("3", "4", "1000000"),
    "volume named": ("P32", "P28", "P34", "Delta344", "Delta444", "DeltaPrime344",
                     "Lobell(7)", "Antiprism(9)", "Foo"),
    "bounds compact": ("20", "19"),
    "bounds ideal": ("6",),
    "bounds mixed": ("1 18", "3 2", "0 2"),
}

# loader errors: a field of the wrong type, and JSON that is not an object
LOADER = {
    "check-stats_faces-int": ["check", "stats", '{"vertex_count": 4, "faces": 5}'],
    "check-stats_not-object": ["check", "stats", "inputs/not_object.json"],
}


def _torus(k):
    """Face list of the k x k square torus: every vertex of degree 4."""
    def at(i, j):
        return (i % k) * k + j % k
    return {"vertex_count": k * k,
            "faces": [[at(i, j), at(i + 1, j), at(i + 1, j + 1), at(i, j + 1)]
                      for i in range(k) for j in range(k)]}


# input file -> its text; each goes to check stats, check andreev and arith
# check, which read the same JSON and each name their own missing field.
# Lobell(33) has 132 vertices, over the validation cap (exit 4); the torus
# fails the Euler check (exit 3)
UNREADABLE = {
    "malformed": '{"vertex_count": 4, "faces": [[0, 1, 2]\n',
    "nan": '{"vertex_count": NaN, "size": NaN, "faces": [], "m": []}\n',
    "missing-field": '{"faces": [[0, 1, 2]], "m": [[1]]}\n',
    "deep": "[" * 100_000 + "\n",
    "lobell33": json.dumps(catalog.lobell(33).to_dict()) + "\n",
    "torus4": json.dumps(_torus(4)) + "\n",
}

# every leaf -> one well-formed argument list; each runs with --help and under
# the option spellings in SPELLINGS, most of which argparse itself reports
LEAVES = {
    "lob": ["pi/4"],
    "volume orthoscheme": ["pi/3", "pi/4", "pi/4"],
    "volume lobell": ["5"],
    "volume antiprism": ["3"],
    "volume named": ["P32"],
    "bounds compact": ["20"],
    "bounds ideal": ["6"],
    "bounds mixed": ["1", "18"],
    "check andreev": ["inputs/P32.json"],
    "check stats": ["inputs/P32.json"],
    "census enumerate": ["--videal", "3", "--vfinite", "2"],
    "census verify-theorem": [],
    "arith check": ["inputs/coxeter_P32.json"],
    "verify-theorem": [],
}
SPELLINGS = {"bogus": ["--bogus"], "precision13": ["--precision", "13"],
             "precision3": ["--precision", "3"], "prec3": ["--prec", "3"],
             "precision-eq3": ["--precision=3"]}
# usage errors and help outside the leaves: the root, each group's help and
# the group alone, a missing command or argument, an unknown option, an extra
# positional and a repeated option (the last value wins).  `raca frobnicate`
# is left to tests/test_cli.py: later Python releases print an "invalid
# choice" list without quotes
USAGE = {
    "root_help": ["-h"],
    "root_none": [],
    "volume_help": ["volume", "--help"],
    "bounds_help": ["bounds", "--help"],
    "check_help": ["check", "--help"],
    "census_help": ["census", "--help"],
    "arith_help": ["arith", "--help"],
    "volume_none": ["volume"],
    "bounds_none": ["bounds"],
    "check_none": ["check"],
    "census_none": ["census"],
    "arith_none": ["arith"],
    "lob_none": ["lob"],
    "lob_bogus": ["lob", "1", "--bogus"],
    "volume-lobell_extra": ["volume", "lobell", "5", "extra"],
    "census-enumerate_none": ["census", "enumerate"],
    "census-enumerate_no-vfinite": ["census", "enumerate", "--videal", "3"],
    "lob_repeated-precision": ["lob", "pi/4", "--precision", "3", "--precision", "5"],
}


def _label(words):
    """File-name form of command words: "-pi/3" -> "neg-pi-3"."""
    return "_".join(("neg-" if w.startswith("-") else "") + re.sub(r"\W+", "-", w).strip("-")
                    for w in words)


def p32_diagram():
    """Coxeter diagram of P32: adjacent faces meet at a right angle (label
    2), and every other pair of its faces shares an ideal vertex (inf)."""
    p = catalog.p32()
    n = len(p.faces)
    adjacent = {(i, j) for i, j, _ in dual_graph(p).edges}
    m = [[1 if i == j else 2 if (min(i, j), max(i, j)) in adjacent else "inf"
          for j in range(n)] for i in range(n)]
    return {"size": n, "m": m}


def diagrams():
    """File name (without .json) -> Coxeter diagram dict of every arith input."""
    return {"coxeter_P32": p32_diagram(),
            "coxeter_nonarith9": {"size": 9, "m": NONARITH9},
            "coxeter_asymmetric": {"size": 3, "m": [[1, 3, 2], [4, 1, 2], [2, 2, 1]]},
            "coxeter_k40": {"size": 40, "m": [[1 if i == j else 3 for j in range(40)]
                                             for i in range(40)]},
            "coxeter_true-diagonal": {"size": 2, "m": [[True, 3], [3, 1]]}}


def inputs():
    """File name (without .json) -> polyhedron dict of every check input."""
    shapes = {name: catalog.NAMED[name]()
              for name in ("P32", "P28", "P34", "cube", "dodecahedron", "octahedron")}
    shapes["lobell12"] = catalog.lobell(12)
    shapes["antiprism16"] = catalog.antiprism(16)
    found = {name: p.to_dict() for name, p in shapes.items()}
    for code, (n, faces) in REJECTS.items():
        found[f"reject_{code}"] = {"vertex_count": n, "faces": [list(f) for f in faces]}
    return found


def cases():
    """(name, argv) of every golden command line, paths relative to HERE."""
    for reading in READINGS:
        for form, extra in FORMS:
            flags = ["--condition3-reading", reading, *extra]
            yield f"verify-theorem_{reading}_{form}", ["verify-theorem", *flags]
            for vi, vf in PAIRS:
                yield (f"census-enumerate_{vi}_{vf}_{reading}_{form}",
                       ["census", "enumerate", "--videal", str(vi),
                        "--vfinite", str(vf), *flags])
    for name in inputs():
        path = f"inputs/{name}.json"
        for form, extra in FORMS:
            yield f"check-stats_{name}_{form}", ["check", "stats", path, *extra]
            for reading in READINGS:
                yield (f"check-andreev_{name}_{reading}_{form}",
                       ["check", "andreev", path, "--condition3-reading", reading, *extra])
    for name, bounds in ARITH.items():
        for max_len in bounds:
            bound = [] if max_len is None else ["--max-len", str(max_len)]
            label = "default" if max_len is None else f"max-len{max_len}"
            for form, extra in FORMS:
                yield (f"arith-check_{name}_{label}_{form}",
                       ["arith", "check", f"inputs/{name}.json", *bound, *extra])
    for leaf, arguments in PRICES.items():
        command = leaf.split()
        for i, text in enumerate(arguments):
            words = text.split()
            stem = f"{'-'.join(command)}_{_label(words)}"
            for form, extra in FORMS:
                yield f"{stem}_{form}", [*command, *words, *extra]
            if i == 0:
                for prec in ("0", "12"):
                    yield f"{stem}_precision{prec}", [*command, *words, "--precision", prec]
    yield from LOADER.items()
    for name in UNREADABLE:
        for command in (["check", "stats"], ["check", "andreev"], ["arith", "check"]):
            for form, extra in FORMS:
                yield (f"{'-'.join(command)}_unreadable-{name}_{form}",
                       [*command, f"inputs/unreadable_{name}.json", *extra])
    for leaf, arguments in LEAVES.items():
        command = leaf.split()
        stem = "-".join(command)
        yield f"{stem}_help", [*command, "--help"]
        for label, spelling in SPELLINGS.items():
            yield f"{stem}_{label}", [*command, *arguments, *spelling]
    for name, argv in USAGE.items():
        yield f"usage_{name}", argv


def run(argv):
    """(exit code, stdout, stderr) of one in-process `raca` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write():
    os.environ["COLUMNS"] = "80"
    os.chdir(HERE)
    (HERE / "inputs").mkdir(exist_ok=True)
    for name, payload in {**inputs(), **diagrams()}.items():
        (HERE / "inputs" / f"{name}.json").write_text(json.dumps(payload) + "\n")
    (HERE / "inputs" / "not_object.json").write_text("[1, 2]\n")
    for name, text in UNREADABLE.items():
        (HERE / "inputs" / f"unreadable_{name}.json").write_text(text)
    manifest = []
    for name, argv in cases():
        code, out, err = run(argv)
        (HERE / f"{name}.stdout").write_bytes(out.encode())
        (HERE / f"{name}.stderr").write_bytes(err.encode())
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    write()
