"""Seeded workloads and the oracle for each of their operations.

A workload is a list of rounds.  `make_round(seed, r)` builds round r from the
seed alone, so the same seed gives the same inputs; raca receives only these
generated inputs.  The seed changes labels, orientations, angles and order,
never the amount of work, so that runs with different seeds are comparable.
`check(op, out)` returns None when an operation's output passes its oracle
and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import oracles

READINGS = ("disjoint_endpoints", "distinct_edges")

# -- combinatorial inputs -------------------------------------------------------
#
# The benchmark builds its polyhedra itself rather than through raca.catalog,
# so that generating inputs never imports the program.


def lobell(n):
    t, u, v, w = ([k * n + i for i in range(n)] for k in range(4))
    faces = [t[:], w[::-1]]
    for i in range(n):
        j = (i + 1) % n
        faces += [[t[i], u[i], v[i], u[j], t[j]], [v[i], u[j], v[j], w[j], w[i]]]
    return {"vertex_count": 4 * n, "faces": faces}


def antiprism(n):
    a, b = list(range(n)), [n + i for i in range(n)]
    faces = [a[:], b[::-1]]
    for i in range(n):
        j = (i + 1) % n
        faces += [[a[i], a[j], b[i]], [b[i], a[j], b[j]]]
    return {"vertex_count": 2 * n, "faces": faces}


def prism(n):
    a, b = list(range(n)), [n + i for i in range(n)]
    faces = [a[:], b[::-1]]
    faces += [[a[i], b[i], b[(i + 1) % n], a[(i + 1) % n]] for i in range(n)]
    return {"vertex_count": 2 * n, "faces": faces}


def pyramid(n):
    return {"vertex_count": n + 1,
            "faces": [list(range(n))[::-1]] + [[i, (i + 1) % n, n] for i in range(n)]}


def bipyramid3():
    return {"vertex_count": 5, "faces": [[0, 1, 3], [1, 2, 3], [2, 0, 3],
                                         [1, 0, 4], [2, 1, 4], [0, 2, 4]]}


def trapezohedron4():
    r, q = [1, 2, 3, 4], [5, 6, 7, 8]
    faces = []
    for i in range(4):
        j = (i + 1) % 4
        faces += [[0, r[i], q[i], r[j]], [q[i], 9, q[j], r[j]]]
    return {"vertex_count": 10, "faces": faces}


def heptahedron():
    faces = [[0, 1, 2]]
    for i in range(3):
        j = (i + 1) % 3
        faces += [[i, 3 + i, j], [j, 3 + j, 6, 3 + i]]
    return {"vertex_count": 7, "faces": faces}


def torus(k):
    def at(i, j):
        return (i % k) * k + j % k
    return {"vertex_count": k * k,
            "faces": [[at(i, j), at(i + 1, j), at(i + 1, j + 1), at(i, j + 1)]
                      for i in range(k) for j in range(k)]}


BASES = {
    **{f"lobell{n}": lambda n=n: lobell(n) for n in range(4, 13)},
    **{f"antiprism{n}": lambda n=n: antiprism(n) for n in range(3, 17)},
    "cube": lambda: prism(4),
    "prism": lambda: prism(3),
    "P28": trapezohedron4,
    "P32": bipyramid3,
    "P34": heptahedron,
}

# sha256 prefix of raca's canonical certificate of each base, and its verdict
# (passed, condition) under disjoint_endpoints.  The certificate of any
# relabeling or reflection must hash the same.
GOLDEN_CERT = {
    "lobell4": "ddd6bbfb43a6263e", "lobell5": "26858fe21bff03c0",
    "lobell6": "a11de32195358f44", "lobell7": "9cb4a311ce35f149",
    "lobell8": "eb354365ac897005", "lobell9": "27fd5d09f297b460",
    "lobell10": "71645a5bce4b22b9", "lobell11": "ab8fa8d13614b013",
    "lobell12": "3ec8b104141f1144",
    "antiprism3": "ec41f824a2126b06", "antiprism4": "329132fa2ccf6997",
    "antiprism5": "e3e09f6b053e11f6", "antiprism6": "35e997408c1cc8ee",
    "antiprism7": "b9278efa1cfedf26", "antiprism8": "b7d668cdc5f4fa03",
    "antiprism9": "481a33e890810af2", "antiprism10": "b0e7319307eed54d",
    "antiprism11": "679a244c635019a5", "antiprism12": "3ce2288bcc20c3ff",
    "antiprism13": "7dbfa7f582c2cc74", "antiprism14": "2b2939521ce9d517",
    "antiprism15": "a2f64318c81614f8", "antiprism16": "7a83b44b8d9cd6e5",
    "cube": "895338fa0cfa7071", "prism": "414c5f146ea08ad0",
    "P28": "00fefaf8d3bd6a01", "P32": "1bbf3e0572fe05cc", "P34": "6d1357dada88dcae",
}
GOLDEN_ANDREEV = {name: [True, None] for name in GOLDEN_CERT}
GOLDEN_ANDREEV.update({"lobell4": [False, 4], "cube": [False, 4], "prism": [False, 4]})

CERT_P32 = "c5|1,2,3;0,3,4,2;0,1,4,3;0,2,4,1;1,3,2"
CERT_P28 = "c10|1,2,3;0,4,5;0,5,6;0,6,7,4;1,3,8;1,8,9,2;2,9,3;3,9,8;4,7,5;5,7,6"
CERT_P34 = "c7|1,2,3;0,3,4,5;0,5,6;0,6,4,1;1,3,6,5;1,4,2;2,4,3"
# realizable types per candidate pair under disjoint_endpoints; none under
# distinct_edges, which rejects the minimizer itself
GOLDEN_CENSUS = {(2, 4): [], (2, 6): [], (2, 8): [CERT_P28], (3, 2): [CERT_P32],
                 (3, 4): [CERT_P34]}


def cert_hash(cert: str) -> str:
    return hashlib.sha256(cert.encode()).hexdigest()[:16]


def relabel(poly, rng):
    """An isomorphic copy: permuted labels, rotated faces, shuffled face order,
    and with probability 1/2 the mirror image."""
    n = poly["vertex_count"]
    perm = list(range(n))
    rng.shuffle(perm)
    mirror = rng.random() < 0.5
    faces = []
    for face in poly["faces"]:
        f = [perm[v] for v in face]
        if mirror:
            f.reverse()
        k = rng.randrange(len(f))
        faces.append(f[k:] + f[:k])
    rng.shuffle(faces)
    return {"vertex_count": n, "faces": faces}


def _union(p, q):
    shift = p["vertex_count"]
    return {"vertex_count": shift + q["vertex_count"],
            "faces": p["faces"] + [[v + shift for v in f] for f in q["faces"]]}


def mutations(rng):
    """One invalid face list per validation error code, built from relabeled
    valid polyhedra."""
    out = {}
    p = relabel(prism(4), rng)
    p["faces"][0][0] = p["vertex_count"]
    out["bad_index"] = p
    p = relabel(antiprism(3), rng)
    p["faces"][0] = p["faces"][0][:2]
    out["bad_face"] = p
    p = relabel(lobell(5), rng)
    p["faces"].pop(rng.randrange(len(p["faces"])))
    out["edge_face_count"] = p
    p = relabel(trapezohedron4(), rng)
    face = rng.choice(p["faces"])
    out["multi_adjacent_faces"] = {"vertex_count": p["vertex_count"],
                                   "faces": [face, face[::-1]]}
    out["disconnected"] = relabel(_union(pyramid(3), pyramid(3)), rng)
    # two tetrahedra sharing vertex 3: connected, but the shared vertex cuts it
    glued = _union(pyramid(3), pyramid(3))
    glued["faces"] = [[3 if v == 7 else (v - 1 if v > 7 else v) for v in f] for f in glued["faces"]]
    glued["vertex_count"] = 7
    out["not_3_connected"] = relabel(glued, rng)
    out["bad_degree"] = relabel(pyramid(5), rng)
    out["euler"] = relabel(torus(4), rng)
    return out


# -- Coxeter diagrams -------------------------------------------------------------


def _pattern(n, share2):
    """A fixed 2-edge-connected graph on n vertices: a Hamiltonian cycle plus
    chords, with about `share2` of the vertex pairs left at label 2."""
    rng = random.Random(f"pattern-{n}-{share2}")
    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i) for i in range(n)}
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(rest)
    target = max(n, round((1 - share2) * n * (n - 1) / 2))
    return sorted(edges | set(rest[:max(0, target - n)]))


# label 2 shares: complete, mid and sparse diagrams for each size
ARITH_SIZES = tuple(range(4, 10))
ARITH_SHARES = (0.0, 0.35, 0.6)


def random_diagram(n, share2, rng, arithmetic):
    """Coxeter labels on the fixed edge pattern of (n, share2), relabeled by
    the seed.

    The labels follow a square-class potential phi: V -> {1, c}, c in {2, 3},
    so every cyclic product is rational.  A non-arithmetic diagram has one
    edge's class flipped; every edge lies on a cycle, so that breaks it.
    """
    edges = _pattern(n, share2)
    perm = list(range(n))
    rng.shuffle(perm)
    c = rng.choice((4, 6))  # the label carrying class c
    phi = [rng.random() < 0.5 for _ in range(n)]
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    flip = rng.randrange(len(edges))
    for k, (i, j) in enumerate(edges):
        odd = phi[i] != phi[j]
        if not arithmetic and k == flip:
            odd = not odd
        label = c if odd else rng.choice((3, "inf"))
        a, b = perm[i], perm[j]
        m[a][b] = m[b][a] = label
    return m


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cli": one child per operation; "batch": one child per round
    make_round: Callable
    check: Callable
    min_round: Callable  # the smallest round, for probes and the self-check


def _rng(name, seed, r):
    return random.Random(f"{name}:{seed}:{r}")


# ---- cli-cold ----------------------------------------------------------------

CLI_WHY = ("about 20 cheap raca commands, each a fresh process: import dominates and "
           "compute is tiny, so import-path work shows here")

ORTHO_TRIPLES = (("pi/3", "pi/4", "pi/4"), ("pi/4", "pi/4", "pi/4"), ("pi/6", "pi/3", "pi/4"),
                 ("pi/4", "pi/3", "pi/4"), ("pi/3", "pi/5", "pi/3"), ("pi/5", "pi/3", "pi/4"))
NAMED = ("P32", "P28", "P34", "Delta344", "Delta444", "DeltaPrime344")


def _angle(text: str) -> float:
    return math.pi / int(text[3:]) if text.startswith("pi/") else float(text)


def cli_round(seed, r):
    rng = _rng("cli-cold", seed, r)
    ops = []

    def add(kind, argv, file=None, **expect):
        ops.append({"kind": kind, "argv": argv, "file": file, "expect": expect})

    # decimals keep |theta| >= 0.01 so that repr never writes an exponent,
    # which argparse would take for an option when negative
    for _ in range(3):
        add("lob", ["lob", repr(rng.choice((1, -1)) * rng.uniform(0.01, 10.0)), "--json"])
    add("lob", ["lob", f"pi/{rng.randint(2, 12)}", "--json"])
    add("volume", ["volume", "orthoscheme", *rng.choice(ORTHO_TRIPLES), "--json"])
    add("volume", ["volume", "lobell", str(rng.randint(5, 40)), "--json"])
    add("volume", ["volume", "antiprism", str(rng.randint(3, 40)), "--json"])
    add("volume", ["volume", "named", rng.choice(NAMED), "--json"])
    add("bounds", ["bounds", "compact", str(2 * rng.randint(10, 100)), "--json"])
    add("bounds", ["bounds", "ideal", str(rng.randint(6, 100)), "--json"])
    add("bounds", ["bounds", "mixed", str(rng.randint(1, 20)), str(2 * rng.randint(0, 20)),
                   "--json"])
    for base in ("lobell5", "antiprism3"):
        add("check", ["check", "stats", "{file}", "--json"], relabel(BASES[base](), rng),
            base=base, what="stats")
    # not lobell5: its andreev check takes 17 to 25 ms depending on the labels,
    # and as the second-dearest command it set the tail of so few commands
    for base in ("P28", "cube"):
        add("check", ["check", "andreev", "{file}", "--json"], relabel(BASES[base](), rng),
            base=base, what="andreev")
    for arithmetic in (True, False):
        m = random_diagram(5, 0.0, rng, arithmetic)
        add("arith", ["arith", "check", "{file}", "--json"], {"size": 5, "m": m})
    for vi, vf in ((3, 2), (3, 4)):
        add("census", ["census", "enumerate", "--videal", str(vi), "--vfinite", str(vf), "--json"],
            pair=[vi, vf])
    bad = relabel(torus(4), rng)
    add("malformed", rng.choice((
        ["check", "stats", "{file}"],
        ["check", "andreev", "{file}"],
    )), bad)
    rng.shuffle(ops)
    return ops


def cli_min_round(seed, r):
    """One command of each kind."""
    seen = set()
    return [op for op in cli_round(seed, r) if not (op["kind"] in seen or seen.add(op["kind"]))]


def cli_check(op, out):
    kind, expect = op["kind"], op["expect"]
    if "Traceback" in out["stderr"]:
        return f"traceback: {out['stderr'].strip().splitlines()[-1][:120]}"
    if kind == "malformed":
        if out["exit"] != 3:
            return f"malformed input exited {out['exit']}, expected 3"
        return None if out["stderr"].startswith("error:") else "no error message"

    want_exit = 0
    if kind == "check" and expect["what"] == "andreev":
        want_exit = 0 if GOLDEN_ANDREEV[expect["base"]][0] else 2
    if kind == "arith":
        want_exit = 0 if oracles.arithmetic_ref(op["file"]["m"]) else 2
    if out["exit"] != want_exit:
        return f"exit {out['exit']}, expected {want_exit}"
    try:
        data = json.loads(out["stdout"])
    except ValueError:
        return f"stdout is not JSON: {out['stdout'][:80]!r}"
    argv = op["argv"]

    if kind == "lob":
        theta = _angle(argv[1])
        if data["theta"] != theta:
            return f"parsed theta {data['theta']!r} != {theta!r}"
        if not oracles.within(data["value"], oracles.lob_ref(theta), data["error_bound"]):
            return f"L({theta!r}) = {data['value']!r} misses mpmath by more than its bound"
        return None
    if kind == "volume":
        what = argv[1]
        if what == "orthoscheme":
            ref = oracles.orthoscheme_ref(*(_angle(a) for a in argv[2:5]))
        elif what == "lobell":
            ref = oracles.lobell_ref(int(argv[2]))
        elif what == "antiprism":
            ref = oracles.antiprism_ref(int(argv[2]))
        else:
            ref = oracles.named_ref(argv[2])
        if not oracles.within(data["value"], ref, data["error_bound"]):
            return f"volume {argv[1:3]} = {data['value']!r} misses mpmath by more than its bound"
        return None
    if kind == "bounds":
        lower, upper, attained = oracles.bounds_ref(argv[1], [int(a) for a in argv[2:-1]])
        if not (oracles.close(data["lower"], lower) and oracles.close(data["upper"], upper)
                and data["lower_attained"] == attained):
            return f"bounds {argv[1:-1]} = {data}"
        return None
    if kind == "check":
        if expect["what"] == "stats":
            want = oracles.poly_stats(op["file"])
            got = {k: data.get(k) for k in want}
            return None if got == want else f"stats {got} != {want}"
        verdict = [data["passed"], data["condition"]]
        if verdict != GOLDEN_ANDREEV[expect["base"]] or data["reading"] != READINGS[0]:
            return f"andreev verdict {verdict} on {expect['base']}"
        return None
    if kind == "arith":
        return arith_verdict_error(op["file"]["m"], data, bounded=False)
    if kind == "census":
        vi, vf = expect["pair"]
        want = GOLDEN_CENSUS[(vi, vf)]
        if data["realizable_types"] != want or data["count"] != len(want):
            return f"census ({vi},{vf}) types {data['realizable_types']}"
        ref = named_ref_for(want)
        if ref is not None and not oracles.within(data["volume"]["value"], ref,
                                                  data["volume"]["error_bound"]):
            return f"census ({vi},{vf}) volume {data['volume']}"
        return None
    return f"unknown operation kind {kind}"


def named_ref_for(certs):
    names = {CERT_P32: "P32", CERT_P28: "P28", CERT_P34: "P34"}
    return oracles.named_ref(names[certs[0]]) if len(certs) == 1 else None


def arith_verdict_error(m, data, bounded):
    if bounded:
        want, cycles = oracles.bounded3_ref(m)
        if data["cycles_checked"] != cycles:
            return f"max_len=3 checked {data['cycles_checked']} cycles, expected {cycles}"
    else:
        want = oracles.arithmetic_ref(m)
    if data["arithmetic"] != want:
        return f"arithmetic={data['arithmetic']}, square classes say {want}"
    if not want and not oracles.witness_breaks(m, data["witness_cycle"]):
        return f"witness {data['witness_cycle']} is not an irrational cycle"
    return None


# ---- theorem -----------------------------------------------------------------

THEOREM_WHY = ("verify_minimality under both condition-3 readings in fresh children: census "
               "work dominates, 93% of it in the (2,8) pair, and the import is outside work_s")


def theorem_round(seed, r):
    order = list(READINGS)
    _rng("theorem", seed, r).shuffle(order)
    return [{"reading": reading} for reading in order]


def theorem_check(op, rep):
    # branch_log cases read "census (vi,vf)"
    census = {tuple(int(x) for x in e["case"][8:-1].split(",")):
              [t["certificate"] for t in e["types"]]
              for e in rep["branch_log"] if e["case"].startswith("census (")}
    if op["reading"] == READINGS[0]:
        if not rep["verified"] or rep["failures"]:
            return f"not verified: {rep['failures']}"
        if rep["witness"] != CERT_P32 or not rep["uniqueness"]:
            return f"witness {rep['witness']}"
        if not oracles.close(rep["minimal_volume"], oracles.mpmath.catalan):
            return f"minimal volume {rep['minimal_volume']!r} is not G"
        if census != GOLDEN_CENSUS:
            return f"census {census}"
        return None
    if rep["verified"] or rep["witness"] is not None:
        return "distinct_edges reading verified the theorem"
    if census != {pair: [] for pair in GOLDEN_CENSUS}:
        return f"distinct_edges census {census}"
    return None


# ---- polyhedra-large ---------------------------------------------------------

POLY_WHY = ("few large maps (Lobell to 12, antiprisms to 16) through validate, statistics, "
            "certificate, Andreev and certificate round trip, plus one reject per error code")


# P32 twice makes 37 operations, 18 cheaper and 18 dearer than antiprism6, so
# that op_p50_ms is the middle of one size's samples; with 36 it fell in the
# gap between antiprism6 and antiprism7 (a third apart) and moved by 35%
# between seeds
POLY_NAMES = (*BASES, "P32")


def poly_round(seed, r, names=None):
    rng = _rng("polyhedra-large", seed, r)
    ops = [{"base": name, "poly": relabel(BASES[name](), rng), "code": None}
           for name in (names or POLY_NAMES)]
    for code, poly in mutations(rng).items():
        ops.append({"base": code, "poly": poly, "code": code})
    rng.shuffle(ops)
    return ops


def poly_min_round(seed, r):
    return poly_round(seed, r, names=("lobell6", "antiprism5", "cube", "P34"))


def poly_check(op, out):
    if op["code"] is not None:
        got = out.get("reject")
        return None if got == op["code"] else f"reject code {got!r}, expected {op['code']}"
    if "reject" in out:
        return f"valid {op['base']} rejected with {out['reject']}"
    want = oracles.poly_stats(op["poly"])
    got = dict(zip(("v_ideal", "v_finite", "edges", "faces"), out["profile"]))
    got.update(vertex_count=op["poly"]["vertex_count"], face_vector=out["stats"]["p"],
               w=out["stats"]["w"], wi=out["stats"]["wi"])
    if got != want:
        return f"{op['base']} statistics {got} != {want}"
    if cert_hash(out["cert"]) != GOLDEN_CERT[op["base"]]:
        return f"{op['base']} certificate changed under relabeling"
    if out["andreev"] != GOLDEN_ANDREEV[op["base"]]:
        return f"{op['base']} andreev verdict {out['andreev']}"
    if out["rebuilt"] != [op["poly"]["vertex_count"], len(op["poly"]["faces"])]:
        return f"{op['base']} rebuilt from its certificate as {out['rebuilt']}"
    return None


# ---- arith -------------------------------------------------------------------

ARITH_WHY = ("Coxeter diagrams of 4 to 9 nodes, half arithmetic by construction, checked "
             "with the default max_len and with max_len=3: the only workload led by "
             "arithmeticity and surd")


def arith_round(seed, r, shares=ARITH_SHARES):
    rng = _rng("arith", seed, r)
    ops = []
    for n in ARITH_SIZES:
        for share in shares:
            for arithmetic in (True, False):
                ops.append({"n": n, "share2": share, "arithmetic": arithmetic,
                            "m": random_diagram(n, share, rng, arithmetic)})
    rng.shuffle(ops)
    return ops


def arith_min_round(seed, r):
    return arith_round(seed, r, shares=(0.6,))


def arith_check(op, out):
    if oracles.arithmetic_ref(op["m"]) != op["arithmetic"]:
        return "generator broke its own square-class construction"
    return (arith_verdict_error(op["m"], out["default"], bounded=False)
            or arith_verdict_error(op["m"], out["bounded"], bounded=True))


WORKLOADS = {
    "cli-cold": Workload("cli-cold", CLI_WHY, "cli", cli_round, cli_check, cli_min_round),
    "theorem": Workload("theorem", THEOREM_WHY, "batch", theorem_round, theorem_check,
                        theorem_round),
    "polyhedra-large": Workload("polyhedra-large", POLY_WHY, "batch", poly_round, poly_check,
                                poly_min_round),
    "arith": Workload("arith", ARITH_WHY, "batch", arith_round, arith_check, arith_min_round),
}
