"""Independent checks of raca's outputs.  They run in the benchmark parent,
after the timed children have exited, and never import raca.

* Lobachevsky values and the volumes built on them are recomputed with mpmath
  from the float the program was given: L(theta) = Cl_2(2 theta) / 2.
* Polyhedron statistics are recounted from the face list.
* Arithmeticity is decided by square classes: every nonzero doubled Gram
  entry is -k*sqrt(d) with d in {1, 2, 3}, a cyclic product is a rational
  integer exactly when the classes of d along the cycle multiply to a square,
  and that holds for every cycle exactly when the classes come from a
  potential on the vertices.
"""

from __future__ import annotations

import math
from collections import Counter, deque

import mpmath

# -- Lobachevsky function and volumes ----------------------------------------


def lob_ref(theta: float):
    """L(theta) to about 80 correct bits, for any finite float theta."""
    extra = max(0, math.frexp(theta)[1])  # bits eaten by the reduction mod pi
    with mpmath.workprec(96 + extra):
        return mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2


def within(value: float, ref, bound: float) -> bool:
    with mpmath.workprec(200):
        return abs(mpmath.mpf(value) - ref) <= mpmath.mpf(bound)


def _L(x):
    return mpmath.clsin(2, 2 * x) / 2


def orthoscheme_ref(alpha: float, beta: float, gamma: float):
    with mpmath.workdps(40):
        a, b, g = (mpmath.mpf(x) for x in (alpha, beta, gamma))
        delta = mpmath.atan(mpmath.sqrt(mpmath.cos(b) ** 2 - (mpmath.sin(a) * mpmath.sin(g)) ** 2)
                            / (mpmath.cos(a) * mpmath.cos(g)))
        h = mpmath.pi / 2
        return (_L(a + delta) - _L(a - delta) + _L(g + delta) - _L(g - delta)
                - _L(h - b + delta) + _L(h - b - delta) + 2 * _L(h - delta)) / 4


def lobell_ref(n: int):
    with mpmath.workdps(40):
        t = mpmath.pi / 2 - mpmath.acos(1 / (2 * mpmath.cos(mpmath.pi / n)))
        s = mpmath.pi / n
        return n * (2 * _L(t) + _L(t + s) + _L(t - s) - _L(2 * t - mpmath.pi / 2)) / 2


def antiprism_ref(n: int):
    with mpmath.workdps(40):
        q, s = mpmath.pi / 4, mpmath.pi / (2 * n)
        return 2 * n * (_L(q + s) + _L(q - s))


def named_ref(name: str):
    with mpmath.workdps(40):
        pi = mpmath.pi
        if name.startswith("Lobell("):
            return lobell_ref(int(name[7:-1]))
        if name.startswith("Antiprism("):
            return antiprism_ref(int(name[10:-1]))
        return {
            "P32": lambda: 2 * _L(pi / 4),
            "P28": lambda: 4 * _L(pi / 4),
            "P34": lambda: antiprism_ref(4) / 4,
            "Delta344": lambda: orthoscheme_ref(math.pi / 3, math.pi / 4, math.pi / 4),
            "Delta444": lambda: orthoscheme_ref(math.pi / 4, math.pi / 4, math.pi / 4),
            "DeltaPrime344": lambda: 6 * orthoscheme_ref(math.pi / 3, math.pi / 4, math.pi / 4),
        }[name]()


def bounds_ref(kind: str, args: list):
    """(lower, upper, lower_attained) of the Atkinson-style bounds."""
    with mpmath.workdps(40):
        v_oct = 8 * _L(mpmath.pi / 4)
        v_tet = 3 * _L(mpmath.pi / 3)
        if kind == "compact":
            (v,) = args
            return v_oct / 32 * (v - 8), 5 * v_tet / 8 * (v - 10), False
        if kind == "ideal":
            (v,) = args
            return v_oct / 4 * (v - 2), v_oct / 2 * (v - 4), v == 6
        vi, vf = args
        return (mpmath.catalan / 8 * (4 * vi + vf - 8),
                v_oct / 2 * vi + 5 * v_tet / 8 * vf - v_oct / 2, False)


def close(value: float, ref) -> bool:
    """Agreement to a relative 1e-12 (absolute for |ref| < 1)."""
    with mpmath.workdps(40):
        return abs(mpmath.mpf(value) - ref) <= 1e-12 * max(1, abs(ref))


# -- polyhedra ----------------------------------------------------------------


def poly_stats(poly: dict) -> dict:
    """Profile and face statistics recounted from a valid face list."""
    nbrs = [set() for _ in range(poly["vertex_count"])]
    for face in poly["faces"]:
        for i, a in enumerate(face):
            b = face[(i + 1) % len(face)]
            nbrs[a].add(b)
            nbrs[b].add(a)
    ideal = {v for v, s in enumerate(nbrs) if len(s) == 4}
    faces = poly["faces"]
    return {
        "vertex_count": poly["vertex_count"],
        "v_ideal": len(ideal),
        "v_finite": poly["vertex_count"] - len(ideal),
        "edges": sum(len(s) for s in nbrs) // 2,
        "faces": len(faces),
        "face_vector": {str(k): c for k, c in sorted(Counter(len(f) for f in faces).items())},
        "w": sum(len(f) for f in faces),
        "wi": sum(1 for f in faces for v in f if v in ideal),
    }


# -- arithmeticity ------------------------------------------------------------

# square class of the surd part of -2cos(pi/m), as a vector over F_2 (bit 0:
# sqrt 2, bit 1: sqrt 3); label 2 gives a zero entry, i.e. no edge
LABEL_CLASS = {3: 0, "inf": 0, 4: 1, 6: 2}


def diagram_edges(m: list) -> dict:
    n = len(m)
    return {(i, j): LABEL_CLASS[m[i][j]] for i in range(n) for j in range(i + 1, n)
            if m[i][j] != 2}


def arithmetic_ref(m: list) -> bool:
    """Vinberg's criterion through a square-class potential, found by BFS."""
    n = len(m)
    adj = [[] for _ in range(n)]
    for (i, j), c in diagram_edges(m).items():
        adj[i].append((j, c))
        adj[j].append((i, c))
    pot = [None] * n
    for root in range(n):
        if pot[root] is not None:
            continue
        pot[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w, c in adj[v]:
                if pot[w] is None:
                    pot[w] = pot[v] ^ c
                    queue.append(w)
                elif pot[w] != pot[v] ^ c:
                    return False
    return True


def triangles(m: list) -> list:
    edges = diagram_edges(m)
    n = len(m)
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
            if (i, j) in edges and (j, k) in edges and (i, k) in edges]


def bounded3_ref(m: list) -> tuple:
    """(verdict, cycles checked) of the check restricted to cycles of length <= 3."""
    edges = diagram_edges(m)
    tri = triangles(m)
    ok = all(edges[(i, j)] ^ edges[(j, k)] ^ edges[(i, k)] == 0 for i, j, k in tri)
    return ok, len(edges) + len(tri)


def witness_breaks(m: list, cycle) -> bool:
    """True if `cycle` is a cycle of the diagram whose product is irrational."""
    if not cycle or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    edges = diagram_edges(m)
    acc = 0
    for a, b in zip(cycle, cycle[1:] + [cycle[0]]):
        key = (min(a, b), max(a, b))
        if key not in edges:
            return False
        acc ^= edges[key]
    return acc != 0
