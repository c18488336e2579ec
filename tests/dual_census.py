"""An independent census of Andreev types, through the dual graph.

The dual Q of a type with V_inf degree-4 and V_f degree-3 vertices is a
plane graph on F = V_inf + V_f/2 + 2 vertices whose faces are V_inf
quadrilaterals and V_f triangles.  The census here lists the simple sphere
triangulations T on F vertices, removes V_inf edges from each in every
admissible way, and reads the primal off each Q that remains.  It shares
no search with `raca.census`: only the map checks of `raca.polyhedra`
(`_sphere_map`, `_andreev`, `_canonical_form`, `_bfs_code`).  pytest does
not collect this file; `tests/test_census.py` runs it.

Lemma (a).  Every simple sphere triangulation on n + 1 >= 5 vertices comes
from one on n vertices by splitting a vertex.  A split is the inverse of
contracting an edge that lies on no separating triangle, which leaves a
simple triangulation, and every triangulation other than K4 has such an
edge (E. Steinitz & H. Rademacher, *Vorlesungen über die Theorie der
Polyeder*, 1934; D. W. Barnette, *On generating planar graphs*, Discrete
Math. 7 (1974)).  `splits` makes every split of every vertex, each once,
so starting from K4 it reaches every class.  The dedup is checked without
trusting it: the rooted mass of the classes, the sum of 4E/|Aut T|, must
be Tutte's count of rooted simple triangulations, 2(4k+1)!/((k+1)!(3k+2)!)
with k = n - 3 (W. T. Tutte, *A census of planar triangulations*, Canad.
J. Math. 14 (1962); OEIS A000260).  A class merged or split by mistake
changes the sum.

Lemma (b).  If the primal of Q passes Andreev's conditions, adding either
diagonal to each quadrilateral of Q gives a simple triangulation, and Q is
that triangulation minus V_inf edges, no two on one triangle.  Proof.  The
primal is a polyhedron, so two of its faces meet in nothing, one vertex or
one edge (they are faces of a 3-connected plane graph).  A quadrilateral
abcd of Q is a degree-4 vertex x of the primal, with faces a, b, c, d
around it.  If its diagonal ac were an edge of Q, faces a and c would share
an edge and the vertex x, which is not on that edge since the edges at x
lie between consecutive faces: two faces meeting in more than one edge or
vertex.  If two quadrilaterals had the same diagonal ac, faces a and c
would share two vertices.  So each added diagonal is new and distinct, and
the result is simple; each lies on the two triangles that split its
quadrilateral, and no triangle splits two.

Two filters drop only sets whose primal fails Andreev's conditions, before
any map is built.  A separating triangle abc of T that loses no edge is a
3-cycle of Q with vertices on both sides, so it is no face of Q: the faces
a, b and c of the primal meet pairwise in edges, and either the three
edges are disjoint, a prismatic 3-circuit (condition 4), or two of them
share a vertex, on a face of Q through a, b and c, which is then a
quadrilateral with a diagonal, ruled out above.  And a vertex of Q of
degree d with q quadrilaterals around it is a face of the primal with d
sides and q degree-4 vertices, so Andreev's conditions ask for d >= 3 and
d + q >= 5 (the face lemma, `polyhedra._lemma_rem`).
"""

from functools import lru_cache
from itertools import combinations
from math import factorial

from raca.errors import PolyhedronError
from raca.polyhedra import (
    READING_DISJOINT,
    AbstractPolyhedron,
    _andreev,
    _bfs_code,
    _canonical_form,
    _sphere_map,
)

# a rotation system: vertex -> its neighbours in counterclockwise order, so
# that consecutive neighbours a, b of v span the triangle (v, a, b)
K4 = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def _darts(rot, sense):
    """The rotation as `_bfs_code` reads it: dart (v, w) -> the next dart at v."""
    return {(v, w): (v, nbrs[(k + sense) % len(nbrs)])
            for v, nbrs in enumerate(rot) for k, w in enumerate(nbrs)}


def codes(rot):
    """The `_bfs_code` of every dart in both senses."""
    for sense in (1, -1):
        darts = _darts(rot, sense)
        for start in darts:
            yield _bfs_code(len(rot), darts, start, None)


def canonical_code(rot):
    """The least of `codes(rot)`, abandoning each code once it is larger.

    Row 0 of a code is (1, ..., deg(root)), so only darts from a vertex of
    least degree can give the least code, as in `_canonical_form`.
    """
    low = min(map(len, rot))
    best = None
    for sense in (1, -1):
        darts = _darts(rot, sense)
        for start in darts:
            if len(rot[start[0]]) == low:
                best = _bfs_code(len(rot), darts, start, best) or best
    return best


def automorphisms(rot):
    """|Aut T|, reflections included: the starts whose code ties the least."""
    found = list(codes(rot))
    return found.count(min(found))


def tutte(n):
    """Tutte's count of rooted simple sphere triangulations on n vertices."""
    k = n - 3
    return 2 * factorial(4 * k + 1) // (factorial(k + 1) * factorial(3 * k + 2))


def splits(rot):
    """Each triangulation made by splitting one vertex v of `rot`.

    For neighbour positions i < j of v, v keeps n_i ... n_j and a new
    vertex u takes n_j ... n_i; both stay adjacent to n_i and n_j, and to
    each other.  The pair (j, i) would give the same triangulation with u
    and v swapped, so each split is made once.
    """
    u = len(rot)
    for v, nbrs in enumerate(rot):
        d = len(nbrs)
        for i in range(d):
            for j in range(i + 1, d):
                keep = [nbrs[(i + k) % d] for k in range((j - i) % d + 1)]
                take = [nbrs[(j + k) % d] for k in range((i - j) % d + 1)]
                new = [list(around) for around in rot] + [take + [v]]
                new[v] = keep + [u]
                for w in take[1:-1]:
                    new[w][new[w].index(v)] = u
                # around n_i the triangle (n_i, v, u) follows v, and around
                # n_j the triangle (n_j, u, v) precedes it
                ni, nj = new[nbrs[i]], new[nbrs[j]]
                ni.insert(ni.index(v) + 1, u)
                nj.insert(nj.index(v), u)
                yield tuple(map(tuple, new))


@lru_cache(maxsize=None)
def triangulations(n):
    """The simple sphere triangulations on n >= 4 vertices, one per class
    up to isomorphism and reflection, in order of `canonical_code`."""
    if n == 4:
        return (K4,)
    found = {}
    for rot in triangulations(n - 1):
        for child in splits(rot):
            found.setdefault(canonical_code(child), child)
    return tuple(found[code] for code in sorted(found))


def dual_types(vi, vf):
    """Sorted certificates of the types with vi degree-4 and vf degree-3
    vertices that pass Andreev's conditions, found through their duals."""
    certs = set()
    for rot in triangulations(vi + vf // 2 + 2):
        certs.update(_types_from(rot, vi))
    return sorted(certs)


def _types_from(rot, removed):
    """Certificates of the Andreev types whose dual is `rot` minus `removed`
    edges, no two on one triangle."""
    n = len(rot)
    corners = [[frozenset((v, a, b)) for a, b in zip(nbrs, nbrs[1:] + nbrs[:1])]
               for v, nbrs in enumerate(rot)]
    triangles = sorted(set().union(*corners), key=sorted)
    index = {t: k for k, t in enumerate(triangles)}
    # edge (a, b), a < b -> the two triangles on it
    sides = {}
    for v, nbrs in enumerate(rot):
        for k, w in enumerate(nbrs):
            if v < w:
                sides[v, w] = (index[corners[v][k - 1]], index[corners[v][k]])
    separating = [t for t in combinations(range(n), 3)
                  if all(pair in sides for pair in combinations(t, 2))
                  and frozenset(t) not in index]

    for cut in combinations(sorted(sides), removed):
        merged = [t for edge in cut for t in sides[edge]]
        if len(set(merged)) != len(merged):
            continue
        if not all(set(combinations(t, 2)) & set(cut) for t in separating):
            continue
        degree = [len(nbrs) for nbrs in rot]
        quads = [0] * n
        for edge in cut:
            for v in edge:
                degree[v] -= 1
            for v in set().union(*(triangles[t] for t in sides[edge])):
                quads[v] += 1
        if any(d < 3 or d + q < 5 for d, q in zip(degree, quads)):
            continue
        # each face of Q is named by a triangle in it: the two triangles
        # beside a removed edge by the first
        name = list(range(len(triangles)))
        for edge in cut:
            a, b = sides[edge]
            name[b] = a
        label = {t: k for k, t in enumerate(sorted(set(name)))}
        # the primal face at vertex v of Q: Q's faces around v, in order
        primal = []
        for v in range(n):
            around = [label[name[index[t]]] for t in corners[v]]
            primal.append(tuple(f for k, f in enumerate(around) if f != around[k - 1]))
        try:
            m = _sphere_map(AbstractPolyhedron(len(triangles) - removed, primal))
        except PolyhedronError:
            continue
        if _andreev(m, READING_DISJOINT).passed:
            yield _canonical_form(m)
