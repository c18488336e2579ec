"""A reference census on the primal graph: a degree-sequence backtracker.

`leaves` completes every graph with the given vertex degrees, up to a
symmetry pruning, and `certify` gives each completed graph that is a sphere
type passing Andreev's conditions its certificate.  `raca.census` finds the
same types through their dual graphs; `tests/test_census.py` compares the
two on every pair it can afford, and keeps the published counts and the
lemmas of this search checked.  It shares no search with `raca.census`:
only the map checks of `raca.polyhedra`.  pytest does not collect this
file.

Vertices are wired in index order; step i chooses the full set of neighbors
of vertex i among higher indices.  Vertices j > i that agree in target
degree and in adjacency to the already wired prefix are interchangeable, so
only choices taking a prefix of each such group are explored (any other
choice is isomorphic to a prefix choice via a group-internal swap).  The
final certificate dedup makes the output independent of this pruning.

The search keeps its state up to date instead of recomputing it at every
node: next to the `adj` sets, `rem[j]` holds the degree vertex j still
lacks and `mask[j]` its neighbours as an int bitmask, and the entries of
vertex i's new neighbours change in place as i is wired and back as it is
unwired.  A group is keyed on (degree, mask[j]).  The choices of a step
depend only on the group sizes and on how many neighbours vertex i still
needs, so they come from a table of per-group count vectors on that key,
filled as the search meets it.  The degree-sum parity, the same at every
node, is checked once.
"""

from functools import lru_cache
from itertools import combinations

from raca.polyhedra import (
    READING_DISJOINT,
    AbstractPolyhedron,
    _andreev,
    _canonical_form,
    _edge_faces,
    _new_map,
)


@lru_cache(maxsize=None)
def count_vectors(sizes, need):
    """Per-group counts of each way to take `need` vertices from groups of
    these sizes, earlier groups giving as many as they can first.

    The table keeps one entry per key the searches meet, and the sizes of a
    key sum to fewer than the vertices: 125 entries after the pruned
    searches of the five candidate pairs, 378 after the (1,14) search as
    well.
    """
    if not sizes:
        return ((),) if need == 0 else ()
    first, rest = sizes[0], sizes[1:]
    room = sum(rest)
    return tuple((t,) + tail
                 for t in range(min(first, need), max(0, need - room) - 1, -1)
                 for tail in count_vectors(rest, need - t))


def peripheral_cycles(adj, limit=None):
    """Induced cycles whose removal leaves the graph connected, each once.

    A cycle is listed from its smallest vertex, with the second vertex
    smaller than the last.  In a 3-connected planar graph these are exactly
    the face boundaries (Tutte, *How to draw a graph*, 1963).  Given a
    `limit`, the walk returns None as soon as it has found more than `limit`
    cycles or a third cycle on one edge.
    """
    n = len(adj)
    nbr = [sum(1 << w for w in adj[v]) for v in range(n)]
    everyone = (1 << n) - 1
    found = []
    on_one = on_two = 0  # edges a*n + b, a < b, on one and on two cycles

    def rest_connected(cycle):
        alive = everyone & ~cycle
        seen = frontier = alive & -alive
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & alive & ~seen
            seen |= frontier
        return alive != 0 and seen == alive

    def keep(cycle):
        """Record one peripheral cycle; False once the limit is broken."""
        nonlocal on_one, on_two
        found.append(cycle)
        if limit is None:
            return True
        if len(found) > limit:
            return False
        for i, a in enumerate(cycle):
            b = cycle[i - 1]
            bit = 1 << (a * n + b if a < b else b * n + a)
            if on_two & bit:
                return False
            if on_one & bit:
                on_two |= bit
            else:
                on_one |= bit
        return True

    # `used` holds the path, `blocked` the neighbours of its interior;
    # returns False to stop the whole walk
    def walk(path, used, blocked):
        start, last = path[0], path[-1]
        for w in adj[last]:
            bit = 1 << w
            if w <= start or (used | blocked) & bit:
                continue
            if nbr[start] & bit:  # closes a chordless cycle
                if path[1] < w and rest_connected(used | bit) \
                        and not keep(tuple(path) + (w,)):
                    return False
            else:
                path.append(w)
                going = walk(path, used | bit, blocked | nbr[last])
                path.pop()
                if not going:
                    return False
        return True

    for s in range(n):
        for v in adj[s]:
            if v > s and not walk([s, v], 1 << s | 1 << v, 0):
                return None
    return found


def leaf_map(adj):
    """Sphere map of the completed graph if it is a sphere type, else None.

    Lemma.  Let G be a simple graph with every degree 3 or 4, with exactly
    F = E - V + 2 peripheral cycles, every edge on exactly two of them, and
    no two of them sharing two edges.  Then these cycles are the faces of a
    sphere embedding of G, and G is 3-connected.

    Proof.  The link of a vertex v in the complex glued from the cycles has
    a node per edge at v and an arc per cycle through v; each node lies on
    two arcs, so the link is a union of cycles, and no two arcs join the
    same two nodes, so each has length at least 3.  With at most 4 nodes
    the link is one cycle, and the complex is a closed surface.  G is
    connected: with every degree at least 3, a cycle of a disconnected
    graph leaves a disconnected rest, and there would be no peripheral
    cycle, while F >= 2.  So the surface is connected with
    V - E + F = 2: a sphere.  If G - v were disconnected, two edges at v
    leading into different components of G - v would be consecutive around
    v, and the face between them would join the components in G - v.  If
    {u, w} separated G, the edges at u would lead into at least two
    components of G - {u, w}, and w can sit between only one pair of
    consecutive ones, so some face runs from a component A through u into
    a component B and, being a cycle, back through w.  That face is
    peripheral, so G minus the face is connected, and A or B, say A, lies
    wholly on the face.  A vertex of A has degree at least 3 and all its
    neighbours in A, u and w, so on the face: a chord, though peripheral
    cycles are induced.  Hence G is 3-connected.

    The converse is Tutte's theorem (*How to draw a graph*, 1963): the
    peripheral cycles of a 3-connected planar graph are its faces, each
    edge lies on two of them, and two faces share at most one edge.  So a
    leaf is a sphere type exactly when the three checks pass, and the map
    is built from the cycles by `polyhedra._new_map` without `_sphere_map`.
    The walk stops early on a count above F or an edge on a third cycle;
    either fails a check.  Two cycles sharing two edges show as a dual with
    fewer than 2E entries.  That check matters only where two cycles share
    both edges at a degree-4 vertex, whose link is then two 2-cycles;
    otherwise the proof goes through without it, and faces of a 3-connected
    plane graph share at most one edge.  No graph tried so far reaches it.
    The map keeps the degrees, not `adj`, which `leaves` goes on changing.
    """
    n = len(adj)
    degrees = [len(nbrs) for nbrs in adj]
    if not set(degrees) <= {3, 4}:
        return None
    e = sum(degrees) // 2
    f = e - n + 2
    cycles = peripheral_cycles(adj, f)
    # no edge is on a third cycle, so the lengths sum to 2E exactly when
    # every edge is on two
    if cycles is None or len(cycles) != f or sum(map(len, cycles)) != 2 * e:
        return None
    m = _new_map(AbstractPolyhedron(n, cycles), degrees, _edge_faces(cycles))
    return m if sum(map(len, m.dual)) == 2 * e else None


def certify(adj):
    """Certificate of the completed graph if it is a sphere type that passes
    Andreev's conditions under some reading of condition 3, else None.

    The conditions read only the face lattice, which the leaf's map shares
    with the map rebuilt from its certificate, so testing them first drops
    no realizable type, and only leaves that pass pay for `_canonical_form`
    (in the candidate region, 5 of the 354 sphere-type leaves of the
    unpruned search, and 5 of 5 once `closes_bad_face` prunes it).
    `distinct_edges` tests every face triple that `disjoint_endpoints`
    tests, so a leaf that passes under either reading passes under
    `disjoint_endpoints`, the one reading tried here.
    """
    m = leaf_map(adj)
    if m is None or not _andreev(m, READING_DISJOINT).passed:
        return None
    return _canonical_form(m)


def closes_bad_face(degrees, adj, i):
    """True when vertex i, just wired, lies on a triangle with at most one
    degree-4 vertex or on a 4-cycle of four degree-3 vertices.

    Such a cycle is a face that fails the face lemma in every completion
    that `leaf_map` accepts, so `certify` gives None for each of them.
    The degrees are the target ones and a completion only adds edges, so
    the cycle and its degrees are in every completion G.  If G is a sphere
    type it is 3-connected.  Call deg - 2 the spare edge ends of a cycle
    vertex.  A component of G minus the cycle that reached at most two of
    its vertices would be cut off by them, so each component takes at
    least 3 spare ends: a separating triangle needs 6, and a separating
    chordless 4-cycle more than 4.  A triangle with at most one degree-4
    vertex has at most 4, so G minus it is connected: it is peripheral, a
    face by Tutte.  A 4-cycle abcd of degree-3 vertices has 4: without a
    chord it is a face in the same way.  With a chord ac, a and c have no
    other neighbours and b and d one each, so either bd is an edge and G is
    K4, whose triangles have no degree-4 vertex, or {b, d} cuts {a, c} off
    and G is not 3-connected.  So G has a face that fails
    `polyhedra._lemma_rem`, and then `_andreev` fails under both readings
    (the derivation is in `_lemma_rem`).  Every edge wired at step i ends
    at i, so only cycles through i are new.
    """
    nbrs = adj[i]
    for a in nbrs:
        for b in adj[a] & nbrs:
            if (degrees[i] == 4) + (degrees[a] == 4) + (degrees[b] == 4) <= 1:
                return True
    if degrees[i] == 3:
        for a, b in combinations(nbrs, 2):
            if degrees[a] == degrees[b] == 3:
                for c in adj[a] & adj[b]:
                    if c != i and degrees[c] == 3:
                        return True
    return False


def leaves(degrees, reverse, prune=None):
    """Each completed graph with these degrees, as its list of neighbour sets.

    Given a `prune`, a partial graph with `prune(degrees, adj, i)` true
    after vertex i is wired is not extended.  With no `prune` the search
    completes every graph, as the published counts and references need.
    A choice is kept only while every later vertex can still reach its
    degree among the vertices after i.  The search keeps `rem` and `mask`
    (see the module docstring) next to `adj`; a wired vertex's own entries are not read
    again, so wiring vertex i updates those of its new neighbours, and
    unwiring restores them.  The choices of step i are the count vectors of
    `count_vectors` for its group sizes and rem[i], walked backwards when
    `reverse` is set.  Every leaf yields the same live list, which the
    search changes again when the next leaf is asked for: a caller that
    keeps a graph copies it.
    """
    n = len(degrees)
    adj = [set() for _ in degrees]
    rem = list(degrees)
    mask = [0] * n

    def wire(i):
        if i == n:
            yield adj
            return
        groups = {}
        for j in range(i + 1, n):
            if rem[j] > 0:
                groups.setdefault((degrees[j], mask[j]), []).append(j)
        groups = list(groups.values())
        # rem[i] is never negative: a group holds a vertex only below its
        # degree, and one step adds at most one edge to it
        vectors = count_vectors(tuple(map(len, groups)), rem[i])
        if reverse:
            vectors = reversed(vectors)
        bound, nbrs, bit = n - i - 2, adj[i], 1 << i
        for counts in vectors:
            combo = [j for group, t in zip(groups, counts) for j in group[:t]]
            for j in combo:
                nbrs.add(j)
                adj[j].add(i)
                rem[j] -= 1
                mask[j] |= bit
            for j in range(i + 1, n):
                if rem[j] > bound:
                    break
            else:
                if not (prune and prune(degrees, adj, i)):
                    yield from wire(i + 1)
            for j in combo:
                nbrs.remove(j)
                adj[j].remove(i)
                rem[j] += 1
                mask[j] ^= bit

    # each edge takes one from two degrees, so with an odd sum no choice
    # anywhere completes a graph
    if sum(degrees) % 2 == 0:
        yield from wire(0)


def primal_types(vi, vf, reverse=False):
    """Sorted certificates of the types with vi degree-4 and vf degree-3
    vertices that pass Andreev's conditions under some reading, from the
    search pruned by `closes_bad_face`."""
    degrees = (4,) * vi + (3,) * vf
    return sorted(set(filter(None, map(certify, leaves(degrees, reverse, closes_bad_face)))))
