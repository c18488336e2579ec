"""Combinatorial model of abstract polyhedra and realizability checking.

An abstract polyhedron is a combinatorial 2-sphere presented as faces, each a
cyclic sequence of vertex indices.  This module validates that presentation,
derives counting statistics, builds the dual graph, detects prismatic
k-circuits, evaluates the four realizability conditions for right-angled
hyperbolic polyhedra, and produces canonical isomorphism certificates.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BAD_DEGREE,
    BAD_FACE,
    BAD_INDEX,
    DISCONNECTED,
    EDGE_FACE_COUNT,
    EULER,
    MULTI_ADJACENT_FACES,
    NOT_3_CONNECTED,
    DomainError,
    PolyhedronError,
    ResourceLimitError,
    _as_int,
    _read_json,
)

# the 3-connectivity test below runs one BFS per vertex pair, so its cost
# grows as n**3; the cap keeps one validation well under a second
_VERTEX_CAP = 128


@dataclass(frozen=True)
class AbstractPolyhedron:
    """A combinatorial polyhedron: its vertex count and faces as vertex cycles."""

    vertex_count: int
    faces: tuple

    def __post_init__(self):
        object.__setattr__(self, "faces", tuple(tuple(f) for f in self.faces))

    def to_dict(self) -> dict:
        return {"vertex_count": self.vertex_count, "faces": [list(f) for f in self.faces]}


@dataclass(frozen=True)
class CombinatorialProfile:
    """Vertex, edge and face counts of a validated polyhedron."""

    v_inf: int  # degree-4 (ideal) vertices
    v_f: int    # degree-3 (finite) vertices
    e: int
    f: int


@dataclass(frozen=True)
class FaceStatistics:
    """Face-size distribution of a polyhedron, with its sums W and WI."""

    p: dict          # face size -> count
    w: int           # sum of face sizes
    wi: int          # sum over faces of ideal vertices contained


@dataclass(frozen=True)
class DualGraph:
    """Adjacency of faces: one edge per pair of faces sharing a primal edge."""

    face_count: int
    edges: tuple     # (i, j, primal edge (a, b)) with i < j, a < b

    def neighbors(self, i: int):
        for a, b, _ in self.edges:
            if a == i:
                yield b
            elif b == i:
                yield a


@dataclass(frozen=True)
class AndreevResult:
    """Verdict of Andreev's conditions: the first failed condition and its witness."""

    passed: bool
    condition: int | None
    witness: object
    reading: str


@dataclass(frozen=True)
class LemmaResult:
    """Verdict of the face lemma: the first face failing it and its ideal count."""

    passed: bool
    face: tuple | None
    ideal_count: int | None


def load_polyhedron(source) -> AbstractPolyhedron:
    """Build an AbstractPolyhedron from a dict, JSON string, or file path."""
    if isinstance(source, AbstractPolyhedron):
        return source
    data = _read_json(source, "polyhedron input")
    try:
        vertex_count = _as_int(data["vertex_count"], "polyhedron input: vertex_count")
        faces = data["faces"]
    except KeyError as exc:
        raise DomainError(f"polyhedron input missing field: {exc}") from exc
    try:
        return AbstractPolyhedron(vertex_count, faces)
    except TypeError:  # faces, or one of them, is not a sequence
        raise DomainError(_faces_error(faces)) from None


def _faces_error(faces) -> str:
    """Why AbstractPolyhedron could not read `faces` as a list of faces."""
    if hasattr(faces, "__iter__"):
        for i, face in enumerate(faces):
            if not hasattr(face, "__iter__"):
                return (f"polyhedron input: face {i} must be a list of vertices, "
                        f"got {type(face).__name__}")
    return f"polyhedron input: faces must be a list of faces, got {type(faces).__name__}"


def _face_edges(face):
    n = len(face)
    for i in range(n):
        a, b = face[i], face[(i + 1) % n]
        yield (a, b) if a < b else (b, a)


def _connected(adj: dict, vertices, removed=frozenset()) -> bool:
    alive = [v for v in vertices if v not in removed]
    if not alive:
        return False
    seen = {alive[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj.get(v, ()):
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(alive)


class _SphereMap:
    """A sphere map: a polyhedron with the incidences every check reads.  Only
    `_new_map` builds one, for `_sphere_map` and for `census._primal_map`.
    A plain class with slots: no check compares, hashes or copies a map."""

    __slots__ = ("poly", "degrees", "dual", "profile")

    def __init__(self, poly: AbstractPolyhedron, degrees: tuple, dual: list,
                 profile: CombinatorialProfile):
        self.poly = poly
        self.degrees = degrees  # vertex -> its degree
        self.dual = dual        # face -> {neighbouring face: shared primal edge}
        self.profile = profile


def _edge_faces(faces) -> dict:
    """Primal edge (a, b), a < b -> the faces it lies on, in increasing order."""
    edge_faces = defaultdict(list)
    for fi, face in enumerate(faces):
        for edge in _face_edges(face):
            edge_faces[edge].append(fi)
    return edge_faces


def _new_map(p: AbstractPolyhedron, degrees, edge_faces) -> _SphereMap:
    """The map of faces whose every edge lies on exactly two of them.

    Two faces sharing k edges get one dual entry for all k, so the dual
    holds fewer than 2E entries exactly when some two faces share two edges.
    """
    dual = [{} for _ in p.faces]
    for edge, (fa, fb) in edge_faces.items():
        dual[fa][fb] = dual[fb][fa] = edge
    v_inf = degrees.count(4)
    return _SphereMap(p, tuple(degrees), dual, CombinatorialProfile(
        v_inf=v_inf, v_f=p.vertex_count - v_inf, e=len(edge_faces), f=len(p.faces)))


def _sphere_map(p: AbstractPolyhedron) -> _SphereMap:
    """Run the structural checks of `validate` once and keep what they built."""
    n = p.vertex_count
    for face in p.faces:
        for v in face:
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise PolyhedronError(BAD_INDEX, f"vertex index {v!r} outside [0, {n})")
    for face in p.faces:
        if len(face) < 3 or len(set(face)) != len(face):
            raise PolyhedronError(BAD_FACE, f"face {face} needs >= 3 distinct vertices")

    edge_faces = _edge_faces(p.faces)
    for edge, fs in edge_faces.items():
        if len(fs) != 2:
            raise PolyhedronError(
                EDGE_FACE_COUNT, f"edge {edge} lies in {len(fs)} faces, expected 2")
    for (fa, fb), c in Counter(tuple(fs) for fs in edge_faces.values()).items():
        if c > 1:
            raise PolyhedronError(
                MULTI_ADJACENT_FACES, f"faces {fa} and {fb} share {c} edges")

    adj = defaultdict(set)
    for a, b in edge_faces:
        adj[a].add(b)
        adj[b].add(a)
    # a vertex in no face is isolated: caught before any work of size n
    if (n > 1 and len(adj) < n) or not _connected(adj, range(n)):
        raise PolyhedronError(DISCONNECTED, "1-skeleton is not connected")
    if n > _VERTEX_CAP:
        raise ResourceLimitError(f"validation limited to {_VERTEX_CAP} vertices, got {n}")

    if n < 4:
        raise PolyhedronError(NOT_3_CONNECTED, "fewer than 4 vertices")
    for u, w in combinations(range(n), 2):
        if not _connected(adj, range(n), removed=frozenset((u, w))):
            raise PolyhedronError(
                NOT_3_CONNECTED, f"removing vertices {u},{w} disconnects the 1-skeleton")

    degrees = [len(adj[v]) for v in range(n)]
    for v, degree in enumerate(degrees):
        if degree not in (3, 4):
            raise PolyhedronError(
                BAD_DEGREE, f"vertex {v} has degree {degree}, expected 3 or 4")

    chi = n - len(edge_faces) + len(p.faces)
    if chi != 2:
        raise PolyhedronError(EULER, f"V - E + F = {chi}, expected 2")
    return _new_map(p, degrees, edge_faces)


def validate(p: AbstractPolyhedron) -> CombinatorialProfile:
    """Check all structural invariants; return the vertex/edge/face profile.

    Raises PolyhedronError with a stable code naming the first failed check:
    bad_index, bad_face, edge_face_count, multi_adjacent_faces, disconnected,
    not_3_connected, bad_degree, euler.  A connected 1-skeleton of more than
    128 vertices raises ResourceLimitError instead of a structural verdict.
    """
    return _sphere_map(p).profile


def _face_statistics(m: _SphereMap) -> FaceStatistics:
    faces = m.poly.faces
    sizes = Counter(len(face) for face in faces)
    w = sum(len(face) for face in faces)
    wi = sum(1 for face in faces for v in face if m.degrees[v] == 4)
    return FaceStatistics(p=dict(sizes), w=w, wi=wi)


def face_statistics(p: AbstractPolyhedron) -> FaceStatistics:
    """Face vector p_n plus the weighted counts W and WI."""
    return _face_statistics(_sphere_map(p))


def dual_graph(p: AbstractPolyhedron) -> DualGraph:
    edges = sorted((i, j, edge) for i, around in enumerate(_sphere_map(p).dual)
                   for j, edge in around.items() if i < j)
    return DualGraph(face_count=len(p.faces), edges=tuple(edges))


def _disjoint(e1, e2) -> bool:
    return not (set(e1) & set(e2))


def _prismatic(m: _SphereMap, k: int) -> list:
    # each k-cycle of faces once: smallest face first, then its smaller neighbour
    dual = m.dual
    found = []
    for a, around in enumerate(dual):
        for b in around:
            if b < a:
                continue
            if k == 3:
                cycles = [(a, b, c) for c in dual[b] if c > b and c in around]
            else:
                cycles = [(a, b, c, d) for c in dual[b] if c > a
                          for d in dual[c] if d > b and d in around]
            for cycle in cycles:
                ends = {v for i in range(k) for v in dual[cycle[i - 1]][cycle[i]]}
                if len(ends) == 2 * k:  # the k crossed edges are pairwise disjoint
                    found.append(cycle)
    return sorted(found)


def prismatic_circuits(p: AbstractPolyhedron, k: int) -> list:
    """All prismatic k-circuits of the dual graph, k in {3, 4}.

    A k-circuit is a simple k-cycle of faces; it is prismatic when the k
    primal edges it crosses are pairwise vertex-disjoint.  Circuits are
    returned as tuples of face indices in canonical cyclic order.
    """
    if k not in (3, 4):
        raise DomainError("prismatic_circuits: k must be 3 or 4")
    return _prismatic(_sphere_map(p), k)


READING_DISJOINT = "disjoint_endpoints"
READING_DISTINCT = "distinct_edges"


def _check_reading(reading) -> None:
    """Reject anything but the two readings of condition 3."""
    if reading not in (READING_DISJOINT, READING_DISTINCT):
        raise DomainError(f"unknown condition3 reading {reading!r}")


def _andreev(m: _SphereMap, reading: str) -> AndreevResult:
    for k in (3, 4):
        circuits = _prismatic(m, k)
        if circuits:
            return AndreevResult(False, 4, circuits[0], reading)

    faces = m.poly.faces
    if len(faces) < 6:
        return AndreevResult(False, 1, len(faces), reading)

    face_sets = [set(face) for face in faces]
    for fj, around in enumerate(m.dual):
        for fi, fk in combinations(sorted(around), 2):
            # distinct_edges skips no pair: fi and fk are different neighbours
            # of fj, so their edges with fj differ (no edge lies in three faces)
            if reading == READING_DISJOINT and not _disjoint(around[fi], around[fk]):
                continue
            if face_sets[fi] & face_sets[fk]:
                return AndreevResult(False, 3, (fi, fj, fk), reading)

    return AndreevResult(True, None, None, reading)


def andreev_check(p: AbstractPolyhedron, condition3_reading: str = READING_DISJOINT) -> AndreevResult:
    """Evaluate the four realizability conditions for right-angled polyhedra.

    (1) at least six faces; (2) all vertex degrees 3 or 4; (3) for any face
    triple (F_i, F_j, F_k) whose intersections F_i&F_j and F_j&F_k are edges
    with distinct endpoints, F_i and F_k are disjoint; (4) no prismatic
    k-circuits for k <= 4.

    Condition (2) is enforced by validation: a vertex of another degree
    raises PolyhedronError with code bad_degree before any condition is
    evaluated.  The others are evaluated in the fixed order 4, 1, 3 and the
    first failure is reported.  (A prismatic circuit is the most informative
    witness, and a polyhedron small enough to fail condition 1 cannot carry
    one: a prismatic 3-circuit needs six distinct vertices.)
    `condition3_reading` selects how "edges with distinct endpoints" is
    quantified: "disjoint_endpoints" (default) requires the two edges to
    share no vertex; "distinct_edges" only requires them to differ.  No
    polyhedron passes under "distinct_edges": two consecutive edges of a
    face F_j meet at a vertex that the two faces across them both contain,
    so every polyhedron that passes conditions 4 and 1 fails condition 3.
    """
    _check_reading(condition3_reading)
    return _andreev(_sphere_map(p), condition3_reading)


def _lemma_rem(m: _SphereMap) -> LemmaResult:
    """The face lemma: at least two degree-4 vertices on each triangle and
    at least one on each quadrilateral.

    A map that passes `_andreev` under either reading passes the lemma.
    A triple that `disjoint_endpoints` tests is tested by `distinct_edges`
    too, so it is enough to find a failure under `disjoint_endpoints`.
    The map is a polyhedron, checked by `_sphere_map` or by the
    polyhedrality lemma of `census._dual_certificates`: 3-connected, its
    faces are induced cycles, two faces share at most one edge, and the
    faces at a vertex are distinct.
    Write x' for the third neighbour of a degree-3 vertex x on a face, so
    the two faces at x other than that face share the edge xx'.

    A triangle abc that fails has two degree-3 vertices, say a and b.  Let
    F be the face across ab, and Ga and Gb the faces across ca and cb.  F
    meets Ga in the edge aa' and Gb in bb'.  If a' = b', then {c, a'} cuts
    {a, b} off, or V = 4 and the four faces fail condition 1.  Otherwise
    these two edges of F are disjoint, and condition 3 on (Ga, F, Gb) asks
    Ga and Gb to be disjoint, but both contain c (and Ga != Gb, else c had
    degree 2).

    A quadrilateral abcd that fails has four degree-3 vertices.  Let Fab,
    Fbc, Fcd and Fda be the faces across its edges.  They are distinct, as
    each shares only one edge with abcd, and consecutive ones meet in aa',
    bb', cc' and dd', so they form a 4-circuit of the dual.  If a' = b',
    Fab is the triangle aba' with two degree-3 vertices, which fails as
    above; so consecutive primes differ.  If a' = c', condition 3 on (Fda,
    Fab, Fbc) fails: Fab meets them in the disjoint edges aa' and bb', and
    both contain a'.  Likewise b' != d'.  With a' != c (abcd is induced)
    and so on, the four crossed edges are disjoint, and the circuit is
    prismatic: condition 4 fails.  Condition 4 does not depend on the
    reading.

    The lemma as a face charge.  Let the map have V_inf degree-4 and V_f
    degree-3 vertices, and let I_f count the degree-4 vertices of face f.
    Then

        sum over f of (|f| - 5 + I_f)  =  3 V_inf + V_f / 2 - 10.

    Proof: the face sizes sum to 2E = 4 V_inf + 3 V_f; a degree-4 vertex
    lies on four distinct faces, so the I_f sum to 4 V_inf; and Euler's
    formula gives F = 2 - V + E = 2 + V_inf + V_f / 2.  The term of a
    triangle is I_f - 2, of a quadrilateral I_f - 1, and of a larger face
    at least 0, so the lemma holds exactly when every term is >= 0.  Two
    corollaries for a map that passes the lemma, and so for every map that
    passes Andreev's conditions: 3 V_inf + V_f / 2 >= 10, which rules out
    (2, 4), (2, 6), (1, V_f <= 12) and (0, V_f <= 18); and, since the other
    terms are >= 0, no face has more than 3 V_inf + V_f / 2 - 5 sides.
    """
    for face in m.poly.faces:
        ideal = sum(1 for v in face if m.degrees[v] == 4)
        if len(face) == 3 and ideal < 2:
            return LemmaResult(False, face, ideal)
        if len(face) == 4 and ideal < 1:
            return LemmaResult(False, face, ideal)
    return LemmaResult(True, None, None)


def lemma_rem_check(p: AbstractPolyhedron) -> LemmaResult:
    """Necessary ideal-vertex counts per face: >=2 on triangles, >=1 on quads."""
    return _lemma_rem(_sphere_map(p))


# --- canonical certificates ------------------------------------------------
#
# The faces are first oriented consistently (possible exactly when the
# complex is a sphere, which validate guarantees).  The oriented faces induce
# a rotation system: around each vertex the incident edges form a single
# cycle.  A breadth-first canonical labeling is then computed from every
# starting directed edge in both senses of rotation, and the lexicographic
# minimum serialization is the certificate.  Two polyhedra are isomorphic
# (allowing reflection) iff their certificates are equal.
#
# Row 0 of a code is (1, 2, ..., deg(root)), so the minimum always starts at
# a root of minimum degree and only those roots are tried.  Each code is
# compared row by row with the best one so far and abandoned at the first
# row that is larger; neither shortcut can change the minimum.

def _oriented_faces(m: _SphereMap) -> list:
    faces = m.poly.faces

    def directed_edges(face):
        return {(face[i], face[(i + 1) % len(face)]) for i in range(len(face))}

    oriented = {0: faces[0]}
    queue = deque([0])
    while queue:
        fi = queue.popleft()
        cur = directed_edges(oriented[fi])
        for fj in m.dual[fi]:
            if fj in oriented:
                continue
            cand = faces[fj]
            # the shared edge must be traversed oppositely by the neighbor
            if directed_edges(cand) & cur:
                cand = tuple(reversed(cand))
            oriented[fj] = cand
            queue.append(fj)
    return [oriented[i] for i in range(len(faces))]


def _rotation_system(faces) -> dict:
    # next_around[(v, a)] = (v, b) where some oriented face reads (a, v, b)
    nxt = {}
    for face in faces:
        n = len(face)
        for i in range(n):
            a, v, b = face[i], face[(i + 1) % n], face[(i + 2) % n]
            nxt[(v, b)] = (v, a)
    return nxt


def _canonical_form(m: _SphereMap) -> str:
    n = m.poly.vertex_count
    rotation = _rotation_system(_oriented_faces(m))
    inverse = {v: k for k, v in rotation.items()}
    low = min(m.degrees)
    darts = sorted(d for d in rotation if m.degrees[d[0]] == low)
    best = None
    for rot in (rotation, inverse):  # second pass covers the mirror image
        for start in darts:
            code = _bfs_code(n, rot, start, best)
            if code is not None:
                best = code
    payload = ";".join(",".join(str(x) for x in row) for row in best)
    return f"c{n}|{payload}"


def canonical_form(p: AbstractPolyhedron) -> str:
    """Canonical certificate, invariant under relabeling and reflection."""
    return _canonical_form(_sphere_map(p))


def _bfs_code(n, rotation, start, bound) -> tuple | None:
    """The BFS code from `start`; None if a `bound` is given and it is not below it."""
    labels = {start[0]: 0, start[1]: 1}
    order = [start[0], start[1]]
    entry = {start[0]: start, start[1]: (start[1], start[0])}
    rows = []
    smaller = bound is None
    idx = 0
    while idx < len(order):
        v = order[idx]
        idx += 1
        first = entry[v]
        row = []
        dart = first
        while True:
            w = dart[1]
            if w not in labels:
                labels[w] = len(order)
                order.append(w)
                entry[w] = (w, v)
            row.append(labels[w])
            dart = rotation[dart]
            if dart == first:
                break
        row = tuple(row)
        if not smaller:
            if row > bound[len(rows)]:
                return None
            smaller = row < bound[len(rows)]
        rows.append(row)
    if len(order) != n:  # cannot happen for validated input
        raise PolyhedronError(DISCONNECTED, "rotation system does not cover all vertices")
    return tuple(rows) if smaller else None  # an exact tie is not smaller


def is_isomorphic(p: AbstractPolyhedron, q: AbstractPolyhedron) -> bool:
    return canonical_form(p) == canonical_form(q)


def polyhedron_from_certificate(cert: str) -> AbstractPolyhedron:
    """Rebuild a representative polyhedron from a canonical certificate.

    The certificate rows are the rotation cycles of the canonically labeled
    map, so the face set can be recovered by tracing dart orbits.  The result
    is validated and its own certificate is required to round-trip.
    """
    return _map_from_certificate(cert).poly


def _map_from_certificate(cert: str) -> _SphereMap:
    if not isinstance(cert, str):
        raise DomainError(f"malformed certificate {cert!r}")
    head, sep, payload = cert.partition("|")
    if not sep or not head.startswith("c"):
        raise DomainError(f"malformed certificate {cert!r}")
    try:
        n = int(head[1:])
        rows = [tuple(int(x) for x in row.split(",")) for row in payload.split(";")]
    except ValueError as exc:
        raise DomainError(f"malformed certificate {cert!r}") from exc
    if len(rows) != n:
        raise DomainError(f"certificate row count {len(rows)} != vertex count {n}")

    pos = {}
    for v, row in enumerate(rows):
        for i, w in enumerate(row):
            if not 0 <= w < n or (v, w) in pos:
                raise DomainError(f"certificate row for vertex {v} is not a rotation")
            pos[(v, w)] = i
    for v, w in pos:
        if (w, v) not in pos:
            raise DomainError(f"certificate dart ({v},{w}) has no reverse")

    # Rows list neighbors in forward rotation order, so within a face the
    # dart (u, v) is followed by (v, w) with w one step before u around v.
    faces = []
    seen = set()
    for d0 in sorted(pos):
        if d0 in seen:
            continue
        face = []
        u, v = d0
        while (u, v) not in seen:
            seen.add((u, v))
            face.append(u)
            row = rows[v]
            w = row[(pos[(v, u)] - 1) % len(row)]
            u, v = v, w
        if (u, v) != d0:
            raise DomainError("certificate face walk does not close")
        faces.append(tuple(face))

    try:
        m = _sphere_map(AbstractPolyhedron(n, faces))
    except PolyhedronError as exc:
        raise DomainError(f"certificate does not encode a valid polyhedron: {exc}") from exc
    if _canonical_form(m) != cert:
        raise DomainError("string is not a canonical certificate")
    return m
