"""Census of small right-angled combinatorial types and theorem verification.

The census completes, for a candidate vertex count pair (V_ideal, V_finite),
every graph with exactly that many degree-4 and degree-3 vertices, except
those that already hold a triangle or quadrilateral bound to be a face that
fails the face lemma (`_closes_bad_face`).  A completed graph that is a
sphere type is tested against Andreev's realizability conditions on its own
map first, and only the types that pass are given canonical certificates,
rebuilt from them and filtered under the requested reading of condition 3.
On top of the census sits the end-to-end verification that Catalan's
constant is the minimal volume of a right-angled hyperbolic polyhedron,
attained exactly once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import DomainError, RacaError
from .lobachevsky import catalan_constant, v_oct
from .polyhedra import (
    READING_DISJOINT,
    AbstractPolyhedron,
    _andreev,
    _canonical_form,
    _check_reading,
    _edge_faces,
    _face_statistics,
    _lemma_rem,
    _map_from_certificate,
    _new_map,
)
from .volumes import VolumeReport, _report, lobell_volume, mixed_lower_bound, named_volume

# Imported fact (Nonaka): a right-angled hyperbolic polyhedron with exactly
# one ideal vertex has at least 12 faces.  Used as a constant, not re-derived.
MIN_FACES_ONE_IDEAL = 12
MIN_FACES_ONE_IDEAL_SOURCE = (
    "Nonaka: face count of a right-angled polyhedron with one ideal vertex")

# 4*V_ideal + V_finite is at most this when the volume lower bound is at most G.
_VOLUME_BOUND = 16


def _outside_region(vi: int, vf: int):
    """The first inequality of the admissible region that (vi, vf) breaks, or None."""
    if vf % 2 != 0:
        return "V_finite must be even"
    if vi < 2:
        return "V_ideal must be at least 2"
    if vf < 2:
        return "V_finite must be at least 2"
    if 2 * vi + vf < 8:
        return "V_ideal + V_finite/2 must be at least 4"
    if 4 * vi + vf > _VOLUME_BOUND:
        return f"4*V_ideal + V_finite must be at most {_VOLUME_BOUND}"
    return None


@dataclass(frozen=True, order=True)
class CandidatePair:
    """Vertex counts (V_ideal, V_finite) admissible for volume at most G.

    The admissible region is cut out by: V_finite even, V_ideal >= 2,
    V_finite >= 2, V_ideal + V_finite/2 >= 4 (at least six faces), and
    4*V_ideal + V_finite <= _VOLUME_BOUND (volume lower bound at most G).
    """

    v_inf: int
    v_f: int

    def __post_init__(self):
        vi, vf = self.v_inf, self.v_f
        if not isinstance(vi, int) or not isinstance(vf, int) \
                or isinstance(vi, bool) or isinstance(vf, bool):
            raise DomainError("candidate pair: vertex counts must be integers")
        reason = _outside_region(vi, vf)
        if reason is not None:
            raise DomainError(f"candidate pair: {reason}")

    def to_dict(self) -> dict:
        return {"v_ideal": self.v_inf, "v_finite": self.v_f}


@dataclass(frozen=True)
class CensusRecord:
    """The realizable types of one candidate pair under one reading of condition 3."""

    pair: CandidatePair
    realizable_types: tuple      # sorted canonical certificates
    volume: VolumeReport | None  # attached when unique with a closed form
    polyhedra: tuple             # representative per certificate
    condition3_reading: str

    def to_dict(self) -> dict:
        return {
            "pair": self.pair.to_dict(),
            "count": len(self.realizable_types),
            "realizable_types": list(self.realizable_types),
            "volume": None if self.volume is None else {
                "value": self.volume.value,
                "formula": self.volume.formula,
                "error_bound": self.volume.abs_error_bound,
            },
            "condition3_reading": self.condition3_reading,
        }


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the minimal-volume verification, with every failed check."""

    minimal_volume: float
    witness: str | None
    uniqueness: bool
    branch_log: tuple
    verified: bool
    failures: tuple
    condition3_reading: str

    def to_dict(self) -> dict:
        # NaN when no type was priced, which JSON cannot carry
        minimal = None if math.isnan(self.minimal_volume) else self.minimal_volume
        return {
            "minimal_volume": minimal,
            "witness": self.witness,
            "uniqueness": self.uniqueness,
            "verified": self.verified,
            "failures": list(self.failures),
            "condition3_reading": self.condition3_reading,
            "branch_log": [dict(entry) for entry in self.branch_log],
        }


def candidate_pairs() -> list:
    """Integer points of the admissible region, in lexicographic order."""
    return [CandidatePair(vi, vf)
            for vi in range(_VOLUME_BOUND // 4 + 1)
            for vf in range(_VOLUME_BOUND + 1)
            if _outside_region(vi, vf) is None]


# --- degree-sequence backtracker --------------------------------------------
#
# Vertices are wired in index order; step i chooses the full set of neighbors
# of vertex i among higher indices.  Vertices j > i that agree in target
# degree and in adjacency to the already wired prefix are interchangeable, so
# only choices taking a prefix of each such group are explored (any other
# choice is isomorphic to a prefix choice via a group-internal swap).  The
# final certificate dedup makes the output independent of this pruning.
#
# The search keeps its state up to date instead of recomputing it at every
# node: next to the `adj` sets, `rem[j]` holds the degree vertex j still
# lacks and `mask[j]` its neighbours as an int bitmask, and the entries of
# vertex i's new neighbours change in place as i is wired and back as it is
# unwired.  A group is keyed on (degree, mask[j]).  The choices of a step
# depend only on the group sizes and on how many neighbours vertex i still
# needs, so they come from a table of per-group count vectors on that key,
# filled as the search meets it.  The degree-sum parity, the same at every
# node, is checked once.

@lru_cache(maxsize=None)
def _count_vectors(sizes, need):
    """Per-group counts of each way to take `need` vertices from groups of
    these sizes, earlier groups giving as many as they can first.

    The table keeps one entry per key the searches meet, and the sizes of a
    key sum to fewer than the vertices: 125 entries after
    `verify_minimality()`, 378 after the (1,14) search as well.
    """
    if not sizes:
        return ((),) if need == 0 else ()
    first, rest = sizes[0], sizes[1:]
    room = sum(rest)
    return tuple((t,) + tail
                 for t in range(min(first, need), max(0, need - room) - 1, -1)
                 for tail in _count_vectors(rest, need - t))


def _peripheral_cycles(adj, limit=None):
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


def _leaf_map(adj):
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
    The map keeps the degrees, not `adj`, which `_leaves` goes on changing.
    """
    n = len(adj)
    degrees = [len(nbrs) for nbrs in adj]
    if not set(degrees) <= {3, 4}:
        return None
    e = sum(degrees) // 2
    f = e - n + 2
    cycles = _peripheral_cycles(adj, f)
    # no edge is on a third cycle, so the lengths sum to 2E exactly when
    # every edge is on two
    if cycles is None or len(cycles) != f or sum(map(len, cycles)) != 2 * e:
        return None
    m = _new_map(AbstractPolyhedron(n, cycles), degrees, _edge_faces(cycles))
    return m if sum(map(len, m.dual)) == 2 * e else None


def _certify(adj):
    """Certificate of the completed graph if it is a sphere type that passes
    Andreev's conditions under some reading of condition 3, else None.

    The conditions read only the face lattice, which the leaf's map shares
    with the map rebuilt from its certificate, so testing them first drops
    no realizable type, and only leaves that pass pay for `_canonical_form`
    (in the candidate region, 5 of the 354 sphere-type leaves of the
    unpruned search, and 5 of 5 once `_closes_bad_face` prunes it).
    `distinct_edges` tests every face triple that `disjoint_endpoints`
    tests, so a leaf that passes under either reading passes under
    `disjoint_endpoints`, the one reading tried here.
    """
    m = _leaf_map(adj)
    if m is None or not _andreev(m, READING_DISJOINT).passed:
        return None
    return _canonical_form(m)


def _closes_bad_face(degrees, adj, i):
    """True when vertex i, just wired, lies on a triangle with at most one
    degree-4 vertex or on a 4-cycle of four degree-3 vertices.

    Such a cycle is a face that fails the face lemma in every completion
    that `_leaf_map` accepts, so `_certify` gives None for each of them.
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


def _leaves(degrees, reverse, prune=None):
    """Each completed graph with these degrees, as its list of neighbour sets.

    Given a `prune`, a partial graph with `prune(degrees, adj, i)` true
    after vertex i is wired is not extended.  With no `prune` the search
    completes every graph, as the published counts and references need.
    A choice is kept only while every later vertex can still reach its
    degree among the vertices after i.  The search keeps `rem` and `mask`
    (see above) next to `adj`; a wired vertex's own entries are not read
    again, so wiring vertex i updates those of its new neighbours, and
    unwiring restores them.  The choices of step i are the count vectors of
    `_count_vectors` for its group sizes and rem[i], walked backwards when
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
        vectors = _count_vectors(tuple(map(len, groups)), rem[i])
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


def _check_workers(workers):
    """Reject a bad `workers` argument or RACA_THREADS value.

    Both stay accepted, but the census always runs serially: at these sizes
    process startup outweighs any fan-out win.
    """
    if workers is not None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise DomainError("workers must be a positive integer")
    cap_text = os.environ.get("RACA_THREADS", "").strip()
    if cap_text:
        try:
            int(cap_text)
        except ValueError:
            raise DomainError(f"RACA_THREADS must be an integer, got {cap_text!r}")


def _closed_form_names() -> dict:
    """Certificate -> name of each census type with a closed-form volume:
    `canonical_form` of `catalog.p32()`, `p28()` and `p34()`, which
    tests/test_census.py recomputes."""
    return {
        "c5|1,2,3;0,3,4,2;0,1,4,3;0,2,4,1;1,3,2": "P32",
        "c10|1,2,3;0,4,5;0,5,6;0,6,7,4;1,3,8;1,8,9,2;2,9,3;3,9,8;4,7,5;5,7,6": "P28",
        "c7|1,2,3;0,3,4,5;0,5,6;0,6,4,1;1,3,6,5;1,4,2;2,4,3": "P34",
    }


def _type_volume(cert: str, pair: CandidatePair):
    """(VolumeReport, closed_form_known) for one census survivor."""
    name = _closed_form_names().get(cert)
    if name is not None:
        return named_volume(name), True
    k = 4 * pair.v_inf + pair.v_f  # a candidate pair has k > 8
    return _report(catalan_constant(), f"lower bound ({k} - 8)*G/8", (k - 8) / 8.0), False


@lru_cache(maxsize=None)
def _andreev_types(vi, vf, reverse):
    """The degree sequence's sphere types that pass Andreev's conditions
    under some reading, as sorted (certificate, map rebuilt from it).

    Nothing here depends on the reading of condition 3, so both readings
    share one run of the backtracker.  The run is pruned by
    `_closes_bad_face`, which drops only graphs `_certify` rejects: in the
    candidate region 90 leaves reach `_certify`, not 1,433.  The pair is
    not checked against the candidate region.  Each type is rebuilt through
    `_sphere_map` and the certificate round trip, and must satisfy the
    three census invariants.
    """
    degrees = (4,) * vi + (3,) * vf
    certs = set(filter(None, map(_certify, _leaves(degrees, reverse, _closes_bad_face))))

    types = []
    for cert in sorted(certs):
        m = _map_from_certificate(cert)
        profile = m.profile
        stats = _face_statistics(m)
        if (profile.v_inf, profile.v_f) != (vi, vf):
            raise RacaError(f"census invariant violated: degree partition of {cert}")
        if profile.f != vi + vf // 2 + 2:
            raise RacaError(f"census invariant violated: F != V_ideal + V_finite/2 + 2 for {cert}")
        if stats.w != 4 * vi + 3 * vf or stats.wi != 4 * vi:
            raise RacaError(f"census invariant violated: W identity for {cert}")
        types.append((cert, m))
    return tuple(types)


def enumerate_types(pair, *, condition3_reading: str = READING_DISJOINT,
                    reverse_branching: bool = False, workers=None) -> CensusRecord:
    """All realizable combinatorial types for a candidate pair.

    Completes every graph with exactly pair.v_inf degree-4 and pair.v_f
    degree-3 vertices, up to the backtracker's symmetry pruning, and
    certifies (up to isomorphism, reflections included) the sphere types
    that pass Andreev's conditions under some reading.  Each such type is
    tested again under `condition3_reading` on the map rebuilt from its
    certificate; the survivors come back as sorted certificates.  The
    result is independent of branching order.
    """
    if not isinstance(pair, CandidatePair):
        pair = CandidatePair(*pair)
    _check_reading(condition3_reading)
    _check_workers(workers)

    survivors = []
    for cert, m in _andreev_types(pair.v_inf, pair.v_f, bool(reverse_branching)):
        if not _andreev(m, condition3_reading).passed:
            continue
        if not _lemma_rem(m).passed:
            raise RacaError(
                f"census invariant violated: realizable type fails the face lemma: {cert}")
        survivors.append((cert, m.poly))

    volume = None
    if len(survivors) == 1:
        report, known = _type_volume(survivors[0][0], pair)
        if known:
            volume = report
    return CensusRecord(
        pair=pair,
        realizable_types=tuple(cert for cert, _ in survivors),
        volume=volume,
        polyhedra=tuple(poly for _, poly in survivors),
        condition3_reading=condition3_reading,
    )


def verify_minimality(*, condition3_reading: str = READING_DISJOINT,
                      workers=None) -> TheoremReport:
    """Machine verification that G is the minimal volume, attained once.

    Walks the case split: polyhedra that are all-ideal, compact, or have a
    single ideal vertex are bounded below away from G; the remaining shapes
    fall into finitely many vertex-count pairs, each of which is censused
    exhaustively and has its realizable types priced by closed forms.  The
    reading and `workers` (with RACA_THREADS) are checked before any work,
    and a bad one raises DomainError.  Each imported bound is one row of the
    table below, with its log entry and the failure it gives unless it
    exceeds G.  Any inconsistency is reported in `failures`, never silently
    absorbed.
    """
    _check_reading(condition3_reading)
    _check_workers(workers)
    g_val = catalan_constant().value
    vf_min = 2 * (MIN_FACES_ONE_IDEAL - 3)  # F = V_finite/2 + 3 when V_ideal = 1
    bounds = [
        ({"case": "all vertices ideal", "lower_bound": v_oct().value,
          "statement": "volume >= vol(ideal octahedron) = 8*L(pi/4) = 4G"},
         "ideal branch: octahedron volume does not exceed G"),
        ({"case": "no ideal vertices", "lower_bound": lobell_volume(5).value,
          "statement": "volume >= vol(Lobell(5))"},
         "compact branch: Lobell(5) volume does not exceed G"),
        ({"case": "one ideal vertex", "min_faces": MIN_FACES_ONE_IDEAL,
          "min_finite_vertices": vf_min, "lower_bound": mixed_lower_bound(1, vf_min),
          "statement": "volume >= (4*1 + V_finite - 8)*G/8 >= 14G/8",
          "source": MIN_FACES_ONE_IDEAL_SOURCE},
         "one-ideal branch: 14G/8 bound does not exceed G"),
    ]
    log, failures = [], []
    for entry, failure in bounds:
        log.append(entry)
        if not entry["lower_bound"] > g_val:
            failures.append(failure)

    pairs = candidate_pairs()
    log.append({
        "case": "candidate region",
        "pairs": [[p.v_inf, p.v_f] for p in pairs],
    })

    priced = []
    for pair in pairs:
        try:
            record = enumerate_types(
                pair, condition3_reading=condition3_reading, workers=workers)
        except RacaError as exc:
            failures.append(f"census ({pair.v_inf},{pair.v_f}) failed: {exc}")
            continue
        types = []
        for cert in record.realizable_types:
            report, known = _type_volume(cert, pair)
            if not known:
                failures.append(
                    f"census ({pair.v_inf},{pair.v_f}): type without a closed form, "
                    f"only bounded below by {report.value:.6f}")
            types.append({
                "certificate": cert,
                "volume": report.value,
                "formula": report.formula,
                "closed_form": known,
            })
            priced.append((report.value, cert, known))
        log.append({
            "case": f"census ({pair.v_inf},{pair.v_f})",
            "realizable": len(record.realizable_types),
            "types": types,
        })

    if not priced:
        failures.append("census produced no realizable types at all")
        minimal = float("nan")
        witness = None
        unique = False
    else:
        minimal = min(value for value, _, _ in priced)
        attaining = [cert for value, cert, _ in priced if abs(value - minimal) <= 1e-12]
        witness = attaining[0]
        unique = len(attaining) == 1
        if not unique:
            failures.append("minimal volume attained by more than one type")
        if abs(minimal - g_val) > 1e-9:
            failures.append(
                f"minimal volume {minimal!r} does not match Catalan's constant")
        if _closed_form_names().get(witness) != "P32":
            failures.append("minimal type is not the triangular bipyramid")

    return TheoremReport(
        minimal_volume=minimal,
        witness=witness,
        uniqueness=unique,
        branch_log=tuple(log),
        verified=not failures,
        failures=tuple(failures),
        condition3_reading=condition3_reading,
    )
