"""Census over candidate (ideal, finite) vertex counts and the minimality theorem."""

import ast
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import dual_census
import primal_census

from raca import catalog, census, polyhedra
from raca.census import (
    CandidatePair,
    candidate_pairs,
    enumerate_types,
    verify_minimality,
)
from raca.errors import DomainError, PolyhedronError, ResourceLimitError
from raca.lobachevsky import catalan_constant
from raca.polyhedra import (
    READING_DISJOINT,
    READING_DISTINCT,
    AbstractPolyhedron,
    DualGraph,
    LemmaResult,
    _andreev,
    _canonical_form,
    _connected,
    _face_statistics,
    _lemma_rem,
    _map_from_certificate,
    _oriented_faces,
    _rotation_system,
    _sphere_map,
    andreev_check,
    canonical_form,
    dual_graph,
    face_statistics,
    lemma_rem_check,
    polyhedron_from_certificate,
    validate,
)
from raca.volumes import VolumeReport, antiprism_volume

G = catalan_constant().value


def _leaf_certificate(adj):
    """The ungated leaf certificate: any sphere type, realizable or not."""
    m = primal_census.leaf_map(adj)
    return None if m is None else _canonical_form(m)


def _sphere_type_certificates(vi, vf):
    """Every sphere type of the pair, sorted: the primal search with the
    ungated certificate."""
    degrees = (4,) * vi + (3,) * vf
    return sorted(set(filter(None, map(_leaf_certificate, primal_census.leaves(degrees, False)))))


def test_candidate_pairs_exact():
    pairs = candidate_pairs()
    assert [(p.v_inf, p.v_f) for p in pairs] == [
        (2, 4), (2, 6), (2, 8), (3, 2), (3, 4)]
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("vi,vf", [
    (2, 2),   # too few vertices in total
    (4, 2),   # edge budget exceeded
    (2, 3),   # odd finite count breaks handshake parity
    (1, 6),   # fewer than two ideal vertices
    (3, 6),   # edge budget exceeded
    (2, 4.0), # non-integer
    (True, 6),
])
def test_candidate_pair_rejections(vi, vf):
    with pytest.raises(DomainError):
        CandidatePair(vi, vf)


def test_realizable_counts():
    expected = {(2, 4): 0, (2, 6): 0, (2, 8): 1, (3, 2): 1, (3, 4): 1}
    for pair in candidate_pairs():
        record = enumerate_types(pair)
        assert len(record.realizable_types) == expected[(pair.v_inf, pair.v_f)]


def test_survivors_match_reference_polyhedra():
    matches = {(2, 8): catalog.p28, (3, 2): catalog.p32, (3, 4): catalog.p34}
    for (vi, vf), builder in matches.items():
        record = enumerate_types(CandidatePair(vi, vf))
        assert record.realizable_types == (canonical_form(builder()),)


def test_census_polyhedra_satisfy_invariants():
    for pair in candidate_pairs():
        record = enumerate_types(pair)
        assert len(record.polyhedra) == len(record.realizable_types)
        for p, cert in zip(record.polyhedra, record.realizable_types):
            assert canonical_form(p) == cert
            profile = validate(p)
            assert (profile.v_inf, profile.v_f) == (pair.v_inf, pair.v_f)
            stats = face_statistics(p)
            assert stats.w == 4 * profile.v_inf + 3 * profile.v_f
            assert stats.wi == 4 * profile.v_inf
            assert profile.f == pair.v_inf + pair.v_f // 2 + 2
            assert lemma_rem_check(p).passed
            assert polyhedron_from_certificate(cert) == p


def test_p32_ideal_vertices_form_triangle():
    record = enumerate_types(CandidatePair(3, 2))
    p = record.polyhedra[0]
    quartic = [v for v in range(p.vertex_count)
               if sum(v in face for face in p.faces) == 4]
    assert len(quartic) == 3
    edges = {frozenset(e) for face in p.faces
             for e in zip(face, face[1:] + face[:1])}
    a, b, c = quartic
    assert {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= edges


def test_volumes_attached_to_realizable_pairs():
    vols = {}
    for pair in candidate_pairs():
        record = enumerate_types(pair)
        if not record.realizable_types:
            assert record.volume is None
            continue
        assert record.volume is not None
        assert 0 < record.volume.abs_error_bound < 1e-9
        vols[(pair.v_inf, pair.v_f)] = record.volume.value
    assert vols[(3, 2)] == pytest.approx(G, abs=1e-12)
    assert vols[(2, 8)] == pytest.approx(2 * G, abs=1e-12)
    assert vols[(3, 4)] == pytest.approx(antiprism_volume(4).value / 4, abs=1e-12)
    assert vols[(3, 2)] < vols[(3, 4)] < vols[(2, 8)]


def test_enumerate_accepts_plain_tuple():
    assert enumerate_types((3, 2)).realizable_types == \
        enumerate_types(CandidatePair(3, 2)).realizable_types


def test_enumeration_is_deterministic(monkeypatch):
    for pair in [(3, 2), (2, 6), (3, 4)]:
        base = enumerate_types(pair)
        assert enumerate_types(pair, reverse_branching=True).realizable_types \
            == base.realizable_types
        assert enumerate_types(pair, workers=2).realizable_types \
            == base.realizable_types
        monkeypatch.setenv("RACA_THREADS", "3")
        assert enumerate_types(pair, workers=3).realizable_types \
            == base.realizable_types
        monkeypatch.delenv("RACA_THREADS")


def test_worker_argument_validation(monkeypatch):
    with pytest.raises(DomainError):
        enumerate_types((3, 2), workers=0)
    monkeypatch.setenv("RACA_THREADS", "many")
    with pytest.raises(DomainError):
        enumerate_types((3, 2))


def test_reading_flag_threads_through():
    record = enumerate_types((3, 2), condition3_reading=READING_DISTINCT)
    assert record.condition3_reading == READING_DISTINCT
    assert record.realizable_types == ()
    with pytest.raises(DomainError):
        enumerate_types((3, 2), condition3_reading="sloppy")


def test_record_serialization():
    import json
    record = enumerate_types((3, 2))
    blob = json.dumps(record.to_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["count"] == 1
    assert data["volume"]["value"] == pytest.approx(G, abs=1e-12)
    assert data["pair"] == {"v_ideal": 3, "v_finite": 2}


def test_verify_minimality():
    report = verify_minimality()
    assert report.verified
    assert report.failures == ()
    assert report.minimal_volume == pytest.approx(G, abs=1e-9)
    assert report.witness == canonical_form(catalog.p32())
    assert report.uniqueness
    entries = {e["case"]: e for e in report.branch_log}
    assert entries["all vertices ideal"]["lower_bound"] > report.minimal_volume
    assert entries["no ideal vertices"]["lower_bound"] > report.minimal_volume
    assert entries["one ideal vertex"]["lower_bound"] > report.minimal_volume
    assert entries["one ideal vertex"]["lower_bound"] == pytest.approx(
        14 * G / 8, abs=1e-12)
    census_entries = [e for e in report.branch_log if e["case"].startswith("census")]
    assert len(census_entries) == 5


def test_verify_minimality_rejects_bad_input_before_any_work(monkeypatch):
    # an input error raises, as in enumerate_types, and is no failed theorem
    census._andreev_types.cache_clear()
    monkeypatch.setattr(census, "_dual_certificates", None)  # the census must not run
    with pytest.raises(DomainError, match="unknown condition3 reading 'bogus'"):
        verify_minimality(condition3_reading="bogus")
    with pytest.raises(DomainError, match="workers must be a positive integer"):
        verify_minimality(workers=0)
    monkeypatch.setenv("RACA_THREADS", "many")
    with pytest.raises(DomainError, match="RACA_THREADS must be an integer, got 'many'"):
        verify_minimality()


def test_verify_minimality_strict_reading_fails_honestly():
    report = verify_minimality(condition3_reading=READING_DISTINCT)
    assert not report.verified
    assert report.failures
    assert report.condition3_reading == READING_DISTINCT


def test_distinct_edges_reading_passes_no_polyhedron():
    # two consecutive edges of a face F_j meet at a vertex that both faces
    # across them contain, so a polyhedron past conditions 4 and 1 fails 3
    shapes = [make() for make in catalog.NAMED.values()]
    shapes += [catalog.lobell(n) for n in range(5, 9)]
    types = [polyhedron_from_certificate(cert) for pair in candidate_pairs()
             for cert in _sphere_type_certificates(pair.v_inf, pair.v_f)]
    conditions = []
    for p in shapes + types:
        default = andreev_check(p)
        strict = andreev_check(p, condition3_reading=READING_DISTINCT)
        assert not strict.passed
        assert strict.condition == (3 if default.passed else default.condition)
        conditions.append(strict.condition)
    assert Counter(conditions[len(shapes):]) == {4: 65, 3: 15}  # the 80 census types


def test_report_serialization():
    import json
    report = verify_minimality()
    data = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert data["verified"] is True
    assert math.isclose(data["minimal_volume"], G, abs_tol=1e-9)


def _networkx_certify(adj):
    """The former leaf check: connectivity, planarity and faces from networkx."""
    nx = pytest.importorskip("networkx")
    n = len(adj)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((v, w) for v in range(n) for w in adj[v] if v < w)
    if not nx.is_connected(graph):
        return None
    planar, embedding = nx.check_planarity(graph)
    if not planar:
        return None
    seen = set()
    faces = []
    for dart in embedding.edges():
        if dart not in seen:
            faces.append(tuple(embedding.traverse_face(*dart, mark_half_edges=seen)))
    try:
        m = _sphere_map(AbstractPolyhedron(n, faces))
    except PolyhedronError:
        return None
    return _canonical_form(m)


@pytest.mark.parametrize("reverse", [False, True])
def test_certify_matches_networkx_on_every_leaf(reverse):
    outcomes = []
    for pair in candidate_pairs():
        for adj in primal_census.leaves((4,) * pair.v_inf + (3,) * pair.v_f, reverse):
            got = _leaf_certificate(adj)
            outcomes.append(got is not None)
            assert got == _networkx_certify(adj), [sorted(a) for a in adj]
    # the leaf and certificate counts of the funnel, summed over the pairs
    assert (len(outcomes), sum(outcomes)) == (1433, 354)


def test_certify_rejects_graphs_that_are_not_polyhedral():
    def adjacency(n, edges):
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    two_k4 = [(a + s, b + s) for s in (0, 4) for a in range(4) for b in range(a + 1, 4)]
    # two copies of K4 minus an edge, joined by two edges: planar, 2-connected
    dumbbell = [e for e in two_k4 if e not in ((0, 1), (4, 5))] + [(0, 4), (1, 5)]
    # cubic, 3-connected and nonplanar: 22 peripheral cycles against E - V + 2 = 7
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] \
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    sizes = Counter(map(len, primal_census.peripheral_cycles(
        dict(enumerate(adjacency(10, petersen))))))
    assert sizes == {5: 12, 6: 10}
    # planar and 3-connected, but the hub has degree 5
    wheel = [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]
    for n, edges in [(6, k33), (8, two_k4), (8, dumbbell), (10, petersen), (6, wheel)]:
        adj = adjacency(n, edges)
        assert primal_census.leaf_map(adj) is None
        assert primal_census.certify(adj) is None
        assert _networkx_certify(adj) is None
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    adj = adjacency(6, prism)
    assert _leaf_certificate(adj) == canonical_form(catalog.triangular_prism())
    assert primal_census.certify(adj) is None  # a sphere type, but five faces fail condition 1


def test_certify_rejects_faces_that_miss_an_edge(monkeypatch):
    # the cube's faces form a valid sphere map but miss a long diagonal
    cube = catalog.cube()
    adj = [set() for _ in range(cube.vertex_count)]
    for face in cube.faces:
        for a, b in zip(face, face[1:] + face[:1]):
            adj[a].add(b)
            adj[b].add(a)
    assert _leaf_certificate(adj) == canonical_form(cube)
    adj[0].add(6)  # vertex 6 is opposite vertex 0
    adj[6].add(0)
    monkeypatch.setattr(primal_census, "peripheral_cycles",
                        lambda graph, limit=None: list(cube.faces))
    assert primal_census.leaf_map(adj) is None


def _count_vectors(sizes, need):
    """The former prefix-choice helpers, kept as the reference order."""
    vectors = []
    tail = [0] * (len(sizes) + 1)
    for g in range(len(sizes) - 1, -1, -1):
        tail[g] = tail[g + 1] + sizes[g]

    def rec(g, left, acc):
        if g == len(sizes):
            if left == 0:
                vectors.append(tuple(acc))
            return
        hi = min(sizes[g], left)
        lo = max(0, left - tail[g + 1])
        for t in range(hi, lo - 1, -1):
            acc.append(t)
            rec(g + 1, left - t, acc)
            acc.pop()

    rec(0, need, [])
    return vectors


def _canonical_combos(groups, need, reverse):
    sizes = [len(g) for g in groups]
    if sum(sizes) < need:
        return []
    combos = []
    for counts in _count_vectors(sizes, need):
        combo = []
        for group, t in zip(groups, counts):
            combo.extend(group[:t])
        combos.append(tuple(combo))
    if reverse:
        combos.reverse()
    return combos


def test_prefix_choices_keep_the_reference_order():
    # the table `primal_census.leaves` walks, forwards and, when `reverse` is set,
    # backwards, gives the reference choices in both orders
    rng = random.Random(20240607)
    for _ in range(2000):
        labels = rng.sample(range(40), 12)
        groups = []
        for _ in range(rng.randint(0, 5)):
            size = rng.randint(1, 4)
            if size > len(labels):
                break
            groups.append(labels[:size])
            labels = labels[size:]
        sizes = [len(group) for group in groups]
        for need in range(6):
            vectors = primal_census.count_vectors(tuple(sizes), need)
            assert list(vectors) == _count_vectors(sizes, need), (sizes, need)
            combos = [tuple(j for group, t in zip(groups, counts) for j in group[:t])
                      for counts in vectors]
            assert combos == _canonical_combos(groups, need, False), (groups, need)
            assert combos[::-1] == _canonical_combos(groups, need, True), (groups, need)


def _reference_feasible(degrees, adj, i):
    n = len(degrees)
    total = 0
    for j in range(i + 1, n):
        rem = degrees[j] - len(adj[j])
        if rem > n - i - 2:
            return False
        total += rem
    return total % 2 == 0


def _reference_extend(degrees, adj, i, reverse, visit, prune=None):
    """A backtracker that recomputes its groups and feasibility at every
    node, and calls `visit` on each completed graph: the reference for the
    search tree of `primal_census.leaves`."""
    n = len(degrees)
    if i == n:
        visit(adj)
        return
    groups = {}
    for j in range(i + 1, n):
        if len(adj[j]) < degrees[j]:
            groups.setdefault((degrees[j], tuple(sorted(adj[j]))), []).append(j)
    need = degrees[i] - len(adj[i])
    for combo in _canonical_combos(list(groups.values()), need, reverse):
        for j in combo:
            adj[i].add(j)
            adj[j].add(i)
        if _reference_feasible(degrees, adj, i) and not (prune and prune(degrees, adj, i)):
            _reference_extend(degrees, adj, i + 1, reverse, visit, prune)
        for j in combo:
            adj[i].remove(j)
            adj[j].remove(i)


_LEAF_CASES = [
    *[pytest.param((4,) * vi + (3,) * vf, primal_census.closes_bad_face, id=f"pruned-{vi}-{vf}")
      for vi, vf in [(2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (4, 2), (3, 6)]],
    *[pytest.param((3,) * n, None, id=f"cubic-{n}") for n in (4, 6, 8, 10, 12)],
    *[pytest.param((4,) * n, None, id=f"quartic-{n}") for n in (6, 7, 8, 9, 10)],
    pytest.param((4, 4) + (3,) * 7, primal_census.closes_bad_face, id="pruned-2-7-odd"),
]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("degrees,prune", _LEAF_CASES)
def test_extend_visits_the_reference_leaves_in_order(degrees, prune, reverse):
    # the incremental state must not change the search tree: the same
    # adjacency at every leaf and at every node `prune` sees, in the same
    # order, as the reference search
    def snapshot(adj):
        return [sorted(nbrs) for nbrs in adj]

    def recording(seen):
        def recorded(degrees, adj, i):
            seen.append((i, snapshot(adj)))
            return prune(degrees, adj, i)
        return recorded if prune else None

    got, expected, yielded = [], [], []
    for adj in primal_census.leaves(degrees, reverse, recording(got)):
        got.append(("leaf", snapshot(adj)))
        yielded.append(adj)
    _reference_extend(degrees, [set() for _ in degrees], 0, reverse,
                      lambda adj: expected.append(("leaf", snapshot(adj))), recording(expected))
    assert got == expected
    # an odd degree sum completes no graph, and is cut off before any node
    assert bool(yielded) == (sum(degrees) % 2 == 0)
    # every leaf is the one live list, which holds only empty sets once the
    # search is exhausted
    assert all(adj is yielded[0] for adj in yielded)
    assert yielded[:1] in ([], [[set() for _ in degrees]])


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("degree,counts", [
    (3, {4: 1, 6: 1, 8: 2, 10: 5, 12: 14}),   # cubic polyhedral graphs, OEIS A000109
    (4, {6: 1, 7: 0, 8: 1, 9: 1, 10: 3}),     # 4-regular polyhedral graphs, OEIS A007022
], ids=["cubic", "quartic"])
def test_backtracker_reproduces_published_counts(degree, counts, reverse):
    # CandidatePair rightly rejects these sequences, so the backtracker is
    # called directly: an independent check on its symmetry pruning
    for n, expected in counts.items():
        certs = set(filter(None, map(_leaf_certificate,
                                     primal_census.leaves((degree,) * n, reverse))))
        assert len(certs) == expected, n


def test_dual_generator_reproduces_the_triangulation_counts():
    # OEIS A000109 counts the classes; Tutte's rooted count (OEIS A000260)
    # checks the dedup, since every class T is rooted in 4E/|Aut T| ways
    counts, masses = [], []
    for n in range(4, 11):
        found = dual_census.triangulations(n)
        counts.append(len(found))
        masses.append(sum(Fraction(4 * (3 * n - 6), dual_census.automorphisms(rot))
                          for rot in found))
        assert masses[-1] == dual_census.tutte(n), n
    assert counts == [1, 1, 2, 5, 14, 50, 233]
    assert masses == [1, 3, 13, 68, 399, 2530, 16965]


def test_splits_make_every_split_of_every_vertex_once():
    # lemma (a) of tests/dual_census.py needs every split: a split of v is
    # fixed by the two neighbours a, b that v and the new vertex u come to
    # share, and u's row ends with v; the counts above cannot see a missing
    # split, since every class has several parents
    for n in range(4, 9):
        for rot in dual_census.triangulations(n):
            made = Counter()
            for child in dual_census.splits(rot):
                for v, row in enumerate(child):
                    assert len(set(row)) == len(row) >= 3
                    for a, b in zip(row, row[1:] + row[:1]):
                        # the triangle vab reads abv around a
                        assert child[a][(child[a].index(b) + 1) % len(child[a])] == v
                u = n
                v = child[u][-1]
                made[v, frozenset(child[u]) & frozenset(child[v])] += 1
            assert made == Counter({(v, frozenset(pair)): 1 for v, row in enumerate(rot)
                                    for pair in combinations(row, 2)})


def _table(n):
    """The census table's entries on n vertices, each as (rows, generators)."""
    head = f"c{n}|"
    return [([tuple(map(int, row.split(","))) for row in code[len(head):].split(";")],
             [tuple(map(int, perm)) for perm in perms])
            for code, *perms in map(str.split, census._TRIANGULATIONS) if code.startswith(head)]


def _is_automorphism(rows, p):
    """True when p maps the rotation of every vertex onto that of its image,
    all in the same sense or all reversed."""
    def same_cycle(a, b):
        return len(a) == len(b) and any(a == b[k:] + b[:k] for k in range(len(b)))

    return any(all(same_cycle(list(rows[p[v]])[::sense], [p[w] for w in row])
                   for v, row in enumerate(rows)) for sense in (1, -1))


def _group_order(n, generators):
    group = {tuple(range(n))}
    frontier = list(group)
    for g in frontier:
        for p in generators:
            h = tuple(p[x] for x in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    return len(group)


def test_triangulation_table_matches_the_generator():
    # entry by entry and in order: the least code of each class the
    # generator makes, and generators of its whole automorphism group
    assert all(entry.startswith(tuple(f"c{n}|" for n in range(4, 10)))
               for entry in census._TRIANGULATIONS)
    counts, masses = [], []
    for n in range(4, 10):
        table = _table(n)
        expected = dual_census.triangulations(n)
        assert [tuple(rows) for rows, _ in table] == \
            [dual_census.canonical_code(rot) for rot in expected], n
        orders = []
        for (rows, generators), rot in zip(table, expected):
            assert all(_is_automorphism(rows, p) for p in generators), rows
            orders.append(_group_order(n, generators))
            assert orders[-1] == dual_census.automorphisms(rot), rows
        counts.append(len(table))
        masses.append(sum(Fraction(4 * (3 * n - 6), order) for order in orders))
        assert masses[-1] == dual_census.tutte(n), n
    assert counts == [1, 1, 2, 5, 14, 50]
    assert len(census._TRIANGULATIONS) == 73


_TIER1_PAIRS = [(2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (4, 2), (3, 6), (2, 10)]


@pytest.mark.parametrize("vi,vf", _TIER1_PAIRS)
def test_dual_census_finds_the_same_andreev_types(vi, vf):
    # an independent route: triangulations on F vertices minus V_inf edges
    dual = dual_census.dual_types(vi, vf)
    for reverse in (False, True):
        assert dual == [cert for cert, _ in census._andreev_types(vi, vf, reverse)], reverse


@pytest.mark.parametrize("vi,vf", _TIER1_PAIRS)
def test_primal_backtracker_finds_the_same_andreev_types(vi, vf):
    # the primal reference, a search over graphs with these degrees
    for reverse in (False, True):
        assert primal_census.primal_types(vi, vf, reverse) == \
            [cert for cert, _ in census._andreev_types(vi, vf, reverse)], reverse


def _imports(module):
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return imported


def test_dual_census_shares_no_code_with_the_census():
    imported = _imports(dual_census)
    assert not {name for name in imported if name.startswith("raca.census")}
    assert imported >= {"raca.polyhedra._sphere_map", "raca.polyhedra._andreev"}


def test_primal_census_shares_no_code_with_the_census():
    imported = _imports(primal_census)
    assert not {name for name in imported if name.startswith("raca.census")}
    assert imported >= {"raca.polyhedra._new_map", "raca.polyhedra._andreev"}


def test_both_readings_share_one_backtrack(monkeypatch):
    census._andreev_types.cache_clear()
    calls = Counter()
    for name in ("_dual_certificates", "_primal_map"):
        monkeypatch.setattr(census, name, _counted(getattr(census, name), calls, name))
    assert verify_minimality().verified
    assert not verify_minimality(condition3_reading=READING_DISTINCT).verified
    # one search per candidate pair for both readings, and one map per
    # realizable type: (2,4) and (2,6) stop on their negative slack
    assert calls == {"_dual_certificates": 5, "_primal_map": 3}


class _CountedList(list):
    """A list that counts the items written into it."""

    writes = 0

    def __setitem__(self, i, value):
        _CountedList.writes += 1
        super().__setitem__(i, value)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("vi,vf,expected", [
    (2, 4, {}),
    (2, 6, {}),
    (2, 8, {"tables": 2, "nodes": 6, "cuts": 2, "maps": 1, "certificates": 1}),
    (3, 2, {"tables": 2, "nodes": 57, "cuts": 10, "maps": 1, "certificates": 1}),
    (3, 4, {"tables": 4, "nodes": 92, "cuts": 15, "maps": 1, "certificates": 1}),
    (4, 2, {"tables": 5, "nodes": 355, "cuts": 35, "maps": 1, "certificates": 1}),
    (3, 6, {"tables": 9, "nodes": 240, "cuts": 24, "maps": 1, "certificates": 1}),
    (2, 10, {"tables": 3, "nodes": 21, "cuts": 10, "maps": 2, "certificates": 2}),
    (1, 12, {}),
    (0, 14, {}),
])
def test_dual_engine_work_counts(monkeypatch, vi, vf, expected, reverse):
    # what each prune leaves: the triangulations past the charge test, the
    # nodes and cuts of their searches, and the maps past the diagonal rule
    # and the orbits, each of which passes Andreev's conditions here
    calls = Counter()
    cuts = census._cuts

    def counted_cuts(charge, *args):
        _CountedList.writes = 0
        for cut in cuts(_CountedList(charge), *args):
            calls["cuts"] += 1
            yield cut
        calls["nodes"] += _CountedList.writes // 4  # two raised charges, two restored

    monkeypatch.setattr(census, "_cuts", counted_cuts)
    for name, key in [("_admissible_edges", "tables"), ("_primal_map", "maps"),
                      ("_canonical_form", "certificates")]:
        monkeypatch.setattr(census, name, _counted(getattr(census, name), calls, key))
    census._dual_certificates(vi, vf, reverse)
    assert calls == expected


def _is_the_validated_map(m):
    """True when `_sphere_map` accepts the faces of m and builds m again."""
    full = _sphere_map(AbstractPolyhedron(m.poly.vertex_count, m.poly.faces))
    return (m.degrees, m.dual, m.profile) == (full.degrees, full.dual, full.profile)


def test_every_cut_gives_a_polyhedron():
    # the polyhedrality lemma: every cut of every triangulation on up to 8
    # vertices, with no prune, gives the map `_sphere_map` validates
    maps = 0
    for n in range(4, 9):
        for rows, _ in _table(n):
            edges = census._admissible_edges(rows)
            for k in range(n):
                for cut in census._cuts([0] * n, 0, edges, k, math.inf):
                    m = census._primal_map(rows, cut)
                    assert _is_the_validated_map(m), (rows, cut)
                    assert (m.profile.v_inf, m.profile.f) == (k, n)
                    maps += 1
    assert maps == 3065


@pytest.mark.parametrize("reverse", [False, True])
def test_dual_engine_maps_match_the_validated_map(monkeypatch, reverse):
    # the engine's own candidates, built with `_new_map`, on the tier-1 pairs
    built = []
    primal_map = census._primal_map

    def recorded(rows, cut):
        built.append(primal_map(rows, cut))
        return built[-1]

    monkeypatch.setattr(census, "_primal_map", recorded)
    for vi, vf in _TIER1_PAIRS + [(1, 12), (0, 14)]:
        census._dual_certificates(vi, vf, reverse)
    assert all(map(_is_the_validated_map, built))
    assert len(built) == 7


def test_census_table_stops_at_nine_vertices():
    with pytest.raises(ResourceLimitError, match=r"\(2,12\) needs 10"):
        census._dual_certificates(2, 12, False)


@pytest.mark.parametrize("reverse", [False, True])
def test_face_prune_drops_no_realizable_type(reverse):
    found = {}
    for pair in candidate_pairs():
        degrees = (4,) * pair.v_inf + (3,) * pair.v_f
        full = set(filter(None, map(primal_census.certify,
                                    primal_census.leaves(degrees, reverse))))
        pruned = set(filter(None, map(primal_census.certify, primal_census.leaves(
            degrees, reverse, primal_census.closes_bad_face))))
        assert pruned == full, (pair, reverse)
        found[pair.v_inf, pair.v_f] = len(full)
    assert found == {(2, 4): 0, (2, 6): 0, (2, 8): 1, (3, 2): 1, (3, 4): 1}


def test_andreev_implies_the_face_lemma_on_every_sphere_type():
    # the prune rests on this: a type failing `_lemma_rem` fails `_andreev`
    verdicts = Counter()
    for pair in candidate_pairs():
        for cert in _sphere_type_certificates(pair.v_inf, pair.v_f):
            m = _map_from_certificate(cert)
            andreev = any(_andreev(m, reading).passed
                          for reading in (READING_DISJOINT, READING_DISTINCT))
            lemma = _lemma_rem(m).passed
            assert lemma or not andreev, cert
            verdicts[andreev, lemma] += 1
    assert verdicts == {(False, False): 77, (True, True): 3}


def test_face_charges_sum_to_the_euler_count_on_every_sphere_type():
    # the identity of the `_lemma_rem` docstring: the terms |f| - 5 + I_f sum
    # to 3 V_inf + V_f/2 - 10, and the lemma holds iff no term is negative
    verdicts = Counter()
    for pair in candidate_pairs():
        vi, vf = pair.v_inf, pair.v_f
        for cert in _sphere_type_certificates(vi, vf):
            m = _map_from_certificate(cert)
            terms = [len(face) - 5 + sum(1 for v in face if m.degrees[v] == 4)
                     for face in m.poly.faces]
            assert sum(terms) == 3 * vi + vf // 2 - 10, cert
            lemma = _lemma_rem(m).passed
            assert lemma == (min(terms) >= 0), cert
            if lemma:
                assert max(len(face) for face in m.poly.faces) <= 3 * vi + vf // 2 - 5
            verdicts[(vi, vf), lemma] += 1
    # (2, 4) and (2, 6) sum below 0, so each of their types fails the lemma
    assert sum(verdicts.values()) == 80
    assert not verdicts[(2, 4), True] and not verdicts[(2, 6), True]
    assert verdicts[(2, 4), False] and verdicts[(2, 6), False]


def test_compact_pairs_below_the_euler_count_have_no_andreev_type():
    # with no degree-4 vertex the charge sum V_f/2 - 10 is negative up to
    # V_f = 18, which the census reads off; the primal search confirms it
    # to V_f = 14
    for vf in range(4, 15, 2):
        assert census._andreev_types(0, vf, False) == (), vf
        assert primal_census.primal_types(0, vf) == [], vf


@pytest.mark.parametrize("reverse", [False, True])
def test_one_ideal_vertex_pairs_have_no_andreev_type(reverse):
    # the one-ideal branch below G without Nonaka's bound: (4 + V_finite - 8)G/8
    # exceeds G only from V_finite = 14 on
    for vf in range(2, 13, 2):
        assert census._andreev_types(1, vf, reverse) == (), vf
        assert primal_census.primal_types(1, vf, reverse) == [], vf
    # not for want of graphs: the unpruned search has sphere types there, none
    # of which passes Andreev's conditions
    for vf, types in [(2, 0), (4, 1), (6, 2), (8, 8)]:
        assert len(_sphere_type_certificates(1, vf)) == types
        assert not any(map(primal_census.certify,
                           primal_census.leaves((4,) + (3,) * vf, reverse))), vf


def test_every_sphere_type_round_trips_with_the_census_invariants():
    types = 0
    for pair in candidate_pairs():
        vi, vf = pair.v_inf, pair.v_f
        for cert in _sphere_type_certificates(vi, vf):
            m = _map_from_certificate(cert)
            stats = _face_statistics(m)
            assert (m.profile.v_inf, m.profile.v_f) == (vi, vf)
            assert m.profile.f == vi + vf // 2 + 2
            assert (stats.w, stats.wi) == (4 * vi + 3 * vf, 4 * vi)
            types += 1
    assert types == 80


@pytest.mark.parametrize("reverse", [False, True])
def test_leaf_andreev_matches_the_round_trip(reverse):
    # the primal gate reads the leaf's own map, the census verdict the rebuilt one
    rebuilt = {}
    leaves = []
    for pair in candidate_pairs():
        for adj in primal_census.leaves((4,) * pair.v_inf + (3,) * pair.v_f, reverse):
            m = primal_census.leaf_map(adj)
            if m is None:
                continue
            cert = _canonical_form(m)
            if cert not in rebuilt:
                rebuilt[cert] = _map_from_certificate(cert)
            passed = [_andreev(m, reading).passed
                      for reading in (READING_DISJOINT, READING_DISTINCT)]
            assert passed == [_andreev(rebuilt[cert], reading).passed
                              for reading in (READING_DISJOINT, READING_DISTINCT)]
            assert primal_census.certify(adj) == (cert if any(passed) else None)
            leaves.append(any(passed))
    assert (len(leaves), len(rebuilt)) == (354, 80)
    assert 0 < sum(leaves) < len(leaves)


@pytest.mark.parametrize("reverse", [False, True])
def test_leaf_map_matches_the_validated_map(reverse):
    # one builder behind both entry points: the lemma's counts and validate
    leaves = []
    for pair in candidate_pairs():
        for adj in primal_census.leaves((4,) * pair.v_inf + (3,) * pair.v_f, reverse):
            m = primal_census.leaf_map(adj)
            if m is None:
                continue
            full = _sphere_map(AbstractPolyhedron(len(adj), m.poly.faces))
            assert (m.degrees, m.dual, m.profile) == (full.degrees, full.dual, full.profile)
            assert m.degrees == tuple(len(nbrs) for nbrs in adj)
            leaves.append(m)
    assert len(leaves) == 354


def test_dual_graph_matches_the_edge_face_table():
    for make in catalog.NAMED.values():
        p = make()
        edge_faces = {}
        for fi, face in enumerate(p.faces):
            for a, b in zip(face, face[1:] + face[:1]):
                edge_faces.setdefault((min(a, b), max(a, b)), []).append(fi)
        expected = sorted((i, j, edge) for edge, (i, j) in edge_faces.items())
        assert dual_graph(p) == DualGraph(face_count=len(p.faces), edges=tuple(expected))


def _counted(function, calls, key):
    def counted(*args):
        calls[key] += 1
        return function(*args)
    return counted


def test_census_canonicalizes_only_leaves_that_pass_andreev(monkeypatch):
    census._andreev_types.cache_clear()
    calls = Counter()
    for module, name, key in [(census, "_primal_map", "maps"),
                              (census, "_andreev", "Andreev checks"),
                              (census, "_canonical_form", "certificates"),
                              (census, "_map_from_certificate", "round trips"),
                              (polyhedra, "_canonical_form", "other certificates"),
                              (polyhedra, "_sphere_map", "_sphere_map")]:
        monkeypatch.setattr(module, name, _counted(getattr(module, name), calls, key))
    assert verify_minimality().verified
    # 3 other certificates, the round trips': the closed-form names are
    # literals; 3 maps, one per type, each built with `_new_map`; and 3
    # more Andreev checks, one per rebuilt type under the reading
    assert calls == {"maps": 3, "Andreev checks": 6, "certificates": 3,
                     "round trips": 3, "other certificates": 3, "_sphere_map": 3}


def test_closed_form_names_are_the_catalog_certificates():
    assert census._closed_form_names() == {
        canonical_form(catalog.p32()): "P32",
        canonical_form(catalog.p28()): "P28",
        canonical_form(catalog.p34()): "P34",
    }


@pytest.mark.parametrize("name,stub,failure", [
    ("v_oct", catalan_constant, "ideal branch: octahedron volume does not exceed G"),
    ("lobell_volume", lambda n: catalan_constant(),
     "compact branch: Lobell(5) volume does not exceed G"),
    ("mixed_lower_bound", lambda vi, vf: G, "one-ideal branch: 14G/8 bound does not exceed G"),
], ids=["ideal", "compact", "one-ideal"])
def test_verify_minimality_fails_a_branch_bound_equal_to_g(monkeypatch, name, stub, failure):
    monkeypatch.setattr(census, name, stub)
    report = verify_minimality()
    assert report.verified is False
    assert report.failures == (failure,)


P32, P28, P34 = (canonical_form(make()) for make in (catalog.p32, catalog.p28, catalog.p34))


@pytest.mark.parametrize("prices,failure", [
    ({P32: G, P28: 2 * G, P34: G + 1e-6}, None),  # a near tie is still unique
    ({P32: G, P28: 2 * G, P34: G}, "minimal volume attained by more than one type"),
    ({P32: G + 1e-6, P28: 2 * G, P34: 2 * G},
     f"minimal volume {G + 1e-6!r} does not match Catalan's constant"),
    ({P32: 2 * G, P28: G, P34: 2 * G}, "minimal type is not the triangular bipyramid"),
], ids=["near-tie", "tie", "not-g", "witness"])
def test_verify_minimality_checks_the_minimum(monkeypatch, prices, failure):
    def priced(cert, pair):
        return VolumeReport(value=prices[cert], formula="stub", abs_error_bound=0.0), True

    monkeypatch.setattr(census, "_type_volume", priced)
    report = verify_minimality()
    assert report.failures == (() if failure is None else (failure,))
    assert report.verified is (failure is None)
    assert report.uniqueness is (failure != "minimal volume attained by more than one type")


def test_verify_minimality_fails_a_type_without_a_closed_form(monkeypatch):
    type_volume = census._type_volume
    monkeypatch.setattr(census, "_type_volume",
                        lambda cert, pair: (type_volume(cert, pair)[0], False))
    report = verify_minimality()
    assert report.verified is False
    assert report.failures == tuple(
        f"census ({vi},{vf}): type without a closed form, only bounded below by {value:.6f}"
        for vi, vf, value in [(2, 8, 2 * G), (3, 2, G), (3, 4, antiprism_volume(4).value / 4)])


def test_verify_minimality_fails_the_census_face_lemma(monkeypatch):
    monkeypatch.setattr(census, "_lemma_rem", lambda m: LemmaResult(False, m.poly.faces[0], 0))
    report = verify_minimality()
    assert report.verified is False
    assert report.failures == (
        f"census (2,8) failed: census invariant violated: "
        f"realizable type fails the face lemma: {P28}",
        f"census (3,2) failed: census invariant violated: "
        f"realizable type fails the face lemma: {P32}",
        f"census (3,4) failed: census invariant violated: "
        f"realizable type fails the face lemma: {P34}",
        "census produced no realizable types at all")
    assert math.isnan(report.minimal_volume)
    assert report.to_dict()["minimal_volume"] is None


def _reference_bfs_code(n, rotation, start):
    """The full BFS code from one starting dart, with no early cut-off."""
    labels = {start[0]: 0, start[1]: 1}
    order = [start[0], start[1]]
    entry = {start[0]: start, start[1]: (start[1], start[0])}
    rows = []
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
        rows.append(tuple(row))
    assert len(order) == n
    return tuple(rows)


def _reference_search(m):
    """The former full search: (minimum code, number of flags attaining it).

    A flag is a starting dart with a sense of rotation; the flags whose code
    is the minimum are the images of one flag under the map's automorphisms.
    """
    n = m.poly.vertex_count
    rotation = _rotation_system(_oriented_faces(m))
    inverse = {v: k for k, v in rotation.items()}
    codes = [_reference_bfs_code(n, rot, start)
             for rot in (rotation, inverse) for start in sorted(rotation)]
    best = min(codes)
    return best, codes.count(best)


def _reference_canonical_form(m):
    best, _ = _reference_search(m)
    payload = ";".join(",".join(str(x) for x in row) for row in best)
    return f"c{m.poly.vertex_count}|{payload}"


def _reference_peripheral_cycles(adj):
    """The former set-based peripheral cycle walk, kept as the reference."""
    n = len(adj)
    cycles = []

    def walk(path):
        start, last = path[0], path[-1]
        for w in adj[last]:
            if w <= start or w in path or any(w in adj[v] for v in path[1:-1]):
                continue
            if w in adj[start]:
                if path[1] < w:
                    cycles.append(tuple(path) + (w,))
            else:
                path.append(w)
                walk(path)
                path.pop()

    for s in range(n):
        for v in adj[s]:
            if v > s:
                walk([s, v])
    return [c for c in cycles if _connected(adj, range(n), removed=frozenset(c))]


def _reference_certify(adj):
    """The former leaf check: sphere map first, then the every-edge test."""
    graph = dict(enumerate(adj))
    try:
        m = _sphere_map(AbstractPolyhedron(len(adj), _reference_peripheral_cycles(graph)))
    except PolyhedronError:
        return None
    if 2 * m.profile.e != sum(len(nbrs) for nbrs in adj):
        return None  # some edge lies on no face
    return _reference_canonical_form(m)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("degrees", [
    *[(4,) * p.v_inf + (3,) * p.v_f for p in candidate_pairs()],
    *[(3,) * n for n in (4, 6, 8, 10, 12)],
    *[(4,) * n for n in (6, 7, 8, 9, 10)],
], ids=lambda d: f"{d.count(4)}-{d.count(3)}")
def test_leaf_check_matches_the_references(degrees, reverse):
    leaves = 0
    for adj in primal_census.leaves(degrees, reverse):
        graph = dict(enumerate(adj))
        assert primal_census.peripheral_cycles(graph) == _reference_peripheral_cycles(graph)
        assert _leaf_certificate(adj) == _reference_certify(adj), [sorted(a) for a in adj]
        leaves += 1
    assert leaves


def _mirrored(p, seed):
    """A random relabeling, mirrored on odd seeds, with faces rotated and shuffled."""
    rng = random.Random(seed)
    perm = list(range(p.vertex_count))
    rng.shuffle(perm)
    faces = []
    for face in p.faces:
        g = tuple(perm[v] for v in (reversed(face) if seed % 2 else face))
        r = rng.randrange(len(g))
        faces.append(g[r:] + g[:r])
    rng.shuffle(faces)
    return AbstractPolyhedron(p.vertex_count, faces)


def test_canonical_form_matches_the_full_search():
    polys = [build() for build in catalog.NAMED.values()]
    polys += [catalog.lobell(n) for n in range(5, 33)]
    polys += [catalog.antiprism(n) for n in range(3, 40)]
    for p in polys:
        m = _sphere_map(p)
        assert _canonical_form(m) == _reference_canonical_form(m), p
    rng = random.Random(20261018)
    for p in polys:
        if p.vertex_count > 24:
            continue
        cert = canonical_form(p)
        for seed in rng.sample(range(1000), 4):
            m = _sphere_map(_mirrored(p, seed))
            assert _canonical_form(m) == _reference_canonical_form(m) == cert


def _labelled_polyhedral_graphs(degrees):
    """Graphs on 0..n-1 with these degrees that `primal_census.leaf_map` accepts, each once.

    Vertex i takes every set of higher neighbours with room left: no
    symmetry pruning and no dedup, unlike `primal_census.leaves`.
    """
    n = len(degrees)
    adj = [set() for _ in degrees]
    count = 0

    def rec(i):
        nonlocal count
        if i == n:
            count += primal_census.leaf_map(adj) is not None
            return
        room = [j for j in range(i + 1, n) if len(adj[j]) < degrees[j]]
        for combo in combinations(room, degrees[i] - len(adj[i])):
            for j in combo:
                adj[i].add(j)
                adj[j].add(i)
            rec(i + 1)
            for j in combo:
                adj[i].remove(j)
                adj[j].remove(i)

    rec(0)
    return count


@pytest.mark.parametrize("vi,vf,labelled", [
    (3, 2, 1), (2, 4, 24), (3, 4, 336), (2, 6, 7920)])
def test_census_types_satisfy_the_mass_formula(vi, vf, labelled):
    # By Whitney a polyhedral graph has one sphere embedding up to
    # reflection, so each type T is hit by vi! vf! / |Aut(T)| labellings
    # with the degree-4 vertices first
    relabelings = math.factorial(vi) * math.factorial(vf)
    mass = 0
    for cert in _sphere_type_certificates(vi, vf):
        _, automorphisms = _reference_search(_map_from_certificate(cert))
        assert relabelings % automorphisms == 0
        mass += relabelings // automorphisms
    assert mass == _labelled_polyhedral_graphs((4,) * vi + (3,) * vf) == labelled
