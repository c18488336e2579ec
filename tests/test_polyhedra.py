"""Combinatorial polyhedra: validation, circuits, realizability, certificates."""

import json
import math
import random
from itertools import combinations, permutations

import pytest

from raca import catalog, polyhedra
from raca.errors import DomainError, PolyhedronError, ResourceLimitError
from raca.polyhedra import (
    READING_DISJOINT,
    READING_DISTINCT,
    AbstractPolyhedron,
    andreev_check,
    canonical_form,
    dual_graph,
    face_statistics,
    is_isomorphic,
    lemma_rem_check,
    load_polyhedron,
    polyhedron_from_certificate,
    prismatic_circuits,
    validate,
)


def _relabeled(p, seed):
    """Random relabeling with face rotation, reversal and face shuffling."""
    rng = random.Random(seed)
    perm = list(range(p.vertex_count))
    rng.shuffle(perm)
    faces = []
    for face in p.faces:
        g = tuple(perm[v] for v in face)
        r = rng.randrange(len(g))
        g = g[r:] + g[:r]
        if rng.random() < 0.5:
            g = tuple(reversed(g))
        faces.append(g)
    rng.shuffle(faces)
    return AbstractPolyhedron(p.vertex_count, faces)


def test_profiles_of_catalog_polyhedra():
    cases = {
        "P32": (3, 2, 9, 6),
        "P28": (2, 8, 16, 8),
        "P34": (3, 4, 12, 7),
        "cube": (0, 8, 12, 6),
        "dodecahedron": (0, 20, 30, 12),
        "octahedron": (6, 0, 12, 8),
    }
    for name, (vi, vf, e, f) in cases.items():
        profile = validate(catalog.NAMED[name]())
        assert (profile.v_inf, profile.v_f, profile.e, profile.f) == (vi, vf, e, f), name


def test_face_statistics_pins():
    s32 = face_statistics(catalog.p32())
    assert s32.p == {3: 6} and s32.w == 18 and s32.wi == 12
    s28 = face_statistics(catalog.p28())
    assert s28.p == {4: 8} and s28.w == 32 and s28.wi == 8
    s34 = face_statistics(catalog.p34())
    assert s34.p == {3: 4, 4: 3} and s34.w == 24 and s34.wi == 12


def test_statistics_identities_on_catalog():
    for builder in catalog.NAMED.values():
        p = builder()
        profile = validate(p)
        stats = face_statistics(p)
        assert profile.v_inf + profile.v_f - profile.e + profile.f == 2
        assert stats.w == 4 * profile.v_inf + 3 * profile.v_f
        assert stats.wi == 4 * profile.v_inf
        assert stats.w == 2 * profile.e


@pytest.mark.parametrize("code,vertex_count,faces", [
    ("bad_index", 4, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 9)]),
    ("bad_index", 4, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, -1)]),
    ("bad_face", 4, [(0, 1), (0, 3, 1), (1, 3, 2), (2, 3, 0)]),
    ("bad_face", 5, [(0, 1, 2, 1), (0, 3, 1), (1, 3, 2), (2, 3, 0)]),
    ("edge_face_count", 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    ("multi_adjacent_faces", 4, [(0, 1, 2, 3), (1, 0, 3, 2)]),
    ("disconnected", 8, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0),
                         (4, 5, 6), (4, 7, 5), (5, 7, 6), (6, 7, 4)]),
    ("not_3_connected", 7, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0),
                            (0, 4, 5), (0, 6, 4), (4, 6, 5), (5, 6, 0)]),
    ("multi_adjacent_faces", 3, [(0, 1, 2), (2, 1, 0)]),
    ("bad_degree", 7, [(0, 1, 5), (1, 0, 6), (1, 2, 5), (2, 1, 6), (2, 3, 5),
                       (3, 2, 6), (3, 4, 5), (4, 3, 6), (4, 0, 5), (0, 4, 6)]),
    ("euler", 9, [(0, 1, 4, 3), (1, 2, 5, 4), (2, 0, 3, 5),
                  (3, 4, 7, 6), (4, 5, 8, 7), (5, 3, 6, 8),
                  (6, 7, 1, 0), (7, 8, 2, 1), (8, 6, 0, 2)]),
])
def test_validation_error_codes(code, vertex_count, faces):
    with pytest.raises(PolyhedronError) as exc:
        validate(AbstractPolyhedron(vertex_count, faces))
    assert exc.value.code == code
    # andreev_check validates first, so condition 2 is reported as bad_degree
    with pytest.raises(PolyhedronError) as exc:
        andreev_check(AbstractPolyhedron(vertex_count, faces))
    assert exc.value.code == code


def test_vertex_count_beyond_the_faces_is_disconnected():
    # rejected from the faces alone: nothing of size vertex_count is built
    tet = catalog.tetrahedron()
    with pytest.raises(PolyhedronError) as exc:
        validate(AbstractPolyhedron(10**12, tet.faces))
    assert exc.value.code == "disconnected"


def test_vertex_cap_stops_large_polyhedra():
    # 3-connectivity costs one search per vertex pair, so size is capped
    assert validate(catalog.lobell(32)).v_f == 128
    with pytest.raises(ResourceLimitError):
        validate(catalog.lobell(33))


def test_each_public_function_builds_the_map_once(monkeypatch):
    builds = []
    build = polyhedra._sphere_map

    def counted(p):
        builds.append(p)
        return build(p)

    monkeypatch.setattr(polyhedra, "_sphere_map", counted)
    p = catalog.p34()
    cert = canonical_form(catalog.p34())
    calls = {
        "validate": lambda: validate(p),
        "face_statistics": lambda: face_statistics(p),
        "dual_graph": lambda: dual_graph(p),
        "prismatic_circuits_3": lambda: prismatic_circuits(p, 3),
        "prismatic_circuits_4": lambda: prismatic_circuits(p, 4),
        "andreev_check": lambda: andreev_check(p),
        "andreev_check_distinct": lambda: andreev_check(p, READING_DISTINCT),
        "lemma_rem_check": lambda: lemma_rem_check(p),
        "canonical_form": lambda: canonical_form(p),
        "polyhedron_from_certificate": lambda: polyhedron_from_certificate(cert),
    }
    for name, call in calls.items():
        builds.clear()
        call()
        assert len(builds) == 1, name


def test_load_polyhedron_sources(tmp_path):
    data = catalog.p32().to_dict()
    from_dict = load_polyhedron(data)
    from_json = load_polyhedron(json.dumps(data))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    from_file = load_polyhedron(str(path))
    assert from_dict == from_json == from_file == catalog.p32()
    with pytest.raises(DomainError):
        load_polyhedron({"faces": [[0, 1, 2]]})
    with pytest.raises(DomainError):
        load_polyhedron({"vertex_count": "abc", "faces": [[0, 1, 2]]})
    with pytest.raises(DomainError):
        load_polyhedron({"vertex_count": math.inf, "faces": [[0, 1, 2]]})
    for bad in (5.9, 32.0, "32", True, None):
        with pytest.raises(DomainError, match="vertex_count must be an integer"):
            load_polyhedron({**data, "vertex_count": bad})


def test_prismatic_circuits():
    prism = catalog.triangular_prism()
    assert prismatic_circuits(prism, 3) == [(2, 3, 4)]
    assert prismatic_circuits(prism, 4) == []

    cube = catalog.cube()
    assert prismatic_circuits(cube, 3) == []
    assert len(prismatic_circuits(cube, 4)) == 3

    assert prismatic_circuits(catalog.p32(), 3) == []
    assert prismatic_circuits(catalog.p32(), 4) == []

    with pytest.raises(DomainError):
        prismatic_circuits(cube, 5)


def _prismatic_reference(p, k):
    """Brute force over every k-subset of faces and every cyclic order."""
    dg = dual_graph(p)
    edge_of = {}
    for i, j, primal in dg.edges:
        edge_of[(i, j)] = edge_of[(j, i)] = primal
    nbrs = [set(dg.neighbors(i)) for i in range(dg.face_count)]
    found = []
    for first, *rest in combinations(range(dg.face_count), k):
        if len(nbrs[first].intersection(rest)) < 2:
            continue  # the first face needs two neighbours on the cycle
        for mid in permutations(rest):
            cycle = (first, *mid)
            if cycle[1] > cycle[-1]:
                continue  # each cycle once, up to direction
            pairs = [(cycle[i - 1], cycle[i]) for i in range(k)]
            if all(pr in edge_of for pr in pairs):
                edges = [edge_of[pr] for pr in pairs]
                if all(not set(x) & set(y) for x, y in combinations(edges, 2)):
                    found.append(cycle)
    return sorted(found)


_CIRCUIT_CASES = {
    **{f"lobell{n}": (lambda n=n: catalog.lobell(n)) for n in range(5, 13)},
    **{f"antiprism{n}": (lambda n=n: catalog.antiprism(n)) for n in range(3, 17)},
    "cube": catalog.cube,
    "triangular_prism": catalog.triangular_prism,
    "P28": catalog.p28,
    "P32": catalog.p32,
    "P34": catalog.p34,
}


@pytest.mark.parametrize("name", sorted(_CIRCUIT_CASES))
def test_prismatic_walk_matches_brute_force(name):
    base = _CIRCUIT_CASES[name]()
    for q in [base] + [_relabeled(base, seed) for seed in range(5)]:
        for k in (3, 4):
            assert prismatic_circuits(q, k) == _prismatic_reference(q, k), (name, k)


def test_prismatic_circuit_count_is_isomorphism_invariant():
    for seed in range(5):
        q = _relabeled(catalog.cube(), seed)
        assert len(prismatic_circuits(q, 4)) == 3
        assert len(prismatic_circuits(q, 3)) == 0


def test_andreev_examples():
    assert andreev_check(catalog.dodecahedron()).passed
    assert andreev_check(catalog.p32()).passed
    assert andreev_check(catalog.p28()).passed
    assert andreev_check(catalog.p34()).passed
    assert andreev_check(catalog.octahedron()).passed

    cube = andreev_check(catalog.cube())
    assert not cube.passed and cube.condition == 4
    assert len(cube.witness) == 4

    prism = andreev_check(catalog.triangular_prism())
    assert not prism.passed and prism.condition == 4
    assert len(prism.witness) == 3

    tet = andreev_check(catalog.tetrahedron())
    assert not tet.passed and tet.condition == 1
    assert tet.witness == 4

    # five faces and no prismatic circuit: pins condition 1 at five faces
    pyramid = AbstractPolyhedron(5, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 3, 2, 1)])
    square = andreev_check(pyramid)
    assert not square.passed and square.condition == 1
    assert square.witness == 5


def test_andreev_condition3_reading():
    default = andreev_check(catalog.p32())
    assert default.passed and default.reading == READING_DISJOINT

    strict = andreev_check(catalog.p32(), condition3_reading=READING_DISTINCT)
    assert not strict.passed and strict.condition == 3
    assert len(strict.witness) == 3

    with pytest.raises(DomainError):
        andreev_check(catalog.p32(), condition3_reading="bogus")


def test_lemma_rem_check():
    assert lemma_rem_check(catalog.p32()).passed
    assert lemma_rem_check(catalog.p34()).passed
    assert lemma_rem_check(catalog.octahedron()).passed

    prism = lemma_rem_check(catalog.triangular_prism())
    assert not prism.passed
    assert prism.ideal_count == 0

    cube = lemma_rem_check(catalog.cube())
    assert not cube.passed and len(cube.face) == 4

    # the apex is the one degree-4 vertex: each triangle has exactly one ideal
    # vertex, one short of the lemma, and the triangles come before the base
    pyramid = AbstractPolyhedron(5, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 3, 2, 1)])
    square = lemma_rem_check(pyramid)
    assert not square.passed
    assert len(square.face) == 3 and square.ideal_count == 1


def test_dual_graph():
    dg = dual_graph(catalog.triangular_prism())
    assert dg.face_count == 5
    # dual degree equals primal face size
    assert sorted(len(list(dg.neighbors(i))) for i in range(5)) == [3, 3, 4, 4, 4]
    for i, j, (a, b) in dg.edges:
        assert i < j and a < b


def test_canonical_form_relabeling_invariance():
    for name in ("P32", "P34", "cube", "triangular_prism"):
        p = catalog.NAMED[name]()
        cert = canonical_form(p)
        for seed in range(20):
            assert canonical_form(_relabeled(p, seed)) == cert, (name, seed)


def test_canonical_form_reflection_invariance():
    for name in ("P32", "P28", "P34", "dodecahedron"):
        p = catalog.NAMED[name]()
        mirror = AbstractPolyhedron(
            p.vertex_count, [tuple(reversed(face)) for face in p.faces])
        assert is_isomorphic(p, mirror), name


def test_canonical_form_separates_types():
    certs = {name: canonical_form(builder()) for name, builder in catalog.NAMED.items()
             if name in ("P32", "P28", "P34", "cube", "tetrahedron", "triangular_prism")}
    assert len(set(certs.values())) == len(certs)


def test_known_coincidences():
    assert is_isomorphic(catalog.octahedron(), catalog.antiprism(3))
    assert is_isomorphic(catalog.dodecahedron(), catalog.lobell(5))
    assert is_isomorphic(catalog.p32(), catalog.triangular_bipyramid())
    assert not is_isomorphic(catalog.antiprism(4), catalog.antiprism(5))


def test_certificate_roundtrip():
    for builder in catalog.NAMED.values():
        p = builder()
        cert = canonical_form(p)
        rebuilt = polyhedron_from_certificate(cert)
        assert canonical_form(rebuilt) == cert
        assert validate(rebuilt) == validate(p)


def test_certificate_rejects_malformed_strings():
    good = canonical_form(catalog.p32())
    for bad in ("", "nonsense", "c5|", good.replace("c5", "c6"),
                "c4|1,2,3;0,2,3;0,1,3", "c3|1,2;0,2;0,1"):
        with pytest.raises(DomainError):
            polyhedron_from_certificate(bad)


@pytest.mark.parametrize("bad,message", [
    ("c4|1,1,2;0,2,3;0,1,3;0,1,2", "certificate row for vertex 0 is not a rotation"),
    ("c4|1,2,3;2,3;0,1,3;0,1,2", r"certificate dart \(0,1\) has no reverse"),
    # the P32 certificate with labels 0 and 4 swapped: the same map, not canonical
    ("c5|1,3,2;4,3,0,2;4,1,0,3;4,2,0,1;1,2,3", "string is not a canonical certificate"),
    (None, "malformed certificate None"),
    (123, "malformed certificate 123"),
    (b"c5|1,2,3;0,3,4,2;0,1,4,3;0,2,4,1;1,3,2", "malformed certificate b'c5"),
], ids=["repeated-neighbour", "one-way-dart", "relabelled", "none", "int", "bytes"])
def test_certificate_rejection_names_the_fault(bad, message):
    with pytest.raises(DomainError, match=message):
        polyhedron_from_certificate(bad)


def test_catalog_families_validate():
    for n in range(3, 9):
        profile = validate(catalog.antiprism(n))
        assert (profile.v_inf, profile.v_f) == (2 * n, 0)
    for n in range(5, 9):
        profile = validate(catalog.lobell(n))
        assert (profile.v_inf, profile.v_f) == (0, 4 * n)
    with pytest.raises(DomainError):
        catalog.antiprism(2)
    with pytest.raises(DomainError):
        catalog.lobell(2)
