"""Exact arithmetic in Z[sqrt2, sqrt3] and the cyclic-product criterion."""

import json
import math
import random
import sys
import time
from collections import Counter
from itertools import combinations

import pytest

from raca import arithmeticity, catalog, cli
from raca.arithmeticity import (
    INF,
    CoxeterMatrix,
    ExactGramMatrix,
    cyclic_products,
    gram_from_coxeter,
    is_arithmetic_noncocompact,
    load_coxeter,
)
from raca.errors import DomainError, ResourceLimitError
from raca.polyhedra import dual_graph
from raca.surd import ONE, SQRT2, SQRT3, SQRT6, ZERO, SurdInteger

D344 = {"size": 4, "m": [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 4], [2, 2, 4, 1]]}
D444 = {"size": 4, "m": [[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 4], [2, 2, 4, 1]]}
TRI463 = {"size": 3, "m": [[1, 4, 3], [4, 1, 6], [3, 6, 1]]}


def _random_surd(rng):
    return SurdInteger(*(rng.randint(-9, 9) for _ in range(4)))


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (_random_surd(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO


def test_quadratic_identities():
    assert SQRT2 * SQRT2 == SurdInteger(2, 0, 0, 0)
    assert SQRT3 * SQRT3 == SurdInteger(3, 0, 0, 0)
    assert SQRT6 * SQRT6 == SurdInteger(6, 0, 0, 0)
    assert SQRT2 * SQRT3 == SQRT6
    assert (SQRT2 + SQRT3) * (SQRT2 - SQRT3) == SurdInteger(-1, 0, 0, 0)
    assert (SQRT2 + SQRT3) ** 2 == SurdInteger(5, 0, 0, 2)
    assert (ONE + SQRT2) ** 4 == SurdInteger(17, 12, 0, 0)


def test_integer_interop_and_predicates():
    x = 3 + 2 * SQRT2
    assert x == SurdInteger(3, 2, 0, 0)
    assert (5 - x) == SurdInteger(2, -2, 0, 0)
    assert not x.is_rational_integer
    assert (x - 2 * SQRT2).is_rational_integer
    assert bool(ZERO) is False and bool(SQRT6) is True
    assert str(SurdInteger(2, -1, 0, 3)) == "2 - sqrt(2) + 3*sqrt(6)"
    assert str(ZERO) == "0"
    assert len({SQRT2, SQRT2, SQRT3}) == 2


def test_construction_rejections():
    with pytest.raises(DomainError):
        SurdInteger(1.5, 0, 0, 0)
    with pytest.raises(DomainError):
        SurdInteger(1, True, 0, 0)
    with pytest.raises(DomainError):
        SQRT2 ** -1
    with pytest.raises(DomainError):
        SQRT2 ** 1.5
    with pytest.raises(DomainError):
        SQRT2 * 0.5


def test_value_matches_float_arithmetic():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(10_000):
        x, y = _random_surd(rng), _random_surd(rng)
        exact = (x * y).value()
        approx = x.value() * y.value()
        if exact:
            worst = max(worst, abs(exact - approx) / abs(exact))
        else:
            assert abs(approx) < 1e-9
    assert worst < 1e-10


def test_gram_entries():
    g = gram_from_coxeter(load_coxeter(D444))
    expected = {
        (0, 0): SurdInteger(2, 0, 0, 0),
        (0, 1): -SQRT2,
        (0, 2): ZERO,
        (1, 2): -SQRT2,
    }
    for (i, j), val in expected.items():
        assert g.entries[i][j] == val
    inf_gram = gram_from_coxeter(CoxeterMatrix(2, [[1, INF], [INF, 1]]))
    assert inf_gram.entries[0][1] == SurdInteger(-2, 0, 0, 0)
    tri = gram_from_coxeter(load_coxeter(TRI463))
    assert tri.entries[0][1] == -SQRT2
    assert tri.entries[1][2] == -SQRT3
    assert tri.entries[0][2] == SurdInteger(-1, 0, 0, 0)


def test_gram_rejects_nonintegral_labels():
    cm = CoxeterMatrix(3, [[1, 5, 2], [5, 1, 3], [2, 3, 1]])
    with pytest.raises(DomainError, match="outside Z"):
        gram_from_coxeter(cm)


def test_cyclic_products():
    tri = gram_from_coxeter(load_coxeter(TRI463))
    prods = cyclic_products(tri, 3)
    assert prods == {SurdInteger(1, 0, 0, 0), SurdInteger(2, 0, 0, 0),
                     SurdInteger(3, 0, 0, 0), -SQRT6}

    diag_only = ExactGramMatrix(3, [[SurdInteger(2, 0, 0, 0) if i == j else ZERO
                                     for j in range(3)] for i in range(3)])
    assert cyclic_products(diag_only, 3) == set()

    with pytest.raises(DomainError):
        cyclic_products(tri, 1)


def test_cyclic_products_relabeling_invariant():
    rng = random.Random(3)
    base = load_coxeter(D344)
    prods = cyclic_products(gram_from_coxeter(base), 4)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        m = [[base.m[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        shuffled = gram_from_coxeter(CoxeterMatrix(4, m))
        assert cyclic_products(shuffled, 4) == prods


def test_matrix_validation():
    with pytest.raises(DomainError):
        CoxeterMatrix(2, [[1, 3]])
    with pytest.raises(DomainError):
        CoxeterMatrix(2, [[2, 3], [3, 1]])
    with pytest.raises(DomainError):
        CoxeterMatrix(2, [[1, 3], [4, 1]])
    with pytest.raises(DomainError):
        CoxeterMatrix(2, [[1, 1], [1, 1]])
    with pytest.raises(DomainError):
        ExactGramMatrix(2, [[SurdInteger(2, 0, 0, 0), ONE], [ZERO, SurdInteger(2, 0, 0, 0)]])
    with pytest.raises(DomainError):
        ExactGramMatrix(2, [[ONE, ZERO], [ZERO, ONE]])
    two = SurdInteger(2)
    with pytest.raises(DomainError, match=r"not symmetric at \(0,1\)"):
        ExactGramMatrix(2, [[two, -SQRT2], [-SQRT3, two]])
    # equal entries need not be one object
    ExactGramMatrix(2, [[two, SurdInteger(0, 1)], [SurdInteger(0, 1), two]])
    with pytest.raises(DomainError, match="Gram matrix must be 2x2"):
        ExactGramMatrix(2, [[two, ZERO], [ZERO]])
    with pytest.raises(DomainError, match=r"Gram entry \(0,1\) is not a SurdInteger"):
        ExactGramMatrix(2, [[two, 0], [0, two]])


@pytest.mark.parametrize("one", [True, 1.0])
def test_matrix_diagonal_is_the_int_1(one):
    # True and 1.0 equal 1; off the diagonal neither is a label, and on it
    # neither is the 1 either
    with pytest.raises(DomainError, match=r"diagonal entry \(0,0\) must be 1"):
        CoxeterMatrix(2, [[one, 3], [3, 1]])
    with pytest.raises(DomainError, match=r"diagonal entry \(1,1\) must be 1"):
        load_coxeter({"size": 2, "m": [[1, 3], [3, one]]})
    with pytest.raises(DomainError, match="must be an integer >= 2 or inf"):
        CoxeterMatrix(2, [[1, one], [one, 1]])


def test_matrix_size_is_an_int_not_a_bool():
    with pytest.raises(DomainError, match="size must be an integer, got True"):
        CoxeterMatrix(True, ((1,),))
    with pytest.raises(DomainError, match="size must be an integer, got 2.0"):
        CoxeterMatrix(2.0, [[1, 3], [3, 1]])
    assert CoxeterMatrix(1, ((1,),)).size == 1
    # nor need the diagonal 2 be the entry gram_from_coxeter shares
    shared = gram_from_coxeter(load_coxeter(TRI463)).entries[0][0]
    assert SurdInteger(2) is not shared
    ExactGramMatrix(2, [[SurdInteger(2), ZERO], [ZERO, shared]])
    with pytest.raises(DomainError, match=r"diagonal entry \(1,1\) must be 2"):
        ExactGramMatrix(2, [[shared, ZERO], [ZERO, SurdInteger(2, 0, 0, 1)]])


def test_load_coxeter_sources(tmp_path):
    from_dict = load_coxeter(TRI463)
    from_json = load_coxeter(json.dumps(TRI463))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(TRI463))
    from_file = load_coxeter(str(path))
    assert from_dict == from_json == from_file

    with_inf = load_coxeter({"size": 2, "m": [[1, "inf"], ["INF", 1]]})
    assert with_inf.m[0][1] == INF
    assert load_coxeter({"size": 2, "m": [[1, math.inf], [math.inf, 1]]}) == with_inf

    with pytest.raises(DomainError):
        load_coxeter({"size": 2, "m": [[1, "seven"], ["seven", 1]]})
    with pytest.raises(DomainError):
        load_coxeter({"m": [[1, 3], [3, 1]]})
    with pytest.raises(DomainError):
        load_coxeter({"size": math.inf, "m": [[1]]})
    with pytest.raises(DomainError):  # JSON text cannot spell the label inf as a number
        load_coxeter('{"size": 2, "m": [[1, 1e400], [1e400, 1]]}')
    for bad in (2.5, 2.0, "2", True, None):
        with pytest.raises(DomainError, match="size must be an integer"):
            load_coxeter({"size": bad, "m": [[1, 3], [3, 1]]})


def test_is_arithmetic_on_reference_diagrams():
    for diagram in (D344, D444):
        res = is_arithmetic_noncocompact(gram_from_coxeter(load_coxeter(diagram)))
        assert res.arithmetic
        assert res.witness_cycle is None
        assert res.cycles_checked > 0

    tri = gram_from_coxeter(load_coxeter(TRI463))
    res = is_arithmetic_noncocompact(tri)
    assert not res.arithmetic
    assert res.witness_cycle == (0, 1, 2)
    assert res.witness_product == -SQRT6
    assert res.max_len == 3

    assert is_arithmetic_noncocompact(tri, max_len=2).arithmetic

    # a Coxeter matrix is taken through its Gram matrix; nothing else is taken
    matrix = load_coxeter(TRI463)
    assert is_arithmetic_noncocompact(matrix) == res
    with pytest.raises(DomainError, match="expected an ExactGramMatrix or CoxeterMatrix"):
        is_arithmetic_noncocompact([list(row) for row in tri.entries])


def _coxeter_from_faces(poly):
    """Coxeter matrix of a right-angled polyhedron whose face pairs all touch.

    Adjacent faces meet at a right angle (label 2), and non-adjacent faces
    that share an ideal vertex are parallel (label inf).  Any other pair is
    ultraparallel, with a label the combinatorics does not fix: refused.
    """
    adjacent = {(i, j) for i, j, _ in dual_graph(poly).edges}
    degree = Counter(v for face in poly.faces for v in face)
    faces = [set(face) for face in poly.faces]
    n = len(faces)
    m = [[1] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if (i, j) in adjacent:
            label = 2
        elif any(degree[v] == 4 for v in faces[i] & faces[j]):
            label = "inf"
        else:
            raise ValueError(f"faces {i} and {j} are ultraparallel")
        m[i][j] = m[j][i] = label
    return load_coxeter({"size": n, "m": m})


def test_minimal_polyhedron_group_is_arithmetic():
    # the paper's claim for P32: its six faces pair up as 9 right angles and
    # 6 parallel pairs, and the group passes Vinberg's criterion
    matrix = _coxeter_from_faces(catalog.p32())
    assert sum(row.count(INF) for row in matrix.m) == 2 * 6
    res = is_arithmetic_noncocompact(gram_from_coxeter(matrix))
    assert res.arithmetic
    assert res.cycles_checked == 7
    for build in (catalog.p28, catalog.p34):
        with pytest.raises(ValueError, match="ultraparallel"):
            _coxeter_from_faces(build())


def test_result_serialization():
    tri = gram_from_coxeter(load_coxeter(TRI463))
    data = json.loads(json.dumps(is_arithmetic_noncocompact(tri).to_dict()))
    assert data["arithmetic"] is False
    assert data["witness_product"] == "-sqrt(6)"
    assert data["witness_cycle"] == [0, 1, 2]


def test_entry_closure_under_products():
    # entries drawn from {0, -1, -sqrt2, -sqrt3, -2}: all pairwise products stay in the ring
    pool = [ZERO, SurdInteger(-1, 0, 0, 0), -SQRT2, -SQRT3, SurdInteger(-2, 0, 0, 0)]
    for x in pool:
        for y in pool:
            p = x * y
            assert isinstance(p, SurdInteger)
            assert math.isclose(p.value(), x.value() * y.value(), abs_tol=1e-12)


# -- square-class check against the full cycle enumeration ---------------------

def _reference_cycles(gram):
    """Every simple cycle of the Gram graph with its product, each once:
    the 2-cycles, then longer cycles from their smallest vertex with the
    second vertex smaller than the last.  No work limit."""
    n, e = gram.size, gram.entries
    nbrs = [[j for j in range(n) if j != i and e[i][j]] for i in range(n)]
    for i in range(n):
        for j in nbrs[i]:
            if j > i:
                yield (i, j), e[i][j] * e[j][i]

    def walk(path, product):
        start, last = path[0], path[-1]
        for nxt in nbrs[last]:
            if nxt == start and len(path) >= 3 and path[1] < path[-1]:
                yield tuple(path), product * e[last][start]
            elif nxt > start and nxt not in path:
                yield from walk(path + [nxt], product * e[last][nxt])

    for start in range(n):
        yield from walk([start], ONE)


def _components(gram):
    parent = list(range(gram.size))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i in range(gram.size):
        for j in range(i + 1, gram.size):
            if gram.entries[i][j]:
                parent[find(i)] = find(j)
    return sum(1 for v in range(gram.size) if find(v) == v)


def _random_diagram(rng, sizes=(2, 8)):
    """Coxeter matrix on 2..8 nodes (or `sizes`) with labels from {2, 3, 4,
    6, inf}: dense, sparse, a tree, or two blocks joined by label 2 only."""
    n = rng.randint(*sizes)
    kind = rng.choice(["dense", "sparse", "tree", "disconnected"])
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]

    def put(i, j, label):
        m[i][j] = m[j][i] = label

    nonzero = [3, 4, 6, INF]
    if kind == "tree":
        for v in range(1, n):
            put(rng.randrange(v), v, rng.choice(nonzero))
    else:
        share2 = {"dense": 0.2, "sparse": 0.6, "disconnected": 0.3}[kind]
        cut = rng.randint(1, n - 1) if kind == "disconnected" else n
        for i in range(n):
            for j in range(i + 1, n):
                if (i < cut) == (j < cut) and rng.random() >= share2:
                    put(i, j, rng.choice(nonzero))
    perm = list(range(n))
    rng.shuffle(perm)
    return CoxeterMatrix(n, [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def _assert_valid_witness(gram, res):
    cycle = res.witness_cycle
    assert len(cycle) >= 3 and len(set(cycle)) == len(cycle)
    assert cycle[0] == min(cycle) and cycle[1] < cycle[-1]
    product = ONE
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert gram.entries[a][b], (cycle, a, b)
        product = product * gram.entries[a][b]
    assert product == res.witness_product
    assert not product.is_rational_integer


def test_square_class_check_matches_enumeration():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(400):
        gram = gram_from_coxeter(_random_diagram(rng))
        n = gram.size
        res = is_arithmetic_noncocompact(gram)
        want = all(p.is_rational_integer for _, p in _reference_cycles(gram))
        assert res.arithmetic == want
        assert res.max_len == max(n, 2)
        edges = sum(1 for i in range(n) for j in range(i + 1, n) if gram.entries[i][j])
        assert res.cycles_checked == 2 * edges - n + _components(gram)
        if want:
            assert res.witness_cycle is None and res.witness_product is None
        else:
            _assert_valid_witness(gram, res)
        seen.add((n, want))

        # the bounded check stays an enumeration: edges plus triangles at length 3
        bounded = is_arithmetic_noncocompact(gram, 3)
        short = [(c, p) for c, p in _reference_cycles(gram) if len(c) <= 3]
        assert bounded.cycles_checked == len(short)
        assert bounded.arithmetic == all(p.is_rational_integer for _, p in short)
        first = next(((c, p) for c, p in short if not p.is_rational_integer), (None, None))
        assert (bounded.witness_cycle, bounded.witness_product) == first
    assert {n for n, _ in seen} == set(range(2, 9))
    assert {want for _, want in seen} == {True, False}


def _complete(n, label=3):
    return CoxeterMatrix(n, [[1 if i == j else label for j in range(n)] for i in range(n)])


def test_square_class_check_is_fast_on_complete_diagrams():
    for n in (30, 40):
        gram = gram_from_coxeter(_complete(n))
        start = time.perf_counter()
        res = is_arithmetic_noncocompact(gram)
        assert time.perf_counter() - start < 1.0
        assert res.arithmetic
        assert res.cycles_checked == n * (n - 1) - n + 1

    m = [list(row) for row in _complete(40).m]
    m[17][33] = m[33][17] = 4
    gram = gram_from_coxeter(CoxeterMatrix(40, m))
    start = time.perf_counter()
    res = is_arithmetic_noncocompact(gram)
    assert time.perf_counter() - start < 1.0
    assert res.witness_cycle == (0, 17, 33) and res.witness_product == -SQRT2
    _assert_valid_witness(gram, res)


def test_cycle_enumeration_has_a_work_limit():
    gram = gram_from_coxeter(_complete(40))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        is_arithmetic_noncocompact(gram, 8)
    with pytest.raises(ResourceLimitError):
        cyclic_products(gram, 8)
    assert time.perf_counter() - start < 10.0


def test_walk_outlasts_the_recursion_limit(capsys, tmp_path):
    """A path diagram longer than Python's recursion limit, walked with
    max_len one below its size: each of its edges is a 2-cycle, and the walk
    from vertex 0 follows the whole path."""
    n = sys.getrecursionlimit() + 100
    path = {"size": n, "m": [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)]
                             for i in range(n)]}
    gram = gram_from_coxeter(load_coxeter(path))
    res = is_arithmetic_noncocompact(gram, n - 1)
    assert (res.arithmetic, res.cycles_checked) == (True, n - 1)
    assert cyclic_products(gram, n - 1) == {ONE}

    diagram = tmp_path / "path.json"
    diagram.write_text(json.dumps(path))
    assert cli.main(["arith", "check", str(diagram), "--max-len", str(n - 1)]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"arithmetic ({n - 1} cyclic products checked)\n") and err == ""


def test_non_monomial_entries_take_the_enumeration():
    two, minus_one = SurdInteger(2), SurdInteger(-1)
    x = ONE + SQRT2
    gram = ExactGramMatrix(4, [[two, x, ZERO, minus_one],
                               [x, two, minus_one, ZERO],
                               [ZERO, minus_one, two, -SQRT2],
                               [minus_one, ZERO, -SQRT2, two]])
    for max_len, checked in ((None, 5), (2, 4), (3, 4), (4, 5), (6, 5)):
        res = is_arithmetic_noncocompact(gram, max_len)
        assert not res.arithmetic
        assert res.witness_cycle == (0, 1)
        assert res.witness_product == SurdInteger(3, 2, 0, 0)
        assert res.cycles_checked == checked == sum(
            1 for c, _ in _reference_cycles(gram) if len(c) <= (max_len or 4))

    tri = ExactGramMatrix(3, [[two, minus_one, -SQRT3],
                              [minus_one, two, SQRT2 + SQRT3],
                              [-SQRT3, SQRT2 + SQRT3, two]])
    res = is_arithmetic_noncocompact(tri)
    assert (res.witness_cycle, res.witness_product, res.cycles_checked) == \
        ((1, 2), SurdInteger(5, 0, 0, 2), 4)
    assert cyclic_products(tri, 3) == {ONE, SurdInteger(3), SurdInteger(3, 0, 0, 1),
                                       SurdInteger(5, 0, 0, 2)}

    # a large non-monomial diagram is enumerated too, and so meets the limit
    big = [list(row) for row in gram_from_coxeter(_complete(14)).entries]
    big[0][1] = big[1][0] = x
    with pytest.raises(ResourceLimitError):
        is_arithmetic_noncocompact(ExactGramMatrix(14, big))


# -- the max_len 3 loop and the stack walk against the recursive walk ----------

def _walk(gram, max_len, table=None):
    """The recursive walk of `_simple_cycles`, for every max_len >= 3, with
    its step limit; exact products, or square classes given the table."""
    n = gram.size
    if table is None:
        values, one, combine = gram.entries, ONE, lambda x, y: x * y
        nonzero = [[j for j in range(n) if j != i and values[i][j]] for i in range(n)]
    else:
        (values, nonzero), one, combine = table, 0, lambda x, y: x ^ y
    for i in range(n):
        for j in nonzero[i]:
            if j > i:
                yield (i, j), combine(values[i][j], values[j][i])
    steps = 0

    def walk(start, path, product, used):
        nonlocal steps
        last = path[-1]
        steps += len(nonzero[last])
        if steps > arithmeticity._WALK_LIMIT:
            raise ResourceLimitError("walk limit")
        for nxt in nonzero[last]:
            if nxt == start and len(path) >= 3:
                if path[1] < path[-1]:
                    yield tuple(path), combine(product, values[last][start])
            elif nxt > start and nxt not in used and len(path) < max_len:
                used.add(nxt)
                path.append(nxt)
                yield from walk(start, path, combine(product, values[last][nxt]), used)
                path.pop()
                used.discard(nxt)

    for start in range(n):
        yield from walk(start, [start], one, {start})


def _outcome(cycles):
    """The cycles in order, or "limit" if producing them meets the limit."""
    try:
        return list(cycles)
    except ResourceLimitError:
        return "limit"


def _random_surd_gram(rng):
    """Gram matrix on 2..12 nodes with some entries outside the monomials."""
    n = rng.randint(2, 12)
    pool = [ZERO, ZERO, SurdInteger(-1), -SQRT2, -SQRT3, SurdInteger(-2), 2 * SQRT6,
            ONE + SQRT2, SQRT2 - SQRT3]
    e = [[SurdInteger(2) if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e[i][j] = e[j][i] = rng.choice(pool)
    return ExactGramMatrix(n, e)


def _seeded_grams():
    rng = random.Random(20261020)
    for _ in range(150):
        yield gram_from_coxeter(_random_diagram(rng, (2, 12)))
        yield _random_surd_gram(rng)


# max_len -> the largest Gram it is checked on without a step limit: the
# reference walk takes seconds on the 12-node Grams beyond max_len 4
_UNLIMITED_SIZE = {3: 12, 4: 8, 5: 8, 6: 8}


def test_max_len_3_loop_matches_the_walk(monkeypatch):
    """The max_len 3 loop, and the stack walk for max_len 4 to 6, emit the
    recursive walk's cycles and products in its order, and stop at its step
    limit exactly when it does."""
    kinds = Counter()
    for max_len, size in _UNLIMITED_SIZE.items():
        for gram in _seeded_grams():
            if gram.size > size:
                continue
            table = arithmeticity._square_classes(gram)
            kinds[max_len, table is None] += 1
            walk = _outcome(_walk(gram, max_len))
            assert _outcome(arithmeticity._simple_cycles(gram, max_len)) == walk
            assert cyclic_products(gram, max_len) == {p for _, p in walk}
            if table is not None:
                assert _outcome(arithmeticity._simple_cycles(gram, max_len, table)) == \
                    _outcome(_walk(gram, max_len, table))
            res = is_arithmetic_noncocompact(gram, max_len)
            first = next(((c, p) for c, p in walk if not p.is_rational_integer), (None, None))
            assert res.arithmetic == (first[0] is None)
            # on up to max_len monomial nodes the potential runs, not the walk;
            # it counts fundamental cycles, as many as the simple ones on 3 nodes
            if table is None or gram.size > max_len or gram.size <= 3:
                assert (res.cycles_checked, res.witness_cycle, res.witness_product) == \
                    (len(walk), *first)
    assert kinds[3, False] > 150 and kinds[3, True] > 50
    assert all(kinds[max_len, False] > 100 and kinds[max_len, True] > 50
               for max_len in (4, 5, 6))

    # the loop and the stack walk take the recursive walk's steps: with a
    # small limit both stop, or neither
    stops = Counter()
    for limit in (1, 8, 40, 150, 600):
        monkeypatch.setattr(arithmeticity, "_WALK_LIMIT", limit)
        for max_len in _UNLIMITED_SIZE:
            for gram in _seeded_grams():
                table = arithmeticity._square_classes(gram)
                want = _outcome(_walk(gram, max_len)) == "limit"
                stops[max_len, want] += 1
                fresh = ExactGramMatrix(gram.size, gram.entries)
                runs = [lambda: cyclic_products(gram, max_len),
                        lambda: list(arithmeticity._simple_cycles(gram, max_len, table))]
                # on up to max_len monomial nodes the potential runs, not the walk
                if table is None or gram.size > max_len:
                    runs.append(lambda: is_arithmetic_noncocompact(fresh, max_len))
                for run in runs:
                    if want:
                        with pytest.raises(ResourceLimitError,
                                           match=f"lower max_len \\(now {max_len}\\)"):
                            run()
                    else:
                        run()
    assert all(stops[max_len, True] > 100 and stops[max_len, False] > 100
               for max_len in _UNLIMITED_SIZE)


def test_square_class_table_is_built_once_per_gram(monkeypatch):
    calls = []
    build = arithmeticity._square_classes
    monkeypatch.setattr(arithmeticity, "_square_classes",
                        lambda gram: calls.append(gram) or build(gram))
    gram = gram_from_coxeter(load_coxeter(D344))
    plain = gram_from_coxeter(load_coxeter(D344))
    full = is_arithmetic_noncocompact(gram)
    bounded = is_arithmetic_noncocompact(gram, 3)
    assert calls == [gram]
    assert (full.cycles_checked, bounded.cycles_checked) == (3, 3)
    # the table is no field: equality, hash and repr ignore it
    assert gram == plain and hash(gram) == hash(plain) and repr(gram) == repr(plain)
    assert "_classes" in vars(gram) and "_classes" not in vars(plain)
    assert is_arithmetic_noncocompact(plain, 3) == bounded
    assert calls == [gram, plain]
