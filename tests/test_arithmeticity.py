"""Exact arithmetic in Z[sqrt2, sqrt3] and the cyclic-product criterion."""

import json
import math
import random

import pytest

from raca.arithmeticity import (
    INF,
    CoxeterMatrix,
    ExactGramMatrix,
    cyclic_products,
    gram_from_coxeter,
    is_arithmetic_noncocompact,
    load_coxeter,
)
from raca.errors import DomainError
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
