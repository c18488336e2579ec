"""Vinberg's arithmeticity criterion for non-cocompact reflection groups.

For a reflection group whose fundamental polyhedron is non-compact, the
group is arithmetic iff every cyclic product of the doubled Gram matrix is
a rational integer.  With dihedral angles drawn from {pi/2, pi/3, pi/4,
pi/6, 0} the doubled Gram entries live in Z[sqrt(2), sqrt(3)], so the
check runs in exact arithmetic.  Whether the group actually is
non-cocompact is a hypothesis the caller must supply; it is not verified
here.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError, _as_int, _read_json
from .surd import ZERO, SurdInteger

INF = math.inf

# neighbours the cycle enumeration may examine before it stops, under a second
# of work on a 2-vCPU host; max_len=3 on 9 nodes needs under 5,000 and a
# complete 9-node diagram with max_len=8 about 680,000
_WALK_LIMIT = 2_000_000

# label m -> doubled Gram entry -2*cos(pi/m); the diagonal label 1 gives 2
_ENTRY = {
    1: SurdInteger(2),
    2: ZERO,
    3: SurdInteger(-1),
    4: SurdInteger(0, -1),
    6: SurdInteger(0, 0, -1),
    INF: SurdInteger(-2),
}


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of Coxeter labels; diagonal 1, off-diagonal >= 2 or inf."""

    size: int
    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(tuple(row) for row in self.m))
        n = self.size
        if isinstance(n, bool) or not isinstance(n, int):
            raise DomainError(f"Coxeter matrix size must be an integer, got {n!r}")
        if len(self.m) != n or any(len(row) != n for row in self.m):
            raise DomainError(f"Coxeter matrix must be {n}x{n}")
        for i in range(n):
            # True and 1.0 equal 1 but are not labels, as off the diagonal
            diagonal = self.m[i][i]
            if isinstance(diagonal, bool) or not isinstance(diagonal, int) or diagonal != 1:
                raise DomainError(f"Coxeter matrix diagonal entry ({i},{i}) must be 1")
            for j in range(n):
                if i == j:
                    continue
                entry = self.m[i][j]
                if entry != self.m[j][i]:
                    raise DomainError(f"Coxeter matrix not symmetric at ({i},{j})")
                if entry == INF:
                    continue
                if isinstance(entry, bool) or not isinstance(entry, int) or entry < 2:
                    raise DomainError(
                        f"Coxeter label at ({i},{j}) must be an integer >= 2 or inf")


@dataclass(frozen=True)
class ExactGramMatrix:
    """Doubled Gram matrix 2*A: symmetric, diagonal 2, entries in Z[sqrt2, sqrt3]."""

    size: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        n = self.size
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise DomainError(f"Gram matrix must be {n}x{n}")
        # gram_from_coxeter shares one object per label, the diagonal's too
        two = _ENTRY[1]
        for i in range(n):
            if self.entries[i][i] is not two and self.entries[i][i] != two:
                raise DomainError(f"doubled Gram diagonal entry ({i},{i}) must be 2")
            for j in range(n):
                entry, mirror = self.entries[i][j], self.entries[j][i]
                if not isinstance(entry, SurdInteger):
                    raise DomainError(f"Gram entry ({i},{j}) is not a SurdInteger")
                # gram_from_coxeter shares one object per label
                if entry is not mirror and entry != mirror:
                    raise DomainError(f"Gram matrix not symmetric at ({i},{j})")


@dataclass(frozen=True)
class ArithmeticityResult:
    """Verdict of the cyclic-product criterion, with the first failing cycle."""

    arithmetic: bool
    witness_cycle: tuple | None
    witness_product: SurdInteger | None
    cycles_checked: int
    max_len: int

    def to_dict(self) -> dict:
        return {
            "arithmetic": self.arithmetic,
            "witness_cycle": None if self.witness_cycle is None else list(self.witness_cycle),
            "witness_product": None if self.witness_product is None else str(self.witness_product),
            "cycles_checked": self.cycles_checked,
            "max_len": self.max_len,
        }


def load_coxeter(source) -> CoxeterMatrix:
    """Build a CoxeterMatrix from a dict, JSON string, or file path.

    The file format is {"size": N, "m": [[1, 4, ...], ...]} with the string
    "inf" standing for an unbounded label.
    """
    if isinstance(source, CoxeterMatrix):
        return source
    data = _read_json(source, "diagram input")
    try:
        size = _as_int(data["size"], "diagram input: size")
        raw = data["m"]
    except KeyError as exc:
        raise DomainError(f"diagram input missing field: {exc}") from exc
    if not isinstance(raw, (list, tuple)):
        raise DomainError(f"diagram field m must be a list of rows, got {type(raw).__name__}")
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple)):
            raise DomainError(f"diagram field m must be a list of rows, "
                              f"got row {i} of type {type(row).__name__}")

    rows = []
    for row in raw:
        parsed = []
        for entry in row:
            if isinstance(entry, str):
                if entry.strip().lower() != "inf":
                    raise DomainError(f"unknown Coxeter label {entry!r}")
                parsed.append(INF)
            elif entry == INF:
                parsed.append(INF)
            else:
                parsed.append(entry)
        rows.append(tuple(parsed))
    return CoxeterMatrix(size=size, m=tuple(rows))


def gram_from_coxeter(matrix) -> ExactGramMatrix:
    """Doubled Gram matrix of a Coxeter diagram: entry -2cos(pi/m_ij).

    Labels map as 2 -> 0, 3 -> -1, 4 -> -sqrt(2), 6 -> -sqrt(3),
    inf -> -2.  Any other label leaves the ring and is rejected.
    """
    matrix = load_coxeter(matrix)
    n = matrix.size
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            label = matrix.m[i][j]
            entry = _ENTRY.get(label)
            if entry is None:
                raise DomainError(
                    f"Coxeter label {label} at ({i},{j}): entry outside Z[sqrt2, sqrt3]")
            row.append(entry)
        rows.append(tuple(row))
    return ExactGramMatrix(size=n, entries=tuple(rows))


def _simple_cycles(gram: ExactGramMatrix, max_len: int, table=None):
    """Yield (cycle, product) over simple cycles of length 2..max_len.

    Cycles are emitted once (not once per orientation or starting point):
    the smallest vertex leads, and for length >= 3 the second vertex is
    smaller than the last.  The reverse orientation has the same product
    because the matrix is symmetric.  Order of emission is deterministic.
    The walk raises ResourceLimitError once it has examined more than
    _WALK_LIMIT neighbours; for max_len 3 it is unrolled into loops.  Given
    the table of `_square_classes`, the product is the cycle's square class
    (XOR from 0) instead of its exact value; the cycles are the same, since
    both walk the nonzero entries.
    """
    n = gram.size
    if table is None:
        values, one, combine = gram.entries, SurdInteger(1), operator.mul
        nonzero = [[j for j in range(n) if j != i and values[i][j]] for i in range(n)]
    else:
        (values, nonzero), one, combine = table, 0, operator.xor

    for i in range(n):
        for j in nonzero[i]:
            if j > i:
                yield (i, j), combine(values[i][j], values[j][i])

    if max_len < 3:
        return

    steps = 0
    if max_len == 3:
        # the walk below, unrolled: start s, then a > s next to s, then
        # b > s next to a, closing (s, a, b) if b > a and b is next to s.
        # Same triangles, products, order and steps (the walk enters b also
        # when b < a); steps only grow, so a check once per start raises
        # exactly when the walk would
        for s in range(n):
            steps += len(nonzero[s])
            row_s, around = values[s], set(nonzero[s])
            for a in nonzero[s]:
                if a > s:
                    steps += len(nonzero[a])
                    row_a = values[a]
                    for b in nonzero[a]:
                        if b > s:
                            steps += len(nonzero[b])
                            if b > a and b in around:
                                yield (s, a, b), combine(combine(row_s[a], row_a[b]), row_s[b])
            if steps > _WALK_LIMIT:
                raise ResourceLimitError(
                    f"cycle enumeration stopped after {_WALK_LIMIT} steps; "
                    f"lower max_len (now {max_len})")
        return

    # a depth-first walk from each start over paths of vertices above it,
    # closing a cycle when the path's last vertex is next to the start.
    # Entering a vertex costs its degree in steps.  The walk keeps its own
    # stack (one neighbour iterator and one product per path vertex), so a
    # path may be longer than Python's recursion limit
    for start in range(n):
        path, products, used = [start], [one], {start}
        pending = [iter(nonzero[start])]
        steps += len(nonzero[start])
        while pending:
            if steps > _WALK_LIMIT:
                raise ResourceLimitError(
                    f"cycle enumeration stopped after {_WALK_LIMIT} steps; "
                    f"lower max_len (now {max_len})")
            last, product = path[-1], products[-1]
            for nxt in pending[-1]:
                if nxt == start:
                    if len(path) >= 3 and path[1] < last:
                        yield tuple(path), combine(product, values[last][start])
                elif nxt > start and nxt not in used and len(path) < max_len:
                    used.add(nxt)
                    path.append(nxt)
                    products.append(combine(product, values[last][nxt]))
                    pending.append(iter(nonzero[nxt]))
                    steps += len(nonzero[nxt])
                    break
            else:  # every neighbour of the last vertex is done: step back
                pending.pop()
                products.pop()
                used.discard(path.pop())


def _square_class(x: SurdInteger):
    """Class of a monomial k*sqrt(d) in Q*/Q*^2, as an element of F_2^2.

    The coordinate index over (1, sqrt2, sqrt3, sqrt6) is the class, with
    bit 0 for sqrt 2 and bit 1 for sqrt 3, so classes multiply by XOR.
    None for 0 and for sums of more than one monomial.
    """
    a, b, c, d = x.a, x.b, x.c, x.d
    if a:
        return None if b or c or d else 0
    if b:
        return None if c or d else 1
    if c:
        return None if d else 2
    return 3 if d else None


def _square_classes(gram: ExactGramMatrix):
    """The rows of classes of the off-diagonal entries (None where 0) and
    each row's nonzero columns in increasing order, or None if some nonzero
    entry is not a monomial."""
    n = gram.size
    rows, nonzero = [], []
    for _ in range(n):
        rows.append([None] * n)
        nonzero.append([])
    for i, row in enumerate(gram.entries):
        for j in range(i + 1, n):
            c = _square_class(row[j])
            if c is None:
                if row[j]:
                    return None
                continue
            rows[i][j] = rows[j][i] = c
            nonzero[i].append(j)
            nonzero[j].append(i)
    return rows, nonzero


def _potential_check(gram: ExactGramMatrix, table, max_len: int) -> ArithmeticityResult:
    """Vinberg's criterion through a square-class potential.

    A product of monomials is a rational integer exactly when their classes
    XOR to 0.  Give each vertex of a BFS spanning forest the XOR of the
    classes on its tree path from the root; every cycle is then rational
    exactly when each non-tree edge's class is the XOR of its endpoints'
    potentials, since the fundamental cycles span the cycle space.  The
    witness is the fundamental cycle of the first failing edge (i, j) in
    the order of i, then j.  Counted as checked: the E 2-cycles and the
    E - n + c fundamental cycles (c components).
    """
    n = gram.size
    classes, nonzero = table
    potential = [None] * n
    parent = [None] * n
    components = 0
    for root in range(n):
        if potential[root] is not None:
            continue
        components += 1
        potential[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in nonzero[v]:
                if potential[w] is None:
                    potential[w] = potential[v] ^ classes[v][w]
                    parent[w] = v
                    queue.append(w)

    edges = 0
    failing = None
    for i in range(n):
        for j in nonzero[i]:
            if j > i:
                edges += 1
                if failing is None and potential[i] ^ potential[j] != classes[i][j]:
                    failing = (i, j)

    witness_cycle = witness_product = None
    if failing is not None:
        witness_cycle = _canonical_rotation(_tree_cycle(parent, *failing))
        witness_product = _cycle_product(gram, witness_cycle)
    return ArithmeticityResult(
        arithmetic=failing is None,
        witness_cycle=witness_cycle,
        witness_product=witness_product,
        cycles_checked=2 * edges - n + components,
        max_len=max_len,
    )


def _cycle_product(gram: ExactGramMatrix, cycle: tuple) -> SurdInteger:
    product = SurdInteger(1)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        product = product * gram.entries[a][b]
    return product


def _tree_cycle(parent, i: int, j: int) -> list:
    """The cycle closed by the non-tree edge (i, j): i up to the lowest
    common ancestor, then down to j."""
    up_i = [i]
    while parent[up_i[-1]] is not None:
        up_i.append(parent[up_i[-1]])
    up_j = [j]
    while up_j[-1] not in up_i:
        up_j.append(parent[up_j[-1]])
    return up_i[:up_i.index(up_j[-1]) + 1] + up_j[-2::-1]


def _canonical_rotation(cycle: list) -> tuple:
    """Smallest vertex first, then the orientation whose second vertex is
    smaller than its last, as `_simple_cycles` emits cycles."""
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    if cycle[1] > cycle[-1]:
        cycle = cycle[:1] + cycle[:0:-1]
    return tuple(cycle)


def cyclic_products(gram, max_len: int) -> set:
    """Products over all simple cycles of length 2..max_len, as a set.

    Enumerates the cycles, so a large diagram with a large max_len raises
    ResourceLimitError.
    """
    gram = _as_gram(gram)
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 2:
        raise DomainError("max_len must be an integer >= 2")
    return {product for _, product in _simple_cycles(gram, max_len)}


def is_arithmetic_noncocompact(gram, max_len=None) -> ArithmeticityResult:
    """Exact Vinberg check: are all cyclic products rational integers?

    Simple cycles up to max_len (default: the matrix size) together with
    the 2-cycles generate every cyclic product multiplicatively, so
    checking them decides the criterion.  The non-cocompactness of the
    group is assumed, not checked.

    With max_len at least the size and every nonzero entry a monomial
    k*sqrt(d) (always so for `gram_from_coxeter`), the check runs in
    O(n^2) on square classes: `cycles_checked` counts the E 2-cycles plus
    the E - n + c fundamental cycles of a BFS spanning forest (c
    components), and the witness is the first fundamental cycle with an
    irrational product.  Otherwise (max_len below the size, or an entry
    such as 1 + sqrt2) the simple cycles of length 2..max_len are
    enumerated: `cycles_checked` counts them, the witness is the first
    irrational one in enumeration order, and a walk longer than
    _WALK_LIMIT steps raises ResourceLimitError.  With monomial entries the
    walk carries square classes, since a product of nonzero monomials is
    rational exactly when its class is 0, and only the witness's product
    is computed exactly.  The square-class table is built once per matrix
    and kept on it, so checks of one matrix under several max_len share it.
    """
    gram = _as_gram(gram)
    if max_len is None:
        max_len = max(gram.size, 2)
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 2:
        raise DomainError("max_len must be an integer >= 2")
    # kept on the instance, outside the dataclass fields, so that the checks
    # of one matrix build its table once
    if "_classes" not in vars(gram):
        object.__setattr__(gram, "_classes", _square_classes(gram))
    table = gram._classes
    if table is not None and max_len >= gram.size:
        return _potential_check(gram, table, max_len)

    checked = 0
    witness_cycle = None
    witness_product = None
    for cycle, product in _simple_cycles(gram, max_len, table):
        checked += 1
        if witness_cycle is None and (
                product if table is not None else not product.is_rational_integer):
            witness_cycle = cycle
            witness_product = _cycle_product(gram, cycle)
    return ArithmeticityResult(
        arithmetic=witness_cycle is None,
        witness_cycle=witness_cycle,
        witness_product=witness_product,
        cycles_checked=checked,
        max_len=max_len,
    )


def _as_gram(gram) -> ExactGramMatrix:
    if isinstance(gram, ExactGramMatrix):
        return gram
    if isinstance(gram, CoxeterMatrix):
        return gram_from_coxeter(gram)
    raise DomainError("expected an ExactGramMatrix or CoxeterMatrix")
