"""Census of small right-angled combinatorial types and theorem verification.

The census finds, for a candidate vertex count pair (V_ideal, V_finite),
every combinatorial type with that many degree-4 and degree-3 vertices that
passes Andreev's conditions.  It works on the dual graph: the dual of such
a type is a simple sphere triangulation on V_ideal + V_finite/2 + 2
vertices minus V_ideal edges (lemma (b) in `_dual_certificates`).  The
triangulations come from a committed table, which tests/dual_census.py
regenerates by vertex splits from K4 (its lemma (a)).  The cuts are pruned
by the face charge of `polyhedra._lemma_rem`, by one choice of diagonal
per quadrilateral and by the triangulation's automorphisms.  Each cut that
remains gives a polyhedron (the polyhedrality lemma in
`_dual_certificates`), which is tested against Andreev's conditions, and
only the types that pass are given canonical certificates, rebuilt from
them and filtered under the requested reading of condition 3.  In a fresh
process the search takes about 1.3 ms for (2,8), 0.8 ms for (3,2), 1.2 ms
for (3,4) and 2.7 ms for (2,10) (Python 3.11.7, 2 vCPUs).  On top of the
census sits the end-to-end verification that Catalan's constant is the
minimal volume of a right-angled hyperbolic polyhedron, attained exactly
once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, RacaError, ResourceLimitError
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


# --- the census on the dual graph -------------------------------------------
#
# Each entry of the table is one simple sphere triangulation T on 4 to 9
# vertices, one per class up to isomorphism and reflection: 1, 1, 2, 5, 14
# and 50 of them (OEIS A000109), sorted by size and then by code.  An entry
# is T's least BFS code in the certificate format, whose rows list each
# vertex's neighbours in rotation order, so that consecutive neighbours a, b
# of v span the triangle vab.  After the code come automorphisms of T that
# generate Aut(T), reflections included, each as the images of vertices 0,
# 1, ... written one digit each.  tests/dual_census.py makes the classes by
# vertex splits from K4, complete by its lemma (a), and tests/test_census.py
# checks the table against them and the rooted mass against Tutte's count.
# Nine vertices cover (2,10), (0,14), (1,12) and every candidate pair.

_TRIANGULATIONS = (
    "c4|1,2,3;0,3,2;0,1,3;0,2,1 0132 0213 1023",
    "c5|1,2,3;0,3,4,2;0,1,4,3;0,2,4,1;1,3,2 01324 02134 41230",
    "c6|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,4,1;1,3,5,2;2,4,3 013245 542310",
    "c6|1,2,3,4;0,4,5,2;0,1,5,3;0,2,5,4;0,3,5,1;1,4,3,2 014325 021435 102543",
    "c7|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,4,1;1,3,6,5,2;2,4,6,3;3,5,4 6543210",
    "c7|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,5,4,1;1,3,5,2;2,4,3,6;2,5,3 0132456 6523410",
    "c7|1,2,3;0,3,4,5,2;0,1,5,4,6,3;0,2,6,4,1;1,3,6,2,5;1,4,2;2,4,3 0321465 5124306",
    "c7|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,4,1;1,3,6,5;1,4,6,2;2,5,4,3 0132546 0213654",
    "c7|1,2,3,4;0,4,5,2;0,1,5,6,3;0,2,6,4;0,3,6,5,1;1,4,6,2;2,5,4,3 0143256 0321465 1025436",
    "c8|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,4,1;1,3,6,7,5,2;2,4,7,6,3;3,5,7,4;4,6,5 76543210",
    "c8|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,4,1;1,3,7,5,2;2,4,7,6,3;3,5,7;3,6,5,4 67534201",
    "c8|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,4,1;1,3,7,6,5,2;2,4,6,3;3,5,4,7;3,6,4",
    "c8|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,5,7,4,1;1,3,7,5,2;2,4,7,3,6;2,5,3;3,5,4",
    "c8|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,4,1;1,3,7,5,2;2,4,7,6;2,5,7,3;3,6,5,4 01324765",
    "c8|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,4,1;1,3,7,6,5,2;2,4,6;2,5,4,7,3;3,6,4 01324765",
    "c8|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,6,5,4,1;1,3,5,2;2,4,3,6;2,5,3,7;2,6,3 01324567 76235410",
    "c8|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,4,1;1,3,6,7,5;1,4,7,6,2;2,5,7,4,3;4,6,5 01325467 02136547"
    " 74563120",
    "c8|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,4,1;1,3,7,5;1,4,7,6,2;2,5,7,3;3,6,5,4 02136547",
    "c8|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,4,1;1,3,7,6,5;1,4,6,2;2,5,4,7,3;3,6,4 02136547 74631520",
    "c8|1,2,3;0,3,4,5,2;0,1,5,6,7,3;0,2,7,6,4,1;1,3,6,5;1,4,6,2;2,5,4,3,7;2,6,3 01325467 76234510",
    "c8|1,2,3;0,3,4,5,6,2;0,1,6,5,7,3;0,2,7,5,4,1;1,3,5;1,4,3,7,2,6;1,5,2;2,5,3 01326547 02137564"
    " 41356207",
    "c8|1,2,3,4;0,4,5,2;0,1,5,6,3;0,2,6,7,4;0,3,7,5,1;1,4,7,6,2;2,5,7,3;3,6,5,4 01432576 10254367"
    " 67325401",
    "c8|1,2,3,4;0,4,5,2;0,1,5,6,7,3;0,2,7,4;0,3,7,6,5,1;1,4,6,2;2,5,4,7;2,6,4,3 01432567 03214765"
    " 10254376",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,4,1;1,3,6,7,5,2;2,4,7,8,6,3;3,5,8,7,4;4,6,8,5;5,7,6"
    " 876543210",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,4,1;1,3,6,7,8,5,2;2,4,8,6,3;3,5,8,7,4;4,6,8;4,7,6,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,4,1;1,3,6,7,8,5,2;2,4,8,7,6,3;3,5,7,4;4,6,5,8;4,7,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,4,1;1,3,7,6,8,5,2;2,4,8,6,3;3,5,8,4,7;3,6,4;4,6,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,4,1;1,3,7,8,5,2;2,4,8,6,3;3,5,8,7;3,6,8,4;4,7,6,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,4,1;1,3,7,8,5,2;2,4,8,7,6,3;3,5,7;3,6,5,8,4;4,7,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,4,1;1,3,7,8,6,5,2;2,4,6,3;3,5,4,8,7;3,6,8,4;4,7,6"
    " 876435210",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,8,4,1;1,3,8,5,2;2,4,8,6,3;3,5,8,7;3,6,8;3,7,6,5,4"
    " 768354102",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,8,4,1;1,3,8,5,2;2,4,8,7,6,3;3,5,7;3,6,5,8;3,7,5,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,8,4,1;1,3,8,6,5,2;2,4,6,3;3,5,4,8,7;3,6,8;3,7,6,4"
    " 786345201",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,8,4,1;1,3,8,7,5,2;2,4,7,6,3;3,5,7;3,6,5,4,8;3,7,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,3;0,2,5,6,7,8,4,1;1,3,8,7,6,5,2;2,4,6,3;3,5,4,7;3,6,4,8;3,7,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,5,7,4,1;1,3,7,8,5,2;2,4,8,7,3,6;2,5,3;3,5,8,4;4,7,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,5,7,8,4,1;1,3,8,5,2;2,4,8,7,3,6;2,5,3;3,5,8;3,7,5,4"
    " 785342601",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,5,7,8,4,1;1,3,8,7,5,2;2,4,7,3,6;2,5,3;3,5,4,8;3,7,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,4,1;1,3,7,5,2;2,4,7,8,6;2,5,8,7,3;3,6,8,5,4;5,7,6"
    " 013247658",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,4,1;1,3,7,8,5,2;2,4,8,6;2,5,8,7,3;3,6,8,4;4,7,6,5"
    " 013247658",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,4,1;1,3,7,8,5,2;2,4,8,7,6;2,5,7,3;3,6,5,8,4;4,7,5"
    " 013247658",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,8,4,1;1,3,8,5,2;2,4,8,6;2,5,8,7,3;3,6,8;3,7,6,5,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,8,4,1;1,3,8,5,2;2,4,8,7,6;2,5,7,3;3,6,5,8;3,7,5,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,8,4,1;1,3,8,6,5,2;2,4,6;2,5,4,8,7,3;3,6,8;3,7,6,4"
    " 786345201",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,8,4,1;1,3,8,7,5,2;2,4,7,6;2,5,7,3;3,6,5,4,8;3,7,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,8,4,1;1,3,8,7,6,5,2;2,4,6;2,5,4,7,3;3,6,4,8;3,7,4",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,3;0,2,6,7,8,5,4,1;1,3,5,2;2,4,3,8,7,6;2,5,7,3;3,6,5,8;3,7,5"
    " 875362410",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,6,5,8,4,1;1,3,8,5,2;2,4,8,3,6;2,5,3,7;2,6,3;3,5,4"
    " 762354108",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,6,8,4,1;1,3,8,5,2;2,4,8,6;2,5,8,3,7;2,6,3;3,6,5,4"
    " 013248675",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,6,8,4,1;1,3,8,6,5,2;2,4,6;2,5,4,8,3,7;2,6,3;3,6,4"
    " 013248675",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,6,8,5,4,1;1,3,5,2;2,4,3,8,6;2,5,8,3,7;2,6,3;3,6,5",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,8,5,4,1;1,3,5,2;2,4,3,8,6;2,5,8,7;2,6,8,3;3,7,6,5"
    " 013245876",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,3;0,2,7,8,5,4,1;1,3,5,2;2,4,3,8,7,6;2,5,7;2,6,5,8,3;3,7,5"
    " 013245876",
    "c9|1,2,3;0,3,4,2;0,1,4,5,6,7,8,3;0,2,8,7,6,5,4,1;1,3,5,2;2,4,3,6;2,5,3,7;2,6,3,8;2,7,3"
    " 013245678 872365410",
    "c9|1,2,3;0,3,4,5,2;0,1,5,4,6,7,3;0,2,7,6,8,4,1;1,3,8,6,2,5;1,4,2;2,4,8,3,7;2,6,3;3,6,4"
    " 763248105",
    "c9|1,2,3;0,3,4,5,2;0,1,5,4,6,7,3;0,2,7,8,4,1;1,3,8,6,2,5;1,4,2;2,4,8,7;2,6,8,3;3,7,6,4"
    " 512430768",
    "c9|1,2,3;0,3,4,5,2;0,1,5,4,6,7,8,3;0,2,8,7,4,1;1,3,7,6,2,5;1,4,2;2,4,7;2,6,4,3,8;2,7,3"
    " 512430876 672438015",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,4,1;1,3,7,5;1,4,7,8,6,2;2,5,8,7,3;3,6,8,5,4;5,7,6"
    " 876543210",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,4,1;1,3,7,6,8,5;1,4,8,6,2;2,5,8,4,7,3;3,6,4;4,6,5"
    " 021365478",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,4,1;1,3,7,8,5;1,4,8,6,2;2,5,8,7,3;3,6,8,4;4,7,6,5"
    " 021365478",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,8,4,1;1,3,8,5;1,4,8,6,2;2,5,8,7,3;3,6,8;3,7,6,5,4"
    " 786345201",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,3;0,2,6,7,8,4,1;1,3,8,5;1,4,8,7,6,2;2,5,7,3;3,6,5,8;3,7,5,4"
    " 021365487",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,7,3;0,2,7,6,8,4,1;1,3,8,5;1,4,8,6,2;2,5,8,3,7;2,6,3;3,6,5,4"
    " 762385104",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,7,3;0,2,7,6,8,4,1;1,3,8,6,5;1,4,6,2;2,5,4,8,3,7;2,6,3;3,6,4"
    " 846315270",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,7,3;0,2,7,8,4,1;1,3,8,5;1,4,8,6,2;2,5,8,7;2,6,8,3;3,7,6,5,4",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,7,3;0,2,7,8,4,1;1,3,8,5;1,4,8,7,6,2;2,5,7;2,6,5,8,3;3,7,5,4"
    " 672583014",
    "c9|1,2,3;0,3,4,5,2;0,1,5,6,7,3;0,2,7,8,4,1;1,3,8,7,5;1,4,7,6,2;2,5,7;2,6,5,4,8,3;3,7,4"
    " 013254876 652741038",
    "c9|1,2,3;0,3,4,5,6,2;0,1,6,5,7,3;0,2,7,8,4,1;1,3,8,5;1,4,8,7,2,6;1,5,2;2,5,8,3;3,7,5,4"
    " 021375648 612543078",
    "c9|1,2,3,4;0,4,5,2;0,1,5,3;0,2,5,6,7,4;0,3,7,8,5,1;1,4,8,6,3,2;3,5,8,7;3,6,8,4;4,7,6,5"
    " 021435876 102543687 678534120",
    "c9|1,2,3,4;0,4,5,2;0,1,5,6,3;0,2,6,7,4;0,3,7,8,5,1;1,4,8,6,2;2,5,8,7,3;3,6,8,4;4,7,6,5"
    " 102543687 786345201",
    "c9|1,2,3,4;0,4,5,2;0,1,5,6,3;0,2,6,7,8,4;0,3,8,5,1;1,4,8,7,6,2;2,5,7,3;3,6,5,8;3,7,5,4"
    " 014325876 102543678",
    "c9|1,2,3,4;0,4,5,2;0,1,5,6,7,8,3;0,2,8,4;0,3,8,7,6,5,1;1,4,6,2;2,5,4,7;2,6,4,8;2,7,4,3"
    " 014325678 032148765 102543876",
    "c9|1,2,3,4;0,4,5,6,2;0,1,6,7,3;0,2,7,8,4;0,3,8,5,1;1,4,8,6;1,5,8,7,2;2,6,8,3;3,7,6,5,4"
    " 021437658 034127856 516840273",
)


def _admissible_edges(rows):
    """T's admissible edges, each as (a, b, c, d, footprint).

    The triangles on an edge ab of T are abc and abd, with the apexes c and
    d; the edge is admissible when cd is no edge of T.  With sets of
    vertices written as bitmasks, the footprint has a bit for each of abc,
    abd and cd, so two edges share a triangle or their apexes exactly when
    their footprints meet (a triangle and an apex pair differ in size).
    """
    nbr = [sum(1 << w for w in row) for row in rows]
    edges = []
    for a, row in enumerate(rows):
        for k, b in enumerate(row):
            c, d = row[k - 1], row[(k + 1) % len(row)]
            if a < b and not nbr[c] >> d & 1:
                ab = 1 << a | 1 << b
                edges.append((a, b, c, d,
                              1 << (ab | 1 << c) | 1 << (ab | 1 << d) | 1 << (1 << c | 1 << d)))
    return edges


def _cuts(charge, excess, edges, k, slack):
    """Each set of k of these edges, no two sharing a triangle or their
    apexes, after whose removal no vertex has a negative face charge, as
    one live list of edges.

    The face charge of a vertex of Q with degree d and q quadrilaterals
    around it is d + q - 5.  `charge` holds them for T, where q = 0, and
    `excess` the sum of its positive entries.  Removing ab raises the
    charges of the apexes c and d by one each, and leaves those of a and
    b, whose degree falls as q rises, so charges only grow, and so does
    the excess.  The charges sum to the slack minus twice the edges still
    to remove, so the negative ones sum to the excess minus that: a branch
    stops once the excess is above the slack, as no later edge can raise
    the negative charges to 0, and the cuts it completes are the leaves.
    """
    chosen = []

    def pick(start, left, excess, blocked):
        if not left:
            yield chosen
            return
        for i in range(start, len(edges)):
            edge = edges[i]
            _, _, c, d, footprint = edge
            if blocked & footprint:
                continue
            gain = (charge[c] >= 0) + (charge[d] >= 0)
            if excess + gain > slack:
                continue
            charge[c] += 1
            charge[d] += 1
            chosen.append(edge)
            yield from pick(i + 1, left - 1, excess + gain, blocked | footprint)
            chosen.pop()
            charge[c] -= 1
            charge[d] -= 1

    yield from pick(0, k, excess, 0)


def _primal_map(rows, cut):
    """The map of T minus the cut edges: a vertex per face of Q, named by
    the bitmask of a triangle in it, and a face per vertex of Q, the faces
    of Q around it in rotation order."""
    merged = {}
    for a, b, c, d, _ in cut:
        merged[1 << a | 1 << b | 1 << d] = 1 << a | 1 << b | 1 << c
    label = {}
    faces = []
    for v, row in enumerate(rows):
        names = []
        for k, w in enumerate(row):
            t = 1 << v | 1 << row[k - 1] | 1 << w
            names.append(label.setdefault(merged.get(t, t), len(label)))
        faces.append([f for j, f in enumerate(names) if f != names[j - 1]])
    degrees = [3] * len(label)
    for t in merged.values():
        degrees[label[t]] = 4
    return _new_map(AbstractPolyhedron(len(label), faces), degrees, _edge_faces(faces))


def _dual_certificates(vi, vf, reverse):
    """Certificates of the types with vi degree-4 and vf degree-3 vertices
    that pass Andreev's conditions under some reading, in a set.

    The dual Q of such a type has F = vi + vf/2 + 2 vertices, and vi
    quadrilateral and vf triangular faces.  Call a set C of edges of a
    simple sphere triangulation T a cut when (1) no two edges of C lie on
    one triangle, (2) for each edge ab of C with the apexes c and d, cd is
    no edge of T, and (3) no two edges of C have the same apexes.

    Lemma (b).  The dual of each type that passes is T minus a cut of vi
    edges, for some T on F vertices.  Proof.  The type is a polyhedron, so
    two of its faces meet in nothing, one vertex or one edge.  A
    quadrilateral acbd of Q is a degree-4 vertex x with the faces a, c, b,
    d around it.  If a diagonal, say ab, were an edge of Q, faces a and b
    would share an edge and also x, which lies on no edge between them; if
    two quadrilaterals had a diagonal in common, its two faces would share
    two vertices.  So adding either diagonal to each quadrilateral gives a
    simple triangulation T, in which the added edges form a cut: each lies
    on the two triangles that split its quadrilateral, and the other
    diagonals are no edges and all distinct.

    Polyhedrality.  Conversely, for each cut C of T the map that
    `_primal_map` builds from Q = T - C is a polyhedron.  Proof.  Q is
    connected, and each face of Q is a triangle of T or, by (1), the
    4-cycle acbd left by removing ab, so Q is 2-connected.  Two faces of Q
    meet in nothing, one vertex or one edge.  Two triangles of T do.  A
    face X other than acbd that held c and d would not be a triangle, by
    (2), and c and d, not adjacent in T, would be the apexes of X, against
    (3).  One that held a and b would not be a triangle, as abc and abd are
    the only ones on ab, so it would be a quadrilateral with the side ab,
    whose triangles would hold two edges of C, against (1), or with the
    apexes a and b, against (2).  Two vertices of acbd next to each other,
    say a and c, lie on X only as a side, since ac and ab share a triangle
    (1).  A 2-connected plane graph whose faces meet so is 3-connected
    (B. Mohar & C. Thomassen, *Graphs on Surfaces*, 2001): if {u, w}
    separated it, the component entered from u would change at least twice
    around u, the faces at the changes would pass through w, and two of
    them would share u and w but no edge.  The dual of a 3-connected plane
    graph is one too, with every edge on two faces and two faces sharing at
    most one edge, so `_new_map` builds the map that `_sphere_map` would,
    without its connectivity test.

    Prunes.  A vertex of Q with degree d and q quadrilaterals around it is
    a face of the primal with d sides and q degree-4 vertices, so each type
    that passes has d + q >= 5 there (the face lemma of
    `polyhedra._lemma_rem`), and these charges d + q - 5 sum to the slack
    3 vi + vf/2 - 10.  So `_cuts` yields only cuts that leave no charge
    negative, T is skipped when its positive charges already sum to more
    than the slack, and with a negative slack nothing is searched.  Each
    quadrilateral of Q may take either diagonal (lemma (b)).  Flipping the
    one removed at ab, with the apexes c and d, changes the sum over the
    removed edges of q_a + q_b, with q the degree in Q, by q_c + q_d - q_a
    - q_b, and the sum over the vertices of D^2, with D the degree in T, by
    2 (D_c + D_d - D_a - D_b) + 4.  A completion that minimizes the first
    sum and then the second passes the test (q_a + q_b, D_a + D_b) <=
    (q_c + q_d, D_c + D_d + 2) on each removed edge, which drops only cuts
    that some flip improves.  Both tests give one verdict on all the cuts
    of an orbit of Aut(T), whose maps are isomorphic, so one cut per orbit
    is built: the first one met, its orbit closed under the generators.
    `reverse` walks the table backwards.
    """
    n = vi + vf // 2 + 2
    slack = 3 * vi + vf // 2 - 10
    certs = set()
    if slack < 0:
        return certs
    if n > 9:
        raise ResourceLimitError(
            f"the triangulation table stops at 9 vertices; ({vi},{vf}) needs {n}")
    head = f"c{n}|"
    table = [entry.split() for entry in _TRIANGULATIONS if entry.startswith(head)]
    for code, *perms in reversed(table) if reverse else table:
        words = [row.split(",") for row in code[len(head):].split(";")]
        degrees = [len(row) for row in words]
        charge = [d - 5 for d in degrees]
        excess = sum(x for x in charge if x > 0)
        if excess > slack:
            continue
        rows = [tuple(map(int, row)) for row in words]
        perms = [tuple(map(int, perm)) for perm in perms]
        seen = set()
        for cut in _cuts(charge, excess, _admissible_edges(rows), vi, slack):
            pairs = [(a, b) for a, b, _, _, _ in cut]
            key = frozenset(1 << a | 1 << b for a, b in pairs)
            if key in seen:
                continue
            left = list(degrees)
            for a, b in pairs:
                left[a] -= 1
                left[b] -= 1
            if any((left[a] + left[b], degrees[a] + degrees[b])
                   > (left[c] + left[d], degrees[c] + degrees[d] + 2)
                   for a, b, c, d, _ in cut):
                continue
            seen.add(key)
            orbit = [pairs]
            for image in orbit:
                for p in perms:
                    moved = [(p[a], p[b]) for a, b in image]
                    key = frozenset(1 << a | 1 << b for a, b in moved)
                    if key not in seen:
                        seen.add(key)
                        orbit.append(moved)
            m = _primal_map(rows, cut)
            if _andreev(m, READING_DISJOINT).passed:
                certs.add(_canonical_form(m))
    return certs


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
    share one run of `_dual_certificates`.  The pair is not checked against
    the candidate region.  Each type is rebuilt through `_sphere_map` and
    the certificate round trip, and must satisfy the three census
    invariants.
    """
    types = []
    for cert in sorted(_dual_certificates(vi, vf, reverse)):
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

    Finds, through their dual graphs, the types with exactly pair.v_inf
    degree-4 and pair.v_f degree-3 vertices that pass Andreev's conditions
    under some reading, and certifies them up to isomorphism, reflections
    included.  Each such type is tested again under `condition3_reading` on
    the map rebuilt from its certificate; the survivors come back as sorted
    certificates.  The result is independent of `reverse_branching`, which
    walks the triangulation table backwards.
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
