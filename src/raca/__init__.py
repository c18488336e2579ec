"""raca: right-angled hyperbolic polyhedra toolkit.

High-precision Lobachevsky-function evaluation, closed-form volumes of the
classical right-angled families, a combinatorial census of small types with
realizability checking, and exact arithmeticity verdicts for the associated
non-cocompact reflection groups.
"""

from .arithmeticity import (
    ArithmeticityResult,
    CoxeterMatrix,
    ExactGramMatrix,
    cyclic_products,
    gram_from_coxeter,
    is_arithmetic_noncocompact,
    load_coxeter,
)
from .census import (
    MIN_FACES_ONE_IDEAL,
    CandidatePair,
    CensusRecord,
    TheoremReport,
    candidate_pairs,
    enumerate_types,
    verify_minimality,
)
from .errors import (
    DomainError,
    PolyhedronError,
    RacaError,
    ResourceLimitError,
)
from .lobachevsky import (
    EvaluationResult,
    catalan_constant,
    lobachevsky,
    lobachevsky_quadrature,
    lobachevsky_series,
    v_oct,
    v_tet,
)
from .polyhedra import (
    READING_DISJOINT,
    READING_DISTINCT,
    AbstractPolyhedron,
    AndreevResult,
    CombinatorialProfile,
    DualGraph,
    FaceStatistics,
    LemmaResult,
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
from .surd import SurdInteger
from .volumes import (
    BoundPair,
    VolumeReport,
    antiprism_volume,
    atkinson_bounds_compact,
    atkinson_bounds_ideal,
    lobell_volume,
    mixed_bounds,
    mixed_lower_bound,
    named_volume,
    orthoscheme_delta,
    orthoscheme_volume,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractPolyhedron",
    "AndreevResult",
    "ArithmeticityResult",
    "BoundPair",
    "CandidatePair",
    "CensusRecord",
    "CombinatorialProfile",
    "CoxeterMatrix",
    "DomainError",
    "DualGraph",
    "EvaluationResult",
    "ExactGramMatrix",
    "FaceStatistics",
    "LemmaResult",
    "MIN_FACES_ONE_IDEAL",
    "PolyhedronError",
    "RacaError",
    "READING_DISJOINT",
    "READING_DISTINCT",
    "ResourceLimitError",
    "SurdInteger",
    "TheoremReport",
    "VolumeReport",
    "andreev_check",
    "antiprism_volume",
    "atkinson_bounds_compact",
    "atkinson_bounds_ideal",
    "canonical_form",
    "candidate_pairs",
    "catalan_constant",
    "catalog",
    "cyclic_products",
    "dual_graph",
    "enumerate_types",
    "face_statistics",
    "gram_from_coxeter",
    "is_arithmetic_noncocompact",
    "is_isomorphic",
    "lemma_rem_check",
    "load_coxeter",
    "load_polyhedron",
    "lobachevsky",
    "lobachevsky_quadrature",
    "lobachevsky_series",
    "lobell_volume",
    "mixed_bounds",
    "mixed_lower_bound",
    "named_volume",
    "orthoscheme_delta",
    "orthoscheme_volume",
    "polyhedron_from_certificate",
    "prismatic_circuits",
    "v_oct",
    "v_tet",
    "validate",
    "verify_minimality",
]


def __getattr__(name):
    """`catalog`, imported on first access (PEP 562): no command uses the
    named polyhedra, so `import raca` leaves them out."""
    if name == "catalog":
        from importlib import import_module
        return import_module(f"{__name__}.catalog")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "catalog"})
