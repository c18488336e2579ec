"""The public API's shape.  It is fixed, so a class that loses its generated
dataclass methods, or a name that stops resolving, for import speed breaks
callers."""

import dataclasses
import os
import subprocess
import sys

import pytest

import raca
from raca import catalog, polyhedra

D463 = {"size": 3, "m": [[1, 4, 3], [4, 1, 6], [3, 6, 1]]}

# every public dataclass -> a call that builds one instance, and its fields
PUBLIC = {
    "AbstractPolyhedron": (catalog.p32, ("vertex_count", "faces")),
    "AndreevResult": (lambda: raca.andreev_check(catalog.p32()),
                      ("passed", "condition", "witness", "reading")),
    "ArithmeticityResult": (
        lambda: raca.is_arithmetic_noncocompact(raca.gram_from_coxeter(raca.load_coxeter(D463))),
        ("arithmetic", "witness_cycle", "witness_product", "cycles_checked", "max_len")),
    "BoundPair": (lambda: raca.mixed_bounds(3, 2), ("lower", "upper", "lower_attained")),
    "CandidatePair": (lambda: raca.CandidatePair(3, 2), ("v_inf", "v_f")),
    "CensusRecord": (lambda: raca.enumerate_types(raca.CandidatePair(3, 2)),
                     ("pair", "realizable_types", "volume", "polyhedra", "condition3_reading")),
    "CombinatorialProfile": (lambda: raca.validate(catalog.p32()), ("v_inf", "v_f", "e", "f")),
    "CoxeterMatrix": (lambda: raca.load_coxeter(D463), ("size", "m")),
    "DualGraph": (lambda: raca.dual_graph(catalog.p32()), ("face_count", "edges")),
    "EvaluationResult": (lambda: raca.lobachevsky(0.5), ("value", "abs_error_bound")),
    "ExactGramMatrix": (lambda: raca.gram_from_coxeter(raca.load_coxeter(D463)),
                        ("size", "entries")),
    "FaceStatistics": (lambda: raca.face_statistics(catalog.p32()), ("p", "w", "wi")),
    "LemmaResult": (lambda: raca.lemma_rem_check(catalog.p32()),
                    ("passed", "face", "ideal_count")),
    "SurdInteger": (lambda: raca.SurdInteger(1, 2, 3, 4), ("a", "b", "c", "d")),
    "TheoremReport": (raca.verify_minimality,
                      ("minimal_volume", "witness", "uniqueness", "branch_log", "verified",
                       "failures", "condition3_reading")),
    "VolumeReport": (lambda: raca.named_volume("P32"), ("value", "formula", "abs_error_bound")),
}
# a field of these holds dicts (face sizes, branch log entries), so the
# generated hash raises as it hashes the fields
UNHASHABLE = {"FaceStatistics", "TheoremReport"}


def test_the_public_dataclasses_are_these():
    assert sorted(name for name in raca.__all__
                  if dataclasses.is_dataclass(getattr(raca, name))) == sorted(PUBLIC)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_dataclass_contract(name):
    make, fields = PUBLIC[name]
    cls = getattr(raca, name)
    assert dataclasses.is_dataclass(cls) and cls.__doc__
    assert tuple(field.name for field in dataclasses.fields(cls)) == fields
    value = make()
    assert type(value) is cls
    copy = dataclasses.replace(value, **{fields[0]: getattr(make(), fields[0])})
    assert copy == value and copy is not value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, fields[0], getattr(value, fields[0]))
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="dict"):
            hash(value)
    else:
        assert hash(copy) == hash(value)


def test_sphere_map_rejects_a_new_attribute():
    m = polyhedra._sphere_map(catalog.p32())
    with pytest.raises(AttributeError):
        m.extra = 1


def test_catalog_loads_on_first_access():
    # pytest has imported raca.catalog here, so only a new interpreter can tell
    script = """
import sys
import raca, raca.cli
assert "raca.catalog" not in sys.modules
assert "catalog" in dir(raca) and "catalog" in raca.__all__
assert raca.catalog.p32().vertex_count == 5
from raca import catalog
assert catalog is sys.modules["raca.catalog"] is raca.catalog
try:
    raca.nonexistent
except AttributeError as exc:
    assert str(exc) == "module 'raca' has no attribute 'nonexistent'"
else:
    raise AssertionError("raca.nonexistent resolved")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
