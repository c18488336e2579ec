"""Acceptance criteria. Each test prints one summary line; run with -s to see them all.

These are the release gates for the package: pinned values, census counts,
theorem verification, and the cross-checks between independent code paths.
"""

import math
import random
import time

from raca import catalog
from raca.arithmeticity import (
    gram_from_coxeter,
    is_arithmetic_noncocompact,
    load_coxeter,
)
from raca.census import (
    CandidatePair,
    candidate_pairs,
    enumerate_types,
    verify_minimality,
    _andreev_types,
)
from raca.lobachevsky import (
    catalan_constant,
    lobachevsky,
    lobachevsky_quadrature,
    v_oct,
    v_tet,
)
from raca.polyhedra import (
    andreev_check,
    face_statistics,
    is_isomorphic,
    polyhedron_from_certificate,
    validate,
)
from raca.surd import SurdInteger
from raca.volumes import antiprism_volume, lobell_volume, orthoscheme_volume

PI = math.pi


def _line(k, ok, detail):
    print(f"criterion {k} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_special_values():
    pins = [
        ("L(pi/4)", lobachevsky(PI / 4).value, 0.457983),
        ("L(pi/3)", lobachevsky(PI / 3).value, 0.338314),
        ("v_oct", v_oct().value, 3.663862),
        ("v_tet", v_tet().value, 1.014941),
        ("G", catalan_constant().value, 0.915965),
    ]
    ok = all(abs(got - want) <= 1e-6 for _, got, want in pins)
    _line(1, ok, ", ".join(f"{n}={got:.6f}" for n, got, _ in pins))
    for name, got, want in pins:
        assert abs(got - want) <= 1e-6, (name, got, want)


def test_criterion_02_orthoscheme_closed_forms():
    quarter = lobachevsky(PI / 4).value
    v344 = orthoscheme_volume(PI / 3, PI / 4, PI / 4).value
    v444 = orthoscheme_volume(PI / 4, PI / 4, PI / 4).value
    ok = abs(v344 - quarter / 6) <= 1e-9 and abs(v444 - quarter / 2) <= 1e-9
    _line(2, ok, f"R(pi/3,pi/4,pi/4)={v344:.12f}, R(pi/4,pi/4,pi/4)={v444:.12f}")
    assert abs(v344 - quarter / 6) <= 1e-9
    assert abs(v444 - quarter / 2) <= 1e-9


def test_criterion_03_family_volumes():
    l5 = lobell_volume(5).value
    l6 = lobell_volume(6).value
    a3 = antiprism_volume(3).value
    a4_quarter = antiprism_volume(4).value / 4
    ok_families = (abs(l5 - 4.306207) <= 1e-6 and abs(l6 - 6.023046) <= 1e-6
                   and abs(a3 - 3.663862) <= 1e-6)
    ok_a4 = abs(a4_quarter - 1.505761) <= 1e-6
    _line(3, ok_families and ok_a4,
          f"L5={l5:.6f}, L6={l6:.6f}, A3={a3:.6f}, A4/4={a4_quarter:.10f}")
    assert abs(l5 - 4.306207) <= 1e-6
    assert abs(l6 - 6.023046) <= 1e-6
    assert abs(a3 - 3.663862) <= 1e-6
    # 1.505761, not 1.505361 (a one-digit slip): mpmath at 110 digits, with
    # no raca code, gives vol(A_4)/4 = 1.5057615050117972... from the
    # docstring formula (see test_references_match_mpmath); ANTIPRISM_4 in
    # test_volumes.py, divided by 4, is the same number; and like the sibling
    # pins (L5 = 4.306207 for 4.3062076...) this is a six-decimal truncation.
    assert abs(a4_quarter - 1.505761) <= 1e-6, (
        f"antiprism_volume(4)/4 = {a4_quarter:.13f}, pinned 1.505761 "
        f"differs by {abs(a4_quarter - 1.505761):.2e}")


def test_criterion_04_independent_route_identity():
    delta = abs(12 * orthoscheme_volume(PI / 3, PI / 4, PI / 4).value
                - catalan_constant().value)
    _line(4, delta <= 1e-9, f"|12*R(pi/3,pi/4,pi/4) - G| = {delta:.2e}")
    assert delta <= 1e-9


def test_criterion_05_candidate_region():
    got = [(p.v_inf, p.v_f) for p in candidate_pairs()]
    want = [(2, 4), (2, 6), (2, 8), (3, 2), (3, 4)]
    _line(5, got == want, f"candidate_pairs() = {got}")
    assert got == want


def test_criterion_06_census_counts():
    _andreev_types.cache_clear()
    start = time.monotonic()
    records = {(p.v_inf, p.v_f): enumerate_types(p) for p in candidate_pairs()}
    elapsed = time.monotonic() - start
    counts = {pair: len(r.realizable_types) for pair, r in records.items()}
    vectors = {pair: face_statistics(r.polyhedra[0]).p
               for pair, r in records.items() if r.polyhedra}
    ok = (counts == {(2, 4): 0, (2, 6): 0, (2, 8): 1, (3, 2): 1, (3, 4): 1}
          and vectors[(3, 2)] == {3: 6}
          and vectors[(2, 8)] == {4: 8}
          and vectors[(3, 4)] == {3: 4, 4: 3}
          and elapsed < 300)
    _line(6, ok, f"counts={[counts[p] for p in sorted(counts)]}, "
                 f"face vectors ok, {elapsed:.1f}s")
    assert counts == {(2, 4): 0, (2, 6): 0, (2, 8): 1, (3, 2): 1, (3, 4): 1}
    assert vectors[(3, 2)] == {3: 6}
    assert vectors[(2, 8)] == {4: 8}
    assert vectors[(3, 4)] == {3: 4, 4: 3}
    assert elapsed < 300


def test_criterion_07_theorem():
    report = verify_minimality()
    witness = polyhedron_from_certificate(report.witness)
    iso = is_isomorphic(witness, catalog.triangular_bipyramid())
    ok = (report.verified and report.uniqueness and iso
          and abs(report.minimal_volume - 0.915965) <= 1e-6)
    _line(7, ok, f"minimal_volume={report.minimal_volume:.6f}, "
                 f"uniqueness={report.uniqueness}, witness=bipyramid:{iso}")
    assert abs(report.minimal_volume - 0.915965) <= 1e-6
    assert report.uniqueness
    assert iso
    assert report.verified


def test_criterion_08_andreev_checker():
    dodeca = andreev_check(catalog.dodecahedron())
    cube = andreev_check(catalog.cube())
    prism = andreev_check(catalog.triangular_prism())
    tet = andreev_check(catalog.tetrahedron())
    ok = (dodeca.passed
          and not cube.passed and cube.condition == 4 and len(cube.witness) == 4
          and not prism.passed and prism.condition == 4 and len(prism.witness) == 3
          and not tet.passed and tet.condition == 1)
    _line(8, ok, f"dodecahedron pass, cube c4 witness len {len(cube.witness)}, "
                 f"prism c4 witness len {len(prism.witness)}, tetrahedron c1")
    assert dodeca.passed
    assert not cube.passed and cube.condition == 4 and len(cube.witness) == 4
    assert not prism.passed and prism.condition == 4 and len(prism.witness) == 3
    assert not tet.passed and tet.condition == 1


def test_criterion_09_arithmeticity():
    d344 = {"size": 4, "m": [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 4], [2, 2, 4, 1]]}
    d444 = {"size": 4, "m": [[1, 4, 2, 2], [4, 1, 4, 2], [2, 4, 1, 4], [2, 2, 4, 1]]}
    tri = {"size": 3, "m": [[1, 4, 3], [4, 1, 6], [3, 6, 1]]}
    r344 = is_arithmetic_noncocompact(gram_from_coxeter(load_coxeter(d344)))
    r444 = is_arithmetic_noncocompact(gram_from_coxeter(load_coxeter(d444)))
    rtri = is_arithmetic_noncocompact(gram_from_coxeter(load_coxeter(tri)))

    rng = random.Random(2026)
    worst = 0.0
    for _ in range(10_000):
        x = SurdInteger(*(rng.randint(-20, 20) for _ in range(4)))
        y = SurdInteger(*(rng.randint(-20, 20) for _ in range(4)))
        exact = (x * y).value()
        approx = x.value() * y.value()
        scale = max(1.0, abs(exact))
        worst = max(worst, abs(exact - approx) / scale)

    ok = (r344.arithmetic and r444.arithmetic and not rtri.arithmetic
          and str(rtri.witness_product) == "-sqrt(6)" and worst < 1e-10)
    _line(9, ok, f"d344={r344.arithmetic}, d444={r444.arithmetic}, "
                 f"triangle witness {rtri.witness_product}, "
                 f"float cross-check worst rel err {worst:.1e}")
    assert r344.arithmetic and r444.arithmetic
    assert not rtri.arithmetic and str(rtri.witness_product) == "-sqrt(6)"
    assert worst < 1e-10


def test_criterion_10_property_suites():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(300):
        t = rng.uniform(-8.0, 8.0)
        lt = lobachevsky(t).value
        worst = max(worst,
                    abs(lobachevsky(-t).value + lt),
                    abs(lobachevsky(t + PI).value - lt),
                    abs(lobachevsky(2 * t).value
                        - 2 * lt - 2 * lobachevsky(t + PI / 2).value))
    # a spot-check that the quadrature route satisfies the same identities
    for t in (0.3, 1.1, 2.7):
        worst = max(worst, abs(lobachevsky_quadrature(-t).value
                               + lobachevsky_quadrature(t).value))

    identities_exact = True
    for pair in candidate_pairs():
        record = enumerate_types(pair)
        for p in record.polyhedra:
            profile = validate(p)
            stats = face_statistics(p)
            identities_exact &= (
                stats.w == 4 * profile.v_inf + 3 * profile.v_f
                and stats.wi == 4 * profile.v_inf
                and profile.v_inf + profile.v_f - profile.e + profile.f == 2)

    deterministic = True
    for pair in [(3, 2), (2, 8), (3, 4)]:
        base = enumerate_types(pair).realizable_types
        deterministic &= (
            enumerate_types(pair, reverse_branching=True).realizable_types == base
            and enumerate_types(pair, workers=2).realizable_types == base
            and enumerate_types(pair, workers=3,
                                reverse_branching=True).realizable_types == base)

    ok = worst <= 1e-10 and identities_exact and deterministic
    _line(10, ok, f"functional equations worst {worst:.1e}, "
                  f"integer identities exact: {identities_exact}, "
                  f"determinism: {deterministic}")
    assert worst <= 1e-10
    assert identities_exact
    assert deterministic
