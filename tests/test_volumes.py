"""Closed-form volumes and vertex-count bounds."""

import math
import re
from pathlib import Path

import pytest

from raca.errors import DomainError
from raca.lobachevsky import catalan_constant, lobachevsky, v_oct, v_tet
from raca.volumes import (
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

PI = math.pi

# independent high-precision references
ORTHO_344 = 0.076330466181434917921   # = L(pi/4)/6
ORTHO_444 = 0.22899139854430475376    # = L(pi/4)/2
LOBELL_5 = 4.3062076007308086529
LOBELL_6 = 6.0230460200471888236
ANTIPRISM_3 = 3.6638623767088760602   # = v_oct
ANTIPRISM_4 = 6.0230460200471888236
CATALAN = 0.91596559417721901505


def test_orthoscheme_reference_values():
    assert orthoscheme_volume(PI / 3, PI / 4, PI / 4).value == pytest.approx(ORTHO_344, abs=1e-13)
    assert orthoscheme_volume(PI / 4, PI / 4, PI / 4).value == pytest.approx(ORTHO_444, abs=1e-13)


def test_orthoscheme_closed_forms():
    quarter = lobachevsky(PI / 4).value
    assert orthoscheme_volume(PI / 3, PI / 4, PI / 4).value == pytest.approx(quarter / 6, abs=1e-9)
    assert orthoscheme_volume(PI / 4, PI / 4, PI / 4).value == pytest.approx(quarter / 2, abs=1e-9)


def test_orthoscheme_decomposition_consistency():
    # one sixth of the octahedron two ways, and the bipyramid as 12 copies
    d344 = orthoscheme_volume(PI / 3, PI / 4, PI / 4).value
    assert 12.0 * d344 == pytest.approx(catalan_constant().value, abs=1e-10)
    assert 2.0 * named_volume("DeltaPrime344").value == pytest.approx(
        12.0 * d344, abs=1e-10)


def test_orthoscheme_delta_values():
    assert orthoscheme_delta(PI / 4, PI / 4, PI / 4) == pytest.approx(PI / 4, abs=1e-12)
    assert orthoscheme_delta(PI / 3, PI / 4, PI / 4) == pytest.approx(PI / 4, abs=1e-12)


def test_orthoscheme_euclidean_boundary():
    # delta = 0: the doubly rectangular tetrahedron degenerates, volume 0
    report = orthoscheme_volume(PI / 4, PI / 3, PI / 4)
    assert orthoscheme_delta(PI / 4, PI / 3, PI / 4) == pytest.approx(0.0, abs=1e-7)
    assert report.value == pytest.approx(0.0, abs=1e-9)
    assert report.value >= 0.0


def test_orthoscheme_domain_errors():
    with pytest.raises(DomainError):
        orthoscheme_volume(0.0, PI / 4, PI / 4)
    with pytest.raises(DomainError):
        orthoscheme_volume(PI / 4, PI / 4, -0.1)
    with pytest.raises(DomainError):
        orthoscheme_volume(PI / 4, PI / 4, PI / 2 + 0.2)
    with pytest.raises(DomainError):
        orthoscheme_volume(PI / 2, PI / 4, PI / 4)  # alpha at the right angle
    with pytest.raises(DomainError):
        orthoscheme_volume(PI / 4, PI / 4, PI / 2)  # gamma at the right angle
    with pytest.raises(DomainError):
        orthoscheme_volume(1.4, 1.5, 1.4)  # negative radicand: not hyperbolic


def test_lobell_reference_values():
    assert lobell_volume(5).value == pytest.approx(LOBELL_5, abs=1e-12)
    assert lobell_volume(6).value == pytest.approx(LOBELL_6, abs=1e-12)


def test_lobell_six_decimal_pins():
    assert lobell_volume(5).value == pytest.approx(4.306207, abs=1e-6)
    assert lobell_volume(6).value == pytest.approx(6.023046, abs=1e-6)


def test_lobell_domain():
    for bad in (4, 3, 0, -1):
        with pytest.raises(DomainError):
            lobell_volume(bad)
    with pytest.raises(DomainError):
        lobell_volume(2.5)
    with pytest.raises(DomainError):
        lobell_volume(10**6 + 1)


def test_lobell_monotonic():
    prev = 0.0
    for n in range(5, 101):
        cur = lobell_volume(n).value
        assert cur > prev
        prev = cur


def test_lobell_linear_growth_rate():
    # vol(L_n)/n approaches (5/4) v_tet
    assert lobell_volume(10000).value / 10000 == pytest.approx(
        1.25 * v_tet().value, abs=1e-3)


def test_antiprism_reference_values():
    assert antiprism_volume(3).value == pytest.approx(ANTIPRISM_3, abs=1e-12)
    assert antiprism_volume(4).value == pytest.approx(ANTIPRISM_4, abs=1e-12)
    assert antiprism_volume(3).value == pytest.approx(v_oct().value, abs=1e-10)


def _written(name):
    """The decimal literal assigned to `name` above, with all its digits."""
    source = Path(__file__).read_text()
    return re.search(rf"^{name} = ([0-9.]+)", source, re.MULTILINE).group(1)


def test_references_match_mpmath():
    # the references above, rederived at 40 digits with no raca code:
    # L(theta) = Cl_2(2 theta)/2 and the formulas of the volume docstrings
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        def lob(theta):
            return mp.clsin(2, 2 * theta) / 2

        def antiprism(n):
            return 2 * n * (lob(mp.pi / 4 + mp.pi / (2 * n))
                            + lob(mp.pi / 4 - mp.pi / (2 * n)))

        def lobell(n):
            theta = mp.pi / 2 - mp.acos(1 / (2 * mp.cos(mp.pi / n)))
            return mp.mpf(n) / 2 * (2 * lob(theta) + lob(theta + mp.pi / n)
                                    + lob(theta - mp.pi / n)
                                    - lob(2 * theta - mp.pi / 2))

        for name, exact in (("ANTIPRISM_3", antiprism(3)), ("ANTIPRISM_4", antiprism(4)),
                            ("LOBELL_5", lobell(5)), ("LOBELL_6", lobell(6))):
            assert abs(mp.mpf(_written(name)) - exact) <= 1e-18, name
        # acceptance criterion 3 pins A(4)/4 truncated to six decimals
        assert abs(antiprism(4) / 4 - mp.mpf("1.505761")) <= 1e-6


def test_antiprism_domain():
    for bad in (2, 1, 0, -3):
        with pytest.raises(DomainError):
            antiprism_volume(bad)
    with pytest.raises(DomainError):
        antiprism_volume(3.5)


def test_named_volumes():
    g = catalan_constant().value
    assert named_volume("P32").value == pytest.approx(g, abs=1e-13)
    assert named_volume("P28").value == pytest.approx(2.0 * g, abs=1e-13)
    assert named_volume("P34").value == pytest.approx(ANTIPRISM_4 / 4.0, abs=1e-13)
    assert named_volume("Delta344").value == pytest.approx(ORTHO_344, abs=1e-13)
    assert named_volume("Delta444").value == pytest.approx(ORTHO_444, abs=1e-13)
    assert named_volume("DeltaPrime344").value == pytest.approx(6.0 * ORTHO_344, abs=1e-12)
    assert named_volume("Lobell(7)").value == pytest.approx(lobell_volume(7).value, abs=0.0)
    assert named_volume("Antiprism(9)").value == pytest.approx(antiprism_volume(9).value, abs=0.0)


def test_named_volume_unknown():
    for bad in ("Nope", "Lobell(4)", "Antiprism(x)", "", "P99",
                "Lobell(" + "9" * 5000 + ")", "Antiprism(" + "0" * 5000 + "5)"):
        with pytest.raises(DomainError):
            named_volume(bad)


def test_volume_reports_carry_bounds():
    for report in (orthoscheme_volume(PI / 3, PI / 4, PI / 4), lobell_volume(17),
                   antiprism_volume(5), named_volume("P32")):
        assert 0.0 < report.abs_error_bound < 1e-9
        assert report.formula


def test_atkinson_compact():
    pair = atkinson_bounds_compact(20)
    assert pair.lower == pytest.approx(1.3739483912658285226, abs=1e-12)
    assert pair.upper == pytest.approx(6.3433850400603351564, abs=1e-12)
    # six-decimal published rounding of the same bound
    assert pair.upper == pytest.approx(6.343381, abs=5e-6)
    assert not pair.lower_attained


def test_atkinson_compact_domain():
    for bad in (8, 18, 19, 21, 0, -2, 2**53 + 2, 10**400):
        with pytest.raises(DomainError):
            atkinson_bounds_compact(bad)
    with pytest.raises(DomainError):
        atkinson_bounds_compact(20.0)
    with pytest.raises(DomainError):
        atkinson_bounds_compact(True)


def test_atkinson_ideal():
    six = atkinson_bounds_ideal(6)
    assert six.lower == pytest.approx(v_oct().value, abs=1e-12)
    assert six.upper == pytest.approx(v_oct().value, abs=1e-12)
    assert six.lower_attained

    eight = atkinson_bounds_ideal(8)
    assert eight.lower == pytest.approx(5.4957935650633140903, abs=1e-12)
    assert eight.upper == pytest.approx(7.3277247534177521204, abs=1e-12)
    assert eight.lower == pytest.approx(5.495794, abs=2e-6)
    assert eight.upper == pytest.approx(7.327725, abs=2e-6)
    assert not eight.lower_attained


def test_atkinson_ideal_domain():
    for bad in (5, 4, 0, -6, 2**53 + 1, 10**400, 6.0):
        with pytest.raises(DomainError):
            atkinson_bounds_ideal(bad)


def test_mixed_bounds():
    assert mixed_lower_bound(1, 18) == pytest.approx(1.6029397898101332763, abs=1e-12)
    assert mixed_lower_bound(1, 18) == pytest.approx(1.602939, abs=2e-6)
    assert mixed_lower_bound(3, 2) == pytest.approx(0.68697419563291426129, abs=1e-12)
    assert mixed_bounds(3, 2).upper == pytest.approx(4.9325393847, abs=1e-9)
    assert mixed_bounds(2, 8).upper == pytest.approx(6.9066392204, abs=1e-9)
    assert mixed_bounds(3, 4).upper == pytest.approx(6.2012163927, abs=1e-9)


def test_mixed_bounds_domain():
    with pytest.raises(DomainError):
        mixed_bounds(0, 8)
    with pytest.raises(DomainError):
        mixed_bounds(2, 3)
    with pytest.raises(DomainError):
        mixed_bounds(2, -2)
    with pytest.raises(DomainError, match="V_inf must be an integer"):
        mixed_bounds(1.0, 2)
    for big in ((10**400, 2), (2, 10**400), (2**53 + 1, 2)):
        with pytest.raises(DomainError):
            mixed_bounds(*big)


def test_known_volumes_sit_inside_their_bounds():
    g = catalan_constant().value
    for (vi, vf), value in (((3, 2), g), ((2, 8), 2.0 * g), ((3, 4), ANTIPRISM_4 / 4.0)):
        pair = mixed_bounds(vi, vf)
        assert pair.lower <= value <= pair.upper


def test_family_identity_antiprism_equals_lobell():
    # A_4 and L_6 have the same volume in closed form
    assert antiprism_volume(4).value == pytest.approx(lobell_volume(6).value, abs=1e-12)


# Test-side copies of the closed forms as each once propagated its own bound:
# the terms summed in order, then scaled.  Every price must keep these bits.
def _reference_sum(parts):
    total = bound = 0.0
    for coeff, arg in parts:
        r = lobachevsky(arg)
        total += coeff * r.value
        bound += abs(coeff) * r.abs_error_bound
    return total, bound


def _reference_orthoscheme(alpha, beta, gamma):
    delta = orthoscheme_delta(alpha, beta, gamma)
    half_pi = PI / 2
    total, bound = _reference_sum(
        ((1.0, alpha + delta), (-1.0, alpha - delta), (1.0, gamma + delta),
         (-1.0, gamma - delta), (-1.0, half_pi - beta + delta),
         (1.0, half_pi - beta - delta), (2.0, half_pi - delta)))
    return max(total / 4.0, 0.0), "kellerhals(alpha,beta,gamma)", bound / 4.0


def _reference_lobell(n):
    theta = PI / 2 - math.acos(1.0 / (2.0 * math.cos(PI / n)))
    total, bound = _reference_sum(((2.0, theta), (1.0, theta + PI / n), (1.0, theta - PI / n),
                                   (-1.0, 2.0 * theta - PI / 2)))
    return total * n / 2.0, "lobell(n)", bound * n / 2.0


def _reference_antiprism(n):
    r1, r2 = lobachevsky(PI / 4 + PI / (2 * n)), lobachevsky(PI / 4 - PI / (2 * n))
    return (2.0 * n * (r1.value + r2.value), "antiprism(n)",
            2.0 * n * (r1.abs_error_bound + r2.abs_error_bound))


def _reference_named(name):
    quarter = lobachevsky(PI / 4)
    a4 = _reference_antiprism(4)
    d344 = _reference_orthoscheme(PI / 3, PI / 4, PI / 4)
    d444 = _reference_orthoscheme(PI / 4, PI / 4, PI / 4)
    return {
        "P32": (2.0 * quarter.value, "2*L(pi/4)", 2.0 * quarter.abs_error_bound),
        "P28": (4.0 * quarter.value, "4*L(pi/4)", 4.0 * quarter.abs_error_bound),
        "P34": (a4[0] / 4.0, "antiprism(4)/4", a4[2] / 4.0),
        "Delta344": (d344[0], "kellerhals(pi/3,pi/4,pi/4)", d344[2]),
        "Delta444": (d444[0], "kellerhals(pi/4,pi/4,pi/4)", d444[2]),
        "DeltaPrime344": (6.0 * d344[0], "6*kellerhals(pi/3,pi/4,pi/4)", 6.0 * d344[2]),
    }[name]


def _bits(value, formula, bound):
    return value.hex(), formula, bound.hex()


def _same_price(got, reference, *args):
    """The report `got(*args)` has the bits of `reference(*args)`, or both
    raise DomainError with one message."""
    try:
        want = _bits(*reference(*args))
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            got(*args)
        assert str(raised.value) == str(exc)
        return
    report = got(*args)
    assert _bits(report.value, report.formula, report.abs_error_bound) == want, args


def test_orthoscheme_keeps_its_bits_on_a_grid():
    grid = [k * PI / 120 for k in range(1, 61)]
    for alpha in grid:
        for beta in grid:
            for gamma in grid:
                _same_price(orthoscheme_volume, _reference_orthoscheme, alpha, beta, gamma)


def test_family_and_named_volumes_keep_their_bits():
    for n in (*range(3, 3000), 10**5, 999_999, 10**6):
        _same_price(antiprism_volume, _reference_antiprism, n)
        if n >= 5:
            _same_price(lobell_volume, _reference_lobell, n)
    for name in ("P32", "P28", "P34", "Delta344", "Delta444", "DeltaPrime344"):
        _same_price(named_volume, _reference_named, name)
    for n in (7, 9, 10**6):
        _same_price(named_volume, lambda name: _reference_lobell(n), f"Lobell({n})")
        _same_price(named_volume, lambda name: _reference_antiprism(n), f"Antiprism({n})")
    for got, factor, theta in ((v_oct, 8.0, PI / 4), (v_tet, 3.0, PI / 3)):
        r = lobachevsky(theta)
        assert _bits(got().value, "", got().abs_error_bound) == \
            _bits(factor * r.value, "", factor * r.abs_error_bound)


def test_census_stand_in_price_keeps_its_bits():
    from raca.census import _type_volume, candidate_pairs

    g = catalan_constant()
    for pair in candidate_pairs():
        k = 4 * pair.v_inf + pair.v_f
        report, known = _type_volume("not a closed form", pair)
        assert not known
        coeff = (k - 8) / 8.0
        assert _bits(report.value, report.formula, report.abs_error_bound) == _bits(
            g.value / 8.0 * (k - 8), f"lower bound ({k} - 8)*G/8", abs(coeff) * g.abs_error_bound)
