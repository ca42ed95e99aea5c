"""Series assembly: coefficients, corrections, expansions, crosschecks."""

import json
from fractions import Fraction

import pytest

from pss import series_builder
from pss.exact_arith import sym
from pss.lattice_core import parse_gram
from pss.cli import main
from pss.series_builder import (
    RationalityError,
    SeriesRequest,
    identity_count,
    plain_coefficient,
    pss_coefficient,
    pss_expansion,
    shadow_constant,
    theta_crosscheck,
    weight2_correction,
)

from conftest import (
    GRAM_EIGHT,
    GRAM_HYPERBOLIC,
    GRAM_NONSQUARE,
    GRAM_OVERPARTITION,
    GRAM_SPLIT,
    GRAM_TRIVIAL,
    GRAM_ZX2,
    form_of,
)

F32 = Fraction(3, 2)
F2 = Fraction(2)


def expand(text, weight, m, precision, beta=None):
    req = SeriesRequest(parse_gram(text), weight, m, beta, precision)
    return pss_expansion(req)


def series_of(exp, lift):
    comp = exp.component([Fraction(v) for v in lift])
    return [str(c) for c in comp.coefficients]


# -- request validation --------------------------------------------------------


def test_request_validation():
    gram = parse_gram(GRAM_TRIVIAL)
    with pytest.raises(ValueError):
        SeriesRequest(gram, Fraction(5, 2), Fraction(1), None, 3)
    with pytest.raises(ValueError):
        SeriesRequest(gram, F2, None, None, 3)
    with pytest.raises(ValueError):
        SeriesRequest(gram, F2, Fraction(-1), None, 3)
    with pytest.raises(ValueError):
        SeriesRequest(gram, F2, Fraction(1), None, -1)


def test_incompatible_weight_signature():
    with pytest.raises(ValueError):
        expand(GRAM_ZX2, F2, Fraction(1), 2)
    with pytest.raises(ValueError):
        expand(GRAM_TRIVIAL, F32, Fraction(1), 2)
    with pytest.raises(ValueError):
        expand(GRAM_SPLIT, F32, Fraction(1), 2)


def test_index_congruence_enforced():
    with pytest.raises(ValueError):
        expand(GRAM_TRIVIAL, F2, Fraction(3, 4), 2)
    with pytest.raises(ValueError):
        expand(GRAM_SPLIT, F2, Fraction(1, 2), 2, beta=(Fraction(1, 2), 0))


# -- identity and shadow terms ---------------------------------------------------


def test_identity_count_values():
    triv = form_of(GRAM_TRIVIAL)
    z = triv.zero()
    counts = [identity_count(triv, Fraction(1), z, z, Fraction(n)) for n in range(5)]
    assert counts == [1, 2, 0, 0, 2]
    split = form_of(GRAM_SPLIT)
    beta = split.element_from_lift((Fraction(1, 2), Fraction(0)))
    # both lambda = 1 and lambda = -1 land on beta, which is 2-torsion
    assert identity_count(split, Fraction(3, 4), beta, beta, Fraction(3, 4)) == 2
    assert identity_count(split, Fraction(3, 4), beta, split.zero(), Fraction(3, 4)) == 0
    assert identity_count(split, Fraction(3, 4), beta, split.zero(), Fraction(3)) == 2


def test_shadow_constant_anchors():
    triv = form_of(GRAM_TRIVIAL)
    z = triv.zero()
    one = Fraction(1)
    assert shadow_constant(triv, one, z, z, one, Fraction(2)) == sym(-24)
    assert shadow_constant(triv, one, z, z, one, Fraction(-2)) == sym(-24)
    assert shadow_constant(triv, one, z, z, Fraction(2), Fraction(3)) == sym(-48)
    assert shadow_constant(triv, one, z, z, Fraction(2), Fraction(-3)) == sym(-48)


def test_weight2_correction_anchor():
    triv = form_of(GRAM_TRIVIAL)
    z = triv.zero()
    value = weight2_correction(triv, Fraction(1), z, z, Fraction(1))
    assert value == sym(-12)


# -- rationality of coefficients ---------------------------------------------------


def test_irrational_term_raises_rationality_error(monkeypatch, capsys):
    monkeypatch.setattr(series_builder, "weight2_correction",
                        lambda *args: sym(3, 0, 5))
    form = form_of(GRAM_TRIVIAL)
    z = form.zero()
    with pytest.raises(RationalityError):
        pss_coefficient(form, F2, Fraction(1), z, z, Fraction(1))
    rc = main(["compute", "--gram", GRAM_TRIVIAL, "--weight", "2", "--m", "1",
               "--prec", "1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("rationality failure:")
    assert "sqrt(5)" in captured.err


# -- frozen expansions ------------------------------------------------------------


def test_weight2_series_trivial_lattice():
    exp = expand(GRAM_TRIVIAL, F2, Fraction(1), 8)
    assert series_of(exp, ()) == [
        "1", "-24", "-72", "-96", "-168", "-144", "-288", "-192", "-360"]
    assert exp.render_text() == (
        "(): 1 - 24*q - 72*q^2 - 96*q^3 - 168*q^4 - 144*q^5"
        " - 288*q^6 - 192*q^7 - 360*q^8")


def test_weight2_series_hyperbolic_plane_matches_trivial():
    exp = expand(GRAM_HYPERBOLIC, F2, Fraction(1), 4)
    assert series_of(exp, (0, 0)) == ["1", "-24", "-72", "-96", "-168"]


def test_plain_series_rank_one():
    exp = expand(GRAM_ZX2, None, None, 5)
    assert series_of(exp, (0,)) == ["1", "-6", "-12", "-16", "-18", "-24"]
    comp = exp.component((Fraction(1, 2),))
    assert comp.offset == Fraction(3, 4)
    assert [str(c) for c in comp.coefficients] == ["-4", "-12", "-12", "-24", "-12"]


def test_plain_series_rank_three():
    exp = expand(GRAM_OVERPARTITION, None, None, 8)
    assert series_of(exp, (0, 0, 0)) == [
        "1", "-2", "-4", "-8", "-10", "-8", "-8", "-16", "-20"]
    half = (Fraction(0), Fraction(0), Fraction(1, 2))
    comp = exp.component(half)
    assert comp.offset == Fraction(3, 4)
    assert [str(c) for c in comp.coefficients] == [
        "-4", "-4", "-12", "-8", "-12", "-12", "-16", "-12"]
    mixed = exp.component((0, Fraction(1, 2), Fraction(1, 2)))
    assert mixed.offset == 0
    assert [str(c) for c in mixed.coefficients] == [
        "0", "-4", "-8", "-8", "-8", "-16", "-16", "-8", "-16"]


def test_weight32_series_vanishes_on_rank_one():
    # the target space of this series is trivial, so the identity term, the
    # naive terms and the degenerate correction cancel at every exponent
    exp = expand(GRAM_ZX2, F32, Fraction(1), 3)
    for comp in exp.components:
        assert all(c == 0 for c in comp.coefficients), comp.lift


def test_weight32_series_overpartition_lattice():
    # cheap when the acceptance module has already warmed the factor memo
    exp = expand(GRAM_EIGHT, F32, Fraction(1), 3)
    assert len(exp.components) == 8
    h = Fraction(1, 2)
    assert series_of(exp, (0, 0, 0)) == ["1/2", "3", "6", "4"]
    assert series_of(exp, (h, 0, 0)) == ["-1/2", "-3", "-6", "-4"]
    assert series_of(exp, (0, 0, h)) == ["-1/2", "-3", "-6", "-4"]
    assert series_of(exp, (0, h, 0)) == ["4", "0", "12"]
    assert series_of(exp, (h, h, 0)) == ["-4", "0", "-12"]
    assert series_of(exp, (0, h, h)) == ["-4", "0", "-12"]
    assert series_of(exp, (h, 0, h)) == ["-6", "-12", "-12"]
    assert series_of(exp, (h, h, h)) == ["-3", "-12", "-15"]
    assert exp.component((0, h, 0)).offset == Fraction(3, 4)
    assert exp.component((h, 0, h)).offset == Fraction(1, 2)
    assert exp.component((h, h, h)).offset == Fraction(1, 4)


def test_weight2_series_split_lattice():
    exp = expand(GRAM_SPLIT, F2, Fraction(1), 7)
    h = Fraction(1, 2)
    assert series_of(exp, (0, 0)) == [
        "1", "-16", "-24", "-64", "-72", "-96", "-96", "-128"]
    assert series_of(exp, (0, h)) == [
        "-4", "-24", "-52", "-56", "-72", "-128", "-124"]
    assert series_of(exp, (h, 0)) == [
        "-16", "-32", "-48", "-96", "-80", "-96", "-160"]
    assert series_of(exp, (h, h)) == [
        "0", "-8", "-48", "-32", "-96", "-48", "-192", "-64"]
    assert exp.component((0, h)).offset == Fraction(1, 4)
    assert exp.component((h, 0)).offset == Fraction(3, 4)


def test_weight2_series_nonsquare_discriminant():
    # exercises unit orbit walks in a real quadratic field; the square roots
    # from the shadow constants must cancel against the orbit sums exactly.
    # cheap when the acceptance module has already warmed the factor memo
    exp = expand(GRAM_NONSQUARE, F2, Fraction(1), 3)
    assert series_of(exp, (0, 0)) == ["1", "-30", "-20", "-40"]
    fifth = Fraction(1, 5)
    assert series_of(exp, (fifth, 3 * fifth)) == ["-5", "-10", "-60"]
    assert series_of(exp, (4 * fifth, 2 * fifth)) == ["-5", "-10", "-60"]
    assert series_of(exp, (2 * fifth, fifth)) == ["-15", "-35", "-30"]
    assert series_of(exp, (3 * fifth, 4 * fifth)) == ["-15", "-35", "-30"]
    assert exp.component((fifth, 3 * fifth)).offset == fifth
    assert exp.component((2 * fifth, fifth)).offset == 4 * fifth


# -- structural properties ---------------------------------------------------------


def _neg_lift(form, lift):
    gamma = form.element_from_lift([Fraction(v) for v in lift])
    return form.lift(form.neg(gamma))


def test_component_symmetry_under_negation():
    runs = [
        (GRAM_SPLIT, expand(GRAM_SPLIT, F2, Fraction(1), 4)),
        (GRAM_NONSQUARE, expand(GRAM_NONSQUARE, F2, Fraction(1), 3)),
        (GRAM_OVERPARTITION, expand(GRAM_OVERPARTITION, None, None, 4)),
    ]
    for text, exp in runs:
        form = form_of(text)
        for comp in exp.components:
            partner = exp.component(_neg_lift(form, comp.lift))
            assert comp.coefficients == partner.coefficients, (text, comp.lift)
            assert comp.offset == partner.offset


def test_offsets_match_quadratic_form():
    for text, exp in [
        (GRAM_SPLIT, expand(GRAM_SPLIT, F2, Fraction(1), 2)),
        (GRAM_OVERPARTITION, expand(GRAM_OVERPARTITION, None, None, 2)),
    ]:
        form = form_of(text)
        assert len(exp.components) == form.order
        for comp in exp.components:
            gamma = form.element_from_lift([Fraction(v) for v in comp.lift])
            assert comp.offset == (-form.q(gamma)) % 1


def test_plain_constant_term_marks_zero_element():
    exp = expand(GRAM_OVERPARTITION, None, None, 2)
    form = form_of(GRAM_OVERPARTITION)
    for comp in exp.components:
        if comp.offset != 0:
            continue
        expected = "1" if all(v == 0 for v in comp.lift) else "0"
        assert str(comp.coefficients[0]) == expected


def test_json_round_trip():
    exp = expand(GRAM_ZX2, None, None, 3)
    data = exp.to_dict()
    assert json.loads(exp.to_json()) == data
    assert data["weight"] == "3/2"
    assert data["m"] is None and data["beta"] is None
    assert data["gram"] == [[2]]
    assert data["precision"] == 3
    comps = {tuple(c["gamma"]): c for c in data["components"]}
    assert comps[("0",)]["coefficients"]["0"] == "1"
    assert comps[("1/2",)]["offset"] == "3/4"
    assert comps[("1/2",)]["coefficients"]["3/4"] == "-4"

    exp2 = expand(GRAM_TRIVIAL, F2, Fraction(1), 2)
    data2 = exp2.to_dict()
    assert data2["weight"] == "2"
    assert data2["m"] == "1"
    assert data2["beta"] == []


def test_component_lookup_errors():
    exp = expand(GRAM_ZX2, None, None, 2)
    with pytest.raises(KeyError):
        exp.component((Fraction(1, 3),))


# -- coefficient level entry points --------------------------------------------


def test_pss_coefficient_matches_expansion():
    form = form_of(GRAM_TRIVIAL)
    z = form.zero()
    exp = expand(GRAM_TRIVIAL, F2, Fraction(1), 5)
    comp = exp.component(())
    for j in range(6):
        direct = pss_coefficient(form, F2, Fraction(1), z, z, Fraction(j))
        assert direct == comp.coefficients[j]


def test_plain_coefficient_matches_expansion():
    form = form_of(GRAM_ZX2)
    exp = expand(GRAM_ZX2, None, None, 4)
    half = form.element_from_lift((Fraction(1, 2),))
    comp = exp.component((Fraction(1, 2),))
    for j, value in enumerate(comp.coefficients):
        direct = plain_coefficient(form, half, comp.offset + j)
        assert direct == value


# -- theta crosscheck ---------------------------------------------------------


def test_theta_crosscheck_split_lattice():
    records = theta_crosscheck(parse_gram(GRAM_SPLIT), 1, 2)
    assert len(records) == 38
    assert all(rec.ok for rec in records)


def test_theta_crosscheck_rejects_bad_index():
    with pytest.raises(ValueError):
        theta_crosscheck(parse_gram(GRAM_SPLIT), 0, 2)
    with pytest.raises(ValueError):
        theta_crosscheck(parse_gram(GRAM_SPLIT), -1, 2)
