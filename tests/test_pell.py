"""Real quadratic units, norm orbits, and geometric trace sums."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pss.exact_arith import is_square, sym
from pss.pell_engine import (
    QuadraticElement,
    balanced_representative,
    family_sum,
    fundamental_unit_plus,
    norm_orbits,
    orbit_sum,
    trace_bound,
    unit_order_mod,
)

UNIT_TABLE = {
    2: (3, 2),
    3: (2, 1),
    5: (Fraction(3, 2), Fraction(1, 2)),
    6: (5, 2),
    7: (8, 3),
    13: (Fraction(11, 2), Fraction(3, 2)),
    33: (23, 4),
}


def test_fundamental_units():
    for d, (x, y) in UNIT_TABLE.items():
        eps = fundamental_unit_plus(d)
        assert (eps.x, eps.y) == (Fraction(x), Fraction(y)), d
        assert eps.norm() == 1
        assert eps.is_integral()
        assert float(eps) > 1
        assert float(eps.conjugate()) > 0


# -- field arithmetic ----------------------------------------------------------

rat = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=6
)


@given(d=st.sampled_from([2, 3, 5, 33]), ax=rat, ay=rat, bx=rat, by=rat)
@settings(max_examples=200, deadline=None)
def test_norm_and_conjugate_are_multiplicative(d, ax, ay, bx, by):
    a = QuadraticElement(d, ax, ay)
    b = QuadraticElement(d, bx, by)
    prod = a * b
    assert prod.norm() == a.norm() * b.norm()
    assert prod.conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert prod.trace == 2 * (ax * bx + d * ay * by)


@given(d=st.sampled_from([2, 5]), ax=rat, ay=rat)
@settings(max_examples=100, deadline=None)
def test_inverse_and_powers(d, ax, ay):
    a = QuadraticElement(d, ax, ay)
    if a.norm() == 0:
        return
    one = QuadraticElement(d, 1, 0)
    assert a * a.inverse() == one
    assert a**3 == a * a * a
    assert a**-2 == (a.inverse()) ** 2
    assert a**0 == one


def test_float_embedding():
    a = QuadraticElement(5, Fraction(3, 2), Fraction(1, 2))
    assert abs(float(a) - (1.5 + 0.5 * math.sqrt(5))) < 1e-12
    assert a > 1
    assert a.conjugate() < 1


def test_integrality():
    assert QuadraticElement.half(5, 1, 1).is_integral()
    assert QuadraticElement.half(5, 1, 3).is_integral()
    assert not QuadraticElement.half(5, 1, 2).is_integral()
    assert not QuadraticElement.half(2, 1, 1).is_integral()
    assert QuadraticElement(2, 3, 2).is_integral()
    assert not QuadraticElement(2, Fraction(1, 3), 0).is_integral()


def test_mixed_radicands_rejected():
    a = QuadraticElement(2, 1, 1)
    b = QuadraticElement(3, 1, 1)
    with pytest.raises(AssertionError):
        a * b


def test_square_radicand_rejected():
    with pytest.raises(AssertionError):
        QuadraticElement(4, 1, 0)
    with pytest.raises(AssertionError):
        QuadraticElement(12, 1, 0)


# -- orbits --------------------------------------------------------------------


def test_norm_orbits_33_4():
    orbits = norm_orbits(33, 4)
    assert len(orbits) == 3
    traces = sorted(int(o.trace) for o in orbits)
    assert traces == [4, 7, 7]
    flags = [o.self_conjugate for o in orbits]
    assert sorted(flags) == [False, False, True]
    sums = {str(orbit_sum(o)) for o in orbits}
    assert sums == {"4/11*sqrt(33)", "25/11*sqrt(33)", "3/11*sqrt(33)"}
    plus = next(o for o in orbits if o.rep.y > 0)
    assert plus.rep == QuadraticElement.half(33, 7, 1)
    assert orbit_sum(plus) == sym(Fraction(25, 11), 0, 33)


def test_norm_orbits_small_d5():
    (orb,) = norm_orbits(5, 5)
    assert orb.rep == QuadraticElement.half(5, 5, 1)
    assert orb.self_conjugate
    assert orbit_sum(orb) == sym(3, 0, 5)
    (orb4,) = norm_orbits(5, 4)
    assert orb4.rep == QuadraticElement(5, 2, 0)
    assert orbit_sum(orb4) == sym(2, 0, 5)


def test_orbit_representatives_are_canonical():
    for d, c in [(33, 4), (5, 5), (5, 4), (5, 20), (2, 2), (2, 7)]:
        bound = trace_bound(d, c)
        for orb in norm_orbits(d, c):
            rep = orb.rep
            assert rep.norm() == c
            assert rep.is_integral()
            assert float(rep) > 0 and float(rep.conjugate()) > 0
            assert float(rep.trace) <= bound + 1e-9


def test_trace_bound_value():
    assert abs(trace_bound(33, 4) - 27.122905621972617) < 1e-9
    assert trace_bound(33, 4) < 28


def scan_r_solutions(d_full, c_full, congruence, bound):
    """Brute force traces t <= bound with t^2 - 4c a d-multiple of a square.

    The congruence pair (b0, M) restricts t to b0 mod M.  This is the
    independent cross-check for the orbit machinery.
    """
    b0, mod = congruence
    start = b0 % mod or mod
    out = []
    for t in range(start, int(bound) + 1, mod):
        disc = t * t - 4 * c_full
        if disc >= 0 and disc % d_full == 0 and is_square(disc // d_full):
            out.append(t)
    return out


def test_scan_agrees_with_orbits():
    # the scan may also pick up unit translates inside the bound, so the
    # canonical orbit traces are a subset of what it reports
    for d, c in [(33, 4), (5, 5), (5, 20), (2, 7)]:
        bound = trace_bound(d, c)
        scanned = set(scan_r_solutions(d, c, (0, 1), bound))
        orbit_traces = {int(o.trace) for o in norm_orbits(d, c)}
        assert orbit_traces <= scanned, (d, c)
    assert scan_r_solutions(33, 4, (0, 1), trace_bound(33, 4)) == [4, 7]


def test_scan_respects_congruence():
    hits = scan_r_solutions(33, 4, (2, 5), 100.0)
    assert all(t % 5 == 2 for t in hits)
    for t in hits:
        disc = t * t - 16
        assert disc % 33 == 0
        root = math.isqrt(disc // 33)
        assert root * root == disc // 33


def test_orbit_walk_stays_within_scan():
    # every translate of an orbit representative whose trace fits the bound
    # is rediscovered by the brute force scan
    d, c = 33, 4
    eps = fundamental_unit_plus(d)
    bound = 1000.0
    scanned = set(scan_r_solutions(d, c, (0, 1), bound))
    for orb in norm_orbits(d, c):
        for k in range(0, 4):
            member = orb.rep * eps**k
            t = member.trace
            if t.denominator == 1 and 0 < float(t) <= bound:
                assert int(t) in scanned


# -- geometric sums ------------------------------------------------------------


def _direct_orbit_sum(orbit, terms=60):
    rep, eta = orbit.rep, orbit.unit
    total = float(rep)
    t = float(rep) + float(rep.conjugate())
    for k in range(1, terms + 1):
        total += t / float(eta) ** k
    if not orbit.self_conjugate:
        total *= 2
    return total


def test_orbit_sum_matches_direct_series():
    for d, c in [(33, 4), (5, 5), (5, 4), (5, 20), (2, 7)]:
        for orb in norm_orbits(d, c):
            exact = orbit_sum(orb).float_value().real
            assert abs(exact - _direct_orbit_sum(orb)) < 1e-9, (d, c)


def test_orbit_sum_twelve_terms_suffice_for_large_units():
    # with unit 23 + 4*sqrt(33) the series loses a factor of about 46 per
    # term, so twelve terms already pin the closed form to nine digits
    plus = next(o for o in norm_orbits(33, 4) if o.rep.y > 0)
    exact = orbit_sum(plus).float_value().real
    assert abs(exact - _direct_orbit_sum(plus, terms=12)) < 1e-9


def _direct_family_sum(xi, eta, k_range=30):
    # min(member, conjugate) = norm / (larger embedding), which avoids the
    # catastrophic cancellation of evaluating the small conjugate directly
    c = float(xi.norm())
    d = xi.d
    total = 0.0
    for k in range(-k_range, k_range + 1):
        w = xi * eta**k
        total += c / (float(w.x) + abs(float(w.y)) * math.sqrt(d))
    return total


def test_family_sum_matches_truncated_series():
    e5 = fundamental_unit_plus(5)
    e33 = fundamental_unit_plus(33)
    cases = [
        (QuadraticElement.half(5, 5, 1), e5),
        (QuadraticElement(5, 2, 0), e5),
        (QuadraticElement.half(5, 10, 2), e5**2),
        (QuadraticElement.half(33, 7, 1), e33),
        (QuadraticElement.half(33, 7, -1), e33),
    ]
    for xi, eta in cases:
        val = family_sum(xi, eta)
        assert val.x == 0
        numeric = _direct_family_sum(xi, eta)
        assert abs(float(val) - numeric) < 1e-6, (xi, eta)


def test_family_sum_is_translate_invariant():
    e5 = fundamental_unit_plus(5)
    xi = QuadraticElement.half(5, 5, 1)
    base = family_sum(xi, e5)
    for k in (-3, -1, 1, 5):
        assert family_sum(xi * e5**k, e5) == base


def test_balanced_representative_window():
    e5 = fundamental_unit_plus(5)
    for xi in [QuadraticElement.half(5, 5, 1) * e5**k for k in (-4, 0, 7)]:
        bal = balanced_representative(xi, e5)
        c = bal.norm()
        assert bal.norm() == xi.norm()
        assert float(bal) ** 2 <= float(c) + 1e-9
        step = bal * e5
        assert float(step) ** 2 > float(c)
        ratio = bal / xi
        assert ratio.norm() == 1 and ratio.is_integral()


# -- unit congruences ----------------------------------------------------------


def test_unit_order_mod_anchors():
    e5 = fundamental_unit_plus(5)
    assert unit_order_mod(e5, 1) == 1
    assert unit_order_mod(e5, 5) == 10
    assert unit_order_mod(e5, 11) == 5
    e33 = fundamental_unit_plus(33)
    assert unit_order_mod(e33, 11) == 11


def test_unit_order_is_minimal():
    e5 = fundamental_unit_plus(5)
    for modulus in (5, 11):
        j = unit_order_mod(e5, modulus)
        for smaller in range(1, j):
            w = (e5**smaller - 1) * Fraction(1, modulus)
            assert not w.is_integral()
        w = (e5**j - 1) * Fraction(1, modulus)
        assert w.is_integral()
