"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints one PASS line once its
assertions hold.  The module runs first in the suite, so the L-value memo
it warms up makes the later regression suites cheap.
"""

import time
from fractions import Fraction

import pytest

from pss import local_counting
from pss.exact_arith import divisor_functions, sym
from pss.lattice_core import build_discriminant_form, parse_gram
from pss.local_counting import count_solutions, local_factor, ltilde_at
from pss.oracles import check_kronecker_hurwitz, check_prop20, hurwitz
from pss.pell_engine import (
    family_sum,
    fundamental_unit_plus,
    norm_orbits,
    orbit_sum,
    trace_bound,
    unit_order_mod,
)
from pss.series_builder import (
    SeriesRequest,
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
H = Fraction(1, 2)

_REQUESTS = {
    "overpartition32": (GRAM_EIGHT, F32, Fraction(1), 3),
    "trivial2": (GRAM_TRIVIAL, F2, Fraction(1), 20),
    "split2": (GRAM_SPLIT, F2, Fraction(1), 7),
    "z3plain": (GRAM_OVERPARTITION, None, None, 8),
    "zx2plain": (GRAM_ZX2, None, None, 5),
    "nonsquare2": (GRAM_NONSQUARE, F2, Fraction(1), 3),
}

_EXPANSIONS = {}
_FITTED = []


@pytest.fixture(scope="module", autouse=True)
def record_fits():
    """Record every local factor that is fitted while this module runs."""
    fit = local_counting._fit_local_factor

    def recording_fit(*args):
        factor = fit(*args)
        _FITTED.append(factor)
        return factor

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(local_counting, "_fit_local_factor", recording_fit)
        yield


def expansion(name):
    """Expansions shared between criteria, computed once on first use."""
    if name not in _EXPANSIONS:
        text, weight, m, prec = _REQUESTS[name]
        req = SeriesRequest(parse_gram(text), weight, m, None, prec)
        _EXPANSIONS[name] = pss_expansion(req)
    return _EXPANSIONS[name]


def series(exp, lift):
    comp = exp.component([Fraction(v) for v in lift])
    return [str(c) for c in comp.coefficients]


def test_criterion_01_overpartition_series():
    t0 = time.monotonic()
    exp = expansion("overpartition32")
    elapsed = time.monotonic() - t0
    assert series(exp, (0, 0, 0)) == ["1/2", "3", "6", "4"]
    assert series(exp, (H, 0, 0)) == ["-1/2", "-3", "-6", "-4"]
    assert series(exp, (0, 0, H)) == ["-1/2", "-3", "-6", "-4"]
    assert series(exp, (0, H, 0)) == ["4", "0", "12"]
    assert series(exp, (H, H, 0)) == ["-4", "0", "-12"]
    assert series(exp, (0, H, H)) == ["-4", "0", "-12"]
    assert series(exp, (H, 0, H)) == ["-6", "-12", "-12"]
    assert series(exp, (H, H, H)) == ["-3", "-12", "-15"]
    assert exp.component((0, H, 0)).offset == Fraction(3, 4)
    assert exp.component((H, 0, H)).offset == Fraction(1, 2)
    assert exp.component((H, H, H)).offset == Fraction(1, 4)
    assert elapsed < 120.0, "took %.1fs" % elapsed
    print("ACCEPTANCE 1: PASS")


def test_criterion_02_weight_two_trivial_lattice():
    exp = expansion("trivial2")
    comp = exp.component(())
    assert comp.coefficients[0] == 1
    for n in range(1, 21):
        sigma1 = divisor_functions(n)[0]
        assert comp.coefficients[n] == -24 * sigma1, n
    triv = form_of(GRAM_TRIVIAL)
    z = triv.zero()
    one = Fraction(1)
    assert shadow_constant(triv, one, z, z, one, Fraction(2)) == sym(-24)
    assert shadow_constant(triv, one, z, z, one, Fraction(-2)) == sym(-24)
    assert weight2_correction(triv, one, z, z, one) == sym(-12)
    print("ACCEPTANCE 2: PASS")


def test_criterion_03_kronecker_hurwitz_identity():
    t0 = time.monotonic()
    reports = [check_kronecker_hurwitz(n) for n in range(1, 101)]
    elapsed = time.monotonic() - t0
    assert len(reports) == 100
    assert all(rep.ok for rep in reports)
    assert elapsed < 10.0, "took %.1fs" % elapsed
    print("ACCEPTANCE 3: PASS")


def test_criterion_04_split_lattice_closed_form():
    exp = expansion("split2")
    assert series(exp, (0, 0)) == [
        "1", "-16", "-24", "-64", "-72", "-96", "-96", "-128"]
    form = form_of(GRAM_SPLIT)
    z = form.zero()
    for n in range(1, 21):
        value = pss_coefficient(form, F2, Fraction(1), z, z, Fraction(n))
        if n % 2 == 1:
            want = -16 * divisor_functions(n)[0]
        else:
            want = -24 * divisor_functions(n // 2)[0]
        assert value == want, n
    print("ACCEPTANCE 4: PASS")


def test_criterion_05_rank_three_eisenstein():
    exp = expansion("z3plain")
    assert series(exp, (0, 0, 0)) == [
        "1", "-2", "-4", "-8", "-10", "-8", "-8", "-16", "-20"]
    comp = exp.component((0, 0, H))
    assert comp.offset == Fraction(3, 4)
    assert [str(c) for c in comp.coefficients[:7]] == [
        "-4", "-4", "-12", "-8", "-12", "-12", "-16"]
    form = form_of(GRAM_OVERPARTITION)
    half = form.element_from_lift((Fraction(0), Fraction(0), H))
    for n in range(3, 201, 4):
        value = plain_coefficient(form, half, Fraction(n, 4))
        want = (-12 if n % 8 == 3 else -4) * hurwitz(n)
        assert value == want, n
    print("ACCEPTANCE 5: PASS")


def test_criterion_06_rank_one_eisenstein():
    form = form_of(GRAM_ZX2)
    zero = form.zero()
    half = form.element_from_lift((H,))
    for n in range(1, 101):
        if n % 4 == 0:
            value = plain_coefficient(form, zero, Fraction(n, 4))
        elif n % 4 == 3:
            value = plain_coefficient(form, half, Fraction(n, 4))
        else:
            assert hurwitz(n) == 0, n
            continue
        assert value == -12 * hurwitz(n), n
    print("ACCEPTANCE 6: PASS")


def test_criterion_07_overpartition_identities():
    t0 = time.monotonic()
    reports = [check_prop20(n) for n in range(1, 31)]
    elapsed = time.monotonic() - t0
    assert len(reports) == 30
    assert all(rep.ok for rep in reports)
    assert elapsed < 60.0, "took %.1fs" % elapsed
    print("ACCEPTANCE 7: PASS")


def test_criterion_08_norm_orbit_machinery():
    orbits = norm_orbits(33, 4)
    assert sorted(int(o.trace) for o in orbits) == [4, 7, 7]
    bound = trace_bound(33, 4)
    assert abs(bound - 28.0) < 1.0
    plus = next(o for o in orbits if o.rep.y > 0)
    exact = orbit_sum(plus)
    assert exact == sym(Fraction(25, 11), 0, 33)
    rep, eta = plus.rep, plus.unit
    direct = float(rep)
    trace = float(rep) + float(rep.conjugate())
    for k in range(1, 13):
        direct += trace / float(eta) ** k
    direct *= 2  # conjugate orbit
    assert abs(exact.float_value().real - direct) < 1e-9
    print("ACCEPTANCE 8: PASS")


def test_criterion_09_theta_decomposition():
    records = theta_crosscheck(parse_gram(GRAM_SPLIT), 1, 4)
    assert len(records) == 98
    assert all(rec.ok for rec in records)
    print("ACCEPTANCE 9: PASS")


def _assert_rational_and_symmetric(name):
    exp = expansion(name)
    text = _REQUESTS[name][0]
    form = form_of(text)
    for comp in exp.components:
        gamma = form.element_from_lift([Fraction(v) for v in comp.lift])
        partner = exp.component(form.lift(form.neg(gamma)))
        assert comp.coefficients == partner.coefficients, (name, comp.lift)
        for value in comp.coefficients:
            assert isinstance(value, Fraction), (name, comp.lift)


def _assert_shift_identity():
    triv = form_of(GRAM_TRIVIAL)
    z = triv.zero()

    def prob(form, lift, n, m, r, beta_lift):
        from pss.local_counting import CountingProblem

        gamma = form.element_from_lift([Fraction(v) for v in lift])
        beta = form.element_from_lift([Fraction(v) for v in beta_lift])
        return CountingProblem(
            form, "jacobi", gamma, Fraction(n), beta=beta,
            m=Fraction(m), r=Fraction(r))

    base = prob(triv, (), 1, 1, 0, ())
    shifted = prob(triv, (), 2, 1, 2, ())
    assert ltilde_at(base, F2) == ltilde_at(shifted, F2)

    split = form_of(GRAM_SPLIT)
    beta = (H, Fraction(0))
    base = prob(split, (H, H), 1, Fraction(3, 4), H, beta)
    shifted = prob(
        split, (0, H), 1 + H + Fraction(3, 4), Fraction(3, 4), H + Fraction(3, 2), beta)
    assert ltilde_at(base, F2) == ltilde_at(shifted, F2)


def _assert_hyperbolic_stability():
    from pss.local_counting import CountingProblem

    zx2 = form_of(GRAM_ZX2)
    aug = build_discriminant_form(parse_gram("[[2,0,0],[0,0,1],[0,1,0]]"))
    for small_lift, big_lift, n in [
        ((H,), (H, 0, 0), Fraction(3, 4)),
        ((Fraction(0),), (0, 0, 0), Fraction(1)),
    ]:
        small = CountingProblem(
            zx2, "plain", zx2.element_from_lift([Fraction(v) for v in small_lift]), n)
        big = CountingProblem(
            aug, "plain", aug.element_from_lift([Fraction(v) for v in big_lift]), n)
        assert ltilde_at(small, F32) == ltilde_at(big, F32)
    expU = pss_expansion(
        SeriesRequest(parse_gram(GRAM_HYPERBOLIC), F2, Fraction(1), None, 4))
    flat = series(expU, (0, 0))
    trivial = series(expansion("trivial2"), ())
    assert flat == trivial[:5]


def _assert_factor_holdouts():
    assert _FITTED, "no fitted factors were recorded"
    for factor in _FITTED:
        degree = len(factor.numerator) - 1
        assert factor.verified_through - degree >= 3, factor
    # an explicit recount of the last three verified prime powers on a sample
    from pss.local_counting import CountingProblem

    triv = form_of(GRAM_TRIVIAL)
    zx2 = form_of(GRAM_ZX2)
    z3 = form_of(GRAM_OVERPARTITION)
    sample = [
        (CountingProblem(triv, "jacobi", triv.zero(), Fraction(1),
                         beta=triv.zero(), m=Fraction(1), r=Fraction(0)), 2),
        (CountingProblem(triv, "jacobi", triv.zero(), Fraction(1),
                         beta=triv.zero(), m=Fraction(1), r=Fraction(0)), 3),
        (CountingProblem(zx2, "plain", zx2.element_from_lift((H,)),
                         Fraction(3, 4)), 2),
        (CountingProblem(z3, "plain", z3.zero(), Fraction(4)), 3),
    ]
    for problem, p in sample:
        factor = local_factor(problem, p)
        through = factor.verified_through
        predicted = factor.predicted_counts(through)
        for nu in range(through - 2, through + 1):
            assert predicted[nu] == count_solutions(problem, p, nu), (problem, p, nu)


def _assert_unit_families_match_numerics():
    # the (C, modulus) pairs that appear in the nonsquare weight 2 run
    eps = fundamental_unit_plus(5)
    pairs = [(1, 1), (2, 1), (3, 1),
             (5, 5), (20, 5), (30, 5), (45, 5), (55, 5), (70, 5)]
    checked = 0
    for big_c, modulus in pairs:
        period = unit_order_mod(eps, modulus)
        eta = eps**period
        for orbit in norm_orbits(5, big_c):
            for k in range(period):
                xi = orbit.rep * eps**k
                tr = xi.trace
                if tr.denominator != 1 or int(tr) % modulus != 0:
                    continue
                closed = family_sum(xi, eta)
                numeric = 0.0
                c = float(xi.norm())
                for j in range(-40, 41):
                    w = xi * eta**j
                    numeric += c / (float(w.x) + abs(float(w.y)) * 5**0.5)
                assert abs(float(closed) - numeric) < 1e-6, (big_c, modulus, k)
                checked += 1
    assert checked >= 5


def test_criterion_10_property_suites():
    # criteria 1 through 9 complete without a rationality failure, and every
    # coefficient they produce is exactly rational
    for name in _REQUESTS:
        _assert_rational_and_symmetric(name)
    exp = expansion("nonsquare2")
    assert series(exp, (0, 0)) == ["1", "-30", "-20", "-40"]
    fifth = Fraction(1, 5)
    assert series(exp, (fifth, 3 * fifth)) == ["-5", "-10", "-60"]
    assert series(exp, (2 * fifth, fifth)) == ["-15", "-35", "-30"]
    _assert_shift_identity()
    _assert_hyperbolic_stability()
    _assert_factor_holdouts()
    _assert_unit_families_match_numerics()
    print("ACCEPTANCE 10: PASS")
