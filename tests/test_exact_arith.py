"""Exact arithmetic helpers: symbols, characters, L-values, Laurent algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pss.exact_arith import (
    LAURENT_ONE,
    SYM_ONE,
    SYM_ZERO,
    DirichletCharacter,
    LaurentFactor,
    UnsupportedLValue,
    bernoulli_number,
    divisor_functions,
    euler_monomial,
    factorize,
    fundamental_discriminant_split,
    generalized_bernoulli,
    is_square,
    kronecker_symbol,
    l_value,
    laurent_value,
    sqrt_rat,
    squarefree_split,
    sym,
)


# -- integer helpers --------------------------------------------------------


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-20) == {2: 2, 5: 1}  # sign is ignored


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(-75) == (-3, 5)


@given(st.integers(min_value=1, max_value=10**6))
def test_squarefree_split_reassembles(n):
    s, f = squarefree_split(n)
    assert s * f * f == n
    assert all(e <= 1 for e in factorize(abs(s)).values())


def test_is_square():
    squares = {k * k for k in range(50)}
    for n in range(-5, 2500):
        assert is_square(n) == (n in squares)


def test_divisor_functions():
    sigma1, lambda1, mu, divs = divisor_functions(12)
    assert sigma1 == 28
    assert lambda1 == Fraction(1 + 2 + 3 + 3 + 2 + 1, 2)
    assert mu == 0
    assert divs == (1, 2, 3, 4, 6, 12)
    assert divisor_functions(30)[2] == -1


# -- Kronecker symbol and characters ----------------------------------------


def test_kronecker_anchors():
    assert kronecker_symbol(-4, 3) == -1
    assert kronecker_symbol(-4, 5) == 1
    assert kronecker_symbol(33, 2) == 1
    assert kronecker_symbol(5, 2) == -1
    assert kronecker_symbol(12, 3) == 0
    assert kronecker_symbol(1, 7) == 1


@given(
    st.sampled_from([-8, -4, -3, 1, 5, 8, 12, 13, 33]),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
)
def test_kronecker_multiplicative(d, m, n):
    assert kronecker_symbol(d, m * n) == kronecker_symbol(d, m) * kronecker_symbol(d, n)


def test_fundamental_discriminant_split():
    assert fundamental_discriminant_split(-4) == (-4, 1)
    assert fundamental_discriminant_split(16) == (1, 4)
    assert fundamental_discriminant_split(-48) == (-3, 4)
    assert fundamental_discriminant_split(-216) == (-24, 3)
    assert fundamental_discriminant_split(-432) == (-3, 12)
    assert fundamental_discriminant_split(5) == (5, 1)
    assert fundamental_discriminant_split(12) == (12, 1)
    assert fundamental_discriminant_split(9) == (1, 3)


def test_character_basics():
    chi = DirichletCharacter(-4)
    assert chi.conductor == 4
    assert chi.parity() == -1
    assert [chi.value(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    zeta = DirichletCharacter(1)
    assert zeta.is_principal
    assert zeta.value(10) == 1
    with pytest.raises(ValueError):
        DirichletCharacter(-2)


def test_character_with_square_part():
    # discriminant -36: fundamental -4, killed additionally at 3
    chi = DirichletCharacter(-36)
    assert chi.fundamental == -4
    assert chi.value(3) == 0
    assert chi.value(5) == kronecker_symbol(-4, 5)


# -- Bernoulli machinery -----------------------------------------------------


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_generalized_bernoulli():
    chi = DirichletCharacter(-4)
    assert generalized_bernoulli(chi, 1) == Fraction(-1, 2)
    # trivial character reduces to ordinary Bernoulli (with the B_1 flip)
    zeta = DirichletCharacter(1)
    assert generalized_bernoulli(zeta, 2) == bernoulli_number(2)


# -- symbolic constants ------------------------------------------------------


def test_sym_normalization():
    v = sym(1, 0, 12)
    assert (v.coeff, v.radicand) == (2, 3)
    assert sym(3, 0, 1, 8) == sym(3)
    assert sym(0, 5, 7, 3) == SYM_ZERO
    assert sym(2, 0, -1).phase == 2  # sqrt(-1) = e(2/8)


def test_sqrt_rat():
    assert sqrt_rat(12) == sym(2, 0, 3)
    assert sqrt_rat(Fraction(1, 2)) == sym(Fraction(1, 2), 0, 2)
    assert sqrt_rat(9) == sym(3)


def test_sym_arithmetic():
    a = sym(Fraction(2, 3), 1, 5)
    b = sym(3, -1, 5)
    prod = a * b
    assert prod == sym(10, 0, 1)
    assert (a * 3).coeff == 2
    assert a.inverse() * a == SYM_ONE
    assert (sym(2) + sym(3)) == sym(5)
    # opposite phases cancel through addition
    assert (sym(2) + sym(2, 0, 1, 4)).is_zero


def test_sym_addition_requires_same_shape():
    with pytest.raises(ValueError):
        sym(1, 0, 2) + sym(1, 0, 3)


def test_sym_rational_view():
    assert sym(Fraction(-7, 2)).as_rational() == Fraction(-7, 2)
    assert sym(5, 0, 1, 4).as_rational() == -5
    with pytest.raises(ValueError):
        sym(1, 1).as_rational()


def test_sym_float_value():
    v = sym(2, 1, 3, 4)  # phase 4 is a sign flip, value stays real
    assert abs(v.float_value() - (-2 * math.pi * math.sqrt(3))) < 1e-12
    assert SYM_ZERO.float_value() == 0.0


# -- Laurent factors ---------------------------------------------------------


def test_laurent_products_and_extraction():
    two = laurent_value(2)
    assert (two * LAURENT_ONE).value() == sym(2)
    pole = LaurentFactor(1, laurent_value(3).c0)
    assert pole.residue() == sym(3)
    assert (pole * pole).pole_order == 2
    with pytest.raises(ValueError):
        pole.value()
    zero = LaurentFactor(-1, laurent_value(1).c0)
    assert zero.value() == SYM_ZERO
    assert zero.residue() == SYM_ZERO
    assert (pole * zero).value() is not None


def test_euler_monomial():
    # (1 - p^(u - slope*s)) at s = 0 is 1 - p^u when nonzero
    f = euler_monomial(2, 1, 2)
    assert f.pole_order == 0
    assert f.value() == sym(-1)
    assert euler_monomial(3, 2, 1).value() == sym(-8)
    # u = 0 vanishes to first order; the leading term carries log p, which
    # must cancel against a matching zero before a value can be extracted
    g = euler_monomial(2, 0, 2)
    assert g.pole_order == -1
    assert g.value() == SYM_ZERO
    ratio = g * g.inverse()
    assert ratio.pole_order == 0
    assert ratio.value() == SYM_ONE


# -- L-values ----------------------------------------------------------------


def test_l_value_anchors():
    chi4 = DirichletCharacter(-4)
    assert l_value(chi4, 0).value() == sym(Fraction(1, 2))
    assert l_value(chi4, 1).value() == sym(Fraction(1, 4), 1)
    zeta = DirichletCharacter(1)
    assert l_value(zeta, 2).value() == sym(Fraction(1, 6), 2)
    assert l_value(zeta, 0).value() == sym(Fraction(-1, 2))


def test_zeta_pole():
    zeta = DirichletCharacter(1)
    factor = l_value(zeta, 1)
    assert factor.pole_order == 1
    assert factor.residue() == SYM_ONE


def test_l_value_numeric():
    # exact special values against direct partial sums of the series
    for disc, s in ((-4, 1), (-3, 1), (-8, 1), (-7, 1)):
        chi = DirichletCharacter(disc)
        exact = l_value(chi, s).value().float_value().real
        approx = sum(chi.value(n) / n**s for n in range(1, 200000))
        assert abs(exact - approx) < 1e-4, (disc, s)


def test_l_value_even_character_at_one_is_refused():
    # L(1, chi_5) = 2 log(eps) / sqrt(5) is outside the rational-pi-sqrt
    # algebra; it must be refused rather than silently wrong, and tolerated
    # as an opaque finite value when the caller says so
    chi5 = DirichletCharacter(5)
    with pytest.raises(UnsupportedLValue):
        l_value(chi5, 1)
    opaque = l_value(chi5, 1, unknown_ok=True)
    assert opaque.pole_order == 0
    with pytest.raises(ValueError):
        opaque.value()
