"""Exact arithmetic for the constants that appear in Eisenstein coefficients.

Everything on the main computation path is exact: values are rational
multiples of pi**a * sqrt(d) * e(phase/8), and Laurent expansions of
L-functions carry only their leading coefficient, with formal ``log p``
symbols attached so that their cancellation can be checked.  Floating
point only enters through ``SymbolicConstant.float_value``, used by
numeric cross-checks in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

Rat = Union[int, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# integer helpers


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, as {prime: exponent}."""
    n = abs(n)
    assert n > 0, "factorize needs a nonzero integer"
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s * f**2 with s squarefree; returns (s, f).  Sign goes to s."""
    assert n != 0
    s, f = (-1 if n < 0 else 1), 1
    for p, e in factorize(n).items():
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    return s, f


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def divisor_functions(n: int) -> tuple[int, Fraction, int, tuple[int, ...]]:
    """(sigma1, lambda1, mu, divisors) for a positive integer.

    sigma1 is the sum of divisors, lambda1 = (1/2) * sum over divisors d of
    min(d, n/d), and mu is the Moebius function.
    """
    assert n >= 1
    fac = factorize(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    sigma1 = sum(divs)
    lambda1 = Fraction(sum(min(d, n // d) for d in divs), 2)
    mu = 0 if any(e >= 2 for e in fac.values()) else (-1) ** len(fac)
    return sigma1, lambda1, mu, tuple(divs)


# ---------------------------------------------------------------------------
# Kronecker symbol and discriminants


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd n > 0, by reciprocity.
    assert n > 0 and n % 2 == 1
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n), extended to all integers n."""
    if n == 0:
        return 1 if abs(d) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    two = 0
    while n % 2 == 0:
        n //= 2
        two += 1
    if two:
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5) and two % 2 == 1:
            result = -result
    return result * _jacobi(d % n, n)


def fundamental_discriminant_split(d: int) -> tuple[int, int]:
    """Split a discriminant as d = d0 * f**2 with d0 fundamental.

    Requires d ≡ 0 or 1 mod 4 and d != 0.  The principal case gives d0 = 1.
    """
    assert d != 0
    if d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a discriminant (need 0 or 1 mod 4)")
    s, f = squarefree_split(d)
    if s % 4 == 1:
        return s, f
    # s ≡ 2, 3 mod 4: the fundamental discriminant is 4s and f must be even
    assert f % 2 == 0
    return 4 * s, f // 2


@dataclass(frozen=True)
class DirichletCharacter:
    """Real character n -> (discriminant/n) via the Kronecker symbol.

    ``discriminant`` need not be fundamental; the character then equals the
    primitive character of the fundamental part, killed at primes dividing
    the square part.  ``discriminant = 1`` is the trivial character (zeta).
    """

    discriminant: int

    def __post_init__(self) -> None:
        assert self.discriminant != 0
        if self.discriminant % 4 not in (0, 1):
            raise ValueError("character discriminant must be 0 or 1 mod 4")

    @property
    def fundamental(self) -> int:
        return fundamental_discriminant_split(self.discriminant)[0]

    @property
    def square_part(self) -> int:
        return fundamental_discriminant_split(self.discriminant)[1]

    @property
    def conductor(self) -> int:
        return abs(self.fundamental)

    @property
    def is_principal(self) -> bool:
        return self.fundamental == 1

    def parity(self) -> int:
        """chi(-1): +1 for even characters, -1 for odd ones."""
        return 1 if self.fundamental > 0 else -1

    def value(self, n: int) -> int:
        return kronecker_symbol(self.discriminant, n)

    def primitive_value(self, n: int) -> int:
        return kronecker_symbol(self.fundamental, n)


# ---------------------------------------------------------------------------
# Bernoulli numbers and generalized Bernoulli numbers


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """Bernoulli number B_k (convention B_1 = -1/2)."""
    assert k >= 0
    if k == 0:
        return Fraction(1)
    # recurrence sum_{j<=k} C(k+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


def bernoulli_poly(k: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_k(x)."""
    return sum(
        math.comb(k, j) * bernoulli_number(j) * x ** (k - j) for j in range(k + 1)
    )


def generalized_bernoulli(chi: DirichletCharacter, k: int) -> Fraction:
    """Generalized Bernoulli number B_{k,chi} for a primitive character.

    Computed as f**(k-1) * sum_{a=1..f} chi(a) B_k(a/f).  For the trivial
    character this reproduces B_k(1), so B_{1,triv} = +1/2.
    """
    if chi.square_part != 1:
        raise ValueError("generalized Bernoulli numbers need a primitive character")
    assert k >= 1
    f = chi.conductor
    return f ** (k - 1) * sum(
        chi.primitive_value(a) * bernoulli_poly(k, Fraction(a, f))
        for a in range(1, f + 1)
    )


# ---------------------------------------------------------------------------
# symbolic constants


@dataclass(frozen=True)
class SymbolicConstant:
    """A single exact term  coeff * pi**pi_exp * sqrt(radicand) * e(phase/8).

    Stored normalized: radicand is squarefree and >= 1, phase is reduced
    mod 8, and the zero value is canonically (0, 0, 1, 0).  Use ``sym`` to
    build one from unnormalized data.
    """

    coeff: Fraction
    pi_exp: Fraction = Fraction(0)
    radicand: int = 1
    phase: int = 0

    def __post_init__(self) -> None:
        assert isinstance(self.coeff, Fraction)
        assert isinstance(self.pi_exp, Fraction)
        if self.coeff == 0:
            assert (self.pi_exp, self.radicand, self.phase) == (0, 1, 0)
        else:
            assert self.radicand >= 1
            assert squarefree_split(self.radicand)[1] == 1
            assert 0 <= self.phase < 8

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    @property
    def is_rational(self) -> bool:
        return self.is_zero or (
            self.pi_exp == 0 and self.radicand == 1 and self.phase in (0, 4)
        )

    def as_rational(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"not a rational value: {self!r}")
        return -self.coeff if self.phase == 4 else self.coeff

    def __mul__(self, other: "SymbolicConstant | Rat") -> "SymbolicConstant":
        if isinstance(other, (int, Fraction)):
            return sym(self.coeff * other, self.pi_exp, self.radicand, self.phase)
        return sym(
            self.coeff * other.coeff,
            self.pi_exp + other.pi_exp,
            self.radicand * other.radicand,
            self.phase + other.phase,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "SymbolicConstant":
        return self * -1

    def __add__(self, other: "SymbolicConstant") -> "SymbolicConstant":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = self, other
        if (a.pi_exp, a.radicand, a.phase % 4) != (b.pi_exp, b.radicand, b.phase % 4):
            raise ValueError(f"incompatible shapes in sum: {a!r} + {b!r}")
        ca = -a.coeff if a.phase >= 4 else a.coeff
        cb = -b.coeff if b.phase >= 4 else b.coeff
        return sym(ca + cb, a.pi_exp, a.radicand, a.phase % 4)

    def inverse(self) -> "SymbolicConstant":
        assert not self.is_zero, "cannot invert zero"
        # 1/sqrt(r) = sqrt(r)/r; 1/e(p/8) = e(-p/8)
        return sym(
            Fraction(1) / (self.coeff * self.radicand),
            -self.pi_exp,
            self.radicand,
            -self.phase,
        )

    def float_value(self) -> complex:
        import cmath

        return (
            float(self.coeff)
            * math.pi ** float(self.pi_exp)
            * math.sqrt(self.radicand)
            * cmath.exp(2j * math.pi * self.phase / 8)
        )

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = [str(self.coeff)]
        if self.pi_exp:
            bits.append(f"pi^{self.pi_exp}")
        if self.radicand != 1:
            bits.append(f"sqrt({self.radicand})")
        if self.phase:
            bits.append(f"e({self.phase}/8)")
        return "*".join(bits)


def sym(
    coeff: Rat, pi_exp: Rat = 0, radicand: int = 1, phase: int = 0
) -> SymbolicConstant:
    """Build a normalized SymbolicConstant from unnormalized parts."""
    coeff = _frac(coeff)
    if coeff == 0 or radicand == 0:
        return SymbolicConstant(Fraction(0))
    assert radicand != 0
    if radicand < 0:
        # sqrt(-d) = e(2/8) sqrt(d)
        radicand, phase = -radicand, phase + 2
    s, f = squarefree_split(radicand)
    return SymbolicConstant(coeff * f, _frac(pi_exp), s, phase % 8)


def sqrt_rat(x: Rat) -> SymbolicConstant:
    """sqrt of a rational as a SymbolicConstant (nonzero x)."""
    x = _frac(x)
    assert x != 0
    # sqrt(p/q) = sqrt(p*q)/q
    return sym(Fraction(1, x.denominator), 0, x.numerator * x.denominator)


SYM_ZERO = sym(0)
SYM_ONE = sym(1)


# ---------------------------------------------------------------------------
# formal terms: symbolic constants scaled by log-prime powers


class _Unknown:
    """Sentinel for transcendental Laurent coefficients we never consume."""

    _instance: Optional["_Unknown"] = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class FormalTerm:
    """sym * prod_p (log p)**e_p, exponents in Z."""

    sym: SymbolicConstant
    logs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        assert all(e != 0 for _, e in self.logs)
        assert list(self.logs) == sorted(self.logs)
        if self.sym.is_zero:
            assert not self.logs

    @property
    def is_plain(self) -> bool:
        return not self.logs

    def __mul__(self, other: "FormalTerm") -> "FormalTerm":
        merged: dict[int, int] = dict(self.logs)
        for p, e in other.logs:
            merged[p] = merged.get(p, 0) + e
            if merged[p] == 0:
                del merged[p]
        s = self.sym * other.sym
        if s.is_zero:
            return FormalTerm(SYM_ZERO)
        return FormalTerm(s, tuple(sorted(merged.items())))

    def scale(self, a: Rat) -> "FormalTerm":
        s = self.sym * _frac(a)
        if s.is_zero:
            return FormalTerm(SYM_ZERO)
        return FormalTerm(s, self.logs)

    def inverse(self) -> "FormalTerm":
        return FormalTerm(
            self.sym.inverse(), tuple((p, -e) for p, e in self.logs)
        )


def plain_term(c: Rat) -> FormalTerm:
    return FormalTerm(sym(c))


# ---------------------------------------------------------------------------
# Laurent data


@dataclass(frozen=True)
class LaurentFactor:
    """Leading Laurent behavior of one factor at an expansion point.

    ``pole_order`` is positive for poles and negative for zeros; c0 is the
    leading coefficient (never zero), the only one any value needs.
    c0 = UNKNOWN marks a finite but transcendental leading coefficient; it
    propagates through products and only errors if actually consumed.
    """

    pole_order: int
    c0: "FormalTerm | _Unknown"

    def __post_init__(self) -> None:
        if isinstance(self.c0, FormalTerm):
            assert not self.c0.sym.is_zero, "leading coefficient must be nonzero"

    @property
    def order(self) -> int:
        return self.pole_order

    def __mul__(self, other: "LaurentFactor") -> "LaurentFactor":
        order = self.pole_order + other.pole_order
        if isinstance(self.c0, _Unknown) or isinstance(other.c0, _Unknown):
            return LaurentFactor(order, UNKNOWN)
        return LaurentFactor(order, self.c0 * other.c0)

    def inverse(self) -> "LaurentFactor":
        if isinstance(self.c0, _Unknown):
            return LaurentFactor(-self.pole_order, UNKNOWN)
        return LaurentFactor(-self.pole_order, self.c0.inverse())

    def rescale(self, a: Rat) -> "LaurentFactor":
        """Variable change s -> a*s (the factor was expanded in a*s)."""
        a = _frac(a)
        assert a != 0
        if isinstance(self.c0, _Unknown):
            return LaurentFactor(self.pole_order, UNKNOWN)
        c0 = self.c0.scale(a ** (-self.pole_order))
        return LaurentFactor(self.pole_order, c0)

    def value(self) -> SymbolicConstant:
        """The finite value: 0 past a zero, c0 at order 0, error at a pole."""
        if self.pole_order < 0:
            return SYM_ZERO
        if self.pole_order > 0:
            raise ValueError("value requested at a pole")
        return self._extract(self.c0)

    def residue(self) -> SymbolicConstant:
        """Residue: c0 at a simple pole, 0 when there is no pole."""
        if self.pole_order < 1:
            return SYM_ZERO
        if self.pole_order > 1:
            raise ValueError("higher-order pole has no residue in this sense")
        return self._extract(self.c0)

    @staticmethod
    def _extract(c: "FormalTerm | _Unknown") -> SymbolicConstant:
        if isinstance(c, _Unknown):
            raise ValueError("unsupported L-value shape was consumed")
        if not c.is_plain:
            raise ValueError(f"formal symbols did not cancel: {c!r}")
        return c.sym


def laurent_value(c: Rat | SymbolicConstant) -> LaurentFactor:
    s = c if isinstance(c, SymbolicConstant) else sym(c)
    return LaurentFactor(0, FormalTerm(s))


LAURENT_ONE = laurent_value(1)


def euler_monomial(p: int, u: Rat, slope: int, coeff: int = 1) -> LaurentFactor:
    """Laurent data of (1 - coeff * p**(u - slope*s)) around s = 0.

    coeff is a unit (+1 or -1 in practice).  The factor vanishes exactly
    when coeff * p**u = 1, in which case the leading term is
    slope * log(p) * s.
    """
    u = _frac(u)
    assert u.denominator == 1
    val = 1 - Fraction(coeff) * Fraction(p) ** u
    if val == 0:
        return LaurentFactor(-1, FormalTerm(sym(slope), ((p, 1),)))
    return LaurentFactor(0, plain_term(val))


# ---------------------------------------------------------------------------
# L-values


class UnsupportedLValue(ValueError):
    pass


def _zeta_factor(s: int, unknown_ok: bool) -> LaurentFactor:
    if s == 1:
        return LaurentFactor(1, plain_term(1))
    if s <= 0:
        k = 1 - s
        v = -bernoulli_number(k) / k if k > 1 else Fraction(-1, 2)
        if v == 0:
            # trivial zero at negative even integers, transcendental slope
            return LaurentFactor(-1, UNKNOWN)
        return laurent_value(v)
    if s % 2 == 0:
        # zeta(2k) = (-1)^(k+1) B_2k (2 pi)^(2k) / (2 (2k)!)
        k = s // 2
        c = (
            Fraction((-1) ** (k + 1))
            * bernoulli_number(2 * k)
            * Fraction(2) ** (2 * k)
            / (2 * math.factorial(2 * k))
        )
        return laurent_value(sym(c, pi_exp=s))
    if unknown_ok:
        return LaurentFactor(0, UNKNOWN)
    raise UnsupportedLValue(f"unsupported L-value shape: zeta({s})")


def _primitive_l_factor(d0: int, s: int, unknown_ok: bool) -> LaurentFactor:
    chi0 = DirichletCharacter(d0)
    if d0 == 1:
        return _zeta_factor(s, unknown_ok)
    if s <= 0:
        k = 1 - s
        v = -generalized_bernoulli(chi0, k) / k
        if v == 0:
            return LaurentFactor(-1, UNKNOWN)
        return laurent_value(v)
    delta = 0 if d0 > 0 else 1
    if (s - delta) % 2 != 0:
        if unknown_ok:
            # nonzero by Dirichlet but not an elementary closed form
            return LaurentFactor(0, UNKNOWN)
        raise UnsupportedLValue(
            f"unsupported L-value shape: L({s}, chi_{d0}) has mismatched parity"
        )
    f = abs(d0)
    k, j = s, (s - delta) // 2
    # functional equation: L(k) = (pi/f)^(k-1/2) Gamma(1/2-j)/Gamma((k+delta)/2)
    #                              * (-B_{k,chi}/k)
    gamma_ratio_rat = (
        Fraction((-4) ** j)
        * math.factorial(j)
        / math.factorial(2 * j)
        / math.factorial((k + delta) // 2 - 1)
    )
    coeff = gamma_ratio_rat * (-generalized_bernoulli(chi0, k) / k) / Fraction(f) ** k
    value = sym(coeff, pi_exp=k) * sqrt_rat(f)
    if value.is_zero:
        return LaurentFactor(-1, UNKNOWN)
    return laurent_value(value)


def l_value(chi: DirichletCharacter, s: int, *, unknown_ok: bool = False) -> LaurentFactor:
    """Laurent data of L(s + t, chi) around t = 0, at an integer point s.

    Supported shapes: any s <= 0 (via generalized Bernoulli numbers), the
    pole of zeta at s = 1, even s >= 2 for the trivial character, and
    s >= 1 with matching parity for quadratic characters (functional
    equation, giving rational * pi**s / sqrt(conductor)).  Characters with
    non-fundamental discriminant pick up their imprimitive Euler factors,
    including genuine zeros - e.g. (1 - p**(-t)) at s = 0 when chi(p) = 1
    on the primitive part.  Anything else raises UnsupportedLValue, or
    returns an UNKNOWN-coefficient factor when ``unknown_ok`` is set.
    """
    d0, f = fundamental_discriminant_split(chi.discriminant)
    out = _primitive_l_factor(d0, s, unknown_ok)
    for p in sorted(factorize(f)):
        chip = kronecker_symbol(d0, p)
        if chip == 0:
            continue
        out = out * euler_monomial(p, -s, 1, coeff=chip)
    return out
