"""Brute-force oracles: class numbers, overpartition counts, identity checks.

Everything here is computed by direct enumeration, independently of the
analytic machinery elsewhere in the package, so these routines can confirm
the series coefficients and the classical identities they satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact_arith import divisor_functions, is_square


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check at one index."""

    identity: str
    n: int
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@lru_cache(maxsize=None)
def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n), with H(0) = -1/12 and H(n) = 0 for n < 0.

    For n > 0 the value counts reduced positive binary quadratic forms
    a x^2 + b xy + c y^2 of discriminant b^2 - 4ac = -n (convention
    -a < b <= a <= c, and b >= 0 when a = c), where a form proportional
    to x^2 + y^2 weighs 1/2 and one proportional to x^2 + xy + y^2
    weighs 1/3.  H vanishes unless n is 0 or 3 mod 4.
    """
    if n < 0:
        return Fraction(0)
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if c == a and b < 0:
                continue
            if a == c and b == 0:
                total += Fraction(1, 2)
            elif a == b == c:
                total += Fraction(1, 3)
            else:
                total += 1
        a += 1
    return total


def _partitions(n: int, cap: int):
    # yields (largest, parts, distinct) over partitions of n with parts <= cap
    if n == 0:
        yield (0, 0, 0)
        return
    for first in range(min(n, cap), 0, -1):
        reps = 1
        while reps * first <= n:
            for largest, parts, distinct in _partitions(n - reps * first, first - 1):
                top = first if largest == 0 else first
                yield (top, parts + reps, distinct + 1)
            reps += 1


ALPHA_BUDGET = 40


@lru_cache(maxsize=None)
def overpartition_alpha(n: int) -> int:
    """Signed count of overpartitions of n by rank parity.

    The rank of an overpartition is its largest part minus its number of
    parts; returns #(even rank) - #(odd rank).  Each ordinary partition
    with k distinct part sizes contributes 2**k overpartitions, all with
    the same rank.  alpha(0) = 1, and negative n gives 0.
    """
    if n < 0:
        return 0
    if n > ALPHA_BUDGET:
        raise ValueError(f"overpartition budget is n <= {ALPHA_BUDGET}")
    if n == 0:
        return 1
    total = 0
    for largest, parts, distinct in _partitions(n, n):
        total += (2**distinct) * (-1) ** ((largest - parts) % 2)
    return total


def check_kronecker_hurwitz(n: int) -> IdentityReport:
    """Class number sum against divisor sums:
    sum_r H(4n - r^2) = 2 sigma1(n) - sum_{d | n} min(d, n/d)."""
    assert n >= 1
    lhs = Fraction(0)
    r = 0
    while r * r <= 4 * n:
        term = hurwitz(4 * n - r * r)
        lhs += term if r == 0 else 2 * term
        r += 1
    sigma1, lambda1, _, _ = divisor_functions(n)
    rhs = 2 * sigma1 - 2 * lambda1
    return IdentityReport("kronecker-hurwitz", n, lhs, Fraction(rhs))


def check_prop20(n: int) -> IdentityReport:
    """Overpartition rank counts against class numbers and divisor sums.

    For n >= 1:
      sum_r |alpha(n - r^2)|
        = -16 lambda1(n) + 16 sigma1(n) - 12 S(n) + 4 [n square]   (n odd)
        = -8 lambda1(n) - 16 lambda1(n/4) + 24 sigma1(n/2) - 4 S(n)
          + 4 [n square]                                           (n even)
    where S(n) = sum over odd r (both signs) of H(4n - r^2), and the
    lambda1(n/4) term drops out when 4 does not divide n.
    """
    assert n >= 1
    lhs = Fraction(0)
    r = 0
    while r * r <= n:
        term = Fraction(abs(overpartition_alpha(n - r * r)))
        lhs += term if r == 0 else 2 * term
        r += 1
    s_odd = Fraction(0)
    r = 1
    while r * r <= 4 * n:
        s_odd += 2 * hurwitz(4 * n - r * r)
        r += 2
    sigma1, lambda1, _, _ = divisor_functions(n)
    square_term = 4 if is_square(n) else 0
    if n % 2 == 1:
        rhs = -16 * lambda1 + 16 * sigma1 - 12 * s_odd + square_term
    else:
        lambda_quarter = divisor_functions(n // 4)[1] if n % 4 == 0 else Fraction(0)
        sigma_half = divisor_functions(n // 2)[0]
        rhs = -8 * lambda1 - 16 * lambda_quarter + 24 * sigma_half - 4 * s_odd + square_term
    return IdentityReport("overpartition-hurwitz", n, lhs, Fraction(rhs))


# ---------------------------------------------------------------------------
# q-series identity


def _mul_series(a: list[Fraction], b: list[Fraction], prec: int) -> list[Fraction]:
    out = [Fraction(0)] * (prec + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > prec:
            continue
        for j, bj in enumerate(b):
            if i + j > prec:
                break
            out[i + j] += ai * bj
    return out


def _geometric(step: int, prec: int, sign: int = 1) -> list[Fraction]:
    # 1/(1 - sign*q^step) truncated
    out = [Fraction(0)] * (prec + 1)
    k = 0
    term = Fraction(1)
    while k <= prec:
        out[k] = term
        k += step
        term *= sign
    return out


def check_product_identity(precision: int) -> IdentityReport:
    """Eta-like product formula for the weight 3/2 series on the x^2 lattice.

    Compares, through q-exponent ``precision`` (in integer steps of 1/4),
      -4 q^(-1/4) * prod_{n>=1} (1+q^n)/(1-q^n)
                  * sum_{k>=1} (-1)^(k+1) (2k-1) q^(k^2) / (1+q^(2k-1))
    with the Hurwitz generating series
      -12 sum_{n = 3 mod 8} H(n) q^(n/4) - 4 sum_{n = 7 mod 8} H(n) q^(n/4).
    Exponents live in (1/4)Z; the report's lhs/rhs hold the first mismatch
    if any, where n records 4 times the offending exponent.
    """
    assert 1 <= precision <= 30, "identity check budget is precision <= 30"
    prec = precision
    prod = [Fraction(0)] * (prec + 1)
    prod[0] = Fraction(1)
    for n in range(1, prec + 1):
        # (1+q^n)/(1-q^n) = 1 + 2 q^n + 2 q^2n + ...
        factor = [Fraction(0)] * (prec + 1)
        factor[0] = Fraction(1)
        k = n
        while k <= prec:
            factor[k] = Fraction(2)
            k += n
        prod = _mul_series(prod, factor, prec)
    theta_sum = [Fraction(0)] * (prec + 1)
    k = 1
    while k * k <= prec:
        inv = _geometric(2 * k - 1, prec, sign=-1)
        piece = [Fraction(0)] * (prec + 1)
        for j, c in enumerate(inv):
            if k * k + j <= prec:
                piece[k * k + j] = (-1) ** (k + 1) * (2 * k - 1) * c
        theta_sum = [x + y for x, y in zip(theta_sum, piece)]
        k += 1
    lhs_int = _mul_series(prod, theta_sum, prec)
    # left side exponent j - 1/4 <-> n = 4j - 1
    for j in range(prec + 1):
        lhs = -4 * lhs_int[j]
        m = 4 * j - 1
        if m % 8 == 3:
            rhs = -12 * hurwitz(m)
        elif m % 8 == 7:
            rhs = -4 * hurwitz(m)
        else:
            rhs = Fraction(0)
        if lhs != rhs:
            return IdentityReport("hurwitz-product", m, lhs, rhs)
    return IdentityReport("hurwitz-product", 4 * prec, Fraction(0), Fraction(0))
