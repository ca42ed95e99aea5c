"""Exact arithmetic in real quadratic fields for indefinite trace sums.

Beyond-range coefficient corrections sum min(xi, xi') over infinite sets of
algebraic integers of fixed norm, grouped into finitely many orbits under a
totally positive fundamental unit.  Everything here is exact: elements are
pairs of rationals, comparisons go through sign tests on norms, and orbit
sums come out as explicit rational multiples of sqrt(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .exact_arith import SymbolicConstant, squarefree_split, sym

_Rat = Union[int, Fraction]


@dataclass(frozen=True)
class QuadraticElement:
    """The number x + y*sqrt(d) with rational x, y and squarefree d > 1."""

    d: int
    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        s, f = squarefree_split(self.d)
        assert self.d > 1 and s == self.d and f == 1, "d must be squarefree > 1"
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    @classmethod
    def half(cls, d: int, t: _Rat, s: _Rat) -> "QuadraticElement":
        """The element (t + s*sqrt(d)) / 2."""
        return cls(d, Fraction(t, 2), Fraction(s, 2))

    @property
    def trace(self) -> Fraction:
        return 2 * self.x

    def conjugate(self) -> "QuadraticElement":
        return QuadraticElement(self.d, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.d * self.y * self.y

    def is_integral(self) -> bool:
        """Membership in the maximal order of Q(sqrt(d))."""
        t, s = 2 * self.x, 2 * self.y
        if t.denominator != 1 or s.denominator != 1:
            return False
        if self.d % 4 == 1:
            return (int(t) - int(s)) % 2 == 0
        return int(t) % 2 == 0 and int(s) % 2 == 0

    def _coerce(self, other) -> Optional["QuadraticElement"]:
        if isinstance(other, QuadraticElement):
            assert other.d == self.d, "mixed radicands"
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticElement(self.d, Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticElement(self.d, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticElement(self.d, -self.x, -self.y)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticElement(
            self.d,
            self.x * o.x + self.d * self.y * o.y,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticElement":
        n = self.norm()
        assert n != 0, "inverting a zero divisor"
        return QuadraticElement(self.d, self.x / n, -self.y / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int) -> "QuadraticElement":
        assert isinstance(k, int)
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = QuadraticElement(self.d, Fraction(1), Fraction(0))
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _sign(self) -> int:
        if self.y == 0:
            return 0 if self.x == 0 else (1 if self.x > 0 else -1)
        if self.x == 0:
            return 1 if self.y > 0 else -1
        if self.x > 0 and self.y > 0:
            return 1
        if self.x < 0 and self.y < 0:
            return -1
        n = self.norm()
        if self.x > 0:  # y < 0: positive iff x > |y| sqrt(d)
            return 1 if n > 0 else (-1 if n < 0 else 0)
        return 1 if n < 0 else (-1 if n > 0 else 0)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        assert o is not None, "incomparable operand"
        return (self - o)._sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __float__(self) -> float:
        return float(self.x) + float(self.y) * math.sqrt(self.d)

    def __repr__(self) -> str:
        return f"({self.x} + {self.y}*sqrt({self.d}))"


@lru_cache(maxsize=None)
def fundamental_unit_plus(d: int) -> QuadraticElement:
    """Smallest totally positive unit > 1 of the maximal order of Q(sqrt(d)).

    The continued fraction of sqrt(d) gives the smallest integer solution of
    t^2 - d s^2 = +-1; for d = 1 mod 4 a short scan checks for smaller
    half-integer units.  A norm -1 fundamental unit is squared.
    """
    s, f = squarefree_split(d)
    assert d > 1 and s == d and f == 1, "d must be squarefree > 1"
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - d * k * k not in (1, -1):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    unit = QuadraticElement(d, Fraction(h), Fraction(k))
    if d % 4 == 1:
        # the maximal order may contain a smaller half-integer unit, of
        # index at most 3, so its size is at least the cube root
        s_max = int(2 * float(unit) ** (1 / 3) / math.sqrt(d)) + 2
        best = unit
        for ss in range(1, s_max + 1):
            for delta in (-4, 4):
                tt = d * ss * ss + delta
                if tt <= 0:
                    continue
                t = math.isqrt(tt)
                if t * t != tt:
                    continue
                cand = QuadraticElement.half(d, t, ss)
                if cand.is_integral() and cand > 1 and cand < best:
                    best = cand
        unit = best
    if unit.norm() == -1:
        unit = unit * unit
    assert unit.norm() == 1 and unit > 1
    return unit


@dataclass(frozen=True)
class PellOrbit:
    """An orbit of norm-C totally positive integers under the unit group."""

    rep: QuadraticElement
    unit: QuadraticElement
    self_conjugate: bool

    @property
    def trace(self) -> Fraction:
        return self.rep.trace


def _is_unit_power(x: QuadraticElement, eps: QuadraticElement) -> bool:
    """Whether x equals eps**j for some integer j."""
    if x.norm() != 1 or not x.is_integral():
        return False
    fx = float(x)
    if fx <= 0:
        return False
    j = round(math.log(fx) / math.log(float(eps)))
    for jj in (j - 1, j, j + 1):
        if eps**jj == x:
            return True
    return False


def _same_orbit(a: QuadraticElement, b: QuadraticElement, eps: QuadraticElement) -> bool:
    if b.norm() == 0:
        return a.norm() == 0
    return _is_unit_power(a / b, eps)


def trace_bound(d: int, c: int) -> float:
    """Upper bound 2*sqrt(c*eps) on traces of canonical orbit representatives."""
    return 2 * math.sqrt(c * float(fundamental_unit_plus(d)))


def norm_orbits(d: int, c: int) -> tuple[PellOrbit, ...]:
    """Orbits of totally positive integers of norm c under the unit.

    Scans traces t with t^2 <= 4*c*eps, which every orbit of the positive
    unit eps meets.  Conjugate orbits are listed separately; each orbit
    records whether it contains its own conjugates.
    """
    assert c > 0
    eps = fundamental_unit_plus(d)
    four_c_eps = 4 * c * eps
    orbits: list[PellOrbit] = []
    t = 1
    while (four_c_eps - t * t)._sign() >= 0:
        disc = t * t - 4 * c
        if disc >= 0 and disc % d == 0:
            q = disc // d
            s = math.isqrt(q)
            if s * s == q:
                cands = [QuadraticElement.half(d, t, s)]
                if s:
                    cands.append(QuadraticElement.half(d, t, -s))
                for mu in cands:
                    if not mu.is_integral():
                        continue
                    assert mu.norm() == c
                    if any(_same_orbit(mu, o.rep, eps) for o in orbits):
                        continue
                    selfc = _same_orbit(mu.conjugate(), mu, eps)
                    orbits.append(PellOrbit(mu, eps, selfc))
        t += 1
    return tuple(orbits)


def orbit_sum(orbit: PellOrbit) -> SymbolicConstant:
    """Geometric trace sum of an orbit and its conjugate partner.

    Evaluates (rep*unit + rep') / (unit - 1) at the stored representative,
    doubled unless the orbit is self conjugate.  The rational part always
    cancels, leaving an explicit multiple of sqrt(d).
    """
    nu, eta = orbit.rep, orbit.unit
    val = (nu * eta + nu.conjugate()) / (eta - 1)
    assert val.x == 0, "family sum must be a pure square root multiple"
    mult = 1 if orbit.self_conjugate else 2
    return sym(mult * val.y, 0, nu.d)


def balanced_representative(
    xi: QuadraticElement, eta: QuadraticElement
) -> QuadraticElement:
    """The unique eta-translate nu of xi with nu <= nu' < nu*eta^2.

    Balancing means nu^2 <= N(nu), so nu is the largest translate not
    exceeding its conjugate; the family trace sum converges there.
    """
    assert eta.norm() == 1 and eta > 1
    c = xi.norm()
    assert c > 0 and xi > 0
    nu = xi
    inv = eta.inverse()
    while (nu * nu - c)._sign() > 0:
        nu = nu * inv
    while True:
        step = nu * eta
        if (step * step - c)._sign() > 0:
            return nu
        nu = step


def family_sum(xi: QuadraticElement, eta: QuadraticElement) -> QuadraticElement:
    """Sum of min(element, conjugate) over the family {xi * eta^k : k in Z}.

    Both tails are geometric; at the balanced representative nu the total
    collapses to (nu*eta + nu') / (eta - 1), a pure multiple of sqrt(d).
    """
    nu = balanced_representative(xi, eta)
    val = (nu * eta + nu.conjugate()) / (eta - 1)
    assert val.x == 0, "family sum must be a pure square root multiple"
    return val


def unit_order_mod(eps1: QuadraticElement, modulus: int) -> int:
    """Least j >= 1 with eps1**j = 1 in the maximal order modulo the modulus."""
    assert modulus >= 1
    power = eps1
    for j in range(1, 4 * modulus * modulus + 17):
        w = (power - 1) * Fraction(1, modulus)
        if w.is_integral():
            return j
        power = power * eps1
    raise RuntimeError("unit order modulo the modulus exceeded the group bound")
