"""Even lattices and their discriminant forms.

A lattice is given by an integer Gram matrix with even diagonal.  The
discriminant group is computed through a Smith normal form with recorded
transforms, so every element carries an explicit rational lift; the
quadratic form q and the pairing are evaluated on those lifts.  Rank zero
is legal throughout and gives the trivial group.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix with even diagonal (possibly 0 x 0)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            if not all(isinstance(x, int) for x in row):
                raise ValueError("Gram matrix entries must be integers")
        for i in range(n):
            if self.rows[i][i] % 2 != 0:
                raise ValueError("Gram matrix needs an even diagonal")
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        if n > 0 and _det(self.rows) == 0:
            raise ValueError("Gram matrix must be nonsingular")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def det(self) -> int:
        return _det(self.rows) if self.rows else 1

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def block_sum(self, other: "GramMatrix") -> "GramMatrix":
        n, m = self.rank, other.rank
        rows = [tuple(row) + (0,) * m for row in self.rows]
        rows += [(0,) * n + tuple(row) for row in other.rows]
        return GramMatrix(tuple(rows))

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def gram_from_rows(rows: Sequence[Sequence[int]]) -> GramMatrix:
    return GramMatrix(tuple(tuple(int(x) for x in row) for row in rows))


def parse_gram(text: str) -> GramMatrix:
    """Parse a Gram matrix from 'a,b;c,d' or JSON '[[a,b],[c,d]]' syntax.

    The empty string denotes the rank zero lattice.
    """
    text = text.strip()
    if not text or text == "[]":
        return GramMatrix(())
    if text.startswith("["):
        data = json.loads(text)
        return gram_from_rows(data)
    rows = []
    for chunk in text.split(";"):
        rows.append([int(x.strip()) for x in chunk.split(",")])
    return gram_from_rows(rows)


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for t in range(n):
        pivot = next((i for i in range(t, n) if m[i][t] != 0), None)
        if pivot is None:
            return 0
        if pivot != t:
            m[t], m[pivot] = m[pivot], m[t]
            det = -det
        det *= m[t][t]
        for i in range(t + 1, n):
            f = m[i][t] / m[t][t]
            if f:
                for j in range(t, n):
                    m[i][j] -= f * m[t][j]
    assert det.denominator == 1
    return int(det)


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Smith normal form with transforms: returns (U, diag, V), U A V = diag.

    U and V are unimodular, the diagonal entries are nonnegative and each
    divides the next.
    """
    n = len(rows)
    a = [list(map(int, row)) for row in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i: int, j: int, q: int) -> None:
        for k in range(n):
            a[i][k] -= q * a[j][k]
            u[i][k] -= q * u[j][k]

    def col_op(i: int, j: int, q: int) -> None:
        for k in range(n):
            a[k][i] -= q * a[k][j]
            v[k][i] -= q * v[k][j]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for k in range(n):
            a[k][i], a[k][j] = a[k][j], a[k][i]
            v[k][i], v[k][j] = v[k][j], v[k][i]

    for t in range(n):
        while True:
            best = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] and (
                        best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])
                    ):
                        best = (i, j)
            if best is None:
                break
            row_swap(t, best[0])
            col_swap(t, best[1])
            p = a[t][t]
            changed = False
            for i in range(t + 1, n):
                if a[i][t]:
                    row_op(i, t, a[i][t] // p)
                    if a[i][t]:
                        changed = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // p)
                    if a[t][j]:
                        changed = True
            if changed:
                continue
            offender = None
            for i in range(t + 1, n):
                if any(a[i][j] % p for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        if t < n and a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
                u[t][k] = -u[t][k]
    diag = [a[i][i] for i in range(n)]
    return u, diag, v


# ---------------------------------------------------------------------------
# discriminant forms


@dataclass(frozen=True)
class DFElement:
    """Element of a discriminant group, as coordinates along its generators."""

    coords: tuple[int, ...]


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite quadratic module Lambda'/Lambda of an even lattice."""

    gram: GramMatrix
    elementary_divisors: tuple[int, ...]
    order: int
    generator_lifts: tuple[tuple[Fraction, ...], ...]
    signature_pair: tuple[int, int]

    # -- element bookkeeping ------------------------------------------------

    def zero(self) -> DFElement:
        return DFElement((0,) * len(self.elementary_divisors))

    def element(self, coords: Sequence[int]) -> DFElement:
        divs = self.elementary_divisors
        assert len(coords) == len(divs), "coordinate length mismatch"
        return DFElement(tuple(c % d for c, d in zip(coords, divs)))

    def elements(self) -> Iterator[DFElement]:
        """All elements, lexicographically by coordinates."""
        for coords in itertools.product(*(range(d) for d in self.elementary_divisors)):
            yield DFElement(coords)

    def add(self, x: DFElement, y: DFElement) -> DFElement:
        return self.element([a + b for a, b in zip(x.coords, y.coords)])

    def neg(self, x: DFElement) -> DFElement:
        return self.element([-a for a in x.coords])

    def scale(self, k: int, x: DFElement) -> DFElement:
        return self.element([k * a for a in x.coords])

    def lift(self, x: DFElement) -> tuple[Fraction, ...]:
        """Canonical rational lift in lattice coordinates, entries in [0, 1)."""
        e = self.gram.rank
        acc = [Fraction(0)] * e
        for c, gen in zip(x.coords, self.generator_lifts):
            for i in range(e):
                acc[i] += c * gen[i]
        return tuple(a - math.floor(a) for a in acc)

    def element_from_lift(self, vec: Sequence[Fraction]) -> DFElement:
        """Class of a rational vector that pairs integrally with the lattice."""
        e = self.gram.rank
        assert len(vec) == e
        sx = []
        for i in range(e):
            val = sum(Fraction(self.gram.entry(i, j)) * Fraction(vec[j]) for j in range(e))
            if val.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
            sx.append(int(val))
        full = [
            sum(self._umat[i][j] * sx[j] for j in range(e))
            for i in range(e)
        ]
        coords = [full[i] for i in self._gen_positions]
        return self.element(coords)

    # -- invariants ----------------------------------------------------------

    def q(self, x: DFElement) -> Fraction:
        """Quadratic form value q(x) in Q/Z, represented in [0, 1)."""
        v = self.lift(x)
        total = sum(
            (
                Fraction(self.gram.entry(i, j)) * v[i] * v[j]
                for i in range(self.gram.rank)
                for j in range(self.gram.rank)
            ),
            Fraction(0),
        )
        return (total / 2) % 1

    def pairing(self, x: DFElement, y: DFElement) -> Fraction:
        """Bilinear pairing <x, y> in Q/Z, represented in [0, 1)."""
        vx, vy = self.lift(x), self.lift(y)
        total = sum(
            (
                Fraction(self.gram.entry(i, j)) * vx[i] * vy[j]
                for i in range(self.gram.rank)
                for j in range(self.gram.rank)
            ),
            Fraction(0),
        )
        return total % 1

    def denominator(self, x: DFElement) -> int:
        """Order of x in the group (the level d_x of the element)."""
        d = 1
        for c, m in zip(x.coords, self.elementary_divisors):
            d = math.lcm(d, m // math.gcd(c, m))
        return d

    def label(self, x: DFElement) -> str:
        return "(" + ",".join(str(c) for c in self.lift(x)) + ")"

    # internal transform data, set by build_discriminant_form
    @property
    def _umat(self) -> tuple[tuple[int, ...], ...]:
        return _snf_cache(self.gram)[0]

    @property
    def _gen_positions(self) -> tuple[int, ...]:
        return _snf_cache(self.gram)[2]


@lru_cache(maxsize=None)
def _snf_cache(
    gram: GramMatrix,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    u, diag, v = smith_normal_form(gram.rows)
    positions = tuple(i for i, d in enumerate(diag) if d > 1)
    return (
        tuple(tuple(row) for row in u),
        tuple(diag),
        positions,
    )


def _signature_pair(gram: GramMatrix) -> tuple[int, int]:
    """(b+, b-) by exact congruent diagonalization over the rationals."""
    n = gram.rank
    m = [[Fraction(gram.entry(i, j)) for j in range(n)] for i in range(n)]
    pos = neg = 0
    for t in range(n):
        if m[t][t] == 0:
            j = next((j for j in range(t + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[t], m[j] = m[j], m[t]
                for row in m:
                    row[t], row[j] = row[j], row[t]
            else:
                j = next(j for j in range(t + 1, n) if m[t][j] != 0)
                # add row/col j into t; diagonal becomes 2 m[t][j]
                for k in range(n):
                    m[t][k] += m[j][k]
                for k in range(n):
                    m[k][t] += m[k][j]
        d = m[t][t]
        assert d != 0
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, n):
            f = m[i][t] / d
            if f:
                for k in range(n):
                    m[i][k] -= f * m[t][k]
                for k in range(n):
                    m[k][i] -= f * m[k][t]
    return pos, neg


def build_discriminant_form(gram: GramMatrix) -> DiscriminantForm:
    """Discriminant form of an even lattice, with a verified Milgram sum."""
    u, diag, v = smith_normal_form(gram.rows)
    e = gram.rank
    if e:
        check = [
            [
                sum(u[i][a] * gram.entry(a, b) * v[b][j] for a in range(e) for b in range(e))
                for j in range(e)
            ]
            for i in range(e)
        ]
        assert all(
            check[i][j] == (diag[i] if i == j else 0) for i in range(e) for j in range(e)
        ), "Smith normal form transform check failed"
    divisors = tuple(d for d in diag if d > 1)
    lifts = tuple(
        tuple(Fraction(v[r][i], diag[i]) for r in range(e))
        for i, d in enumerate(diag)
        if d > 1
    )
    order = 1
    for d in divisors:
        order *= d
    assert order == abs(gram.det()), "group order must match |det|"
    form = DiscriminantForm(
        gram=gram,
        elementary_divisors=divisors,
        order=order,
        generator_lifts=lifts,
        signature_pair=_signature_pair(gram),
    )
    _check_milgram(form)
    return form


def _check_milgram(form: DiscriminantForm) -> None:
    total = sum(
        cmath.exp(2j * cmath.pi * float(form.q(g))) for g in form.elements()
    )
    bplus, bminus = form.signature_pair
    expected = math.sqrt(form.order) * cmath.exp(2j * cmath.pi * (bplus - bminus) / 8)
    assert abs(total - expected) < 1e-9, (
        f"Milgram sum failed: {total} vs {expected}"
    )


def augment_lattice(gram: GramMatrix, m: Fraction | int) -> GramMatrix:
    """Extend a Gram matrix by an orthogonal rank one block (2m).

    m must be a positive integer (after clearing the denominator carried by
    a nonzero Jacobi index this is always the case).
    """
    m = Fraction(m)
    if m <= 0 or m.denominator != 1:
        raise ValueError("augmentation needs a positive integer block")
    return gram.block_sum(GramMatrix(((2 * int(m),),)))
