"""Correctness checks computed apart from the program.

Nothing here imports ``pss``: the references are divisor sums, Hurwitz
class numbers counted from reduced binary quadratic forms, the values the
paper tabulates, and properties every expansion must have.  Each check
takes an expansion in the program's JSON form (``FourierExpansion.to_dict``
or ``pss ... --format json``) and returns a list of problems, empty when
the output is right; a reference check tags each problem with the exponent
of the coefficient it concerns (None when there is no single one).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable

H = "1/2"

# the weight 3/2, m = 1 series of [[0,0,2],[0,2,0],[2,0,0]] as the paper
# tabulates it (overpartition counts), by component lift, from the offset on
PAPER_TABLE_EIGHT = {
    ("0", "0", "0"): ["1/2", "3", "6", "4"],
    (H, "0", "0"): ["-1/2", "-3", "-6", "-4"],
    ("0", "0", H): ["-1/2", "-3", "-6", "-4"],
    ("0", H, "0"): ["4", "0", "12"],
    (H, H, "0"): ["-4", "0", "-12"],
    ("0", H, H): ["-4", "0", "-12"],
    (H, "0", H): ["-6", "-12", "-12"],
    (H, H, H): ["-3", "-12", "-15"],
}


def sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def hurwitz_class_number(n: int) -> Fraction:
    """H(n): classes of positive definite binary forms of discriminant -n.

    Counted from reduced forms (a, b, c) with |b| <= a <= c, weighting the
    classes of a*(x^2 + y^2) by 1/2 and of a*(x^2 + xy + y^2) by 1/3;
    H(0) = -1/12.
    """
    if n == 0:
        return Fraction(-1, 12)
    if n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    b = n % 2
    while 3 * b * b <= n:
        ac = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if a == b == c:
                    total += Fraction(1, 3)
                elif b == 0 and a == c:
                    total += Fraction(1, 2)
                elif b == 0 or a == b or a == c:
                    total += 1
                else:
                    total += 2  # (a, b, c) and (a, -b, c) are both reduced
            a += 1
        b += 2
    return total


def _gram_rows(text: str) -> list[list[int]]:
    return json.loads(text) if text.strip() else []


def _det(rows: list[list[int]]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return det


def _series(comp: dict) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(e), Fraction(v)) for e, v in comp["coefficients"].items()]


def check_properties(gram: str, precision: int, data: dict) -> list[str]:
    """Properties every expansion must have.

    One component per element of the discriminant group, offsets equal to
    -q(gamma) mod 1, exponents offset + j up to the precision, every
    coefficient rational, and components gamma and -gamma equal.
    """
    rows = _gram_rows(gram)
    problems = []
    comps = data["components"]
    order = abs(_det(rows)) if rows else 1
    if len(comps) != order:
        problems.append("%d components for a group of order %s"
                        % (len(comps), order))
    by_lift = {}
    for comp in comps:
        lift = tuple(Fraction(x) for x in comp["gamma"])
        by_lift[lift] = comp
        q = sum(Fraction(rows[i][j]) * lift[i] * lift[j]
                for i in range(len(lift)) for j in range(len(lift))) / 2
        offset = Fraction(comp["offset"])
        if offset != (-q) % 1:
            problems.append("offset %s of %s is not -q(gamma) mod 1"
                            % (offset, comp["gamma"]))
        want = []
        e = offset
        while e <= precision:
            want.append(e)
            e += 1
        try:
            got = [e for e, _ in _series(comp)]
        except (ValueError, ZeroDivisionError):
            problems.append("irrational coefficient in %s" % (comp["gamma"],))
            continue
        if got != want:
            problems.append("exponents of %s are %s, want %s"
                            % (comp["gamma"], got, want))
    for lift, comp in by_lift.items():
        neg = tuple((-x) % 1 for x in lift)
        other = by_lift.get(neg)
        if other is None or other["coefficients"] != comp["coefficients"]:
            problems.append("components %s and its negative differ"
                            % (comp["gamma"],))
    return problems


def _component(data: dict, lift: tuple) -> dict:
    for comp in data["components"]:
        if tuple(Fraction(x) for x in comp["gamma"]) == lift:
            return comp
    raise KeyError(lift)


def _check_law(series, law: Callable[[int], Fraction], what: str) -> list:
    return [(e, "%s: coefficient of q^%s is %s, want %s" % (what, e, v, law(e)))
            for e, v in series if v != law(e)]


def _trivial_weight2(data: dict) -> list:
    law = lambda n: Fraction(1) if n == 0 else Fraction(-24 * sigma1(int(n)))
    return _check_law(_series(data["components"][0]), law, "-24 sigma1")


def _split_weight2(data: dict) -> list:
    def law(n):
        n = int(n)
        if n == 0:
            return Fraction(1)
        return Fraction(-16 * sigma1(n) if n % 2 else -24 * sigma1(n // 2))
    comp = _component(data, (Fraction(0), Fraction(0)))
    return _check_law(_series(comp), law, "split component 0")


def _zx2_eisenstein(data: dict) -> list:
    law = lambda e: -12 * hurwitz_class_number(int(4 * e))
    out = []
    for comp in data["components"]:
        out += _check_law(_series(comp), law, "-12 H(4n)")
    return out


def _eight_table(data: dict) -> list:
    out = []
    for lift, values in PAPER_TABLE_EIGHT.items():
        comp = _component(data, tuple(Fraction(x) for x in lift))
        got = [v for _, v in _series(comp)]
        want = [Fraction(v) for v in values][: len(got)]
        if got != want:
            out.append((None, "component %s is %s, the paper has %s"
                              % (lift, got, want)))
    return out


def _rank_one_zero(data: dict) -> list:
    return [(e, "rank one weight 3/2 coefficient of q^%s in %s is %s"
             % (e, comp["gamma"], v))
            for comp in data["components"] for e, v in _series(comp) if v]


REFERENCES = {
    "trivial-sigma": _trivial_weight2,
    "split-sigma": _split_weight2,
    "hurwitz": _zx2_eisenstein,
    "paper-table": _eight_table,
    "zero": _rank_one_zero,
}

def check(request, data: dict) -> tuple[list[str], list[str]]:
    """The problems with one request's output, as (unexpected, known).

    ``known`` holds the reference mismatches at the exponents the request
    lists in ``wrong_at``, where a known fault in the program makes the
    coefficient wrong every time; every other problem is unexpected.
    """
    problems = check_properties(request.gram, request.precision, data)
    if problems or request.reference is None:
        return problems, []
    unexpected, known = [], []
    for e, problem in REFERENCES[request.reference](data):
        (known if e in request.wrong_at else unexpected).append(problem)
    return unexpected, known


def coefficient_count(data: dict) -> int:
    return sum(len(c["coefficients"]) for c in data["components"])
