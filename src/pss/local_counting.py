"""Local solution counts and the resulting L-series data.

The central object is a counting problem: an integer-valued quadratic
polynomial P(x) = (1/2) x^T A x + b.x + c built from lattice data, whose
solution counts modulo prime powers determine one local factor of the
coefficient formulas.  Counts are exact (Hensel-style recursion, with
closed forms replacing the scan at large odd primes), a rational local
factor is fitted against a universal denominator, and the global value is
assembled from character L-values as exact Laurent data.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .exact_arith import (
    DirichletCharacter,
    LaurentFactor,
    FormalTerm,
    SymbolicConstant,
    euler_monomial,
    factorize,
    kronecker_symbol,
    l_value,
    sym,
)
from .lattice_core import DFElement, DiscriminantForm

DEFAULT_BUDGET = 2**26
_SCAN_CAP = 4096
_MAX_NU = 36


class BudgetError(RuntimeError):
    """The counting work limit was exceeded."""


class FitError(RuntimeError):
    """A local factor recurrence failed to stabilize."""


# ---------------------------------------------------------------------------
# counting problems


@dataclass(frozen=True)
class CountingProblem:
    """Lattice-shifted quadratic counting data in jacobi or plain mode.

    In jacobi mode the variables are (v, lambda) with
    P = q(v + lambda*beta - gamma) + m lambda^2 - r lambda + n, which is
    integer valued exactly when m = -q(beta), r = -<gamma, beta> and
    n = -q(gamma) hold in Q/Z.  Plain mode drops the lambda variable.
    """

    form: DiscriminantForm
    mode: str
    gamma: DFElement
    n: Fraction
    beta: Optional[DFElement] = None
    m: Optional[Fraction] = None
    r: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.mode not in ("jacobi", "plain"):
            raise ValueError("mode must be 'jacobi' or 'plain'")
        if self.mode == "jacobi":
            if self.beta is None or self.m is None or self.r is None:
                raise ValueError("jacobi problems need beta, m and r")
            if self.m <= 0:
                raise ValueError("the index m must be positive")
        _integer_data(self)  # validates the integrality congruences

    @property
    def dimension(self) -> int:
        return self.form.gram.rank + (1 if self.mode == "jacobi" else 0)

    @property
    def omega(self) -> Fraction:
        """Discriminant direction: n - r^2/(4m) in jacobi mode, n otherwise."""
        if self.mode == "jacobi":
            return self.n - self.r * self.r / (4 * self.m)
        return self.n

    @property
    def degenerate(self) -> bool:
        return self.omega == 0


@lru_cache(maxsize=None)
def _integer_data(
    prob: CountingProblem,
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """The integer triple (A, b, c) of the counting polynomial."""
    form = prob.form
    e = form.gram.rank
    lg = form.lift(prob.gamma)
    sg = [sum(form.gram.entry(i, j) * lg[j] for j in range(e)) for i in range(e)]
    assert all(x.denominator == 1 for x in sg)
    sg = [int(x) for x in sg]
    qg = sum((Fraction(sg[i]) * lg[i] for i in range(e)), Fraction(0)) / 2
    c = prob.n + qg
    if c.denominator != 1:
        raise ValueError("n must be congruent to -q(gamma) mod 1")
    if prob.mode == "plain":
        a = tuple(tuple(form.gram.entry(i, j) for j in range(e)) for i in range(e))
        b = tuple(-x for x in sg)
        return a, b, int(c)
    lb = form.lift(prob.beta)
    sb = [sum(form.gram.entry(i, j) * lb[j] for j in range(e)) for i in range(e)]
    assert all(x.denominator == 1 for x in sb)
    sb = [int(x) for x in sb]
    qb = sum((Fraction(sb[i]) * lb[i] for i in range(e)), Fraction(0)) / 2
    mm = prob.m + qb
    if mm.denominator != 1:
        raise ValueError("m must be congruent to -q(beta) mod 1")
    pair_gb = sum((Fraction(sb[i]) * lg[i] for i in range(e)), Fraction(0))
    rr = prob.r + pair_gb
    if rr.denominator != 1:
        raise ValueError("r must be congruent to -<gamma, beta> mod 1")
    rows = []
    for i in range(e):
        rows.append(tuple(form.gram.entry(i, j) for j in range(e)) + (sb[i],))
    rows.append(tuple(sb) + (2 * int(mm),))
    a = tuple(rows)
    b = tuple(-x for x in sg) + (-int(rr),)
    return a, b, int(c)


def _poly_value(
    a: Sequence[Sequence[int]], b: Sequence[int], c: int, x: Sequence[int]
) -> int:
    w = len(b)
    acc = 2 * c
    for i in range(w):
        if x[i] == 0:
            continue
        acc += 2 * b[i] * x[i] + a[i][i] * x[i] * x[i]
        for j in range(i + 1, w):
            acc += 2 * a[i][j] * x[i] * x[j]
    assert acc % 2 == 0
    return acc // 2


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# -- closed form counts mod p (odd p) ---------------------------------------


def _legendre(a: int, p: int) -> int:
    return kronecker_symbol(a % p, p)


def _diag_quadratic_count(alphas: Sequence[int], t: int, p: int) -> int:
    """#{z in F_p^k : sum alpha_i z_i^2 = t} with all alpha_i nonzero."""
    k = len(alphas)
    if k == 0:
        return 1 if t % p == 0 else 0
    delta = 1
    for al in alphas:
        delta = (delta * al) % p
    t %= p
    if k % 2 == 0:
        eta = _legendre((-1) ** (k // 2) * delta, p)
        v = p - 1 if t == 0 else -1
        return p ** (k - 1) + v * eta * p ** (k // 2 - 1)
    if t == 0:
        return p ** (k - 1)
    eta = _legendre(((-1) ** ((k - 1) // 2) * t * delta) % p, p)
    return p ** (k - 1) + eta * p ** ((k - 1) // 2)


def _congruent_diagonalize(beta: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Over F_p (odd p): returns (M, delta) with M^T beta M = diag(delta)."""
    w = len(beta)
    bmat = [[x % p for x in row] for row in beta]
    m = [[int(i == j) for j in range(w)] for i in range(w)]

    def col_scale_add(dst: int, src: int, f: int) -> None:
        # congruence op x = M z with col_dst += f * col_src, applied to bmat and m
        for k in range(w):
            bmat[k][dst] = (bmat[k][dst] + f * bmat[k][src]) % p
        for k in range(w):
            bmat[dst][k] = (bmat[dst][k] + f * bmat[src][k]) % p
        for k in range(w):
            m[k][dst] = (m[k][dst] + f * m[k][src]) % p

    def swap(i: int, j: int) -> None:
        for k in range(w):
            bmat[k][i], bmat[k][j] = bmat[k][j], bmat[k][i]
        bmat[i], bmat[j] = bmat[j], bmat[i]
        for k in range(w):
            m[k][i], m[k][j] = m[k][j], m[k][i]

    for t in range(w):
        if bmat[t][t] % p == 0:
            j = next((j for j in range(t + 1, w) if bmat[j][j] % p), None)
            if j is not None:
                swap(t, j)
            else:
                pair = None
                for i in range(t, w):
                    for j in range(i + 1, w):
                        if bmat[i][j] % p:
                            pair = (i, j)
                            break
                    if pair:
                        break
                if pair is None:
                    break  # trailing block is zero
                i, j = pair
                col_scale_add(i, j, 1)  # diagonal becomes 2*beta[i][j]
                if i != t:
                    swap(t, i)
        piv = bmat[t][t] % p
        inv = pow(piv, p - 2, p)
        for i in range(t + 1, w):
            f = (bmat[i][t] * inv) % p
            if f:
                col_scale_add(i, t, -f)
    delta = [bmat[i][i] % p for i in range(w)]
    return m, delta


def _n1_closed(
    a: Sequence[Sequence[int]], b: Sequence[int], c: int, p: int
) -> int:
    """#{x in F_p^w : P(x) = 0} for odd p, via diagonalization."""
    w = len(b)
    inv2 = pow(2, p - 2, p)
    beta = [[(a[i][j] * inv2) % p for j in range(w)] for i in range(w)]
    m, delta = _congruent_diagonalize(beta, p)
    bprime = [sum(m[k][i] * b[k] for k in range(w)) % p for i in range(w)]
    cc = c % p
    alphas = []
    free = 0
    for i in range(w):
        if delta[i] % p:
            # complete the square: subtract b'^2/(4 delta)
            cc = (cc - bprime[i] * bprime[i] * pow(4 * delta[i] % p, p - 2, p)) % p
            alphas.append(delta[i] % p)
        else:
            if bprime[i] % p:
                return p ** (w - 1)
            free += 1
    return _diag_quadratic_count(alphas, (-cc) % p, p) * p**free


def _solve_linear_mod_p(
    a: Sequence[Sequence[int]], rhs: Sequence[int], p: int
) -> Optional[tuple[list[int], list[list[int]]]]:
    """Solve a x = rhs over F_p: (particular, kernel basis) or None."""
    w = len(rhs)
    mat = [[a[i][j] % p for j in range(w)] + [rhs[i] % p] for i in range(w)]
    pivots = []
    row = 0
    for col in range(w):
        piv = next((i for i in range(row, w) if mat[i][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for i in range(w):
            if i != row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    for i in range(row, w):
        if mat[i][w]:
            return None
    particular = [0] * w
    for i, col in enumerate(pivots):
        particular[col] = mat[i][w]
    kernel = []
    free_cols = [c for c in range(w) if c not in pivots]
    for fc in free_cols:
        vec = [0] * w
        vec[fc] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-mat[i][fc]) % p
        kernel.append(vec)
    return particular, kernel


# -- the counting recursion ---------------------------------------------------


def _canon_key(
    a: Sequence[Sequence[int]], b: Sequence[int], c: int, p: int, nu: int
) -> tuple:
    mod = p**nu
    w = len(b)
    half_diag = tuple(
        tuple((a[i][j] if i != j else a[i][i] // 2) % mod for j in range(w))
        for i in range(w)
    )
    return (half_diag, tuple(x % mod for x in b), c % mod, nu)


def _count(
    a: tuple[tuple[int, ...], ...],
    b: tuple[int, ...],
    c: int,
    p: int,
    nu: int,
    memo: dict,
    budget: list[int],
) -> int:
    if nu == 0:
        return 1
    w = len(b)
    if w == 0:
        return 1 if c % p**nu == 0 else 0
    key = _canon_key(a, b, c, p, nu)
    if key in memo:
        return memo[key]
    a_zero = all(a[i][j] % p == 0 for i in range(w) for j in range(w))
    result: int
    if a_zero and all(x % p == 0 for x in b):
        if p == 2:
            # mod 2 the halved diagonal a_ii/2 x_i^2 can survive, so the
            # polynomial need not be constant; fall back to scanning
            result = _count_scan(a, b, c, p, nu, memo, budget)
        elif c % p:
            result = 0
        else:
            aa = tuple(tuple(x // p for x in row) for row in a)
            bb = tuple(x // p for x in b)
            result = p**w * _count(aa, bb, c // p, p, nu - 1, memo, budget)
    elif a_zero and p != 2:
        # smooth linear congruence at every point
        result = p ** ((w - 1) * nu)
    elif p**w <= _SCAN_CAP:
        result = _count_scan(a, b, c, p, nu, memo, budget)
    else:
        assert p != 2
        result = _count_structured(a, b, c, p, nu, memo, budget)
    memo[key] = result
    return result


def _count_scan(a, b, c, p, nu, memo, budget) -> int:
    w = len(b)
    budget[0] -= p**w
    if budget[0] < 0:
        raise BudgetError("solution counting budget exceeded")
    total = 0
    child_a = None
    for x0 in itertools.product(range(p), repeat=w):
        px = _poly_value(a, b, c, x0)
        if px % p:
            continue
        if nu == 1:
            total += 1
            continue
        if child_a is None:
            child_a = tuple(tuple(p * x for x in row) for row in a)
        grad = tuple(
            sum(a[i][j] * x0[j] for j in range(w)) + b[i] for i in range(w)
        )
        total += _count(child_a, grad, px // p, p, nu - 1, memo, budget)
    return total


def _count_structured(a, b, c, p, nu, memo, budget) -> int:
    w = len(b)
    budget[0] -= w * w * w
    if budget[0] < 0:
        raise BudgetError("solution counting budget exceeded")
    n1 = _n1_closed(a, b, c, p)
    if nu == 1:
        return n1
    sol = _solve_linear_mod_p(a, [(-x) % p for x in b], p)
    if sol is None:
        return n1 * p ** ((w - 1) * (nu - 1))
    particular, kernel = sol
    k = len(kernel)
    budget[0] -= p**k
    if budget[0] < 0:
        raise BudgetError("singular point enumeration budget exceeded")
    z1 = 0
    total = 0
    for coeffs in itertools.product(range(p), repeat=k):
        x0 = list(particular)
        for cf, vec in zip(coeffs, kernel):
            if cf:
                for i in range(w):
                    x0[i] = (x0[i] + cf * vec[i]) % p
        px = _poly_value(a, b, c, x0)
        if px % p:
            continue
        z1 += 1
        if px % (p * p):
            continue
        grad = tuple(
            sum(a[i][j] * x0[j] for j in range(w)) + b[i] for i in range(w)
        )
        assert all(g % p == 0 for g in grad)
        total += p**w * _count(
            a, tuple(g // p for g in grad), px // (p * p), p, nu - 2, memo, budget
        )
    total += (n1 - z1) * p ** ((w - 1) * (nu - 1))
    return total


def count_solutions(
    prob: CountingProblem, p: int, nu: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of solutions of the counting polynomial modulo p**nu."""
    assert _is_prime(p), "p must be prime"
    assert nu >= 0
    a, b, c = _integer_data(prob)
    return _count(a, b, c, p, nu, {}, [budget])


# ---------------------------------------------------------------------------
# local factors


@dataclass(frozen=True)
class LocalFactor:
    """Rational local factor N(X) / ((1 - p^(w-1) X)(1 - p^w X^2)).

    X stands for p**(-s); ``numerator`` lists the coefficients of N starting
    with the constant term.  ``verified_through`` is the largest prime power
    exponent whose count confirmed the fit (None for closed forms).
    """

    p: int
    dim: int
    numerator: tuple[int, ...]
    verified_through: Optional[int] = None

    def predicted_counts(self, through: int) -> list[int]:
        """Counts mod p**nu for nu = 0..through implied by the factor."""
        p, w = self.p, self.dim
        nums = self.numerator
        c: list[int] = []
        for v in range(through + 1):
            val = nums[v] if v < len(nums) else 0
            if v >= 1:
                val += p ** (w - 1) * c[v - 1]
            if v >= 2:
                val += p**w * c[v - 2]
            if v >= 3:
                val -= p ** (2 * w - 1) * c[v - 3]
            c.append(val)
        return c

    def value_at(self, sigma: int) -> Fraction:
        """Exact value at s = sigma (must not be a pole)."""
        p, w = self.p, self.dim
        x = Fraction(1, p**sigma)
        num = sum(Fraction(n) * x**i for i, n in enumerate(self.numerator))
        den = (1 - p ** (w - 1) * x) * (1 - p**w * x * x)
        assert den != 0, "local factor evaluated at a pole of its denominator"
        return num / den

    def laurent_at(self, sigma: int, slope: int = 2) -> LaurentFactor:
        """Laurent data of the factor at s = sigma + slope * t around t = 0."""
        p, w = self.p, self.dim
        x0 = Fraction(1, p**sigma)
        # Taylor coefficients of N(p^(-sigma - slope t)): the j-th one is
        # (-slope log p)^j / j! * sum_nu nu^j n_nu x0^nu
        deg = len(self.numerator)
        lead = None
        for j in range(deg + 1):
            tot = Fraction(0)
            fact = 1
            for v, n in enumerate(self.numerator):
                if n:
                    tot += Fraction(n) * v**j * x0**v
            for i in range(1, j + 1):
                fact *= i
            coeff = tot * Fraction((-slope) ** j, fact)
            if coeff != 0:
                logs = ((p, j),) if j else ()
                lead = LaurentFactor(-j, FormalTerm(sym(coeff), logs))
                break
        assert lead is not None, "numerator vanished identically"
        den1 = euler_monomial(p, w - 1 - sigma, slope)
        den2 = euler_monomial(p, w - 2 * sigma, 2 * slope)
        return lead * den1.inverse() * den2.inverse()


def _fit_local_factor(
    prob: CountingProblem, p: int, budget: int
) -> LocalFactor:
    a, b, c = _integer_data(prob)
    w = len(b)
    assert w >= 1
    memo: dict = {}
    bud = [budget]
    counts: list[int] = []
    nums: list[int] = []
    for nu in range(_MAX_NU + 1):
        counts.append(_count(a, b, c, p, nu, memo, bud))
        val = counts[nu]
        if nu >= 1:
            val -= p ** (w - 1) * counts[nu - 1]
        if nu >= 2:
            val -= p**w * counts[nu - 2]
        if nu >= 3:
            val += p ** (2 * w - 1) * counts[nu - 3]
        nums.append(val)
        # three zeros close the recurrence, three more act as checked
        # predictions; accepting on fewer mistakes a numerator whose next
        # terms merely start with a gap of zeros
        if nu >= 6 and all(nums[j] == 0 for j in range(nu - 5, nu + 1)):
            trimmed = list(nums[: nu - 5])
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            if not trimmed:
                trimmed = [0]
            assert trimmed[0] == 1, "count mod 1 must be 1"
            return LocalFactor(p, w, tuple(trimmed), verified_through=nu)
    raise FitError(
        f"local factor at p={p} did not stabilize within {_MAX_NU} counts"
    )


# in-process store; the file cache below seeds and persists it
_FACTOR_MEMO: dict[tuple[str, int], LocalFactor] = {}


def _problem_key(prob: CountingProblem) -> str:
    parts = [
        prob.mode,
        str(prob.form.gram.rows),
        f"g{prob.gamma.coords}",
        f"b{prob.beta.coords if prob.beta is not None else None}",
        f"m{prob.m}",
        f"r{prob.r}",
        f"n{prob.n}",
    ]
    return "|".join(parts)


class LocalFactorCache:
    """Optional persistent store for fitted local factors (JSON file)."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.entries: dict[str, LocalFactor] = {}
        if path and os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        "cache file %s is not valid JSON: %s" % (path, exc)
                    ) from exc
            if not isinstance(raw, dict) or raw.get("version") != 1:
                raise ValueError(
                    "cache file %s has an unknown format (want version 1)"
                    % path)
            for key, (p, dim, nums, ver) in raw.get("entries", {}).items():
                self.entries[key] = LocalFactor(p, dim, tuple(nums), ver)
        self._dirty = False

    def lookup(self, key: str) -> Optional[LocalFactor]:
        return self.entries.get(key)

    def store(self, key: str, factor: LocalFactor) -> None:
        self.entries[key] = factor
        self._dirty = True

    def save(self) -> None:
        if not self.path or not self._dirty:
            return
        payload = {
            "version": 1,
            "entries": {
                k: [f.p, f.dim, list(f.numerator), f.verified_through]
                for k, f in sorted(self.entries.items())
            },
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        self._dirty = False


def _class_representative(prob: CountingProblem) -> CountingProblem:
    """The member with r in [0, 2md) of the Jacobi class of a problem.

    In jacobi mode, lambda -> lambda + k with k beta in L (k a multiple of
    the order d of beta) is a unimodular change of variables taking
    (n, r) to (n - rk + mk^2, r - 2mk); it leaves the counts mod every
    prime power, omega, the bad primes and the discriminants unchanged
    (the translation invariance of Jacobi forms).  2md is an integer since
    m = -q(beta) mod 1 and 2d q(beta) is one.  Plain problems are their own
    representatives.
    """
    if prob.mode != "jacobi":
        return prob
    d = prob.form.denominator(prob.beta)
    k = d * math.floor(prob.r / (2 * prob.m * d))
    if k == 0:
        return prob
    return replace(
        prob,
        n=prob.n - prob.r * k + prob.m * k * k,
        r=prob.r - 2 * prob.m * k,
    )


def local_factor(
    prob: CountingProblem,
    p: int,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> LocalFactor:
    """Fitted local factor of the counting problem at a prime.

    Counts are extended until the numerator recurrence produces three
    consecutive zeros, which pins the rational function and makes the next
    three counts genuine predictions.  The fit, its memo entry and its
    cache entry belong to the Jacobi class of the problem: every translate
    shares those of the representative (see ``_class_representative``).
    """
    assert _is_prime(p)
    prob = _class_representative(prob)
    key = (_problem_key(prob), p)
    hit = _FACTOR_MEMO.get(key)
    if hit is not None:
        return hit
    if cache is not None:
        stored = cache.lookup(f"{key[0]}|p{p}")
        if stored is not None:
            _FACTOR_MEMO[key] = stored
            return stored
    factor = _fit_local_factor(prob, p, budget)
    _FACTOR_MEMO[key] = factor
    if cache is not None:
        cache.store(f"{key[0]}|p{p}", factor)
    return factor


# ---------------------------------------------------------------------------
# discriminants and bad primes


@dataclass(frozen=True)
class DiscriminantData:
    """Discriminants attached to a counting problem, padded at bad primes.

    Odd-rank jacobi problems carry (Dprime, D); even-rank jacobi and plain
    problems carry (calDprime, calD).  The padded variants multiply by p**2
    for each bad prime, so the attached character vanishes on the bad set.
    """

    bad_primes: tuple[int, ...]
    Dprime: Optional[int] = None
    D: Optional[int] = None
    calDprime: Optional[int] = None
    calD: Optional[int] = None


def _odd_primes_of(n: int) -> set[int]:
    if n == 0:
        return set()
    return {p for p in factorize(n) if p != 2}


def bad_primes_and_discriminants(prob: CountingProblem) -> DiscriminantData:
    """Bad prime set and the (padded) discriminants of the problem."""
    form = prob.form
    order = form.order
    bad = {2} | _odd_primes_of(order)
    if prob.mode == "jacobi":
        d_beta = form.denominator(prob.beta)
        d_gamma = form.denominator(prob.gamma)
        m_scaled = prob.m * d_beta * d_beta
        assert m_scaled.denominator == 1
        bad |= _odd_primes_of(int(m_scaled))
        omega_scaled = prob.omega * d_beta**2 * d_gamma**2
        bad |= _odd_primes_of(omega_scaled.numerator)
        bad |= _odd_primes_of(omega_scaled.denominator)
        pad = 1
        for p in bad:
            pad *= p * p
        e = form.gram.rank
        if e % 2 == 1:
            dprime = -2 * int(m_scaled) * order
            return DiscriminantData(tuple(sorted(bad)), Dprime=dprime, D=dprime * pad)
        cal = (prob.r * prob.r - 4 * prob.m * prob.n) * d_beta**2 * d_gamma**2
        assert cal.denominator == 1
        cal_prime = int(cal) * order
        return DiscriminantData(
            tuple(sorted(bad)), calDprime=cal_prime, calD=cal_prime * pad
        )
    # plain mode
    d_gamma = form.denominator(prob.gamma)
    n_scaled = prob.n * d_gamma * d_gamma
    assert n_scaled.denominator == 1
    bad |= _odd_primes_of(int(n_scaled))
    pad = 1
    for p in bad:
        pad *= p * p
    cal_prime = -2 * int(n_scaled) * order
    return DiscriminantData(
        tuple(sorted(bad)), calDprime=cal_prime, calD=cal_prime * pad
    )


def good_prime_factor(prob: CountingProblem, p: int) -> LocalFactor:
    """Closed-form local factor at a prime outside the bad set."""
    data = bad_primes_and_discriminants(prob)
    if p in data.bad_primes:
        raise ValueError(f"{p} is a bad prime for this problem")
    w = prob.dimension
    disc = data.Dprime if data.Dprime is not None else data.calDprime
    if disc % p == 0 and disc != 0:
        raise ValueError(f"{p} divides the discriminant")
    chi = kronecker_symbol(disc, p) if disc != 0 else 0
    if w % 2 == 0:
        if not prob.degenerate:
            lin = [1, -chi * p ** (w // 2 - 1)]
            quad = [1, 0, -(p**w)]
            nums = _poly_mul(lin, quad)
        else:
            nums = _poly_mul([1, chi * p ** (w // 2)], [1, -chi * p ** (w // 2 - 1)])
    else:
        if not prob.degenerate:
            lin = [1, chi * p ** ((w - 1) // 2)]
            quad = [1, 0, -(p**w)]
            nums = _poly_mul(lin, quad)
        else:
            nums = [1, 0, -(p ** (w - 1))]
    return LocalFactor(p, w, tuple(nums), verified_through=None)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# global assembly


def _mode_parameters(prob: CountingProblem, weight: Fraction) -> tuple[int, int]:
    """(sigma0, u_bad) for the supported weight/mode combinations."""
    e = prob.form.gram.rank
    w = prob.dimension
    if prob.mode == "jacobi":
        if weight == Fraction(3, 2):
            if e % 2 == 0:
                raise ValueError("weight 3/2 needs an odd-rank lattice")
            return w // 2, (e - 1) // 2
        if weight == 2:
            if e % 2 == 1:
                raise ValueError("weight 2 needs an even-rank lattice")
            return (w + 1) // 2, e // 2 - 1
        raise ValueError("supported weights are 3/2 and 2")
    if weight != Fraction(3, 2):
        raise ValueError("plain mode supports weight 3/2 only")
    if e % 2 == 0:
        raise ValueError("plain weight 3/2 needs an odd-rank lattice")
    return (w + 1) // 2, (e - 3) // 2


def ltilde_at(
    prob: CountingProblem,
    weight: Fraction,
    extra_bad: Iterable[int] = (),
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> tuple[Optional[SymbolicConstant], SymbolicConstant]:
    """Value and residue of the completed local-factor product at its center.

    Returns (value, residue): the s^0 coefficient when the total pole order
    is 0 (None at a genuine pole, 0 past a zero), and the residue when the
    order is 1 (else 0).  ``extra_bad`` moves additional good primes into
    the bad set, which must not change the result; it exists for testing
    and cross-checking.
    """
    weight = Fraction(weight)
    sigma0, u = _mode_parameters(prob, weight)
    data = bad_primes_and_discriminants(prob)
    bad = sorted(set(data.bad_primes) | set(extra_bad))
    pad = 1
    for p in bad:
        pad *= p * p
    jacobi32 = prob.mode == "jacobi" and weight == Fraction(3, 2)
    if jacobi32:
        disc = data.Dprime * pad
    else:
        disc = data.calDprime * pad
    out: LaurentFactor
    if jacobi32:
        chi = DirichletCharacter(disc)
        out = l_value(chi, 1, unknown_ok=True).rescale(2).inverse()
        if prob.degenerate:
            out = out * l_value(chi, 0, unknown_ok=True).rescale(2)
    elif not prob.degenerate:
        chi = DirichletCharacter(disc)
        out = l_value(chi, 1, unknown_ok=True).rescale(2)
        out = out * l_value(DirichletCharacter(1), 2).rescale(4).inverse()
    else:
        out = l_value(DirichletCharacter(1), 1).rescale(4)
        out = out * l_value(DirichletCharacter(1), 2).rescale(4).inverse()
    for p in bad:
        lp = local_factor(prob, p, budget=budget, cache=cache)
        out = out * euler_monomial(p, u, 2) * lp.laurent_at(sigma0, slope=2)
        if not jacobi32:
            out = out * euler_monomial(p, -2, 4).inverse()
            if prob.degenerate:
                out = out * euler_monomial(p, -1, 4)
    value = out.value() if out.pole_order <= 0 else None
    residue = out.residue()
    return value, residue
