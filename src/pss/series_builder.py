"""Assembly of Fourier expansions for Poincare square series and Eisenstein series.

This module glues the local counting machinery to the global L-value
bookkeeping and produces exact Fourier coefficients.  Three families of
series are covered:

* Poincare square series of weight 3/2 attached to an even lattice of odd
  rank, an index m > 0 and an element beta of the discriminant group.

* Poincare square series of weight 2 for lattices of even rank.  Their
  shadow terms contribute a correction built from real quadratic unit
  orbits.  When the discriminant group order is not a perfect square, the
  shadow constants carry a square root that cancels against the orbit sums.

* Plain Eisenstein series of weight 3/2 (the m = 0 specialisation, which
  only needs the lattice).

Every coefficient is a ``Fraction``.  A term that does not simplify to a
rational number raises ``RationalityError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .exact_arith import (
    SymbolicConstant,
    SYM_ZERO,
    sqrt_rat,
    squarefree_split,
    sym,
)
from .lattice_core import (
    DFElement,
    DiscriminantForm,
    GramMatrix,
    augment_lattice,
    build_discriminant_form,
)
from .local_counting import (
    CountingProblem,
    DEFAULT_BUDGET,
    LocalFactorCache,
    ltilde_at,
)
from .pell_engine import (
    family_sum,
    fundamental_unit_plus,
    norm_orbits,
    unit_order_mod,
)

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)
TWO = Fraction(2)


class RationalityError(ArithmeticError):
    """A coefficient that must be rational failed to simplify to one."""


def _sign_const(form: DiscriminantForm, weight: Fraction) -> int:
    """Sign of the archimedean factor, read off the lattice signature.

    Raises ValueError when the weight is incompatible with the signature,
    which happens exactly when 2*weight + b+ - b- is not divisible by 4.
    """
    bplus, bminus = form.signature_pair
    residue = (bminus - bplus) % 8
    if weight == THREE_HALVES:
        table = {3: 1, 7: -1}
    elif weight == TWO:
        table = {0: -1, 4: 1}
    else:
        raise ValueError("weight must be 3/2 or 2")
    if residue not in table:
        raise ValueError(
            "weight %s is incompatible with signature (%d, %d)"
            % (weight, bplus, bminus)
        )
    return table[residue]


def identity_count(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
) -> int:
    """Number of integers lambda with m*lambda^2 = n and lambda*beta = gamma."""
    if n < 0:
        return 0
    lam2 = Fraction(n, m)
    if lam2.denominator != 1:
        return 0
    root = math.isqrt(lam2.numerator)
    if root * root != lam2.numerator:
        return 0
    count = 0
    for lam in {root, -root}:
        if form.scale(lam, beta) == gamma:
            count += 1
    return count


def naive_coefficient(
    prob: CountingProblem,
    weight: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> SymbolicConstant:
    """Contribution of a single nondegenerate (n, r) pair to a coefficient.

    Only meaningful when the discriminant of the pair is negative, that is
    when omega = n - r^2/(4m) is positive (or n > 0 in plain mode).  The
    caller is responsible for not asking about degenerate pairs, and for
    checking that the term is rational.
    """
    omega = prob.omega
    assert omega > 0, "naive terms only exist for positive definite pairs"
    value, _ = ltilde_at(prob, weight, budget=budget, cache=cache)
    assert value is not None, "nondegenerate series value should be finite"
    form = prob.form
    sgn = _sign_const(form, weight)
    if prob.mode == "plain":
        pref = sym(Fraction(4 * sgn), 1, 2) * sqrt_rat(prob.n) \
            * sqrt_rat(form.order).inverse()
    elif weight == THREE_HALVES:
        pref = sym(Fraction(2 * sgn), 1) \
            * sqrt_rat(2 * prob.m * form.order).inverse()
    else:
        pref = sym(Fraction(4 * sgn), 1) * sqrt_rat(omega) \
            * sqrt_rat(prob.m * form.order).inverse()
    return pref * value


def _r_values(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
) -> Iterator[Fraction]:
    """Yield the r with r = -<gamma, beta> mod 1 and r^2 <= 4mn, ascending."""
    bound = 4 * m * n
    if bound < 0:
        return
    r0 = (-form.pairing(gamma, beta)) % 1
    # smallest integer j with (r0 + j)^2 <= bound, scanning outwards
    j = 0
    while (r0 + j) * (r0 + j) <= bound:
        j -= 1
    j += 1
    while (r0 + j) * (r0 + j) <= bound:
        yield r0 + j
        j += 1


def weight32_correction(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> SymbolicConstant:
    """Degenerate contribution to a weight 3/2 coefficient (pairs with r^2 = 4mn)."""
    total = SYM_ZERO
    sgn = _sign_const(form, THREE_HALVES)
    pref = sym(Fraction(sgn), 1) * sqrt_rat(2 * m * form.order).inverse()
    for r in _r_values(form, m, beta, gamma, n):
        if r * r != 4 * m * n:
            continue
        prob = CountingProblem(form, "jacobi", gamma, n, beta=beta, m=m, r=r)
        assert prob.degenerate
        value, _ = ltilde_at(prob, THREE_HALVES, budget=budget, cache=cache)
        assert value is not None
        term = pref * value
        if not term.is_rational:
            raise RationalityError(
                "degenerate weight 3/2 term did not simplify: %r" % (term,)
            )
        total = total + term
    return total


_SHADOW_MEMO: dict = {}


def shadow_constant(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
    r: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> SymbolicConstant:
    """The constant A(n, r) attached to a shadow pair of a weight 2 series.

    This is the residue part of the series value, normalised so that the
    trivial lattice with m = 1 gives -24 when r*r = 4mn and -48 otherwise.
    In general the value is a rational multiple of 1/sqrt(m * |group|); the
    square root only cancels later, against the unit orbit sums, so it must
    not be rejected here.
    """
    key = (form.gram.rows, m, beta.coords, gamma.coords, n, r)
    hit = _SHADOW_MEMO.get(key)
    if hit is not None:
        return hit
    prob = CountingProblem(form, "jacobi", gamma, n, beta=beta, m=m, r=r)
    _, residue = ltilde_at(prob, TWO, budget=budget, cache=cache)
    sgn = _sign_const(form, TWO)
    raw = sym(Fraction(16 * sgn), 2) * sqrt_rat(m * form.order).inverse() * residue
    if raw.pi_exp != 0 or raw.phase not in (0, 4):
        raise RationalityError(
            "shadow constant did not simplify to a real algebraic value: %r"
            % (raw,)
        )
    _SHADOW_MEMO[key] = raw
    return raw


def _a_full(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
    r: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> SymbolicConstant:
    """A(n, r) weighted by the orbit multiplicity: doubled when r*r = 4mn.

    The weighted value is the one that is constant along unit orbits of
    shadow pairs, so it is the right quantity to carry around the orbit
    sums.
    """
    value = shadow_constant(form, m, beta, gamma, n, r, budget, cache)
    prob = CountingProblem(form, "jacobi", gamma, n, beta=beta, m=m, r=r)
    if prob.degenerate:
        value = value * 2
    return value


def _b_half(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> SymbolicConstant:
    """One-sided shadow sum B(gamma) of a weight 2 coefficient.

    Sums A(n, r) * min(xi, xi') over the xi in the real quadratic (or
    split) order with norm m*n*(d_beta*d_gamma)^2 and trace congruent to
    -<gamma, beta>*d_beta*d_gamma, collected along unit orbits.
    """
    dbeta = form.denominator(beta)
    dgamma = form.denominator(gamma)
    modulus = dbeta * dgamma
    b0f = (-form.pairing(gamma, beta) * modulus) % modulus
    assert b0f.denominator == 1
    b0 = int(b0f)
    cm = m * dbeta * dbeta
    cn = n * dgamma * dgamma
    assert cm.denominator == 1 and cn.denominator == 1
    big_c = int(cm) * int(cn)
    if big_c == 0:
        return SYM_ZERO
    dsf, _ = squarefree_split(form.order)
    total = SYM_ZERO
    if dsf == 1:
        # Split case: xi = (t + s*sqrt(disc))/2 with t^2 - disc*s^2 = 4C and
        # disc a perfect square, so everything reduces to divisor pairs of 4C.
        d = 1
        while d * d <= 4 * big_c:
            d2, rem = divmod(4 * big_c, d)
            if rem == 0 and (d + d2) % 2 == 0:
                t = (d + d2) // 2
                sdiff = (d2 - d) // 2
                if t % modulus == b0:
                    afull = _a_full(form, m, beta, gamma, n,
                                    Fraction(t, modulus), budget, cache)
                    mult = 1 if sdiff == 0 else 2
                    total = total + afull * sym(
                        Fraction(mult, 1) * Fraction(t - sdiff, 2))
            d += 1
        return total * sym(Fraction(1, modulus))
    eps = fundamental_unit_plus(dsf)
    period = unit_order_mod(eps, modulus)
    eta = eps ** period
    for orbit in norm_orbits(dsf, big_c):
        xi = orbit.rep
        for _ in range(period):
            tr = xi.trace
            assert tr.denominator == 1
            ti = int(tr)
            if ti % modulus == b0:
                fam = family_sum(xi, eta)
                afull = _a_full(form, m, beta, gamma, n,
                                Fraction(ti, modulus), budget, cache)
                check = _a_full(form, m, beta, gamma, n,
                                Fraction(int((xi * eta).trace), modulus),
                                budget, cache)
                if afull != check:
                    raise ArithmeticError(
                        "shadow constant is not invariant along a unit family")
                total = total + afull * sym(fam.y, 0, dsf)
            xi = xi * eps
    return total * sym(Fraction(1, modulus))


def weight2_correction(
    form: DiscriminantForm,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> SymbolicConstant:
    """Shadow contribution to a weight 2 coefficient: (B(gamma)+B(-gamma))/(8 sqrt m)."""
    half = _b_half(form, m, beta, gamma, n, budget, cache)
    other = _b_half(form, m, beta, form.neg(gamma), n, budget, cache)
    return (half + other) * sym(Fraction(1, 8)) * sqrt_rat(m).inverse()


def _rational_sum(terms: Sequence[SymbolicConstant]) -> Fraction:
    """Sum the terms of one coefficient, each of which must be rational."""
    total = Fraction(0)
    for term in terms:
        if not term.is_rational:
            raise RationalityError(
                "coefficient term did not simplify to a rational: %r" % (term,))
        total += term.as_rational()
    return total


def pss_coefficient(
    form: DiscriminantForm,
    weight: Fraction,
    m: Fraction,
    beta: DFElement,
    gamma: DFElement,
    n: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> Fraction:
    """Coefficient of q^n e_gamma in the Poincare square series Q_{k,m,beta}."""
    terms = [sym(identity_count(form, m, beta, gamma, n))]
    for r in _r_values(form, m, beta, gamma, n):
        if r * r == 4 * m * n:
            continue
        prob = CountingProblem(form, "jacobi", gamma, n, beta=beta, m=m, r=r)
        terms.append(naive_coefficient(prob, weight, budget, cache))
    if weight == THREE_HALVES:
        terms.append(weight32_correction(form, m, beta, gamma, n, budget, cache))
    else:
        terms.append(weight2_correction(form, m, beta, gamma, n, budget, cache))
    return _rational_sum(terms)


def plain_coefficient(
    form: DiscriminantForm,
    gamma: DFElement,
    n: Fraction,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> Fraction:
    """Coefficient of q^n e_gamma in the weight 3/2 Eisenstein series."""
    if n == 0:
        return Fraction(1 if gamma == form.zero() else 0)
    prob = CountingProblem(form, "plain", gamma, n)
    value, _ = ltilde_at(prob, THREE_HALVES, budget=budget, cache=cache)
    assert value is not None
    sgn = _sign_const(form, THREE_HALVES)
    pref = sym(Fraction(4 * sgn), 1, 2) * sqrt_rat(n) \
        * sqrt_rat(form.order).inverse()
    return _rational_sum([pref * value])


@dataclass(frozen=True)
class SeriesRequest:
    """Description of one series expansion.

    weight None selects the plain weight 3/2 Eisenstein series; otherwise
    weight must be 3/2 or 2 and m, beta select the Poincare square series.
    """

    gram: GramMatrix
    weight: Optional[Fraction]
    m: Optional[Fraction]
    beta: Optional[tuple]
    precision: int

    def __post_init__(self) -> None:
        if self.precision < 0:
            raise ValueError("precision must be nonnegative")
        if self.weight is None:
            return
        if self.weight not in (THREE_HALVES, TWO):
            raise ValueError("weight must be 3/2 or 2")
        if self.m is None or self.m <= 0:
            raise ValueError("index m must be positive")


@dataclass(frozen=True)
class ExpansionComponent:
    """One component e_gamma of an expansion."""

    gamma: tuple  # group coordinates
    lift: tuple  # canonical lift, for display
    offset: Fraction
    coefficients: tuple  # of Fraction, exponent offset + j


@dataclass(frozen=True)
class FourierExpansion:
    """A computed Fourier expansion, exact and ready to render."""

    gram: GramMatrix
    weight: Fraction
    m: Optional[Fraction]
    beta: Optional[tuple]
    precision: int
    components: tuple

    def component(self, lift: Sequence[Fraction]) -> ExpansionComponent:
        """Look up a component by the canonical lift of its index."""
        target = tuple(Fraction(v) % 1 for v in lift)
        for comp in self.components:
            if comp.lift == target:
                return comp
        raise KeyError("no component with lift %s" % (target,))

    def to_dict(self) -> dict:
        data = {
            "gram": [list(row) for row in self.gram.rows],
            "weight": str(self.weight),
            "m": None if self.m is None else str(self.m),
            "beta": None if self.beta is None else [str(v) for v in self.beta],
            "precision": self.precision,
            "components": [],
        }
        for comp in self.components:
            data["components"].append({
                "gamma": [str(v) for v in comp.lift],
                "offset": str(comp.offset),
                "coefficients": {
                    str(comp.offset + j): str(value)
                    for j, value in enumerate(comp.coefficients)
                },
            })
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    def render_text(self) -> str:
        lines = []
        for comp in self.components:
            label = "(" + ", ".join(str(v) for v in comp.lift) + ")"
            lines.append(label + ": " + _series_string(comp))
        return "\n".join(lines)


def _exponent_string(exponent: Fraction) -> str:
    if exponent == 0:
        return ""
    if exponent == 1:
        return "q"
    if exponent.denominator == 1:
        return "q^%d" % exponent
    return "q^(%s)" % exponent


def _series_string(comp: ExpansionComponent) -> str:
    pieces = []
    for j, value in enumerate(comp.coefficients):
        if value == 0:
            continue
        qpart = _exponent_string(comp.offset + j)
        vtext = str(value)
        if qpart:
            if vtext == "1":
                piece = qpart
            elif vtext == "-1":
                piece = "-" + qpart
            else:
                piece = vtext + "*" + qpart
        else:
            piece = vtext
        pieces.append(piece)
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def _component_exponents(offset: Fraction, precision: int) -> Iterator[Fraction]:
    n = offset
    while n <= precision:
        yield n
        n += 1


def _assemble_components(
    form: DiscriminantForm,
    precision: int,
    coeff_fn,
    mapper=None,
) -> tuple:
    """Compute all components, exploiting the gamma -> -gamma symmetry.

    ``coeff_fn`` maps a (gamma, n) pair to a Fraction.  ``mapper``
    is an optional map-like callable used to evaluate the task list; the
    output does not depend on evaluation order.
    """
    reps: dict = {}
    for gamma in form.elements():
        key = min(gamma.coords, form.neg(gamma).coords)
        if key not in reps:
            reps[key] = form.element(key)
    tasks = []
    for key in sorted(reps):
        rep = reps[key]
        offset = (-form.q(rep)) % 1
        for n in _component_exponents(offset, precision):
            tasks.append((rep, n))
    run = mapper if mapper is not None else lambda f, xs: [f(x) for x in xs]
    values = list(run(coeff_fn, tasks))
    per_rep: dict = {}
    for (rep, _), val in zip(tasks, values):
        per_rep.setdefault(rep.coords, []).append(val)
    components = []
    for gamma in form.elements():
        key = min(gamma.coords, form.neg(gamma).coords)
        offset = (-form.q(gamma)) % 1
        components.append(ExpansionComponent(
            gamma.coords, form.lift(gamma), offset,
            tuple(per_rep.get(key, ()))))
    return tuple(components)


def pss_expansion(
    request: SeriesRequest,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
    mapper=None,
) -> FourierExpansion:
    """Compute the full expansion described by a request."""
    form = build_discriminant_form(request.gram)
    if request.weight is None:
        return plain_eisenstein_threehalves(
            request.gram, request.precision, budget, cache, mapper)
    _sign_const(form, request.weight)  # validate compatibility early
    if request.beta is None:
        beta = form.zero()
    else:
        beta = form.element_from_lift([Fraction(v) for v in request.beta])
    m = Fraction(request.m)
    if (m + form.q(beta)) % 1 != 0:
        raise ValueError("index m must be congruent to -q(beta) mod 1")
    weight = request.weight

    def coeff_fn(task):
        gamma, n = task
        return pss_coefficient(form, weight, m, beta, gamma, n, budget, cache)

    components = _assemble_components(form, request.precision, coeff_fn, mapper)
    return FourierExpansion(
        request.gram, weight, m, form.lift(beta),
        request.precision, components)


def plain_eisenstein_threehalves(
    gram: GramMatrix,
    precision: int,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
    mapper=None,
) -> FourierExpansion:
    """Expansion of the weight 3/2 Eisenstein series of a lattice of odd rank."""
    form = build_discriminant_form(gram)
    _sign_const(form, THREE_HALVES)

    def coeff_fn(task):
        gamma, n = task
        return plain_coefficient(form, gamma, n, budget, cache)

    components = _assemble_components(form, precision, coeff_fn, mapper)
    return FourierExpansion(
        gram, THREE_HALVES, None, None, precision, components)


@dataclass(frozen=True)
class ThetaCheckRecord:
    """One comparison between a weight 2 term and its theta image."""

    gamma: tuple
    n: Fraction
    r: Fraction
    jacobi_value: Fraction
    plain_value: Fraction

    @property
    def ok(self) -> bool:
        return self.jacobi_value == self.plain_value


def theta_crosscheck(
    gram: GramMatrix,
    m: int,
    precision: int,
    budget: int = DEFAULT_BUDGET,
    cache: Optional[LocalFactorCache] = None,
) -> list:
    """Compare weight 2 series terms against the weight 3/2 series of the
    lattice extended by a single generator of norm 2m.

    The nondegenerate (n, r) terms of the Jacobi-style series with beta = 0
    must match the Eisenstein coefficients of the extended lattice at
    exponent n - r^2/(4m), and the identity terms must match its constant
    term.  The shadow corrections have no counterpart and are not compared.
    """
    if m <= 0:
        raise ValueError("index m must be positive")
    form = build_discriminant_form(gram)
    _sign_const(form, TWO)
    aug = build_discriminant_form(augment_lattice(gram, m))
    beta = form.zero()
    records = []
    for gamma in form.elements():
        offset = (-form.q(gamma)) % 1
        for n in _component_exponents(offset, precision):
            bound = 4 * m * n
            for r in _r_values(form, Fraction(m), beta, gamma, n):
                nprime = n - Fraction(r * r, 4 * m)
                lift = list(form.lift(gamma)) + [Fraction(r, 2 * m) % 1]
                mu = aug.element_from_lift(lift)
                plain_val = plain_coefficient(aug, mu, nprime, budget, cache)
                if r * r < bound:
                    prob = CountingProblem(form, "jacobi", gamma, n,
                                           beta=beta, m=Fraction(m), r=r)
                    jac = _rational_sum(
                        [naive_coefficient(prob, TWO, budget, cache)])
                else:
                    lam = Fraction(r, 2 * m)
                    hit = (lam.denominator == 1
                           and form.scale(int(lam), beta) == gamma)
                    jac = Fraction(1 if hit else 0)
                records.append(ThetaCheckRecord(
                    gamma.coords, n, r, jac, plain_val))
    return records

