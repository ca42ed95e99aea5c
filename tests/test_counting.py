"""Solution counting mod prime powers, local factor fits, L-value assembly."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from pss import local_counting
from pss.exact_arith import SYM_ZERO
from pss.lattice_core import build_discriminant_form, parse_gram
from pss.local_counting import (
    DEFAULT_BUDGET,
    BudgetError,
    CountingProblem,
    LocalFactor,
    LocalFactorCache,
    bad_primes_and_discriminants,
    count_solutions,
    good_prime_factor,
    local_factor,
    ltilde_at,
    _LTILDE_MEMO,
    _fit_local_factor,
    _poly_value,
)

from conftest import form_of


def jacobi(form, gamma_lift, n, m=1, r=0, beta_lift=None):
    gamma = form.element_from_lift(tuple(Fraction(x) for x in gamma_lift))
    if beta_lift is None:
        beta = form.zero()
    else:
        beta = form.element_from_lift(tuple(Fraction(x) for x in beta_lift))
    return CountingProblem(
        form, "jacobi", gamma, Fraction(n), beta=beta, m=Fraction(m), r=Fraction(r)
    )


def plain(form, gamma_lift, n):
    gamma = form.element_from_lift(tuple(Fraction(x) for x in gamma_lift))
    return CountingProblem(form, "plain", gamma, Fraction(n))


def brute_count(prob, p, nu):
    a, b, c = prob.integer_data
    mod = p**nu
    total = 0
    for x in itertools.product(range(mod), repeat=len(b)):
        if _poly_value(a, b, c, x) % mod == 0:
            total += 1
    return total


# -- counting ----------------------------------------------------------------


def test_count_solutions_anchors():
    triv = form_of("")
    prob = jacobi(triv, (), 1)  # the polynomial is x^2 + 1
    assert count_solutions(prob, 5, 1) == 2
    assert count_solutions(prob, 3, 1) == 0
    assert count_solutions(prob, 2, 1) == 1
    assert count_solutions(prob, 13, 1) == 2
    for p in (2, 3, 5):
        assert count_solutions(prob, p, 0) == 1


def test_count_solutions_matches_enumeration():
    cases = [
        (jacobi(form_of(""), (), 1), [(2, 3), (3, 2), (5, 1), (7, 1)]),
        (jacobi(form_of(""), (), 2, r=3), [(2, 3), (3, 2), (5, 1)]),
        (plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4)), [(2, 3), (3, 2)]),
        (plain(form_of("[[2]]"), (0,), 1), [(2, 3), (3, 2), (5, 1)]),
        (jacobi(form_of("[[2,0],[0,-2]]"), (0, 0), 1), [(2, 2), (3, 1)]),
        (
            jacobi(
                form_of("[[2,0],[0,-2]]"),
                (Fraction(1, 2), Fraction(1, 2)),
                1,
                m=Fraction(3, 4),
                r=Fraction(1, 2),
                beta_lift=(Fraction(1, 2), 0),
            ),
            [(2, 2), (3, 1)],
        ),
        (plain(form_of("[[2,0,0],[0,-2,0],[0,0,2]]"), (0, 0, 0), 4), [(2, 2), (3, 1)]),
    ]
    for prob, pairs in cases:
        for p, nu in pairs:
            assert count_solutions(prob, p, nu) == brute_count(prob, p, nu)


def test_budget_error():
    z3 = form_of("[[2,0,0],[0,-2,0],[0,0,2]]")
    prob = plain(z3, (0, 0, 0), 4)
    with pytest.raises(BudgetError):
        count_solutions(prob, 2, 9, budget=32)


# -- fitted local factors ----------------------------------------------------

NUMERATOR_ANCHORS = [
    (jacobi(form_of(""), (), 1), 2, (1, 0, -3, 0, 2), 10),
    (jacobi(form_of(""), (), 1), 3, (1, -1, -3, 3), 9),
    (jacobi(form_of(""), (), 1, r=1), 2, (1, -1, -2, 2), 9),
    (jacobi(form_of(""), (), 1, r=1), 3, (1, 0, -4, 0, 3), 10),
    (jacobi(form_of(""), (), 1, r=2), 2, (1, 0, -1), 8),
    (jacobi(form_of(""), (), 1, r=2), 3, (1, 0, -1), 8),
    (jacobi(form_of(""), (), 2, r=3), 2, (1, 1, -2, -2), 9),
    (jacobi(form_of(""), (), 2, r=3), 3, (1, 1, -3, -3), 9),
    (plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4)), 2, (1, -1, -2, 2), 9),
    (
        plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4)),
        3,
        (1, 0, -4, 0, 3),
        10,
    ),
    (
        plain(form_of("[[2,0,0],[0,-2,0],[0,0,2]]"), (0, 0, 0), 4),
        2,
        (1, 0, 0, 0, -128, 0, 512),
        12,
    ),
    (plain(form_of("[[2,0,0],[0,-2,0],[0,0,2]]"), (0, 0, 0), 4), 3, (1, -3, -27, 81), 9),
]


def test_numerator_anchors():
    for prob, p, nums, verified in NUMERATOR_ANCHORS:
        factor = local_factor(prob, p)
        assert factor.numerator == nums, (prob, p)
        assert factor.verified_through == verified, (prob, p)


def test_fit_leaves_holdout_margin():
    # the fit stops only after the numerator tail is provably zero, so each
    # accepted factor has at least three counts it genuinely predicted
    for prob, p, _, _ in NUMERATOR_ANCHORS:
        factor = local_factor(prob, p)
        degree = len(factor.numerator) - 1
        assert factor.verified_through - degree >= 3


def test_predicted_counts_match_direct():
    z3 = form_of("[[2,0,0],[0,-2,0],[0,0,2]]")
    prob = plain(z3, (0, 0, 0), 4)
    factor = local_factor(prob, 2)
    predicted = factor.predicted_counts(7)
    assert predicted == [1, 4, 24, 96, 320, 1280, 5120, 20480]
    assert predicted == [count_solutions(prob, 2, nu) for nu in range(8)]
    f3 = local_factor(prob, 3)
    assert f3.predicted_counts(4) == [count_solutions(prob, 3, nu) for nu in range(5)]


def test_good_prime_factor_agrees_with_fit():
    cases = [
        (jacobi(form_of(""), (), 1), (5, 7, 13)),
        (plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4)), (5, 7)),
        (jacobi(form_of("[[2,0],[0,-2]]"), (0, 0), 1), (5, 7)),
    ]
    for prob, primes in cases:
        for p in primes:
            closed = good_prime_factor(prob, p)
            fitted = local_factor(prob, p)
            assert closed.numerator == fitted.numerator, (prob, p)
            assert closed.predicted_counts(2) == [
                count_solutions(prob, p, nu) for nu in range(3)
            ]


def test_good_prime_factor_rejects_bad_primes():
    prob = plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4))
    for p in (2, 3):
        with pytest.raises(ValueError):
            good_prime_factor(prob, p)


def test_local_factor_value_at():
    prob = jacobi(form_of(""), (), 1)
    factor = local_factor(prob, 5)
    x = Fraction(1, 5**3)
    num = sum(Fraction(n) * x**i for i, n in enumerate(factor.numerator))
    w = factor.dim
    assert factor.value_at(3) == num / ((1 - 5 ** (w - 1) * x) * (1 - 5**w * x * x))
    # the factor generating series telescopes: value at large sigma tends to 1
    assert abs(float(factor.value_at(9)) - 1.0) < 1e-4


def _translate(prob, k):
    """The problem after lambda -> lambda + k, which needs k beta in L."""
    return dataclasses.replace(
        prob, n=prob.n - prob.r * k + prob.m * k * k, r=prob.r - 2 * prob.m * k
    )


JACOBI_CLASSES = [
    (
        jacobi(form_of("[[0,0,2],[0,2,0],[2,0,0]]"), (0, Fraction(1, 2), 0),
               Fraction(3, 4), r=1),
        (1, -2),
        Fraction(3, 2),
    ),
    (
        jacobi(
            form_of("[[2,0],[0,-2]]"),
            (Fraction(1, 2), Fraction(1, 2)),
            1,
            m=Fraction(3, 4),
            r=Fraction(1, 2),
            beta_lift=(Fraction(1, 2), 0),
        ),
        (2,),
        Fraction(2),
    ),
]


def test_jacobi_translates_share_one_fit(monkeypatch):
    fitted = []

    def counted_fit(prob, p, budget):
        fitted.append(p)
        return _fit_local_factor(prob, p, budget)

    monkeypatch.setattr(local_counting, "_fit_local_factor", counted_fit)
    for base, shifts, weight in JACOBI_CLASSES:
        members = [base] + [_translate(base, k) for k in shifts]
        for prob in members[1:]:
            assert (prob.n, prob.r) != (base.n, base.r)
            for p in (2, 3):
                for nu in range(7):
                    assert count_solutions(prob, p, nu) == count_solutions(
                        base, p, nu
                    ), (prob, p, nu)
            for p in (2, 3):
                assert _fit_local_factor(prob, p, DEFAULT_BUDGET) == (
                    _fit_local_factor(base, p, DEFAULT_BUDGET)
                ), (prob, p)
        saved = dict(_LTILDE_MEMO)
        try:
            # the whole class fits each bad prime once and fills one entry
            _LTILDE_MEMO.clear()
            fitted.clear()
            values = [ltilde_at(prob, weight) for prob in members]
            assert all(v == values[0] for v in values), base
            assert sorted(fitted) == list(
                bad_primes_and_discriminants(base).bad_primes), (base, fitted)
            assert len(_LTILDE_MEMO) == 1, base
        finally:
            _LTILDE_MEMO.clear()
            _LTILDE_MEMO.update(saved)


# -- discriminant data -------------------------------------------------------


def test_discriminant_data_anchors():
    pz = plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4))
    data = bad_primes_and_discriminants(pz)
    assert data.bad_primes == (2, 3)
    assert data.calDprime == -12
    assert data.calD == -432

    p3 = plain(form_of("[[2,0,0],[0,-2,0],[0,0,2]]"), (0, 0, 0), 4)
    data3 = bad_primes_and_discriminants(p3)
    assert data3.bad_primes == (2,)
    assert data3.calDprime == -64
    assert data3.calD == -256

    tj = jacobi(form_of(""), (), 1)
    datat = bad_primes_and_discriminants(tj)
    assert datat.bad_primes == (2,)
    assert datat.calDprime == -4
    assert datat.calD == -16

    zj = jacobi(form_of("[[2]]"), (0,), 1)
    dataz = bad_primes_and_discriminants(zj)
    assert dataz.Dprime == -4
    assert dataz.D == -16


# -- the completed local product ---------------------------------------------


def test_ltilde_shift_identity_trivial():
    triv = form_of("")
    base = jacobi(triv, (), 1)
    val0, res0 = ltilde_at(base, Fraction(2))
    for mu in (1, 2):
        shifted = jacobi(triv, (), 1 + mu * mu, r=2 * mu)
        val, res = ltilde_at(shifted, Fraction(2))
        assert val == val0
        assert res == res0


def test_ltilde_shift_identity_with_shift_vector():
    split = form_of("[[2,0],[0,-2]]")
    beta = (Fraction(1, 2), Fraction(0))
    base = jacobi(
        split,
        (Fraction(1, 2), Fraction(1, 2)),
        1,
        m=Fraction(3, 4),
        r=Fraction(1, 2),
        beta_lift=beta,
    )
    # (n, r, gamma) -> (n + r mu + m mu^2, r + 2 m mu, gamma + mu beta)
    shifted = jacobi(
        split,
        (Fraction(0), Fraction(1, 2)),
        1 + Fraction(1, 2) + Fraction(3, 4),
        m=Fraction(3, 4),
        r=Fraction(1, 2) + Fraction(3, 2),
        beta_lift=beta,
    )
    val0, res0 = ltilde_at(base, Fraction(2))
    val1, res1 = ltilde_at(shifted, Fraction(2))
    assert val0 == val1
    assert res0 == res1


def test_ltilde_extra_bad_primes_change_nothing():
    probs = [
        (jacobi(form_of(""), (), 1), Fraction(2)),
        (jacobi(form_of(""), (), 1, r=2), Fraction(2)),
        (plain(form_of("[[2]]"), (Fraction(1, 2),), Fraction(3, 4)), Fraction(3, 2)),
        (jacobi(form_of("[[2]]"), (0,), 1), Fraction(3, 2)),
    ]
    for prob, weight in probs:
        val0, res0 = ltilde_at(prob, weight)
        val1, res1 = ltilde_at(prob, weight, extra_bad=(5, 7))
        assert val0 == val1, prob
        assert res0 == res1, prob


def test_ltilde_hyperbolic_plane_stability():
    zx2 = form_of("[[2]]")
    aug = build_discriminant_form(parse_gram("[[2,0,0],[0,0,1],[0,1,0]]"))
    pairs = [
        ((Fraction(1, 2),), (Fraction(1, 2), 0, 0), Fraction(3, 4)),
        ((Fraction(0),), (0, 0, 0), Fraction(1)),
        ((Fraction(0),), (0, 0, 0), Fraction(2)),
    ]
    for small_lift, big_lift, n in pairs:
        small = plain(zx2, small_lift, n)
        big = plain(aug, big_lift, n)
        assert ltilde_at(small, Fraction(3, 2)) == ltilde_at(big, Fraction(3, 2))
    small_j = jacobi(zx2, (Fraction(1, 2),), Fraction(3, 4))
    big_j = jacobi(aug, (Fraction(1, 2), 0, 0), Fraction(3, 4))
    assert ltilde_at(small_j, Fraction(3, 2)) == ltilde_at(big_j, Fraction(3, 2))


def test_ltilde_nondegenerate_weight2_has_zero_residue():
    prob = jacobi(form_of(""), (), 1)
    val, res = ltilde_at(prob, Fraction(2))
    assert res == SYM_ZERO
    assert val is not None


def test_ltilde_degenerate_weight2_residue():
    prob = jacobi(form_of(""), (), 1, r=2)
    val, res = ltilde_at(prob, Fraction(2))
    assert res != SYM_ZERO


def test_mode_parameter_validation():
    triv = form_of("")
    zx2 = form_of("[[2]]")
    with pytest.raises(ValueError):
        ltilde_at(jacobi(triv, (), 1), Fraction(3, 2))  # even rank
    with pytest.raises(ValueError):
        ltilde_at(jacobi(zx2, (0,), 1), Fraction(2))  # odd rank
    with pytest.raises(ValueError):
        ltilde_at(plain(zx2, (0,), 1), Fraction(2))  # plain is weight 3/2 only
    with pytest.raises(ValueError):
        ltilde_at(jacobi(triv, (), 1), Fraction(5, 2))


def test_problem_validation():
    triv = form_of("")
    with pytest.raises(ValueError):
        CountingProblem(triv, "other", triv.zero(), Fraction(1))
    with pytest.raises(ValueError):
        CountingProblem(triv, "jacobi", triv.zero(), Fraction(1))  # missing data
    with pytest.raises(ValueError):
        jacobi(triv, (), 1, m=0)
    zx2 = form_of("[[2]]")
    with pytest.raises(ValueError):
        plain(zx2, (Fraction(1, 2),), 1)  # n must match -q(gamma) mod 1


def test_cache_roundtrip(tmp_path, monkeypatch):
    path = str(tmp_path / "factors.json")
    cache = LocalFactorCache(path)
    prob = jacobi(form_of(""), (), 3)
    factor = local_factor(prob, 7, cache=cache)
    cache.save()
    reloaded = LocalFactorCache(path)
    assert len(reloaded.entries) == 1
    stored = list(reloaded.entries.values())[0]
    assert stored == factor
    # a preseeded cache short circuits the fit entirely

    def no_fit(*args):
        raise AssertionError("the cached factor was fitted again")

    monkeypatch.setattr(local_counting, "_fit_local_factor", no_fit)
    again = local_factor(prob, 7, cache=reloaded)
    assert again == factor


def test_failed_cache_save_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "factors.json"
    cache = LocalFactorCache(str(path))
    cache.store("k|p2", LocalFactor(2, 1, (1, 0, -1), 8))
    cache.save()
    before = path.read_bytes()
    cache.store("k|p3", LocalFactor(3, 1, (1, 0, -1), 8))

    def failing_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(local_counting.json, "dump", failing_dump)
    with pytest.raises(OSError):
        cache.save()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["factors.json"]
