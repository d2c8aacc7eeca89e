"""Ring, square and primitive identities, plus a concrete-variable oracle.

The tuple ring of ``oracles`` is checked against its own identities here,
and the library's packed power sums and primitives against the tuple ring.
"""

import random
from itertools import combinations

import pytest

from grqn.steenrod import milnor_q_generators, power_sums
from oracles import (
    AmbientMismatch,
    Polynomial,
    _q_gen,
    binom_parity,
    dual_class,
    generator,
    milnor_q,
    monomial_degree,
    multiply,
    one,
    pack,
    s_class,
    sq,
    total_sq,
    zero,
)


def poly(d, *monomials):
    return Polynomial(d, frozenset(monomials))


def random_poly(rng, d, max_terms=4, max_exp=3):
    terms = set()
    for _ in range(rng.randrange(1, max_terms + 1)):
        terms.add(tuple(rng.randrange(max_exp + 1) for _ in range(d)))
    return Polynomial(d, frozenset(terms))


# --- multiplication ---------------------------------------------------------


def test_multiply_distributes():
    d = 2
    w1, w2 = generator(1, d), generator(2, d)
    assert (w1 + w2) * w1 == poly(d, (2, 0), (1, 1))


def test_multiply_unit_and_frobenius():
    d = 3
    p = poly(d, (1, 0, 2), (0, 1, 0))
    assert p * one(d) == p
    w1, w2 = generator(1, d), generator(2, d)
    assert (w1 + w2) * (w1 + w2) == poly(d, (2, 0, 0), (0, 2, 0))


def test_multiply_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        multiply(one(2), one(3))


# --- Steenrod squares -------------------------------------------------------


def test_sq_on_generators():
    w2 = generator(2, 2)
    assert sq(1, w2) == poly(2, (1, 1))
    assert sq(2, w2) == poly(2, (0, 2))
    p = poly(2, (3, 1), (0, 2))
    assert sq(0, p) == p
    # with room for w_3 the extra Wu term appears
    assert sq(1, generator(2, 4)) == poly(4, (1, 1, 0, 0), (0, 0, 1, 0))
    # three-variable check: Sq^1(e_3) = e_1 e_3
    assert sq(1, generator(3, 3)) == poly(3, (1, 0, 1))


def test_sq_vanishes_above_degree():
    assert sq(2, generator(1, 3)) == zero(3)
    assert sq(5, poly(2, (2, 1))) == zero(2)  # degree 4 monomial


def test_total_sq_is_multiplicative():
    rng = random.Random(11)
    for d in (1, 2, 3):
        for _ in range(15):
            p = random_poly(rng, d, max_terms=2, max_exp=2)
            q = random_poly(rng, d, max_terms=2, max_exp=2)
            assert total_sq(p * q) == total_sq(p) * total_sq(q)


def test_cartan_formula_directly():
    rng = random.Random(13)
    for _ in range(20):
        d = rng.choice((2, 3))
        p = random_poly(rng, d, max_terms=2, max_exp=2)
        q = random_poly(rng, d, max_terms=2, max_exp=2)
        i = rng.randrange(0, 5)
        lhs = sq(i, p * q)
        rhs = zero(d)
        for t in range(i + 1):
            rhs = rhs + sq(t, p) * sq(i - t, q)
        assert lhs == rhs


# --- Milnor primitives ------------------------------------------------------


def test_q_on_first_generator():
    for d in (1, 2, 4):
        for n in range(4):
            img = milnor_q(n, generator(1, d))
            expo = [0] * d
            expo[0] = 2 ** (n + 1)
            assert img == poly(d, tuple(expo))


def test_q1_on_w2_two_variables():
    assert milnor_q(1, generator(2, 2)) == poly(2, (3, 1), (1, 2))


def test_q_kills_squares():
    rng = random.Random(17)
    for _ in range(20):
        d = rng.choice((2, 3))
        p = random_poly(rng, d, max_terms=3, max_exp=2)
        for n in range(3):
            assert milnor_q(n, p * p) == zero(d)


def test_q_squares_to_zero():
    rng = random.Random(29)
    for n in range(4):
        for d in (1, 2, 3, 4):
            for _ in range(6):
                p = random_poly(rng, d, max_terms=3, max_exp=2)
                assert milnor_q(n, milnor_q(n, p)) == zero(d)


def test_q_is_a_derivation():
    rng = random.Random(31)
    for n in range(3):
        for _ in range(12):
            d = rng.choice((2, 3))
            p = random_poly(rng, d, max_terms=2, max_exp=2)
            q = random_poly(rng, d, max_terms=2, max_exp=2)
            lhs = milnor_q(n, p * q)
            rhs = milnor_q(n, p) * q + p * milnor_q(n, q)
            assert lhs == rhs


def test_q_degree_shift():
    for n in range(3):
        img = milnor_q(n, generator(2, 3))
        assert {monomial_degree(r) for r in img.terms} <= {2 + 2 ** (n + 1) - 1}


# --- dual classes -----------------------------------------------------------


def test_dual_class_values():
    assert dual_class(0, 3) == one(3)
    assert dual_class(2, 2) == poly(2, (2, 0), (0, 1))
    assert dual_class(3, 2) == poly(2, (3, 0))


def test_dual_class_whitney_relation():
    # degree-k piece of (1 + w_1 + ... + w_d)(1 + bar w_1 + ...) vanishes
    for d in (1, 2, 3):
        for k in range(1, 10):
            acc = dual_class(k, d)
            for i in range(1, min(d, k) + 1):
                acc = acc + generator(i, d) * dual_class(k - i, d)
            assert acc == zero(d)


# --- s-classes --------------------------------------------------------------


def elementary(i, xs, nvars):
    out = set()
    for sub in combinations(xs, i):
        e = [0] * nvars
        for v in sub:
            e[v] = 1
        out.add(tuple(e))
    return frozenset(out)


def substitute(p, groups, nvars):
    """Evaluate p at w_i = e_i(listed variables); F_2 set-of-monomials model."""
    result = set()
    for r in p.terms:
        term = {(0,) * nvars}
        for j, e in enumerate(r, start=1):
            for _ in range(e):
                nxt = set()
                for a in term:
                    for b in elementary(j, groups, nvars):
                        v = tuple(x + y for x, y in zip(a, b))
                        nxt ^= {v}
                term = nxt
        result ^= term
    return frozenset(result)


def power_sum(k, xs, nvars):
    out = set()
    for v in xs:
        e = [0] * nvars
        e[v] = k
        out.add(tuple(e))
    return frozenset(out)


def test_s_class_examples():
    assert s_class(1, 3) == generator(1, 3)
    assert s_class(3, 2) == poly(2, (3, 0), (1, 1))
    for k in (1, 2, 3, 5, 7):
        expo = (k,)
        assert s_class(k, 1) == poly(1, expo)


def test_s_class_is_the_power_sum():
    for d in (1, 2, 3, 4):
        xs = list(range(d))
        for k in range(1, 8):
            assert substitute(s_class(k, d), xs, d) == power_sum(k, xs, d)


def test_s_class_additive_under_whitney_sum():
    for a, b in ((1, 1), (1, 2), (2, 2), (1, 3)):
        d = a + b
        xs, ys = list(range(a)), list(range(a, d))
        for k in range(1, 7):
            whole = substitute(s_class(k, d), xs + ys, d)
            left = substitute(s_class(k, a), xs, d)
            right = substitute(s_class(k, b), ys, d)
            assert whole == left ^ right


# --- the library's packed closed forms --------------------------------------


def packed(p, slot):
    return {pack(r, slot) for r in p.terms}


def test_packed_primitives_match_the_commutator_recursion():
    for n in range(4):
        for d in range(1, 11):
            slot = (2 ** (n + 1) + d).bit_length()
            images = milnor_q_generators(n, d, slot, d)
            assert len(images) == d
            for j, image in enumerate(images, start=1):
                assert image == packed(_q_gen(n, j, d), slot), (n, j, d)


def test_packed_power_sums_match_newton():
    for d in range(9):
        for c in range(9):
            top = d * c
            slot = max(1, top.bit_length())
            sums = power_sums(d, slot, top)
            assert len(sums) == top + 1 and not sums[0]
            for k in range(1, top + 1):
                assert sums[k] == packed(s_class(k, d), slot), (d, c, k)


def test_packed_primitives_need_a_generator():
    assert milnor_q_generators(0, 3, 4, 0) == []
    assert milnor_q_generators(2, 3, 4, -5) == []


# --- misc -------------------------------------------------------------------


def test_monomial_degree_weights():
    assert monomial_degree((2, 0, 1)) == 5
    assert monomial_degree(()) == 0


def test_memo_tables_are_stable():
    a = milnor_q(2, generator(2, 3))
    b = milnor_q(2, generator(2, 3))
    assert a == b


def test_wu_binomial_coefficients_follow_lucas():
    # the t >= 1 Wu coefficients agree with an explicit Pascal computation
    for j in range(1, 7):
        for i in range(1, j + 1):
            for t in range(1, i + 1):
                a, b = j - i + t - 1, t
                if a >= 0:
                    pascal = 1
                    for x in range(b):
                        pascal = pascal * (a - x) // (x + 1)
                    assert binom_parity(a, b) == pascal % 2
