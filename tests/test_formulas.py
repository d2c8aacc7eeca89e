"""Closed-form predictions, parity utilities, and their structural identities."""

import random
from math import comb

import pytest

from grqn.formulas import InvalidCell, predicted_cofiber_k, predicted_delta_rank, predicted_k
from oracles import (
    _cofiber_sum,
    _grassmannian_sum,
    binom_parity,
    fixed_point_count,
    lemma65_check,
    projective_k,
)


def test_predicted_k_table_values():
    assert predicted_k(1, 2, 4) == 6
    assert predicted_k(1, 3, 7) == 7
    assert predicted_k(2, 3, 8) == 56
    assert predicted_k(2, 7, 14) == 352
    assert predicted_k(3, 5, 16) == 4368
    assert predicted_k(1, 2, 7) == 5
    assert predicted_k(1, 2, 6) == 7


def test_predicted_k_collapse_branch():
    for n in range(4):
        bound = 2 ** (n + 1)
        for m in range(bound + 1):
            for d in range(m + 1):
                assert predicted_k(n, d, m) == comb(m, d)


def test_predictions_match_the_papers_sums_on_every_small_cell():
    # The binomials hold for m <= 2^(n+1), the sums for m >= 2^(n+1) - 1.
    for n in range(7):
        collapse = 2 ** (n + 1)
        for m in range(70):
            for d in range(m + 1):
                if m <= collapse:
                    assert predicted_k(n, d, m) == comb(m, d), (n, d, m)
                    assert d == 0 or predicted_cofiber_k(n, d, m) == comb(m - 1, d - 1), (n, d, m)
                if m >= collapse - 1:
                    assert predicted_k(n, d, m) == _grassmannian_sum(n, d, m), (n, d, m)
                    assert d == 0 or predicted_cofiber_k(n, d, m) == _cofiber_sum(n, d, m), (n, d, m)


def test_an_even_m_prediction_is_its_two_odd_m_neighbours():
    # Even m: the Pascal step of predicted_k, a cofiber equal to the odd
    # neighbour one row down, and no connecting map.
    cells = 0
    for n in range(6):
        for m in range(2, 80, 2):
            for d in range(1, m):
                cell = (n, d, m)
                assert predicted_k(*cell) == predicted_k(n, d, m - 1) + predicted_k(n, d - 1, m - 1), cell
                assert predicted_cofiber_k(*cell) == predicted_k(n, d - 1, m - 1), cell
                assert predicted_delta_rank(*cell) == 0, cell
                cells += 1
    assert cells == 9126


def test_predicted_k_rejects_bad_cells():
    with pytest.raises(InvalidCell):
        predicted_k(1, 5, 3)
    with pytest.raises(InvalidCell):
        predicted_k(-1, 1, 3)


def test_predicted_cofiber_k_values():
    assert predicted_cofiber_k(1, 2, 7) == 2
    assert predicted_cofiber_k(1, 3, 8) == 5
    for n in range(3):
        for m in range(1, 2 ** (n + 1) + 1):
            assert predicted_cofiber_k(n, 1, m) == 1
    with pytest.raises(InvalidCell):
        predicted_cofiber_k(1, 0, 4)


def test_predicted_delta_rank_values():
    assert predicted_delta_rank(1, 2, 7) == 2
    assert predicted_delta_rank(0, 3, 7) == 2
    for n in range(3):
        for d in range(1, 6):
            for m in range(d, 20, 2):
                if m % 2 == 0:
                    assert predicted_delta_rank(n, d, m) == 0
    assert predicted_delta_rank(2, 3, 7) == 0  # collapse range


def test_lemma65_identity_sweeps():
    for n in range(6):
        for d in range(31):
            for l in range(1, 31):
                assert lemma65_check(n, d, l)


def test_lemma65_edges():
    assert lemma65_check(2, 4, 1)
    assert lemma65_check(3, 1, 5)
    with pytest.raises(ValueError):
        lemma65_check(1, 2, 0)


def test_projective_k():
    assert projective_k(1, 4) == 4
    assert projective_k(1, 5) == 3
    assert projective_k(0, 3) == 1
    assert [projective_k(1, m) for m in range(2, 9)] == [2, 3, 4, 3, 4, 3, 4]
    for n in range(4):
        assert projective_k(n, 1) == 1


def test_fixed_point_count_vandermonde():
    for p in range(5):
        for q in range(5):
            for d in range(p + q + 1):
                assert fixed_point_count([("real", p), ("real", q)], d) == comb(p + q, d)


def test_fixed_point_count_matches_prediction():
    for n in range(4):
        half = 2 ** n
        for eps in (0, 1):
            for l in range(5):
                m = 2 ** (n + 1) - eps + 2 * l
                rep = [("real", half), ("real", half - eps), ("complex", l)]
                for d in range(min(m, 9) + 1):
                    assert fixed_point_count(rep, d) == predicted_k(n, d, m)


def test_fixed_point_count_complex_only_odd_dimension():
    for l in range(5):
        for d in (1, 3, 5):
            assert fixed_point_count([("complex", l)], d) == 0


def test_fixed_point_count_validates_input():
    with pytest.raises(ValueError):
        fixed_point_count([("quaternionic", 2)], 1)


def test_binom_parity_examples():
    for b in range(1, 6):
        top = 2 ** b
        for j in range(top):
            assert binom_parity(top - 1 - j, j) == (1 if j == 0 else 0)
        hits = [j for j in range(top) if binom_parity(top - 2 - j, j)]
        assert hits == [2 ** c - 1 for c in range(b)]
    for a in range(10):
        assert binom_parity(a, 0) == 1


def test_binom_parity_against_pascal_rows():
    # Pascal's rule mod 2 packs each row into one integer: R_{a+1} = R_a ^ (R_a << 1)
    row = 1
    for a in range(2001):
        for b in range(0, a + 1, 37):
            assert binom_parity(a, b) == (row >> b & 1)
        assert binom_parity(a, a) == (row >> a & 1)
        row ^= row << 1
    rng = random.Random(71)
    for _ in range(300):
        a = rng.randrange(2001)
        b = rng.randrange(a + 1)
        assert binom_parity(a, b) == comb(a, b) % 2


def test_pascal_consistency_of_predictions():
    # kG(d, m-1) + kG(d-1, m-1) = kG(d, m) for even m past the bound
    for n in range(6):
        for d in range(1, 21):
            for l in range(21):
                m = 2 ** (n + 1) + 2 * l
                lhs = _grassmannian_sum(n, d, m - 1) + _grassmannian_sum(n, d - 1, m - 1)
                assert lhs == _grassmannian_sum(n, d, m)


def test_prediction_is_symmetric_in_d_and_codimension():
    for n in range(4):
        for m in range(1, 16):
            for d in range(m + 1):
                assert predicted_k(n, d, m) == predicted_k(n, m - d, m)


def test_cofiber_sum_matches_d2_closed_form():
    for n in range(4):
        bound = 2 ** (n + 1)
        for m in range(bound + 1, bound + 12):
            expected = bound - 2 if m % 2 else bound - 1
            assert _cofiber_sum(n, 2, m) == expected
