"""Rank computation, homology profiles, and the cofiber decompositions."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grqn import homology
from grqn.cofiber import GridTooSmall, ParityViolation, _ideal_cut, cofiber_homology, twisted_complex
from grqn.homology import (
    GradedMap,
    HomologyProfile,
    NotADifferential,
    _echelon,
    column_product,
    qn_homology,
)
from grqn.schubert import Grid, lenart_qn_matrix, schubert_basis
from oracles import (
    ideal_inclusion_induced_zero,
    ideal_subcomplex,
    invert,
    partition,
    rank,
    restrict_selection,
)


def test_rank_examples():
    identity5 = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert rank(identity5) == 5
    assert rank([[0] * 7 for _ in range(3)]) == 0
    assert rank([[1, 1], [1, 1]]) == 1


def test_rank_random_against_permanent_pivoting():
    rng = random.Random(59)
    for _ in range(50):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        # reference: dense elimination over fractions via row echelon mod 2
        work = [row[:] for row in m]
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, rows) if work[i][c]), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            for i in range(rows):
                if i != r and work[i][c]:
                    work[i] = [(a + b) % 2 for a, b in zip(work[i], work[r])]
            r += 1
        assert rank(m) == r


def test_invert_rejects_a_singular_matrix():
    for cols in ([0b1, 0b1], [0b011, 0b110, 0b101], [0b10, 0]):
        with pytest.raises(RuntimeError, match="singular"):
            invert(cols)


def test_invert_random_invertible_matrices():
    rng = random.Random(61)
    for size in range(41):
        cols = [rng.getrandbits(size) for _ in range(size)]
        while len(_echelon(cols)) < size:
            cols = [rng.getrandbits(size) for _ in range(size)]
        inv = invert(cols)
        identity = [1 << i for i in range(size)]
        assert [column_product(cols, x) for x in inv] == identity
        assert [column_product(inv, x) for x in cols] == identity


def test_qn_homology_known_cells():
    assert qn_homology(lenart_qn_matrix(1, Grid(2, 3))).total == 4
    assert qn_homology(lenart_qn_matrix(1, Grid(3, 3))).total == 8


def test_qn_homology_zero_map_gives_everything():
    for n, d, c in ((1, 2, 2), (2, 3, 4), (3, 2, 5)):
        gm = lenart_qn_matrix(n, Grid(d, c))
        if d + c + 0 <= 2 ** (n + 1):
            assert gm.is_zero()
            assert qn_homology(gm).total == comb(d + c, d)


def test_qn_homology_rejects_non_differential(monkeypatch):
    bad = GradedMap(1, {0: 1, 1: 1, 2: 1}, {0: (1,), 1: (1,)})
    with pytest.raises(NotADifferential, match="composite of consecutive blocks is nonzero"):
        qn_homology(bad)
    # With the d^2 check passed over, rank 1 goes in and out of degree 1's one class.
    monkeypatch.setattr(GradedMap, "compose_is_zero", lambda self: True)
    with pytest.raises(NotADifferential, match="negative homology dimension at degree 1"):
        qn_homology(bad)


def test_homology_profile_accessors():
    prof = HomologyProfile({0: 1, 3: 2}, 3)
    assert prof.dim(3) == 2
    assert prof.dim(5) == 0
    assert prof.shifted(2) == HomologyProfile({2: 1, 5: 2}, 3)


def test_per_degree_bounded_by_space():
    gm = lenart_qn_matrix(1, Grid(3, 4))
    prof = qn_homology(gm)
    for t, h in prof.per_degree.items():
        assert h <= gm.spaces[t]
    assert prof.total == sum(prof.per_degree.values())


def test_euler_characteristic_is_preserved():
    for n, d, c in ((0, 2, 3), (1, 3, 3), (1, 2, 5), (2, 3, 4)):
        gm = lenart_qn_matrix(n, Grid(d, c))
        prof = qn_homology(gm)
        chi_space = sum((-1) ** t * v for t, v in gm.spaces.items())
        chi_hom = sum((-1) ** t * v for t, v in prof.per_degree.items())
        assert chi_space == chi_hom


def test_ideal_subcomplex_basis_count():
    sub, _quot = ideal_subcomplex(1, Grid(2, 5))
    assert sum(sub.spaces.values()) == 6
    assert sorted(sub.spaces) == [5, 6, 7, 8, 9, 10]


def test_ideal_subcomplex_quotient_is_smaller_grassmannian():
    for n, d, c in ((1, 2, 3), (0, 2, 3), (1, 3, 3), (2, 2, 4)):
        _sub, quot = ideal_subcomplex(n, Grid(d, c))
        assert quot == lenart_qn_matrix(n, Grid(d, c - 1))


def test_ideal_subcomplex_requires_positive_codimension():
    with pytest.raises(GridTooSmall):
        ideal_subcomplex(1, Grid(3, 0))


def test_cofiber_homology_d2_odd():
    sub, _ = ideal_subcomplex(1, Grid(2, 5))
    assert qn_homology(sub).total == 2


def test_cofiber_homology_formula_d2():
    # odd m above the collapse bound: 2^(n+1) - 2; even m: 2^(n+1) - 1
    for n in (0, 1, 2):
        bound = 2 ** (n + 1)
        for m in range(bound + 1, 12):
            sub, _ = ideal_subcomplex(n, Grid(2, m - 2))
            expected = bound - 2 if m % 2 else bound - 1
            assert qn_homology(sub).total == expected


def test_twisted_complex_point_case():
    gm = twisted_complex(1, 1, 5)
    assert gm.spaces == {0: 1}
    assert gm.is_zero()
    assert qn_homology(gm).total == 1


def test_twisted_complex_matches_ideal_subcomplex():
    for n, d, m in ((1, 2, 7), (1, 3, 8), (0, 2, 5), (2, 2, 9), (1, 4, 7), (0, 3, 6)):
        sub, _ = ideal_subcomplex(n, Grid(d, m - d))
        sub_prof = qn_homology(sub)
        tw_prof = qn_homology(twisted_complex(n, d, m))
        assert tw_prof.shifted(m - d) == sub_prof
    assert qn_homology(twisted_complex(1, 2, 7)).total == 2


def test_twisted_complex_rejects_bad_sizes():
    with pytest.raises(GridTooSmall):
        twisted_complex(1, 3, 3)


def test_connecting_rank_examples():
    assert cofiber_homology(1, 2, 7)[1] == 2
    assert cofiber_homology(1, 3, 8)[1] == 0  # even m
    assert cofiber_homology(2, 3, 7)[1] == 0  # collapse range
    with pytest.raises(GridTooSmall):
        cofiber_homology(1, 2, 2)


def test_an_odd_exactness_defect_is_a_parity_violation(monkeypatch):
    assert cofiber_homology(1, 2, 5)[1] == 2  # the real profiles balance

    def one_more(gm):
        profile = qn_homology(gm)
        return HomologyProfile(profile.per_degree, profile.total + 1)

    # one more class in each of the ideal, the quotient and the whole: defect 2 * 2 + 1
    monkeypatch.setattr(homology, "qn_homology", one_more)
    with pytest.raises(ParityViolation, match="exactness defect 5 at n=1 d=2 m=5"):
        cofiber_homology(1, 2, 5)


def test_long_exact_sequence_bookkeeping():
    for n in (0, 1):
        for d in (2, 3):
            for c in range(1, 5):
                m = d + c
                grid = Grid(d, c)
                total = qn_homology(lenart_qn_matrix(n, grid)).total
                sub, quot = ideal_subcomplex(n, grid)
                k_sub = qn_homology(sub).total
                k_quot = qn_homology(quot).total
                delta = cofiber_homology(n, d, m)[1]
                assert total + 2 * delta == k_sub + k_quot


def test_induced_map_vanishes_for_odd_m_d2():
    assert ideal_inclusion_induced_zero(0, 2, 3)
    assert ideal_inclusion_induced_zero(1, 2, 5)
    assert ideal_inclusion_induced_zero(1, 2, 7)


def test_induced_map_injective_for_even_m():
    # even m splits the sequence, so the cofiber classes survive
    assert not ideal_inclusion_induced_zero(1, 2, 6)
    assert not ideal_inclusion_induced_zero(0, 2, 4)


def test_graded_map_normalization_and_equality():
    spaces = {0: 1, 1: 2, 2: 1}
    a = GradedMap(1, dict(spaces), {0: (0,), 1: (1, 0)})
    b = GradedMap(1, dict(spaces), {0: (0,), 1: (1, 0), 5: (9,)})
    # the stray block at degree 5 has no codomain and is dropped
    assert a == b
    # an empty block is a zero block, and a zero-dimensional degree is no degree
    assert GradedMap(1, {**spaces, 4: 0}, {0: (), 1: (1, 0), 4: ()}) == a
    assert a != GradedMap(1, dict(spaces), {0: (1,), 1: (1, 0)})
    with pytest.raises(ValueError, match="block at degree 1 has 1 columns, expected 2"):
        GradedMap(1, dict(spaces), {1: (1,)})
    c = GradedMap(1, dict(spaces), {})
    assert c.block(0) == (0,)
    assert c.is_zero()


def test_graded_map_restrict_quotient_drops_rows():
    gm = GradedMap(1, {0: 2, 1: 3}, {0: (0b011, 0b111)})
    head, tail = gm.restrict({0: 1, 1: 1})
    assert head.spaces == {0: 1, 1: 1}
    assert head.block(0) == (0b1,)  # image bit 1 is outside the head
    assert tail.spaces == {0: 1, 1: 2}
    assert tail.block(0) == (0b11,)  # image bit 0 is in the head, so the quotient drops it


@st.composite
def maps_and_cuts(draw):
    shift = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    blocks = {
        t: tuple(draw(st.integers(0, (1 << dims[t + shift]) - 1)) for _ in range(n))
        for t, n in enumerate(dims)
        if t + shift < len(dims)
    }
    cut = {t: draw(st.integers(0, n)) for t, n in enumerate(dims)}
    return GradedMap(shift, dict(enumerate(dims)), blocks), dims, cut


@settings(max_examples=200, deadline=None)
@given(maps_and_cuts())
def test_restrict_matches_the_selection_reference(case):
    gm, dims, cut = case
    head = {t: list(range(k)) for t, k in cut.items()}
    tail = {t: list(range(cut[t], n)) for t, n in enumerate(dims)}
    assert gm.restrict(cut) == (restrict_selection(gm, head), restrict_selection(gm, tail))


def test_ideal_words_lead_each_degree():
    # A full first row puts lam's bead in the top slot, so those words come first.
    for d in range(1, 8):
        for c in range(1, 8):
            grid = Grid(d, c)
            cut = _ideal_cut(grid)
            for t, words in schubert_basis(grid).items():
                full_row = [partition(w, d)[:1] == (c,) for w in words]
                assert full_row == [True] * cut[t] + [False] * (len(words) - cut[t])
