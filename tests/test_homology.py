"""Rank computation, homology profiles, and the cofiber decompositions."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grqn import homology
from grqn.cofiber import cofiber_homology, twisted_complex
from grqn.formulas import InvalidCell
from grqn.homology import (
    GradedMap,
    HomologyProfile,
    NotADifferential,
    _echelon,
    column_product,
    qn_homology,
)
from grqn.schubert import Grid, embedded_places, lenart_qn_matrix
from grqn.young import partitions_in_grid
from oracles import (
    bitwise_product,
    block,
    dual,
    ideal_cut,
    ideal_inclusion_induced_zero,
    ideal_subcomplex,
    invert,
    is_zero,
    partition,
    plain_homology,
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
            assert is_zero(gm)
            assert qn_homology(gm).total == comb(d + c, d)


def test_qn_homology_rejects_non_differential(monkeypatch):
    bad = GradedMap(1, {0: 1, 1: 1, 2: 1}, {0: (1,), 1: (1,)})
    with pytest.raises(NotADifferential, match="composite of consecutive blocks is nonzero"):
        qn_homology(bad)
    # With the d^2 check passed over, block 1's one column sits on block 0's
    # pivot and is never ranked: the total reads 1, where ranking it too
    # would give degree 1 dimension -1.  So the check must come first.
    monkeypatch.setattr(GradedMap, "compose_is_zero", lambda self: True)
    assert qn_homology(bad) == HomologyProfile({2: 1}, 1)
    assert plain_homology(bad).dim(1) == -1


def test_homology_profile_accessors():
    prof = HomologyProfile({0: 1, 3: 2}, 3)
    assert prof.dim(3) == 2
    assert prof.dim(5) == 0


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
    with pytest.raises(InvalidCell, match="cofiber needs codimension >= 1"):
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
    assert is_zero(gm)
    assert qn_homology(gm).total == 1


def test_twisted_complex_matches_ideal_subcomplex():
    # Raised by the codimension, the twist is the ideal subcomplex bit for bit.
    for n in range(4):
        for d in range(1, 8):
            for c in range(1, 8):
                sub, _ = ideal_subcomplex(n, Grid(d, c))
                assert twisted_complex(n, d, d + c).shifted(c) == sub, (n, d, c)
    assert qn_homology(twisted_complex(1, 2, 7)).total == 2


# On Gr_d(R^m) the adjoint of Q_n under the Poincare pairing is Q_n plus the
# product by the tangent bundle's primitive class, which is m times alpha_n, the
# tautological bundle's.  So for odd m - 1 the twist of the even-m cell
# (n, d, m), Q_n + alpha_n on Grid(d - 1, c), is the dual of the Lenart matrix
# L' of its odd neighbour (n, d - 1, m - 1).
def test_an_even_m_twist_is_the_dual_of_its_odd_neighbours_lenart_matrix():
    nonzero = 0
    for n in range(4):
        for d in range(7):
            for c in range(1, 8):
                if (d + c) % 2:
                    grid = Grid(d, c)
                    twist = twisted_complex(n, d + 1, d + c + 1)
                    assert twist == dual(lenart_qn_matrix(n, grid), grid), (n, d, c)
                    nonzero += not is_zero(twist)
    assert nonzero == 49
    # one flipped bit in L' shows through the oracle
    grid = Grid(2, 5)
    lenart = lenart_qn_matrix(1, grid)
    assert not is_zero(lenart)
    t = min(lenart.blocks)
    flipped = lenart._replace(blocks={**lenart.blocks, t: (lenart.blocks[t][0] ^ 1, *lenart.blocks[t][1:])})
    assert twisted_complex(1, 3, 8) == dual(lenart, grid) != dual(flipped, grid)


@pytest.mark.parametrize(
    "n, d, m", [(3, 3, 18), (3, 4, 18), (3, 5, 18), (3, 6, 18), (4, 3, 34), (4, 4, 34), (5, 3, 66)]
)
def test_a_nonzero_high_n_even_m_twist_is_the_dual_of_its_odd_neighbours_lenart_matrix(n, d, m):
    grid = Grid(d - 1, m - d)
    twist = twisted_complex(n, d, m)
    assert not is_zero(twist)
    assert twist == dual(lenart_qn_matrix(n, grid), grid)


def test_cofiber_homology_returns_the_ideal_subcomplex():
    for n, d, m in ((1, 2, 7), (0, 3, 6), (2, 2, 9)):
        profile, _, sub = cofiber_homology(n, d, m)
        assert sub == ideal_subcomplex(n, Grid(d, m - d))[0]
        assert qn_homology(sub) == profile


def test_twisted_complex_rejects_bad_sizes():
    # the same checks, and messages, as cofiber_homology
    with pytest.raises(InvalidCell, match=r"cofiber needs codimension >= 1, got Grid\(d=3, c=0\)"):
        twisted_complex(1, 3, 3)
    with pytest.raises(InvalidCell, match="invalid cell n=1 d=0 m=3"):
        twisted_complex(1, 0, 3)
    with pytest.raises(InvalidCell, match="invalid cell n=-1 d=2 m=4"):
        twisted_complex(-1, 2, 4)


def test_connecting_rank_examples():
    assert cofiber_homology(1, 2, 7)[1] == 2
    assert cofiber_homology(1, 3, 8)[1] == 0  # even m
    assert cofiber_homology(2, 3, 7)[1] == 0  # collapse range
    with pytest.raises(InvalidCell):
        cofiber_homology(1, 2, 2)
    with pytest.raises(InvalidCell):
        cofiber_homology(1, 0, 3)


def test_an_odd_exactness_defect_is_a_parity_violation(monkeypatch):
    assert cofiber_homology(1, 2, 5)[1] == 2  # the real profiles balance

    def one_more(gm):
        profile = qn_homology(gm)
        return HomologyProfile(profile.per_degree, profile.total + 1)

    # one more class in each of the ideal, the quotient and the whole: defect 2 * 2 + 1
    monkeypatch.setattr(homology, "qn_homology", one_more)
    with pytest.raises(RuntimeError, match="exactness defect 5 at n=1 d=2 m=5"):
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
    assert block(c, 0) == (0,)
    assert is_zero(c)
    assert GradedMap(1) != 5  # a map is never equal to a non-map


def test_graded_map_is_a_plain_value():
    # unsorted spaces, a zero dimension and a missing block normalise away
    gm = GradedMap(1, {2: 1, 4: 0, 0: 1, 1: 2}, {1: (1, 0)})
    assert repr(gm) == "GradedMap(shift=1, spaces={0: 1, 1: 2, 2: 1}, blocks={0: (0,), 1: (1, 0)})"
    assert gm == GradedMap(1, {0: 1, 1: 2, 2: 1}, {0: (0,), 1: (1, 0)})
    assert list(gm.spaces) == [0, 1, 2]
    with pytest.raises(TypeError):
        hash(gm)
    assert GradedMap(*tuple(gm)) == gm  # the cofiber twist's round trip over the pipe


def test_graded_map_shifted_raises_every_degree():
    gm = GradedMap(1, {0: 1, 1: 2, 2: 1}, {0: (0b11,), 1: (1, 1)})
    up = gm.shifted(3)
    assert up == GradedMap(1, {3: 1, 4: 2, 5: 1}, {3: (0b11,), 4: (1, 1)})
    assert up.shifted(-3) == gm
    assert qn_homology(up).per_degree == {t + 3: h for t, h in qn_homology(gm).per_degree.items()}


def test_graded_map_restrict_quotient_drops_rows():
    gm = GradedMap(1, {0: 2, 1: 3}, {0: (0b011, 0b111)})
    head = gm.restrict({0: [0], 1: [0]})
    assert head.spaces == {0: 1, 1: 1}
    assert block(head, 0) == (0b1,)  # image bit 1 is outside the head
    tail = gm.restrict({0: [1], 1: [1, 2]})
    assert tail.spaces == {0: 1, 1: 2}
    assert block(tail, 0) == (0b11,)  # image bit 0 is in the head, so the quotient drops it


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


@st.composite
def maps_and_places(draw):
    """A map, the prefixes and suffixes of a cut, and prefixes of permutations in some degrees."""
    gm, dims, cut = draw(maps_and_cuts())
    head = {t: list(range(k)) for t, k in cut.items()}
    tail = {t: list(range(cut[t], n)) for t, n in enumerate(dims)}
    keep = {
        t: draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
        for t, n in enumerate(dims)
        if draw(st.booleans())
    }
    return gm, [head, tail, keep]


@settings(max_examples=200, deadline=None)
@given(maps_and_places())
def test_restrict_matches_the_selection_reference(case):
    gm, places = case
    for keep in places:
        assert gm.restrict(keep) == restrict_selection(gm, keep), keep


def test_restrict_keeps_the_given_order():
    gm = GradedMap(1, {0: 2, 1: 3}, {0: (0b011, 0b110)})
    assert gm.restrict({0: [1, 0], 1: [2, 0]}) == GradedMap(1, {0: 2, 1: 2}, {0: (0b01, 0b10)})


def test_restrict_cuts_only_an_ascending_run():
    # [0, 2, 1, 3] spans rows 0..3 but is not a run: a shift and mask would
    # leave row 1 at bit 1, where the given order puts it at bit 2
    gm = GradedMap(1, {0: 1, 1: 4}, {0: (0b0010,)})
    keep = {0: [0], 1: [0, 2, 1, 3]}
    assert gm.restrict(keep) == restrict_selection(gm, keep) == GradedMap(1, {0: 1, 1: 4}, {0: (0b0100,)})
    run = {0: [0], 1: [1, 2, 3]}
    assert gm.restrict(run) == restrict_selection(gm, run) == GradedMap(1, {0: 1, 1: 3}, {0: (0b001,)})


def test_ideal_words_lead_each_degree():
    # The pullback to d x (c - 1) keeps the words without a full first row,
    # which have no bead in the top slot: they end each degree, and the
    # ideal, the words with a full first row, leads it.
    for d in range(1, 8):
        for c in range(1, 8):
            grid = Grid(d, c)
            quot, cut = embedded_places(grid, [(d, c - 1)])[d, c - 1], ideal_cut(grid)
            for t, words in partitions_in_grid(grid.d, grid.c).items():
                short = [i for i, w in enumerate(words) if partition(w, d)[:1] != (c,)]
                assert quot.get(t, []) == short == list(range(cut[t], len(words))), (d, c, t)


# --- the column product and pivot-skip ranks -----------------------------------


def switches_to_bytes(mask):
    """Whether ``column_product`` reads ``mask`` by the byte table, not bit by bit."""
    return not mask.bit_count() << 5 < mask.bit_length()


@st.composite
def products(draw):
    # A set bit every `spacing` places on average, either side of the switch
    # at one in 32, and a top bit at a drawn place, on a byte boundary or not.
    width = draw(st.integers(0, 200) | st.sampled_from([4999, 5000]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    spacing = draw(st.sampled_from([1, 2, 7, 24, 31, 33, 40, 64, 500]))
    end = draw(st.integers(0, width) | st.sampled_from([0, width]))
    mask = sum(1 << i for i in range(end - 1) if not rng.randrange(spacing))
    mask |= 1 << end >> 1  # bit end - 1, or none
    return [rng.getrandbits(64) for _ in range(width)], mask


@settings(max_examples=300, deadline=None)
@given(products())
def test_column_product_matches_the_bitwise_reference(case):
    cols, mask = case
    assert column_product(cols, mask) == bitwise_product(cols, mask)


def test_column_product_takes_both_reads_at_their_edges():
    rng = random.Random(67)
    cols = [rng.getrandbits(64) for _ in range(5000)]
    reads = set()
    for end in (0, 1, 7, 8, 9, 16, 31, 32, 33, 200, 4999, 5000):
        for spacing in (1, 31, 33, 500):
            mask = sum(1 << i for i in range(0, end, spacing)) | 1 << end >> 1
            reads.add(switches_to_bytes(mask))
            assert column_product(cols, mask) == bitwise_product(cols, mask), (end, spacing)
    assert reads == {False, True}
    assert column_product(cols, 0) == 0
    assert column_product([], 0) == 0


def test_pivot_skip_ranks_match_plain_ranks_on_small_grids():
    for n in range(4):
        for d in range(8):
            for c in range(8):
                gm = lenart_qn_matrix(n, Grid(d, c))
                assert qn_homology(gm) == plain_homology(gm), (n, d, c)


def invertible(rng, size):
    while True:
        cols = [rng.getrandbits(size) for _ in range(size)]
        if len(_echelon(cols)) == size:
            return cols


@st.composite
def conjugated_complexes(draw):
    # The standard complex with drawn ranks, conjugated in each degree by a
    # random invertible matrix, and the homology it has: in degree t the first
    # ranks[t - shift] basis vectors are images and the next ranks[t] map
    # onto the first images in degree t + shift.
    shift = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(0, 7), min_size=1, max_size=10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ranks = {}
    for t in range(len(dims) - shift):
        ranks[t] = draw(st.integers(0, min(dims[t] - ranks.get(t - shift, 0), dims[t + shift])))
    basis = [invertible(rng, n) for n in dims]
    blocks = {}
    for t, r in ranks.items():
        low = ranks.get(t - shift, 0)
        standard = [1 << i - low if low <= i < low + r else 0 for i in range(dims[t])]
        blocks[t] = tuple(
            bitwise_product(basis[t + shift], bitwise_product(standard, v)) for v in invert(basis[t])
        )
    per_degree = {t: n - ranks.get(t, 0) - ranks.get(t - shift, 0) for t, n in enumerate(dims)}
    expected = {t: h for t, h in per_degree.items() if h}
    return GradedMap(shift, dict(enumerate(dims)), blocks), HomologyProfile(expected, sum(expected.values()))


@settings(max_examples=200, deadline=None)
@given(conjugated_complexes())
def test_pivot_skip_ranks_on_conjugated_standard_complexes(case):
    gm, expected = case
    assert gm.compose_is_zero()
    assert qn_homology(gm) == expected == plain_homology(gm)


def test_a_non_differential_is_refused_before_any_rank(monkeypatch):
    ranked = []
    monkeypatch.setattr(homology, "_echelon", lambda cols: ranked.append([*cols]) or {})
    bad = GradedMap(1, {0: 1, 1: 1, 2: 1}, {0: (1,), 1: (1,)})
    with pytest.raises(NotADifferential, match="composite of consecutive blocks is nonzero"):
        qn_homology(bad)
    assert ranked == []
    qn_homology(GradedMap(1, {0: 1, 1: 1}, {0: (1,)}))
    assert ranked == [[1]]  # the patch sees the ranks of a differential


def test_cofiber_profiles_match_plain_ranks(monkeypatch):
    seen = []

    def checked(gm):
        profile = qn_homology(gm)
        seen.append(profile == plain_homology(gm))
        return profile

    monkeypatch.setattr(homology, "qn_homology", checked)
    for n, d, m in ((1, 2, 7), (0, 3, 6), (2, 3, 9), (1, 4, 8), (1, 4, 9), (1, 5, 11)):
        cofiber_homology(n, d, m)
    assert seen == [True] * 18  # the ideal, the quotient and the whole of each cell
