"""Schubert-basis ring operations against a tableau-based symmetric-function oracle."""

import random
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grqn.cli import main
from grqn.cofiber import twisted_complex
from grqn.homology import GradedMap, _echelon
from grqn.schubert import (
    Grid,
    _context,
    _GridContext,
    derivation_parts,
    derivation_qn_matrix,
    embedded_places,
    lenart_qn_matrix,
)
from grqn.young import partitions_in_grid
from oracles import (
    add,
    block,
    compose,
    conjugate,
    decode,
    dual,
    dual_class,
    generator,
    grid_partitions,
    ideal_cut,
    invert,
    is_zero,
    jump,
    monomial_basis,
    monomial_degree,
    pack,
    partition,
    per_term_derivation_matrix,
    per_term_twisted_complex,
    schubert_support,
    transpose,
    vertical_strips,
    word,
    word_map,
)


# --- oracle: Schur polynomials from semistandard tableaux -------------------


def schur_monomials(shape, nvars):
    """Exponent tuples with odd multiplicity in the Schur polynomial."""
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    counts = {}

    def fill(k, assignment):
        if k == len(cells):
            expo = [0] * nvars
            for v in assignment.values():
                expo[v] += 1
            key = tuple(expo)
            counts[key] = counts.get(key, 0) + 1
            return
        r, c = cells[k]
        lo = 0
        if c > 0:
            lo = assignment[(r, c - 1)]
        if r > 0:
            lo = max(lo, assignment[(r - 1, c)] + 1)
        for v in range(lo, nvars):
            assignment[(r, c)] = v
            fill(k + 1, assignment)
            del assignment[(r, c)]

    fill(0, {})
    return frozenset(k for k, v in counts.items() if v % 2)


def mult_sets(a, b):
    out = set()
    for x in a:
        for y in b:
            out ^= {tuple(p + q for p, q in zip(x, y))}
    return frozenset(out)


def elementary_set(i, nvars):
    out = set()
    for sub in combinations(range(nvars), i):
        e = [0] * nvars
        for v in sub:
            e[v] = 1
        out.add(tuple(e))
    return frozenset(out)


def schur_expand(poly_set, nvars):
    """Partitions with coefficient 1 in the Schur expansion, by unitriangularity."""
    remaining = set(poly_set)
    out = set()
    while remaining:
        lead = max(remaining)
        assert all(lead[i] >= lead[i + 1] for i in range(nvars - 1))
        shape = tuple(v for v in lead if v)
        out.add(shape)
        remaining ^= schur_monomials(shape, nvars)
    return out


# --- Pieri rule -------------------------------------------------------------


def pieri(grid, lam, j):
    """Schubert classes of s_lam * w_j, read off the bit-packed Pieri block."""
    ctx = _context(grid)
    t = sum(lam)
    col = ctx.pieri_block(j, t)[ctx.index[word(lam, grid.d)]]
    return {partition(w, grid.d) for w in decode(col, ctx.basis.get(t + j, []))}


def convert(grid, r):
    """Schubert classes of the monomial w^r, read off the bit-packed conversion."""
    ctx = _context(grid)
    t = monomial_degree(r)
    mask = ctx.convert(pack(r, grid.slot), t)
    return {partition(w, grid.d) for w in decode(mask, ctx.basis.get(t, []))}


def test_pieri_unit_action():
    assert pieri(Grid(2, 2), (), 1) == {(1,)}


def test_pieri_single_box_split():
    assert pieri(Grid(2, 2), (1,), 1) == {(2,), (1, 1)}


def test_pieri_full_grid_truncates_to_zero():
    assert not pieri(Grid(2, 2), (2, 2), 2)


def test_pieri_matches_schur_oracle():
    rng = random.Random(41)
    for _ in range(40):
        d = rng.choice((2, 3))
        c = rng.choice((2, 3))
        g = Grid(d, c)
        pool = [p for p in grid_partitions(d, c) if sum(p) <= 4]
        lam = rng.choice(pool)
        i = rng.randrange(1, d + 1)
        got = pieri(g, lam, i)
        product = mult_sets(schur_monomials(lam, d), elementary_set(i, d))
        expected = {mu for mu in schur_expand(product, d) if not mu or mu[0] <= c}
        assert got == expected


def test_pieri_blocks_restrict_along_the_inclusion():
    # Restriction from Gr_d(R^(m+1)) to Gr_d(R^m) is a ring map.  It kills the
    # classes with a full first row, which lead each degree of the larger
    # grid, and keeps the rest in order.  So each Pieri block of the larger
    # grid keeps that ideal inside itself, and its tail columns, cut below
    # the ideal, are the smaller grid's block.
    for d in range(1, 7):
        for c in range(7):
            big, small = Grid(d, c + 1), Grid(d, c)
            cut = ideal_cut(big)
            big_ctx, small_ctx = _context(big), _context(small)  # the cache keeps one grid
            for t, words in big_ctx.basis.items():
                assert words[cut[t] :] == small_ctx.basis.get(t, []), (d, c, t)
            for j in range(1, d + 1):
                for t in range(big.top_degree - j + 1):
                    cols = big_ctx.pieri_block(j, t)
                    low = cut[t + j]
                    assert not any(col >> low for col in cols[: cut[t]]), (d, c, j, t)
                    tail = [col >> low for col in cols[cut[t] :]]
                    assert tail == list(small_ctx.pieri_block(j, t)), (d, c, j, t)


# --- basis change ------------------------------------------------------------


def sum_of_columns(cols, selection):
    """XOR of the columns whose positions are set in ``selection``."""
    out = 0
    for k, col in enumerate(cols):
        if selection >> k & 1:
            out ^= col
    return out


def test_monomial_conversion_examples():
    g = Grid(2, 2)
    assert convert(g, (2, 0)) == {(2,), (1, 1)}
    assert convert(g, (0, 0)) == {()}
    assert not convert(g, (5, 0))  # degree above the top class


def test_monomial_conversion_matches_schur_oracle():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.choice((2, 3))
        c = rng.choice((2, 3))
        g = Grid(d, c)
        r = tuple(rng.randrange(3) for _ in range(d))
        acc = frozenset({(0,) * d})
        for j, e in enumerate(r, start=1):
            for _ in range(e):
                acc = mult_sets(acc, elementary_set(j, d))
        expected = {mu for mu in schur_expand(acc, d) if not mu or mu[0] <= c}
        assert convert(g, r) == expected


def test_basis_change_is_invertible():
    for d in range(8):
        for c in range(8):
            g = Grid(d, c)
            ctx, monomials = _context(g), monomial_basis(g)
            total = 0
            for t, lams in partitions_in_grid(g.d, g.c).items():
                cols = [ctx.convert(u, t) for u in monomials[t]]
                assert len(cols) == len(lams)
                assert len(_echelon(cols)) == len(lams)
                # unitriangular: in ascending word order, the monomial of the
                # word at index i is s_i plus classes at larger indices only
                for i, col in zip(reversed(range(len(lams))), cols):
                    assert col & (2 << i) - 1 == 1 << i, (d, c, t, i)
                for s, x in enumerate(invert(cols)):
                    assert sum_of_columns(cols, x) == 1 << s
                total += len(lams)
            assert total == comb(d + c, d)


def plant_basis_change_fault(monkeypatch, grid, degree, pick):
    """Flip bit 0, the largest word, in the conversion of ``pick(monomial_basis(grid)[degree])``.

    The grid context is cleared first, so the steps of every degree are
    built, and checked, under the plant, whichever test built them before.
    """
    _context.cache_clear()
    planted_u = pick(monomial_basis(grid)[degree])
    real = _GridContext.convert

    def planted(self, u, t):
        out = real(self, u, t)
        if self.grid == grid and t == degree and u == planted_u:
            out ^= 1
        return out

    monkeypatch.setattr(_GridContext, "convert", planted)


def test_a_basis_change_that_is_not_unitriangular_is_caught(monkeypatch, capsys):
    # Plant one bit of a larger word in the conversion of the degree-2
    # monomial of the smallest word, (1, 1), on the 2x3 grid.
    grid, degree = Grid(2, 3), 2
    plant_basis_change_fault(monkeypatch, grid, degree, lambda monomials: monomials[0])
    with pytest.raises(RuntimeError, match="basis change at degree 2 of grid 2x3 is not unitriangular"):
        derivation_qn_matrix(1, grid)
    assert main(["compute", "--n", "1", "--d", "2", "--m", "5", "--basis", "derivation"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grqn: cell n=1 d=2 m=5: basis change at degree 2")


def test_a_step_build_that_raises_caches_nothing(monkeypatch, capsys):
    # Drop the own class of the last monomial of degree 3 on the 3x3 grid, so
    # the degree's other steps are built before its build raises.
    grid, degree = Grid(3, 3), 3
    plant_basis_change_fault(monkeypatch, grid, degree, lambda monomials: monomials[-1])
    assert len(monomial_basis(grid)[degree]) == 3
    for _ in range(2):
        with pytest.raises(RuntimeError, match="basis change at degree 3 of grid 3x3"):
            derivation_qn_matrix(1, grid)
        assert degree not in _context(grid)._steps and 2 in _context(grid)._steps
    for _ in range(2):
        assert main(["compute", "--n", "1", "--d", "3", "--m", "6", "--basis", "derivation"]) == 1
        assert capsys.readouterr().err.startswith("grqn: cell n=1 d=3 m=6: basis change at degree 3")


def test_monomials_are_the_exponents_with_at_most_c_factors():
    # Each monomial is a multiset of at most c generators w_1..w_d, and the
    # Leibniz steps read the same monomial off each word.
    for d in range(8):
        for c in range(8):
            grid = Grid(d, c)
            ctx, monomials = _context(grid), monomial_basis(grid)
            by_word = {t: monos[::-1] for t, monos in monomials.items()}  # by word index
            expected = {}
            for k in range(c + 1):
                for gens in combinations_with_replacement(range(1, d + 1), k):
                    r = tuple(gens.count(j) for j in range(1, d + 1))
                    expected.setdefault(sum(gens), []).append(pack(r, grid.slot))
            assert set(expected) == set(monomials)
            for t, monos in monomials.items():
                assert len(set(monos)) == len(monos)
                assert sorted(monos) == sorted(expected[t])
                # lam gives w_1^(lam_1 - lam_2)..w_d^(lam_d), in ascending word order
                lams = [(*partition(w, d), *[0] * (d + 1)) for w in reversed(ctx.basis[t])]
                r = [tuple(lam[j] - lam[j + 1] for j in range(d)) for lam in lams]
                assert monos == [pack(e, grid.slot) for e in r]
                # step i is word i's monomial r, k its partition's length, the
                # cofactor index names the partition less its first column, and
                # the source index names the oracle monomial r - e_j
                steps = ctx.steps(t)
                assert [step[0] for step in steps] == list(reversed(range(len(monos))))
                for (i, mask, k, j, p, q, odd), mono, e in zip(steps, monos, r):
                    lam = partition(ctx.basis[t][i], d)
                    assert mask == ctx.convert(mono, t), (d, c, t, i)
                    assert k == len(lam), (d, c, t, i)
                    assert odd == bool(k and lam[k - 1] % 2)  # r_k = lam_k
                    assert ctx.basis[t - k][p] == word(tuple(part - 1 for part in lam if part > 1), d)
                    # j: the top generator of r - e_k below k, else k for a
                    # power of w_k past w_k; 0 where the term is never read
                    lower = [g for g in range(1, k) if e[g - 1]]
                    if lower:
                        assert j == (lower[-1] if odd else 0), (d, c, t, i)
                    else:
                        assert j == (k if k and e[k - 1] > 1 else 0), (d, c, t, i)
                    if j:
                        unit = pack(tuple(int(g == j) for g in range(1, d + 1)), grid.slot)
                        assert by_word[t - j][q] == mono - unit, (d, c, t, i)


def test_dual_classes_die_in_the_quotient():
    for d in (1, 2, 3):
        for c in (1, 2, 3, 4):
            g = Grid(d, c)
            for k in range(c + 1, d + c + 1):
                assert not schubert_support(dual_class(k, d), g)
            for k in range(0, c + 1):
                expect = {(k,)} if k else {()}
                assert schubert_support(dual_class(k, d), g) == expect


def test_top_class_relation():
    for d in (2, 3):
        for c in (2, 3):
            g = Grid(d, c)
            p = generator(d, d) * dual_class(c, d)
            assert not schubert_support(p, g)


# --- the two matrix constructions -------------------------------------------


def test_lenart_matrix_worked_column():
    gm = lenart_qn_matrix(1, Grid(2, 4))
    basis1 = partitions_in_grid(2, 4)[4]
    col = block(gm, 1)[0]
    support = {partition(basis1[k], 2) for k in range(len(basis1)) if col >> k & 1}
    assert support == {(4,), (3, 1)}


def test_lenart_matrix_zero_in_collapse_range():
    assert is_zero(lenart_qn_matrix(1, Grid(2, 2)))


def test_lenart_matrix_large_collapse_cell_is_zero():
    # 12 870 columns and no odd strip: a build that visits every partition
    # above each column instead of the odd strips alone takes tens of seconds.
    assert is_zero(lenart_qn_matrix(3, Grid(8, 8)))


def test_lenart_matrix_projective_plane():
    gm = lenart_qn_matrix(0, Grid(1, 2))
    assert block(gm, 1) == (1,)  # s_(1) -> s_(2)
    assert block(gm, 2) == ()  # top degree has no outgoing block


def test_constructions_agree_on_small_grids():
    for n in range(4):
        for d in range(7):
            for c in range(8):
                g = Grid(d, c)
                assert lenart_qn_matrix(n, g) == derivation_qn_matrix(n, g)


HIGH_N_GRIDS = [
    (3, 3, 14),
    (3, 2, 15),
    (3, 4, 13),
    (3, 5, 12),
    (3, 4, 14),
    (4, 2, 31),
    (4, 3, 30),
    (4, 3, 31),
    (5, 2, 63),  # packs monomials at shift 63
    (6, 2, 127),  # and at shift 127
]


@pytest.mark.parametrize("n, d, c", HIGH_N_GRIDS)
def test_constructions_agree_on_nonzero_high_n_matrices(n, d, c):
    # Every Q_n matrix with m <= 2^(n+1) is zero, so the grids above, with
    # m <= 14, compare no nonzero one for n >= 3.
    g = Grid(d, c)
    gm = lenart_qn_matrix(n, g)
    assert not is_zero(gm)
    assert gm == derivation_qn_matrix(n, g)


def test_the_corner_matrix_restricts_to_every_grid_inside_it():
    # V -> V + R^k pulls the corner's ring onto a smaller grid's, keeping the
    # classes that fit and killing the rest; Q_n is stable, so the corner's
    # derivation matrix on the kept words is the smaller grid's Lenart matrix.
    corner = Grid(6, 7)
    grids = [(d, c) for d in range(corner.d + 1) for c in range(corner.c + 1)]
    places = embedded_places(corner, grids)
    words = partitions_in_grid(corner.d, corner.c)
    for d, c in grids:
        full = (1 << corner.d - d) - 1
        for t, kept in partitions_in_grid(d, c).items():
            assert [words[t][i] for i in places[d, c][t]] == [w << corner.d - d | full for w in kept]
    big = {n: derivation_qn_matrix(n, corner) for n in range(4)}
    for n, gm in big.items():
        for d, c in grids:
            assert gm.restrict(places[d, c]) == lenart_qn_matrix(n, Grid(d, c)), (n, d, c)


def test_a_degree_builds_the_pieri_blocks_of_its_steps_generators_only():
    # Near the top degree the words are long, so some generators up to
    # min(d, t) are named by no step there: listing them too built 42 and
    # 64 tables.
    _context.cache_clear()
    grid = Grid(6, 7)
    for n in range(4):
        assert derivation_qn_matrix(n, grid) == lenart_qn_matrix(n, grid)
    assert len(_context(grid)._pieri) == 40
    grid = Grid(8, 8)
    for n in range(4):
        derivation_qn_matrix(n, grid)
    assert len(_context(grid)._pieri) == 61


def test_constructions_agree_where_exponents_fill_their_slot():
    # Top degrees 510 and 512 take 9- and 10-bit slots.  Powers of w_1 past
    # w_1^255 occur in both, so a fixed 8-bit slot would carry into w_2.
    for c in (255, 256):
        g = Grid(2, c)
        assert lenart_qn_matrix(0, g) == derivation_qn_matrix(0, g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 6), st.integers(0, 6))
def test_routes_agree_and_square_to_zero_property(n, d, c):
    gm = lenart_qn_matrix(n, Grid(d, c))
    assert gm == derivation_qn_matrix(n, Grid(d, c))
    assert gm.compose_is_zero()


def test_matrix_square_is_zero():
    for n in (0, 1, 2):
        for d, c in ((2, 3), (3, 3), (2, 5)):
            assert lenart_qn_matrix(n, Grid(d, c)).compose_is_zero()


def test_derivation_matrix_nonzero_case():
    gm = derivation_qn_matrix(1, Grid(2, 3))
    assert not is_zero(gm)


def test_point_grid_is_trivial():
    for n in (0, 1):
        gm = lenart_qn_matrix(n, Grid(3, 0))
        assert gm.spaces == {0: 1}
        assert is_zero(gm)
        assert derivation_qn_matrix(n, Grid(3, 0)) == gm


@pytest.mark.parametrize("d, c", [(-1, 2), (2, -1)])
def test_grid_rejects_a_negative_side(d, c):
    with pytest.raises(ValueError, match="nonnegative"):
        Grid(d, c)


@pytest.mark.parametrize("build", [lenart_qn_matrix, derivation_qn_matrix])
def test_matrix_constructions_reject_a_negative_primitive_index(build):
    with pytest.raises(ValueError, match="primitive index must be nonnegative, got -1"):
        build(-1, Grid(2, 2))


def test_equal_grids_are_one_context_key():
    a, b = Grid(2, 3), Grid(2, 3)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != Grid(3, 2)
    assert _context(a) is _context(b)


# --- the Wu route against the per-term conversion ----------------------------


def test_wu_route_matches_the_per_term_route_on_small_grids():
    # Each generator image converted once and carried up Pieri chains gives
    # the same matrices as converting every term of every image on its own.
    for d in range(7):  # n innermost, so each grid's context is built once
        for c in range(7):
            for n in range(4):
                g = Grid(d, c)
                assert derivation_qn_matrix(n, g) == per_term_derivation_matrix(n, g), (n, d, c)
                if c:
                    m = d + 1 + c  # the twisted complex of Gr_(d+1)(R^m) lives on this grid
                    assert twisted_complex(n, d + 1, m) == per_term_twisted_complex(n, d + 1, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7))
def test_wu_route_matches_the_per_term_route_property(n, d, c):
    g = Grid(d, c)
    assert derivation_qn_matrix(n, g) == per_term_derivation_matrix(n, g)
    if c:
        assert twisted_complex(n, d + 1, d + 1 + c) == per_term_twisted_complex(n, d + 1, d + 1 + c)


@pytest.mark.parametrize("n", range(4))
def test_leibniz_steps_match_the_per_term_route_on_long_pure_powers(n):
    # With d <= 3 and c up to 12 the bases hold w_k^a for long runs of a:
    # each is an even or odd step from the power below it, and its term is
    # read off that power's, k degrees down.  With d = 3 the term of a
    # monomial with w_1 and w_2 below w_3 is read through both lower
    # generators in turn, down to a power of w_3.
    for d in (1, 2, 3):
        for c in range(13):
            g = Grid(d, c)
            assert derivation_qn_matrix(n, g) == per_term_derivation_matrix(n, g), (n, d, c)
            if c:
                m = d + 1 + c
                assert twisted_complex(n, d + 1, m) == per_term_twisted_complex(n, d + 1, m), (n, m)


@pytest.mark.parametrize("n, d, c", [(1, 2, 2), (2, 4, 2), (2, 5, 2), (2, 6, 2), (3, 6, 3), (3, 7, 3)])
def test_leibniz_steps_match_the_per_term_route_past_the_last_generator_image(n, d, c):
    # derivation_parts stops short of d here: Q_n(w_k) for the top generators
    # passes the top degree, so their steps carry only the Pieri product.
    g = Grid(d, c)
    assert 0 < len(derivation_parts(n, g)) < d
    assert derivation_qn_matrix(n, g) == per_term_derivation_matrix(n, g)
    assert twisted_complex(n, d + 1, d + 1 + c) == per_term_twisted_complex(n, d + 1, d + 1 + c)


def test_a_second_n_shares_the_grids_steps():
    # Once one n has built a grid's steps, another n converts only the terms
    # of its generator images, and gets the matrices a fresh context gives,
    # for Q_n and for the twisted complex on the grid.
    grid = Grid(4, 5)
    fresh = {}
    for n in range(4):
        _context.cache_clear()
        q = derivation_qn_matrix(n, grid)
        _context.cache_clear()
        fresh[n] = q, twisted_complex(n, grid.d + 1, grid.m + 1)
    _context.cache_clear()
    derivation_qn_matrix(0, grid)
    real, calls = _GridContext.convert, []

    def recording(self, u, t):
        calls.append((u, t))
        return real(self, u, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_GridContext, "convert", recording)
        for n in range(4):
            shift = 2 ** (n + 1) - 1
            del calls[:]
            assert derivation_qn_matrix(n, grid) == fresh[n][0], n
            parts = derivation_parts(n, grid)
            assert sorted(calls) == sorted((v, shift + k) for k, p in enumerate(parts, 1) for v in p)
            assert twisted_complex(n, grid.d + 1, grid.m + 1) == fresh[n][1], n


def test_a_grid_with_no_columns_has_one_step_of_the_unit_monomial():
    # With c = 0 the d beads fill slots 0..d-1, and a slot needs more bits
    # than the exponent holds once d > 2; the one word's monomial is 1, so
    # its step (i, mask, k, j, p, q, odd) has no generator and no source.
    for d in range(10):
        grid = Grid(d, 0)
        assert partitions_in_grid(d, 0) == {0: [(1 << d) - 1]}
        assert _GridContext(grid).steps(0) == [(0, 1, 0, 0, 0, 0, False)], d


def test_steps_do_not_depend_on_the_order_their_degrees_are_built():
    for d, c in ((2, 5), (3, 4), (4, 4), (5, 3)):
        grid = Grid(d, c)
        degrees = range(grid.top_degree + 1)
        high_first, ascending = _GridContext(grid), _GridContext(grid)
        shuffled = random.Random(d * 10 + c).sample(degrees, len(degrees))
        for t in [grid.top_degree, *shuffled]:
            high_first.steps(t)
        assert [high_first.steps(t) for t in degrees] == [ascending.steps(t) for t in degrees]


def test_every_route_is_zero_where_the_primitive_vanishes():
    # 2^(n+1) - 1 >= m: no odd strip fits, and every image converts to 0.
    cells = 0
    for n in range(4):
        for d in range(8):
            for c in range(8):
                if 2 ** (n + 1) - 1 < d + c:
                    continue
                grid = Grid(d, c)
                zero = GradedMap(2 ** (n + 1) - 1, {t: len(w) for t, w in partitions_in_grid(d, c).items()})
                assert derivation_qn_matrix(n, grid) == zero, (n, d, c)
                assert lenart_qn_matrix(n, grid) == zero, (n, d, c)
                assert per_term_derivation_matrix(n, grid) == zero, (n, d, c)
                cells += 1
    assert cells == 3 + 10 + 36 + 64


@pytest.mark.parametrize("n, d, c", [(2, 3, 4), (3, 7, 7)])
def test_a_zero_map_still_checks_its_basis_change(monkeypatch, n, d, c):
    grid = Grid(d, c)
    plant_basis_change_fault(monkeypatch, grid, 2, lambda monomials: monomials[0])
    shift = 2 ** (n + 1) - 1
    assert grid.m <= shift and 2 <= grid.top_degree - shift  # a zero map with a block at degree 2
    with pytest.raises(RuntimeError, match=f"basis change at degree 2 of grid {d}x{c} is not unitriangular"):
        derivation_qn_matrix(n, grid)


def test_lenart_matrix_commutes_with_conjugation():
    # Gr_d(R^m) = Gr_c(R^m) by orthogonal complement, which is lam -> lam'
    # on Schubert classes; Q_n commutes with it.
    columns = 0
    for n in range(3):
        for d in range(6):
            for c in range(6):
                a, b = lenart_qn_matrix(n, Grid(d, c)), lenart_qn_matrix(n, Grid(c, d))
                basis_a, basis_b = partitions_in_grid(d, c), partitions_in_grid(c, d)
                for t, cols in a.blocks.items():
                    image_b = dict(zip(basis_b[t], block(b, t)))
                    for w, col in zip(basis_a[t], cols):
                        lam = partition(w, d)
                        got = decode(image_b[word(transpose(lam), c)], basis_b[t + a.shift])
                        assert {partition(x, c) for x in got} == {
                            transpose(partition(mu, d)) for mu in decode(col, basis_a[t + a.shift])
                        }
                        columns += 1
    assert columns == 2297


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7))
def test_lenart_matrix_commutes_with_conjugation_property(n, d, c):
    # The same symmetry on bead words: conjugation reverses and complements them.
    m = d + c
    a, b = lenart_qn_matrix(n, Grid(d, c)), lenart_qn_matrix(n, Grid(c, d))
    basis_a, basis_b = partitions_in_grid(d, c), partitions_in_grid(c, d)
    for t, cols in a.blocks.items():
        image_b = dict(zip(basis_b[t], block(b, t)))
        for w, col in zip(basis_a[t], cols):
            got = decode(image_b[conjugate(w, m)], basis_b[t + a.shift])
            assert got == {conjugate(mu, m) for mu in decode(col, basis_a[t + a.shift])}


# --- Poincare duality and the j = 1 Leibniz identity of the Lenart matrix ----
#
# The adjoint of Q_n under the Poincare pairing is Q_n plus the product by the
# tangent bundle's p_k, k = 2^(n+1) - 1, which is m times the tautological
# bundle's: L = dual(L) + [m odd] J, J the jump by k.  Q_n is a derivation and
# kills 1, and Q_n(w_1) = p_(k+1), so with P_1 the product by w_1,
# L P_1 + P_1 L is the jump by k + 1.  Both are checked on every grid up to
# 7 x 7 with n <= 2 where the jump has a block, and on nonzero cells of higher n.

IDENTITY_GRIDS = [(n, Grid(d, c)) for n in range(3) for d in range(1, 8) for c in range(1, 8)]
HIGH_N_IDENTITY_CELLS = [(3, 3, 17), (3, 3, 18), (3, 4, 18), (4, 3, 33), (4, 3, 34), (5, 3, 66)]


def is_self_dual_up_to_a_jump(grid, lenart):
    expected = dual(lenart, grid)
    return lenart == (add(expected, jump(grid, lenart.shift)) if grid.m % 2 else expected)


def obeys_leibniz_at_w1(grid, lenart):
    p1 = word_map(grid, 1, lambda w: vertical_strips(w, 1, grid.m))
    return add(compose(lenart, p1), compose(p1, lenart)) == jump(grid, lenart.shift + 1)


def test_the_lenart_matrix_is_its_own_poincare_dual_up_to_a_jump():
    grids = [(n, g) for n, g in IDENTITY_GRIDS if 2 ** (n + 1) - 1 <= g.top_degree]
    assert len(grids) == 130
    for n, grid in grids:
        assert is_self_dual_up_to_a_jump(grid, lenart_qn_matrix(n, grid)), (n, grid)


def test_the_lenart_matrix_obeys_the_leibniz_identity_at_w1():
    grids = [(n, g) for n, g in IDENTITY_GRIDS if 2 ** (n + 1) <= g.top_degree]
    assert len(grids) == 125
    for n, grid in grids:
        assert obeys_leibniz_at_w1(grid, lenart_qn_matrix(n, grid)), (n, grid)


@pytest.mark.parametrize("n, d, m", HIGH_N_IDENTITY_CELLS)
def test_a_nonzero_high_n_lenart_matrix_obeys_both_identities(n, d, m):
    grid = Grid(d, m - d)
    lenart = lenart_qn_matrix(n, grid)
    assert not is_zero(lenart)
    assert is_self_dual_up_to_a_jump(grid, lenart)
    assert obeys_leibniz_at_w1(grid, lenart)


@pytest.mark.parametrize("n, d, c", [(0, 2, 3), (1, 3, 4), (2, 4, 5), (0, 3, 3), (1, 3, 5), (2, 4, 4)])
def test_a_planted_lenart_bit_breaks_both_identities(n, d, c):
    # A bit from word u to word v whose dual entry is itself (v the reversal
    # of u) flips on both sides of the duality, which cannot see it; the
    # draw skips those entries.  The Leibniz side sees every bit here.
    grid = Grid(d, c)
    lenart = lenart_qn_matrix(n, grid)
    words = partitions_in_grid(d, c)
    rng = random.Random(f"{n} {d} {c}")
    planted = 0
    while planted < 10:
        t = rng.choice(sorted(lenart.blocks))
        i, row = rng.randrange(lenart.spaces[t]), rng.randrange(lenart.spaces[t + lenart.shift])
        if words[t + lenart.shift][row] == conjugate(words[t][i], grid.m) ^ (1 << grid.m) - 1:
            continue
        cols = list(lenart.blocks[t])
        cols[i] ^= 1 << row
        flipped = lenart._replace(blocks={**lenart.blocks, t: tuple(cols)})
        assert not is_self_dual_up_to_a_jump(grid, flipped), (t, i, row)
        assert not obeys_leibniz_at_w1(grid, flipped), (t, i, row)
        planted += 1
