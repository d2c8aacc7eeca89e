"""Partition, skew-shape and border-strip behavior, against cell-set oracles."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grqn.young import lenart_strips, partitions_in_grid, sized_vertical_strips
from oracles import (
    DULL,
    SHARP,
    InvalidStrip,
    NotContained,
    StripClass,
    _extensions,
    classify_strip,
    conjugate,
    content,
    corners,
    covers_at_distance,
    filtered_strips,
    grid_partitions,
    lenart_coefficient,
    partition,
    skew,
    transpose,
    vertical_strips,
    word,
)


def brute_classify(cells):
    """Reference classification straight from the cell set."""
    if not cells:
        return StripClass(0)
    for (i, j) in cells:
        if {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= cells:
            return StripClass(None)
    seen = set()
    comps = 0
    for start in cells:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        while stack:
            i, j = stack.pop()
            if (i, j) in seen:
                continue
            seen.add((i, j))
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in cells and nb not in seen:
                    stack.append(nb)
    return StripClass(comps)


def brute_corners(cells):
    """Reference sharp/dull scan straight from the cell set."""
    out = []
    for (i, j) in sorted(cells):
        north = (i - 1, j) in cells
        west = (i, j - 1) in cells
        nw = (i - 1, j - 1) in cells
        if not north and not west and not nw:
            out.append(((i, j), SHARP))
        elif north and west and not nw:
            out.append(((i, j), DULL))
    return out


def random_skew(rng, d=5, c=6):
    grid = grid_partitions(d, c)
    while True:
        outer = rng.choice(grid)
        inner = rng.choice(grid)
        if len(inner) <= len(outer) and all(
            inner[i] <= outer[i] for i in range(len(inner))
        ):
            return skew(outer, inner)


def test_partitions_in_grid_2x2_exact_order():
    assert grid_partitions(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert partitions_in_grid(2, 2) == {
        0: [0b0011], 1: [0b0101], 2: [0b1001, 0b0110], 3: [0b1010], 4: [0b1100]
    }


def test_partitions_in_grid_degenerate_and_counts():
    assert grid_partitions(0, 5) == [()]
    assert len(grid_partitions(2, 4)) == 15
    for d in range(9):
        for c in range(9):
            got = grid_partitions(d, c)
            assert len(got) == comb(d + c, d)
            expected = [mu for t in range(d * c + 1) for mu in _extensions((), t, d, c)]
            assert got == expected, (d, c)
            for t, words in partitions_in_grid(d, c).items():
                assert words == sorted(words, reverse=True), (d, c, t)
                for w in words:
                    assert w < 1 << d + c and sum(partition(w, d)) == t
                    assert word(partition(w, d), d) == w


@pytest.mark.parametrize("d, c", [(-1, 2), (2, -1)])
def test_partitions_in_grid_rejects_a_negative_side(d, c):
    with pytest.raises(ValueError, match=f"grid sides must be nonnegative: {d}x{c}"):
        partitions_in_grid(d, c)


def test_conjugation_reverses_and_complements_the_word():
    # lam -> lam' takes the d x c grid to the c x d grid.
    for d in range(7):
        for c in range(7):
            for lam in grid_partitions(d, c):
                assert partition(conjugate(word(lam, d), d + c), c) == transpose(lam)


def test_skew_cells_example():
    s = skew((4, 3, 1), (3, 1))
    assert s.cells == {(1, 4), (2, 2), (2, 3), (3, 1)}


def test_skew_identity_and_containment_error():
    assert skew((2, 1), (2, 1)).cells == frozenset()
    with pytest.raises(NotContained):
        skew((1,), (2,))


def test_content_values():
    assert content((1, 1)) == 0
    assert content((3, 1)) == -2
    assert content((1, 4)) == 3


def test_classify_border_strip_examples():
    # L-shaped strip of 8 boxes along rows 4..6, 4, 4, 2..4.
    strip = skew((6, 4, 4, 4), (3, 3, 3, 1))
    assert strip.cells == {(1, 4), (1, 5), (1, 6), (2, 4), (3, 4), (4, 2), (4, 3), (4, 4)}
    assert classify_strip(strip) == StripClass(1)

    blocked = skew((6, 5, 4, 4), (3, 3, 3, 1))
    assert classify_strip(blocked) == StripClass(None)
    assert not classify_strip(blocked).is_broken_border_strip

    assert classify_strip(skew((2, 1), (2, 1))) == StripClass(0)


def test_classify_disconnected():
    assert classify_strip(skew((3, 1), (1,))) == StripClass(2)


def test_corners_figure():
    strip = skew((6, 4, 4, 4), (3, 3, 3, 1))
    assert corners(strip) == [((1, 4), SHARP), ((4, 2), SHARP), ((4, 4), DULL)]


def test_corners_small_shapes():
    assert corners(skew((1,), ())) == [((1, 1), SHARP)]
    assert corners(skew((3,), ())) == [((1, 1), SHARP)]


def test_corners_rejects_blocked_shape():
    with pytest.raises(InvalidStrip):
        corners(skew((2, 2), ()))


def test_classify_and_corners_match_cell_oracle():
    rng = random.Random(7)
    for _ in range(400):
        s = random_skew(rng)
        assert classify_strip(s) == brute_classify(set(s.cells))
        if classify_strip(s).is_broken_border_strip:
            assert corners(s) == brute_corners(set(s.cells))


def test_lenart_coefficient_worked_cases():
    assert lenart_coefficient((1,), (4,)) == 1
    assert lenart_coefficient((1,), (3, 1)) == 1
    assert lenart_coefficient((1,), (2, 2)) == 0
    with pytest.raises(NotContained):
        lenart_coefficient((2,), (1,))


def test_lenart_coefficient_matches_skew_recomputation():
    rng = random.Random(19)
    for _ in range(600):
        s = random_skew(rng, d=4, c=5)
        cls = classify_strip(s)
        if cls.components is None or cls.components > 2 or cls.components == 0:
            expected = 0
        elif cls.components == 2:
            expected = 1
        else:
            expected = sum(content(b) for b, _ in corners(s)) % 2
        assert lenart_coefficient(s.inner, s.outer) == expected


def test_covers_at_distance_examples():
    assert covers_at_distance((1,), 3, 2, 4) == [(4,), (3, 1), (2, 2)]
    assert covers_at_distance((3, 3), 1, 2, 3) == []
    assert covers_at_distance((), 1, 2, 2) == [(1,)]
    with pytest.raises(ValueError):
        covers_at_distance((1,), 0, 2, 2)


def test_covers_exhaust_the_interval_above():
    d, c = 3, 4
    grid = grid_partitions(d, c)
    for lam in grid:
        above = sum(
            1
            for mu in grid
            if len(lam) <= len(mu) and all(lam[i] <= mu[i] for i in range(len(lam)))
        )
        found = sum(len(covers_at_distance(lam, k, d, c)) for k in range(1, d * c + 1))
        assert found + 1 == above


def test_covers_order_is_the_grid_order():
    d, c = 3, 3
    by_degree = {}
    for p in grid_partitions(d, c):
        by_degree.setdefault(sum(p), []).append(p)
    for k in range(1, d * c + 1):
        expected = [p for p in by_degree.get(k, [])]
        assert covers_at_distance((), k, d, c) == expected


def translate(s, rows, cols):
    """Same cells shifted down by `rows` and right by `cols`."""
    outer = tuple(v + cols for v in s.outer)
    inner = tuple(v + cols for v in s.inner) + (cols,) * (len(s.outer) - len(s.inner))
    pad = (outer[0],) * rows if outer else ()
    return skew(pad + outer, pad + tuple(v for v in inner if v))


def test_classification_is_translation_invariant():
    rng = random.Random(23)
    for _ in range(200):
        s = random_skew(rng, d=4, c=4)
        moved = translate(s, rng.randrange(3), rng.randrange(3) + 1)
        assert classify_strip(moved) == classify_strip(s)
        base = brute_classify(set(s.cells))
        assert brute_classify(set(moved.cells)) == base


def random_border_strip(rng):
    """A connected strip built by walking north/east from a start cell."""
    length = rng.randrange(1, 12)
    steps = [rng.choice("NE") for _ in range(length - 1)]
    rows = 1 + steps.count("N")
    spans = []
    row, col = rows, 1
    lo = col - 1
    for step in steps:
        if step == "E":
            col += 1
        else:
            spans.append((row, lo, col))
            row -= 1
            lo = col - 1
    spans.append((row, lo, col))
    spans.reverse()
    outer = tuple(hi for _r, _lo, hi in spans)
    inner = tuple(lo for _r, lo, _hi in spans if lo)
    return skew(outer, inner), length


def test_border_strip_end_contents():
    rng = random.Random(5)
    for _ in range(300):
        s, length = random_border_strip(rng)
        assert classify_strip(s) == StripClass(1)
        cells = sorted(s.cells, key=content)
        delta = content(cells[-1]) - content(cells[0])
        assert delta == length - 1
        if length % 2 == 1:
            assert content(cells[-1]) % 2 == content(cells[0]) % 2


def test_skewshape_cell_count_invariant():
    rng = random.Random(3)
    for _ in range(200):
        s = random_skew(rng)
        assert len(s.cells) == sum(s.outer) - sum(s.inner)


def assert_strips_match_oracle(lam, k, d, c):
    got = [partition(mu, d) for mu in lenart_strips(word(lam, d), k, d, d + c)]
    assert len(got) == len(set(got)), (lam, k, d, c)
    assert sorted(got) == sorted(filtered_strips(lam, k, d, c)), (lam, k, d, c)


def test_lenart_strips_match_the_filtered_candidates_exhaustively():
    for d in range(7):
        for c in range(7):
            lams = grid_partitions(d, c)
            for n in range(4):
                for lam in lams:
                    assert_strips_match_oracle(lam, 2 ** (n + 1) - 1, d, c)


@st.composite
def grid_partition(draw):
    d = draw(st.integers(0, 9))
    c = draw(st.integers(0, 9))
    parts = sorted(draw(st.lists(st.integers(1, c), max_size=d)) if c else [], reverse=True)
    return tuple(parts), d, c


@settings(max_examples=300, deadline=None)
@given(grid_partition(), st.integers(0, 3))
def test_lenart_strips_property_against_oracle(case, n):
    lam, d, c = case
    assert_strips_match_oracle(lam, 2 ** (n + 1) - 1, d, c)


def test_vertical_strips_match_the_filtered_candidates_exhaustively():
    # Pieri: mu/lam is a vertical strip, at most one new box in each row.
    for d in range(7):
        for c in range(7):
            for lam in grid_partitions(d, c):
                padded = lam + (0,) * (d - len(lam))
                for j in range(1, d + 1):
                    got = [partition(mu, d) for mu in vertical_strips(word(lam, d), j, d + c)]
                    assert len(got) == len(set(got)), (lam, j, d, c)
                    expected = [
                        mu
                        for mu in covers_at_distance(lam, j, d, c)
                        if all(v - padded[i] <= 1 for i, v in enumerate(mu))
                    ]
                    assert sorted(got) == sorted(expected), (lam, j, d, c)


def test_strips_of_all_sizes_match_the_one_size_walk():
    # The all-sizes walk, grouped by size, against the one-size walk for every j.
    for d in range(8):
        for c in range(8):
            m = d + c
            for words in partitions_in_grid(d, c).values():
                for w in words:
                    strips = sized_vertical_strips(w, m)
                    assert len({mu for _, mu in strips}) == len(strips), (w, d, c)
                    by_size: dict[int, list[int]] = {}
                    for j, mu in strips:
                        by_size.setdefault(j, []).append(mu)
                    assert set(by_size) <= set(range(1, d + 1)), (w, d, c)
                    for j in range(1, d + 2):
                        got = sorted(by_size.get(j, []))
                        assert got == sorted(vertical_strips(w, j, m)), (w, j, d, c)
