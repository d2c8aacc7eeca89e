"""The truncated cohomology ring of a finite Grassmannian in the Schubert basis.

Two independent constructions of the degree-raising primitive are provided:
the border-strip coefficient formula on Schubert classes, and Q_n as a
derivation, one Leibniz step per Stiefel-Whitney monomial from generator
images built from power sums (see ``steenrod``), in the Schubert basis.
Their bit-for-bit agreement is the project's main cross-check.

A Schubert class is the bead word of its partition (see ``young``), and a
monomial w_1^(r_1)..w_d^(r_d) is a packed int: r_j sits in slot j - 1 of
``Grid.slot`` bits, so a product within the top degree is a sum of ints.
Both bases come from the bead words: lam gives s_lam and the monomial
with one w_j per column of length j.  One dict gives every word its place
in its degree, the bit it sets in a column, as a word fixes its degree.
The monomial of lam is e_(lam') = s_lam plus Schubert classes of smaller
words (Macdonald I.6), so each degree's basis change is unitriangular and
the Wu route solves it by forward substitution, with conversion the one
peel walk: each Leibniz step reads its term off a stored one by one Pieri product.
Per-grid state (the words, their dimensions and indices, Pieri blocks by
degree, conversions by monomial and each degree's Leibniz steps, shared by
every n) is kept for the last grid used only, as every command uses its
grids one after another: a sweep builds the derivation route on its corner
grid alone, in one task, and reads each smaller grid's matrix off the
corner's at that grid's places (``embedded_places``), while its other tasks
walk the grids' Lenart matrices; the cofiber reads its quotient off the
same places.  All cached values are deterministic, so concurrent use
cannot produce divergent results.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from . import steenrod
from .homology import GradedMap, column_product
from .young import bits, lenart_strips, partitions_in_grid, sized_vertical_strips


class Grid(namedtuple("Grid", "d c")):
    """A d x c Young-diagram frame for Gr_d(R^m) with c = m - d.

    A grid is an immutable value, equal and hashing equal to any grid with
    the same sides, so it keys the per-grid context cache.
    """

    __slots__ = ()

    def __init__(self, d: int, c: int) -> None:
        if d < 0 or c < 0:
            raise ValueError(f"grid sides must be nonnegative: {d}x{c}")

    @property
    def m(self) -> int:
        return self.d + self.c

    @property
    def top_degree(self) -> int:
        return self.d * self.c

    @property
    def slot(self) -> int:
        """Bits per exponent of a packed monomial: enough for the top degree."""
        return max(1, self.top_degree.bit_length())


class _GridContext:
    """Basis tables and bit-packed multiplication data for one grid.

    Each degree has one numbering, the words' ``index``: a basis monomial
    is named by its word, and ``steps`` alone reads it off the word.
    Monomials are packed ``Grid.slot`` bits per generator.  The slot holds
    the top degree, and no exponent of a monomial exceeds its degree, so
    every monomial of degree at most the top degree packs without carry.
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.top_degree, self.slot = grid.top_degree, grid.slot
        self.basis = partitions_in_grid(grid.d, grid.c)
        self.index = {w: i for words in self.basis.values() for i, w in enumerate(words)}
        self.spaces = {t: len(words) for t, words in self.basis.items()}
        self._pieri: dict[int, list[tuple[int, ...]]] = {}
        self._convert: dict[int, int] = {0: 1}
        self._steps: dict[int, list[tuple[int, int, int, int, int, int, bool]]] = {}

    def pieri_block(self, j: int, t: int) -> tuple[int, ...]:
        """Columns of multiplication by w_j, 1 <= j <= d, from degree t to degree t + j.

        The first call at degree t fills every j in one pass per word: each
        (size, mu) pair of its strip walk sets mu's bit in the word's entry
        for that size, and the rows of entries transpose into the blocks.
        """
        blocks = self._pieri.get(t)
        if blocks is None:
            d, m, index = self.grid.d, self.grid.m, self.index
            rows = []
            for word in self.basis.get(t, []):
                row = [0] * (d + 1)
                for size, mu in sized_vertical_strips(word, m):
                    row[size] |= 1 << index[mu]
                rows.append(row)
            blocks = self._pieri[t] = list(zip(*rows)) or [()] * (d + 1)
        return blocks[j]

    def convert(self, u: int, t: int) -> int:
        """Bitmask of the Schubert expansion of the degree-t packed monomial u.

        Zero when u dies in the quotient.  Peels the top generator down to a
        monomial already converted, then multiplies back up by Pieri blocks,
        caching each prefix under its monomial, which fixes its degree.
        """
        if t > self.top_degree:
            return 0
        slot, cache = self.slot, self._convert
        peeled = []
        while (out := cache.get(u)) is None:
            j = (u.bit_length() - 1) // slot + 1
            peeled.append((u, j, t))
            u -= 1 << slot * (j - 1)
            t -= j
        for v, j, s in reversed(peeled):
            out = cache[v] = column_product(self.pieri_block(j, s - j), out)
        return out

    def steps(self, t: int) -> list[tuple[int, int, int, int, int, int, bool]]:
        """Per word of degree t, in ascending order, ``free_operator_matrix``'s step.

        The word of lam gives the monomial r = w_1^(lam_1 - lam_2)..w_d^(lam_d):
        r_j counts the empty slots between beads j - 1 and j (from the top,
        from 0), and r_d is the lowest bead's slot: with bead j's slot packed
        as exponent j + 1, r is that less itself shifted one exponent down,
        less 1 in every exponent but r_d.  A slot fits in an exponent as
        d + c - 1 <= dc when c >= 1; c = 0 has one word, r = 1.  This is a
        bijection onto the monomials with at most c factors.  r - e_g is lam
        less a column of length g: its top g beads move down one slot.  With
        k the top generator, lam's length (0 for r = 1), the cofactor is
        u = r - e_k, and the source of r's term w^u D(w_k) is r - e_j: j is 0
        where the term is D(w_k) or is not read (r_k even, u not a power of
        w_k), else u's top generator below k, or k.  The step is (i, mask, k,
        j, u's word's ``index``, the source's, r_k odd), mask r's cached
        conversion: s_i, whose column is still 0 when the mask is read, plus
        classes of larger indices, all solved before it in ascending word
        order.  A degree is cached once all its steps are checked.
        """
        steps = self._steps.get(t)
        if steps is None:
            d, slot, index, steps = self.grid.d, self.slot, self.index, []
            units = [0] + [1 << slot * j for j in range(d)]
            ones, full = sum(units[1:d]), (1 << slot) - 1
            for i, w in reversed([*enumerate(self.basis[t])]):
                packed = at = 0
                for p in bits(w):
                    packed |= p << at
                    at += slot
                r = packed - (packed >> slot) - ones if self.grid.c else 0
                b = self.convert(r, t)
                if b & (2 << i) - 1 != 1 << i:
                    raise RuntimeError(
                        f"basis change at degree {t} of grid {d}x{self.grid.c} is not unitriangular"
                    )
                k = (r.bit_length() + slot - 1) // slot
                odd, rest = r & units[k] > 0, r & units[k] - 1
                j = (rest.bit_length() + slot - 1) // slot * odd if rest else k * (r > units[k])
                p = q = 0  # lam less a column of length k, j: bits above ``low`` move down
                if k:
                    low = (1 << d - k) - 1
                    p = index[w & low | (w & ~low) >> 1]
                if j:
                    low = (1 << (packed >> slot * (j - 1) & full)) - 1
                    q = index[w & low | (w & ~low) >> 1]
                steps.append((i, b, k, j, p, q, odd))
            self._steps[t] = steps
        return steps


@lru_cache(maxsize=1)
def _context(grid: Grid) -> _GridContext:
    return _GridContext(grid)


def embedded_places(
    corner: Grid, grids: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], dict[int, list[int]]]:
    """Per grid d x c inside the corner and per degree, where its words sit in the corner's basis.

    V -> V + R^(corner.d - d) maps Gr_d(R^(d+c)) into the corner's
    Grassmannian, and the pullback is a ring surjection keeping s_lam where
    lam fits d x c and killing it elsewhere.  Q_n is stable, so it commutes
    with the pullback: ``GradedMap.restrict`` on these places reads the
    grid's matrix off the corner's.  The word w goes to (w << k) | (2^k - 1),
    k = corner.d - d: the k lowest slots full, none at or above corner.d + c.
    That keeps the degree and the order of words, so the places ascend; for
    d x (c - 1) in d x c, the cofiber's quotient, they end each degree.
    """
    basis = _context(corner).basis
    places = {}
    for d, c in grids:
        full = (1 << corner.d - d) - 1
        edge = full | -1 << corner.d + c  # the k lowest slots, and all from corner.d + c up
        places[d, c] = {t: [i for i, w in enumerate(basis[t]) if w & edge == full] for t in range(d * c + 1)}
    return places


def lenart_qn_matrix(n: int, grid: Grid) -> GradedMap:
    """The primitive's matrix from the border-strip coefficient formula."""
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    shift = 2 ** (n + 1) - 1
    d, m = grid.d, grid.m
    ctx = _context(grid)
    shl, position = (1).__lshift__, ctx.index.__getitem__
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(ctx.top_degree - shift + 1):
        blocks[t] = tuple(
            sum(map(shl, map(position, lenart_strips(word, shift, d, m)))) for word in ctx.basis[t]
        )
    return GradedMap(shift, ctx.spaces, blocks)


def free_operator_matrix(
    grid: Grid, shift: int, images: list[set[int]], one: Iterable[int] = ()
) -> GradedMap:
    """Matrix of T = D + (times a), D a derivation, pushed to the Schubert basis.

    ``images`` are the packed polynomials D(w_1), D(w_2), .., of degree
    shift + k (a generator past them maps to 0), and ``one`` is T(1) = a.
    T(w_k x) = w_k T(x) + x D(w_k), so with k the top generator of a basis
    monomial r = u + e_k, T(w^r) = P_k T(w^u) + w^u D(w_k) for odd r_k and,
    as D(w_k^2) = 0, P_k (T(w^u) + w^(u - e_k) D(w_k)) for even r_k, whose
    last term was kept when w^u was built.  Each D(w_k) is converted once,
    and the term X(r) = w^u D(w_k) is P_j X(r - e_j), X(e_k) = D(w_k), with
    the source r - e_j named by the step: its X is stored, as it has r_k
    odd or is a power of w_k, and it lies at most d degrees below, so
    older images and terms are dropped.  Degree t lists the Pieri blocks of
    the generators its steps name as k or j, and no others.  Forward
    substitution then solves the basis change: the monomial of the word at
    index i is s_i plus classes at larger indices, solved before it in
    ascending word order.  ``steps`` holds what of this T does not change.
    A basis change that is not unitriangular is a ``RuntimeError``, even if
    the map is 0.
    """
    ctx = _context(grid)
    bases = [0] * (grid.d + 1)
    for k, poly in enumerate([one, *images]):
        for v in poly:
            bases[k] ^= ctx.convert(v, shift + k)
    steps = [ctx.steps(t) for t in range(grid.top_degree - shift + 1)]
    if not any(bases):
        return GradedMap(shift, ctx.spaces)
    # by degree and word index of r: (T(w^r), w^(r - e_k) D(w_k) where a step reads it, else 0)
    image: dict[int, list[tuple[int, int]]] = {}
    blocks: dict[int, tuple[int, ...]] = {}
    for t, degree in enumerate(steps):
        s = t + shift
        pieri = {g: ctx.pieri_block(g, s - g) for g in {g for step in degree for g in step[2:4] if g}}
        cols = [0] * len(degree)
        done = image[t] = [(0, 0)] * len(degree)
        for i, mask, k, j, p, q, odd in degree:
            out, term = bases[0], 0
            if k:
                low, below = image[t - k][p]
                if j:
                    term = column_product(pieri[j], image[t - j][q][1])
                elif odd:
                    term = bases[k]
                out = column_product(pieri[k], low if odd else low ^ below) ^ (term if odd else 0)
            done[i] = (out, term)
            cols[i] = out ^ column_product(cols, mask)
        blocks[t] = tuple(cols)
        image.pop(t - grid.d, None)
    return GradedMap(shift, ctx.spaces, blocks)


def derivation_parts(n: int, grid: Grid) -> list[set[int]]:
    """Q_n(w_1), Q_n(w_2), .. on the grid's packed monomials, as a derivation needs them.

    Generators whose image passes the top degree appear in no image the
    matrix needs, so their images are never built.
    """
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    count = min(grid.d, grid.top_degree - 2 ** (n + 1) + 1)
    return steenrod.milnor_q_generators(n, grid.d, grid.slot, count)


def derivation_qn_matrix(n: int, grid: Grid) -> GradedMap:
    """The primitive's matrix from the derivation route."""
    return free_operator_matrix(grid, 2 ** (n + 1) - 1, derivation_parts(n, grid))
