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
the Wu route solves it by forward substitution.
Per-grid state (both bases, their dimensions and places, Pieri blocks,
conversions and each degree's Leibniz steps, shared by every n) is kept
for the last grid used only, as every command uses its grids one after
another; all cached values are deterministic, so concurrent use cannot
produce divergent results.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property, lru_cache

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
        self._convert: dict[int, dict[int, int]] = {0: {0: 1}}
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

    def product(self, chain: dict[int, dict[int, int]], u: int, t: int, last: int = 0) -> int:
        """Bitmask of w^u times the chain's base, a product of degree t.

        ``chain`` caches products by degree, each bucket by cofactor; it
        starts as ``{t0: {0: base}}``, with ``base`` the mask of a class of
        degree t0.  Zero when the product dies in the quotient.  Peels the
        top generator down to a cofactor already cached, then multiplies
        back up one Pieri block at a time, caching every prefix on the way.
        ``last`` is the packed unit of a generator to peel only when no
        other is left, or 0.
        """
        if t > self.top_degree:
            return 0
        slot = self.slot
        rest = ~(last * ((1 << slot) - 1))
        peeled = []
        while (out := chain.setdefault(t, {}).get(u)) is None:
            j = ((u & rest or u).bit_length() - 1) // slot + 1
            peeled.append((u, j, t))
            u -= 1 << slot * (j - 1)
            t -= j
        for v, j, s in reversed(peeled):
            out = column_product(self.pieri_block(j, s - j), out)
            chain[s][v] = out
        return out

    def convert(self, u: int, t: int) -> int:
        """Bitmask of the Schubert expansion of the degree-t packed monomial u."""
        return self.product(self._convert, u, t)

    def steps(self, t: int) -> list[tuple[int, int, int, int, int, int, bool]]:
        """Per monomial r = u + e_k of degree t, in order, ``free_operator_matrix``'s step.

        That is (i, mask, k, u's ``position``, u, e_k packed, r_k odd), k the
        top generator (0 for r = 1), mask r's cached conversion: s_i, whose
        column is still 0 when the mask is read, plus classes of larger
        indices.  A degree is cached once all its steps are checked.
        """
        steps = self._steps.get(t)
        if steps is None:
            grid, slot, position, steps = self.grid, self.slot, self.position, []
            units = [0] + [1 << slot * j for j in range(grid.d)]
            for i, r in zip(reversed(range(self.spaces[t])), self.monomials[t]):
                b = self.convert(r, t)
                if b & (2 << i) - 1 != 1 << i:
                    raise RuntimeError(
                        f"basis change at degree {t} of grid {grid.d}x{grid.c} is not unitriangular"
                    )
                k = (r.bit_length() - 1) // slot + 1
                unit = units[k]
                steps.append((i, b, k, position[r - unit], r - unit, unit, r & unit > 0))
            self._steps[t] = steps
        return steps

    @cached_property
    def monomials(self) -> dict[int, list[int]]:
        """Packed monomial basis by degree, one per word, in ascending word order.

        The word of lam gives w_1^(lam_1 - lam_2)..w_d^(lam_d): r_j counts the
        empty slots between beads j - 1 and j (from the top, from 0), and r_d
        is the lowest bead's slot.  This is a bijection onto the monomials with
        at most c factors.  The order is the reverse of ``basis``, so a
        monomial's lower Schubert terms, all of smaller words, come before it:
        ``free_operator_matrix`` relies on that to solve by substitution.
        """
        d, slot = self.grid.d, self.slot

        def monomial(w: int) -> int:
            beads = [*bits(w), -1]
            return sum(beads[j] - beads[j + 1] - 1 << slot * j for j in range(d))

        return {t: [monomial(w) for w in reversed(words)] for t, words in self.basis.items()}

    @cached_property
    def position(self) -> dict[int, int]:
        """Each packed monomial's place in its degree of ``monomials``, as ``index`` is for words."""
        return {r: p for monomials in self.monomials.values() for p, r in enumerate(monomials)}


@lru_cache(maxsize=1)
def _context(grid: Grid) -> _GridContext:
    return _GridContext(grid)


def schubert_basis(grid: Grid) -> dict[int, list[int]]:
    """Bead words of the grid's partitions by degree, in the canonical basis order."""
    return _context(grid).basis


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
    last term was kept when w^u was built.  Each D(w_k) is converted once;
    w^u D(w_k) comes from it by the Pieri chain walk, peeling w_k last, so
    a cofactor's prefix is a smaller monomial's cofactor at most d degrees
    below, and older images and buckets are dropped.  Forward substitution
    then solves the basis change: the monomial of the word at index i is
    s_i plus classes at larger indices, solved before it in ascending word
    order.  ``steps`` holds what of this T does not change.  A basis change
    that is not unitriangular is a ``RuntimeError``, even if the map is 0.
    """
    ctx = _context(grid)
    bases = []
    for k, poly in enumerate([one, *images]):
        base = 0
        for v in poly:
            base ^= ctx.convert(v, shift + k)
        bases.append(base)
    steps = [ctx.steps(t) for t in range(grid.top_degree - shift + 1)]
    if not any(bases):
        return GradedMap(shift, ctx.spaces)
    chains = {k: {shift + k: {0: base}} for k, base in enumerate(bases) if k}
    # by degree and position of r: (T(w^r), w^(r - e_k) D(w_k) for odd r_k, else 0)
    image: dict[int, list[tuple[int, int]]] = {}
    blocks: dict[int, tuple[int, ...]] = {}
    for t, degree in enumerate(steps):
        s = t + shift
        pieri = {k: ctx.pieri_block(k, s - k) for k in {step[2] for step in degree} - {0}}
        cols = [0] * len(degree)
        done = image[t] = []
        for i, mask, k, p, u, unit, odd in degree:
            out, term = bases[0], 0
            if k:
                low, below = image[t - k][p]
                if odd and k in chains:
                    term = ctx.product(chains[k], u, s, unit)
                out = column_product(pieri[k], low if odd else low ^ below) ^ term
            done.append((out, term))
            cols[i] = out ^ column_product(cols, mask)
        blocks[t] = tuple(cols)
        image.pop(t - grid.d, None)
        for k, chain in chains.items():
            for old in [old for old in chain if shift + k < old <= s - grid.d]:
                del chain[old]
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
