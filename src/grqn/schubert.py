"""The truncated cohomology ring of a finite Grassmannian in the Schubert basis.

Two independent constructions of the degree-raising primitive are provided:
the border-strip coefficient formula applied directly to Schubert classes,
and Q_n as a derivation on Stiefel-Whitney monomials, with generator images
from power sums (see ``steenrod``), conjugated into the Schubert basis.
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
Per-grid state (both bases, their dimensions, that index, multiplication
blocks and the conversion cache) is kept for the last grid used only, as
every command uses its grids one after another; all cached values are
deterministic, so concurrent use cannot produce divergent results.
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
    grid: Grid, shift: int, parts: list[tuple[int | None, Iterable[int]]]
) -> GradedMap:
    """Matrix of a free-ring operator pushed to the Schubert basis.

    The operator is a sum of parts, each a packed polynomial p with a
    generator j or None: (j, p) sends a monomial w^r with r_j odd to
    w^(r - e_j) * p and every other monomial to 0, and (None, p) sends w^r
    to w^r * p.  Each p has degree shift, plus j for a generator.  It is
    converted to the Schubert basis once, and the products are reached from
    it through the Pieri chain walk, output degree by output degree: after
    degree s no later product has a direct prefix of degree s - d or less,
    so those buckets are dropped.  The result is pushed through the grid's
    basis change by forward substitution: the monomial of the word at index
    i converts to s_i plus classes at larger indices, solved before it in
    ascending word order, so the operator's column i is the monomial's
    image plus their columns.  A basis change that is not unitriangular is a
    ``RuntimeError``.
    """
    ctx = _context(grid)
    slot, d = grid.slot, grid.d
    # (bit, t0, chain): w^r takes part in the chain iff it holds bit, the
    # low bit of r_j (0 for no generator), and its cofactor is w^r - bit.
    # Peeling w_j last, a cofactor's prefix is the cofactor of a smaller
    # basis monomial, cached at most d degrees below.
    chains = []
    for j, poly in parts:
        t0 = shift + (j or 0)
        base = 0
        for v in poly:
            base ^= ctx.convert(v, t0)
        if base:
            chains.append((1 << slot * (j - 1) if j else 0, t0, {t0: {0: base}}))
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(grid.top_degree - shift + 1):
        s = t + shift
        monomials = ctx.monomials[t]
        cols = [0] * len(monomials)
        for i, r in zip(reversed(range(len(cols))), monomials):
            out = 0
            for bit, _, chain in chains:
                if r & bit == bit:
                    out ^= ctx.product(chain, r - bit, s, bit)
            b = ctx.convert(r, t)
            if b & (2 << i) - 1 != 1 << i:
                raise RuntimeError(
                    f"basis change at degree {t} of grid {grid.d}x{grid.c} is not unitriangular"
                )
            cols[i] = out ^ column_product(cols, b ^ 1 << i)
        blocks[t] = tuple(cols)
        for _, t0, chain in chains:
            for k in [k for k in chain if t0 < k <= s - d]:
                del chain[k]
    return GradedMap(shift, ctx.spaces, blocks)


def derivation_parts(n: int, grid: Grid) -> list[tuple[int | None, set[int]]]:
    """Q_n on the grid's monomials as a derivation: the part (j, Q_n(w_j)) per generator.

    Q_n(w^r) is the sum of w^(r - e_j) * Q_n(w_j) over each j with r_j odd.
    Generators whose image passes the top degree appear in no image the
    matrix needs, so their images are never built.
    """
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    count = min(grid.d, grid.top_degree - 2 ** (n + 1) + 1)
    return list(enumerate(steenrod.milnor_q_generators(n, grid.d, grid.slot, count), start=1))


def derivation_qn_matrix(n: int, grid: Grid) -> GradedMap:
    """The primitive's matrix from the derivation route."""
    return free_operator_matrix(grid, 2 ** (n + 1) - 1, derivation_parts(n, grid))
