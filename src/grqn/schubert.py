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
with one w_j per column of length j.  Per-grid state (both bases,
multiplication blocks, the conversion cache and each degree's inverse
basis change) is kept in a small LRU of immutable-once-built contexts;
all cached values are deterministic, so concurrent use cannot produce
divergent results.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import steenrod
from .homology import GradedMap, column_product, invert
from .young import bits, lenart_strips, partitions_in_grid, vertical_strips


@dataclass(frozen=True)
class Grid:
    """A d x c Young-diagram frame for Gr_d(R^m) with c = m - d."""

    d: int
    c: int

    def __post_init__(self) -> None:
        if self.d < 0 or self.c < 0:
            raise ValueError(f"grid sides must be nonnegative: {self.d}x{self.c}")

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
        self.basis = partitions_in_grid(grid.d, grid.c)
        self.index = {t: {w: i for i, w in enumerate(words)} for t, words in self.basis.items()}
        self._pieri: dict[tuple[int, int], tuple[int, ...]] = {}
        self._convert: dict[int, int] = {0: 1}
        self._inverse: dict[int, list[int]] = {}

    def pieri_block(self, j: int, t: int) -> tuple[int, ...]:
        """Columns of multiplication by w_j from degree t to degree t + j."""
        key = (j, t)
        cached = self._pieri.get(key)
        if cached is not None:
            return cached
        target, m = self.index.get(t + j, {}), self.grid.m
        block = tuple(
            sum(1 << target[mu] for mu in vertical_strips(word, j, m))
            for word in self.basis.get(t, [])
        )
        self._pieri[key] = block
        return block

    def convert(self, u: int, t: int) -> int:
        """Bitmask of the Schubert expansion of the degree-t packed monomial u.

        Zero when the image dies in the quotient.  Peels the top generator
        down to a monomial already converted, then multiplies back up one
        Pieri block at a time, caching every prefix on the way.
        """
        if t > self.grid.top_degree:
            return 0
        cache = self._convert
        out = cache.get(u)
        if out is not None:
            return out
        slot = self.grid.slot
        peeled = []
        while out is None:
            j = (u.bit_length() - 1) // slot + 1
            peeled.append((u, j))
            u -= 1 << slot * (j - 1)
            t -= j
            out = cache.get(u)
        for v, j in reversed(peeled):
            out = column_product(self.pieri_block(j, t), out)
            cache[v] = out
            t += j
        return out

    @cached_property
    def monomials(self) -> dict[int, list[int]]:
        """Packed monomial basis by degree, one per word, in ascending word order.

        The word of lam gives w_1^(lam_1 - lam_2)..w_d^(lam_d): r_j counts the
        empty slots between beads j - 1 and j (from the top, from 0), and r_d
        is the lowest bead's slot.  This is a bijection onto the monomials with
        at most c factors.  In descending order ``invert`` takes over twice as long.
        """
        d, slot = self.grid.d, self.grid.slot

        def monomial(w: int) -> int:
            beads = [*bits(w), -1]
            return sum(beads[j] - beads[j + 1] - 1 << slot * j for j in range(d))

        return {t: [monomial(w) for w in reversed(words)] for t, words in self.basis.items()}

    def inverse(self, t: int) -> list[int]:
        """Columns of the inverse of the degree-t monomial-to-Schubert change."""
        cached = self._inverse.get(t)
        if cached is not None:
            return cached
        inv = invert([self.convert(r, t) for r in self.monomials[t]])
        self._inverse[t] = inv
        return inv


@lru_cache(maxsize=16)
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
    spaces = {t: len(words) for t, words in ctx.basis.items()}
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(grid.top_degree - shift + 1):
        target = ctx.index[t + shift]
        blocks[t] = tuple(
            sum(1 << target[mu] for mu in lenart_strips(word, shift, d, m))
            for word in ctx.basis[t]
        )
    return GradedMap(shift, spaces, blocks)


def free_operator_matrix(
    grid: Grid, shift: int, image: Callable[[int], Iterable[int]]
) -> GradedMap:
    """Matrix of a free-ring operator pushed to the Schubert basis.

    ``image`` maps a packed basis monomial of degree t to the packed terms of
    its value, all of degree t + shift, with multiplicity: conversion is
    linear over F_2, so the terms' masks are XORed.  The result is conjugated
    through the grid's basis change, inverted once per degree and kept.
    """
    ctx = _context(grid)
    spaces = {t: len(words) for t, words in ctx.basis.items()}
    blocks: dict[int, tuple[int, ...]] = {}
    for t in range(grid.top_degree - shift + 1):
        s = t + shift
        c_cols = []
        for r in ctx.monomials[t]:
            out = 0
            for u in image(r):
                out ^= ctx.convert(u, s)
            c_cols.append(out)
        blocks[t] = tuple(column_product(c_cols, x) for x in ctx.inverse(t))
    return GradedMap(shift, spaces, blocks)


def derivation_image(n: int, grid: Grid) -> Callable[[int], list[int]]:
    """Q_n on the grid's packed monomials, extended from generators as a derivation.

    The image of w^r lists w^(r - e_j) * Q_n(w_j) over each j with r_j odd.
    Generators whose image passes the top degree appear in no image the
    matrix needs, so their images are never built.
    """
    if n < 0:
        raise ValueError(f"primitive index must be nonnegative, got {n}")
    count, slot = min(grid.d, grid.top_degree - 2 ** (n + 1) + 1), grid.slot
    gens = [
        (slot * j, 1 << slot * j, terms)
        for j, terms in enumerate(steenrod.milnor_q_generators(n, grid.d, slot, count))
    ]

    def image(r: int) -> list[int]:
        return [r - unit + v for offset, unit, terms in gens if r >> offset & 1 for v in terms]

    return image


def derivation_qn_matrix(n: int, grid: Grid) -> GradedMap:
    """The primitive's matrix from the derivation route."""
    image = derivation_image(n, grid)
    return free_operator_matrix(grid, 2 ** (n + 1) - 1, image)
