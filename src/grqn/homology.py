"""Graded F_2 linear algebra for degree-shifting differentials.

Matrices are stored per cohomological degree as tuples of column bitmasks
packed into Python ints, so elimination works a full row of bits at a time.
Degree blocks never get assembled into one big matrix.  This is the
package's only GF(2) linear algebra: other modules take their column
products from here, and their induced maps on chosen basis vectors from
``GradedMap.restrict``.  The one basis change the package makes is
unitriangular, and ``schubert`` solves it by forward substitution.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence


class NotADifferential(RuntimeError):
    """Raised when a map fed to homology fails M o M = 0."""


def _echelon(cols: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span, keyed by leading bit."""
    pivots: dict[int, int] = {}
    for v in cols:
        while v:
            b = v.bit_length() - 1
            p = pivots.get(b)
            if p is None:
                pivots[b] = v
                break
            v ^= p
    return pivots


# _BYTE_BITS[b]: the set bits of the byte b, lowest first; pass i adds bit i
# to every entry below 2^i, giving the entries from 2^i to 2^(i+1) - 1
_BYTE_BITS = [b""]
for _bit in range(8):
    _BYTE_BITS += [bits + bytes((_bit,)) for bits in _BYTE_BITS]


def column_product(cols: Sequence[int], mask: int) -> int:
    """The image of the vector ``mask`` under the matrix with columns ``cols``.

    A mask with fewer than one set bit in 32 takes its bits one at a time,
    lowest first.  Each such step rebuilds the mask, so a denser mask is
    read a byte at a time instead, skipping zero bytes.
    """
    out = 0
    if mask.bit_count() << 5 < mask.bit_length():
        while mask:
            low = mask & -mask
            out ^= cols[low.bit_length() - 1]
            mask ^= low
        return out
    base = 0
    for byte in mask.to_bytes(mask.bit_length() + 7 >> 3, "little"):
        if byte:
            for i in _BYTE_BITS[byte]:
                out ^= cols[base + i]
        base += 8
    return out


class GradedMap(namedtuple("GradedMap", "shift spaces blocks")):
    """A degree-raising square-zero map, one F_2 block per degree.

    ``spaces`` records positive per-degree dimensions; ``blocks[t]`` holds
    one column bitmask per degree-t basis vector, bits indexing the basis in
    degree ``t + shift``.  Blocks exist exactly where both sides have
    positive dimension, so equal maps compare equal as plain values, and
    ``GradedMap(*tuple(gm)) == gm``.
    """

    __slots__ = ()

    def __new__(
        cls,
        shift: int,
        spaces: dict[int, int] | None = None,
        blocks: dict[int, tuple[int, ...]] | None = None,
    ) -> "GradedMap":
        given = blocks or {}
        spaces = {t: n for t, n in sorted((spaces or {}).items()) if n > 0}
        blocks = {}
        for t, n in spaces.items():
            if spaces.get(t + shift, 0) > 0:
                cols = tuple(given.get(t, ())) or (0,) * n
                if len(cols) != n:
                    raise ValueError(f"block at degree {t} has {len(cols)} columns, expected {n}")
                blocks[t] = cols
        return cls._make((shift, spaces, blocks))

    def compose_is_zero(self) -> bool:
        """Check the differential law: the block at t+shift kills every image."""
        for t, cols in self.blocks.items():
            nxt = self.blocks.get(t + self.shift)
            if nxt and any(column_product(nxt, col) for col in cols):
                return False
        return True

    def shifted(self, k: int) -> "GradedMap":
        """The same map with every degree raised by ``k``."""
        blocks = {t + k: cols for t, cols in self.blocks.items()}
        return GradedMap(self.shift, {t + k: n for t, n in self.spaces.items()}, blocks)

    def restrict(self, keep: dict[int, list[int]]) -> "GradedMap":
        """The induced map on the basis vectors at ``keep[t]`` in each degree t, in that order.

        Bits off the kept rows are dropped: when the other vectors span a
        differential ideal, this is the map on the quotient, and when the
        kept ones span a subcomplex, the map on it.  Rows kept as one
        ascending run are cut by a shift, and a mask if the run ends below
        the top; other rows are taken through ``column_product``.
        """
        blocks: dict[int, tuple[int, ...]] = {}
        ramp = [*range(max(self.spaces.values(), default=0))]  # runs to compare rows with
        for t, cols in self.blocks.items():
            rows, at = keep.get(t + self.shift), keep.get(t)
            if not (rows and at):
                continue
            low, high = rows[0], rows[0] + len(rows)
            if rows != ramp[low:high]:
                units = [0] * self.spaces[t + self.shift]
                for i, row in enumerate(rows):
                    units[row] = 1 << i
                blocks[t] = tuple(column_product(units, cols[i]) for i in at)
            elif high < self.spaces[t + self.shift]:
                mask = (1 << high) - 1
                blocks[t] = tuple((cols[i] & mask) >> low for i in at)
            else:
                blocks[t] = tuple(cols[i] >> low for i in at)
        return GradedMap(self.shift, {t: len(at) for t, at in keep.items()}, blocks)


class HomologyProfile(namedtuple("HomologyProfile", "per_degree total")):
    """Per-degree homology dimensions, a dict with zero degrees omitted, and their total."""

    __slots__ = ()

    def dim(self, t: int) -> int:
        return self.per_degree.get(t, 0)


def qn_homology(gm: GradedMap) -> HomologyProfile:
    """Homology dimensions of a square-zero graded map.

    Per degree: dim - rank(outgoing) - rank(incoming).  Blocks are ranked
    in increasing degree.  The echelon of block t - shift lies in the
    kernel of block t, and with the unit vectors off its leading bits it
    spans degree t, so block t is ranked on those columns alone, and no
    dimension comes out negative.
    """
    if not gm.compose_is_zero():
        raise NotADifferential("composite of consecutive blocks is nonzero")
    ranks, leads = {}, {}
    for t, cols in gm.blocks.items():
        lead = leads.pop(t - gm.shift, ())
        leads[t] = set(_echelon(col for i, col in enumerate(cols) if i not in lead))
        ranks[t] = len(leads[t])
    per_degree: dict[int, int] = {}
    total = 0
    for t, n in gm.spaces.items():
        h = n - ranks.get(t, 0) - ranks.get(t - gm.shift, 0)
        if h:
            per_degree[t] = h
        total += h
    return HomologyProfile(per_degree, total)
