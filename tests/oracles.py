"""Reference implementations that tests compare the library against.

The strip rule here is the generate-and-filter form: every grid partition
above lam at the right distance, each tested span by span.  The library's
``lenart_strips`` walks the odd-coefficient strips directly instead.  The
skew-shape layer, the dense rank and the total square serve only as
oracles and test helpers; the library itself works on bit-packed vectors
and on bead words, and ``word``/``partition`` translate between a bead
word and the partition tuple the oracles use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from grqn.homology import _echelon
from grqn.schubert import Grid, _context
from grqn.steenrod import Polynomial, monomial_degree, sq
from grqn.young import partitions_in_grid

Partition = tuple[int, ...]
Cell = tuple[int, int]

SHARP = "sharp"
DULL = "dull"


class NotContained(ValueError):
    """Raised when the inner shape of a skew pair sticks out of the outer one."""


class InvalidStrip(ValueError):
    """Raised when corner extraction is asked of a shape with a 2x2 block."""


# --- bead words and partitions ------------------------------------------------


def word(lam: Partition, d: int) -> int:
    """The bead word of lam in a grid of d rows: row i's bead at bit lam_i + d - 1 - i."""
    padded = tuple(lam) + (0,) * (d - len(lam))
    return sum(1 << padded[i] + d - 1 - i for i in range(d))


def partition(w: int, d: int) -> Partition:
    """The partition whose bead word in a grid of d rows is w."""
    beads = [p for p in range(w.bit_length() - 1, -1, -1) if w >> p & 1]
    assert len(beads) == d, (w, d)
    return tuple(p - (d - 1 - i) for i, p in enumerate(beads) if p > d - 1 - i)


def conjugate(w: int, m: int) -> int:
    """The bead word of the conjugate partition: the m bits reversed and complemented."""
    return sum(1 << m - 1 - p for p in range(m) if not w >> p & 1)


def grid_partitions(d: int, c: int) -> list[Partition]:
    """The grid's partitions as tuples, in the library's basis order."""
    return [partition(w, d) for words in partitions_in_grid(d, c).values() for w in words]


# --- partitions and skew shapes ----------------------------------------------


def check_partition(parts: tuple[int, ...]) -> Partition:
    """Validate weak decrease and positivity; returns the tuple unchanged."""
    for i, p in enumerate(parts):
        if p <= 0:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and p > parts[i - 1]:
            raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def transpose(lam: Partition) -> Partition:
    """The conjugate partition: column lengths become row lengths."""
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def _extensions(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """All grid partitions containing lam with exactly k extra boxes.

    Emitted in lexicographically descending order, which makes the
    concatenation over k the canonical graded basis order.
    """
    base = list(lam) + [0] * (d - len(lam))
    out: list[Partition] = []
    row = [0] * d

    def rec(i: int, rem: int, prev: int) -> None:
        if i == d:
            if rem == 0:
                j = d
                while j and row[j - 1] == 0:
                    j -= 1
                out.append(tuple(row[:j]))
            return
        lo = base[i]
        hi = min(prev, lo + rem)
        for v in range(hi, lo - 1, -1):
            row[i] = v
            rec(i + 1, rem - (v - lo), v)
        row[i] = 0

    if d == 0:
        return [()] if k == 0 else []
    rec(0, k, c)
    return out


@dataclass(frozen=True)
class SkewShape:
    """The cells of ``outer`` not in ``inner``."""

    inner: Partition
    outer: Partition

    @cached_property
    def cells(self) -> frozenset[Cell]:
        out = set()
        for i, hi in enumerate(self.outer, start=1):
            lo = self.inner[i - 1] if i <= len(self.inner) else 0
            out.update((i, j) for j in range(lo + 1, hi + 1))
        return frozenset(out)

    @cached_property
    def row_spans(self) -> tuple[tuple[int, int, int], ...]:
        """Nonempty rows as ``(row, lo, hi)`` with cells in columns lo+1..hi."""
        spans = []
        for i, hi in enumerate(self.outer, start=1):
            lo = self.inner[i - 1] if i <= len(self.inner) else 0
            if hi > lo:
                spans.append((i, lo, hi))
        return tuple(spans)


@dataclass(frozen=True)
class StripClass:
    """Border-strip classification; ``components`` is None on a 2x2 block."""

    components: int | None

    @property
    def is_broken_border_strip(self) -> bool:
        return self.components is not None


NOT_BROKEN_BORDER_STRIP = StripClass(None)


def skew(outer: Partition, inner: Partition) -> SkewShape:
    check_partition(outer)
    check_partition(inner)
    if not contains(outer, inner):
        raise NotContained(f"{inner} is not contained in {outer}")
    return SkewShape(inner, outer)


def content(b: Cell) -> int:
    """Column minus row."""
    return b[1] - b[0]


def classify_strip(s: SkewShape) -> StripClass:
    """No-2x2-block test plus a count of edge-connected components.

    Rows of a skew shape are contiguous intervals, so both questions reduce
    to the overlap of consecutive row spans.
    """
    spans = s.row_spans
    if not spans:
        return StripClass(0)
    comps = 1
    for (i1, lo1, _hi1), (i2, _lo2, hi2) in zip(spans, spans[1:]):
        if i2 != i1 + 1:
            comps += 1
            continue
        overlap = hi2 - lo1
        if overlap >= 2:
            return NOT_BROKEN_BORDER_STRIP
        if overlap <= 0:
            comps += 1
    return StripClass(comps)


def corners(s: SkewShape) -> list[tuple[Cell, str]]:
    """Sharp and dull corners of a broken border strip, sorted by position.

    Sharp: no north, west or northwest neighbour.  Dull: north and west
    neighbours but no northwest one.
    """
    if not classify_strip(s).is_broken_border_strip:
        raise InvalidStrip("corners are only defined for broken border strips")
    spans = s.row_spans
    found: list[tuple[Cell, str]] = []
    for idx, (i, lo, hi) in enumerate(spans):
        above = spans[idx - 1] if idx and spans[idx - 1][0] == i - 1 else None
        if above is None or above[1] != lo:
            found.append(((i, lo + 1), SHARP))
        if above is not None and above[1] >= lo + 1 and above[1] + 1 <= hi:
            found.append(((i, above[1] + 1), DULL))
    found.sort()
    return found


# --- the strip rule ------------------------------------------------------------


def covers_at_distance(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """Grid partitions mu containing lam with |mu| - |lam| = k."""
    if k <= 0:
        raise ValueError(f"distance must be positive, got {k}")
    if len(lam) > d or (lam and lam[0] > c):
        raise ValueError(f"{lam} does not fit in a {d}x{c} grid")
    return _extensions(lam, k, d, c)


def lenart_coefficient(lam: Partition, mu: Partition) -> int:
    """Mod-2 border-strip coefficient of s_mu in the image of s_lam.

    Zero unless mu/lam is a broken border strip with at most two components;
    one for two components; for a single component, the parity of the total
    content of the sharp and dull corners.
    """
    if not contains(mu, lam):
        raise NotContained(f"{lam} is not contained in {mu}")
    spans = []
    for i, hi in enumerate(mu, start=1):
        lo = lam[i - 1] if i <= len(lam) else 0
        if hi > lo:
            spans.append((i, lo, hi))
    if not spans:
        return 0
    comps = 1
    for (i1, lo1, _hi1), (i2, _lo2, hi2) in zip(spans, spans[1:]):
        if i2 != i1 + 1:
            comps += 1
            continue
        overlap = hi2 - lo1
        if overlap >= 2:
            return 0
        if overlap <= 0:
            comps += 1
    if comps > 2:
        return 0
    if comps == 2:
        return 1
    total = 0
    for idx, (i, lo, hi) in enumerate(spans):
        above = spans[idx - 1] if idx and spans[idx - 1][0] == i - 1 else None
        if above is None or above[1] != lo:
            total += lo + 1 - i
        if above is not None and above[1] >= lo + 1 and above[1] + 1 <= hi:
            total += above[1] + 1 - i
    return total & 1


def filtered_strips(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """The candidates above lam whose strip coefficient is one."""
    return [mu for mu in covers_at_distance(lam, k, d, c) if lenart_coefficient(lam, mu)]


# --- bit-packed vectors read back as sets --------------------------------------


def decode(mask: int, basis: Sequence[int]) -> set[int]:
    """The words whose positions in ``basis`` are set in ``mask``."""
    return {w for k, w in enumerate(basis) if mask >> k & 1}


def schubert_support(p: Polynomial, grid: Grid) -> set[Partition]:
    """The Schubert classes of p's image in the grid's quotient ring."""
    ctx = _context(grid)
    out: set[int] = set()
    for r in p.terms:
        t = monomial_degree(r)
        out ^= decode(ctx.convert(ctx.pack(r), t), ctx.basis.get(t, []))
    return {partition(w, grid.d) for w in out}


# --- dense linear algebra and the total square -----------------------------------


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over F_2 of a dense 0/1 matrix given as rows."""
    packed = []
    for row in matrix:
        bits = 0
        for j, entry in enumerate(row):
            if entry & 1:
                bits |= 1 << j
        packed.append(bits)
    return len(_echelon(packed))


def total_sq(p: Polynomial) -> Polynomial:
    """Sum of all squares of p; finite by instability."""
    acc = p
    top = max((monomial_degree(r) for r in p.terms), default=0)
    for i in range(1, top + 1):
        acc = acc + sq(i, p)
    return acc
