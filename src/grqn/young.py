"""Partition and skew-shape combinatorics for the border-strip calculus.

Partitions are plain tuples of weakly decreasing positive integers; cells are
1-based ``(row, col)`` pairs.  Everything is a pure value, safe to share
between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

Partition = tuple[int, ...]
Cell = tuple[int, int]

SHARP = "sharp"
DULL = "dull"


class NotContained(ValueError):
    """Raised when the inner shape of a skew pair sticks out of the outer one."""


class InvalidStrip(ValueError):
    """Raised when corner extraction is asked of a shape with a 2x2 block."""


def check_partition(parts: tuple[int, ...]) -> Partition:
    """Validate weak decrease and positivity; returns the tuple unchanged."""
    for i, p in enumerate(parts):
        if p <= 0:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and p > parts[i - 1]:
            raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


def weight(p: Partition) -> int:
    return sum(p)


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


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


def partitions_in_grid(d: int, c: int) -> list[Partition]:
    """All partitions with at most d parts, each at most c.

    Graded by weight, lexicographically descending within a weight; the list
    has length C(d + c, d).
    """
    if d < 0 or c < 0:
        raise ValueError(f"grid sides must be nonnegative: {d}x{c}")
    out: list[Partition] = []
    for t in range(d * c + 1):
        out.extend(_extensions((), t, d, c))
    return out


def lenart_strips(lam: Partition, k: int, d: int, c: int) -> list[Partition]:
    """Grid partitions mu with k more boxes than lam and odd strip coefficient.

    The mod-2 border-strip coefficient of s_mu in the image of s_lam is zero
    unless mu/lam is a broken border strip with one or two ribbons (edge-
    connected components); it is one for two ribbons, and for one ribbon the
    parity of the contents of its sharp and dull corners.  So the walk places
    whole ribbons, top to bottom, and emits nothing else.

    With rows numbered from 0 and lam padded to d rows: a ribbon on rows
    a..b has mu_i = lam_{i-1} + 1 on each row below a (one more box would
    make a 2x2 block, one fewer would break it), so its size s fixes its top
    row at mu_a = s + lam_b - (b - a).  That top must exceed lam_a and stay
    at most lam_{a-1} (c on row 0): further right it would touch or overhang
    the row above.  Only rows where lam has an addable box can start one.
    Below row a each pair of consecutive rows adds corner contents of
    parity lam_{i-1} + lam_i, which telescopes, so a single ribbon's
    coefficient is lam_b + a mod 2.  ``lam`` must fit the d x c grid; each
    mu is listed once, in no particular order.
    """
    base = lam + (0,) * (d - len(lam))
    step = tuple(p + 1 for p in base)
    starts: list[tuple[int, int, int]] = []
    # room[j]: the largest ribbon that can start on row j or below
    room = [0] * (d + 1)
    for a in range(d - 1, -1, -1):
        cap = base[a - 1] if a else c
        room[a] = room[a + 1]
        if cap > base[a]:
            starts.append((a, base[a], cap))
            room[a] = max(room[a], cap - base[-1] + d - 1 - a)
    starts.reverse()
    out: list[Partition] = []
    for i, (a1, lo1, cap1) in enumerate(starts):
        if cap1 - base[-1] + d - 1 - a1 + room[a1 + 1] < k:
            continue  # the rows from a1 down cannot hold k boxes
        head = base[:a1]
        for b1 in range(a1, d):
            off1 = base[b1] - b1 + a1
            if lo1 - off1 >= k:
                break
            top = k + off1
            if top <= cap1 and (base[b1] + a1) & 1:
                out.append(head + (top,) + step[a1:b1] + lam[b1 + 1 :])
            # second ribbon below: its size k - s1 must fit in room[b1 + 1]
            for top1 in range(max(lo1 + 1, top - room[b1 + 1]), min(cap1, top - 1) + 1):
                rem = top - top1
                first = head + (top1,) + step[a1:b1]
                for a2, lo2, cap2 in starts[i + 1 :]:
                    if a2 <= b1:
                        continue
                    mid = first + base[b1 + 1 : a2]
                    for b2 in range(a2, d):
                        top2 = rem + base[b2] - b2 + a2
                        if top2 <= lo2:
                            break
                        if top2 <= cap2:
                            out.append(mid + (top2,) + step[a2:b2] + lam[b2 + 1 :])
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
